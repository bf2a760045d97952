//! Lightweight raw-TCP RPC load generator.
//!
//! The paper's scalability experiments drive the server with banks of
//! client machines whose stacks are *not* under test (e.g. Fig. 4's 96K
//! connections, Fig. 8's 32K). Simulating a full per-connection TCP engine
//! on the client side would cost far more memory than the server under
//! test; this host instead speaks minimal-but-correct TCP directly
//! through the crate's `raw` engine, with one outstanding request
//! per connection and each ACK piggybacked on the next request. The
//! client consumes no modeled CPU — exactly like the paper's assumption
//! that clients are never the bottleneck.

use crate::raw::{Profile, RawClient, RawConn, Rx, WATCHDOG};
use std::net::{Ipv4Addr, SocketAddrV4};
use tas_netsim::{HostNic, NetMsg, NicConfig};
use tas_proto::{MacAddr, PayloadBuf, Segment};
use tas_sim::{impl_as_any, Agent, Ctx, Event, Histogram, SimTime};

/// Timer kinds.
pub mod timers {
    /// Start timer: begin staggered connection setup.
    pub const INIT: u32 = 0;
    /// Open the next batch of connections; data = next index.
    pub const CONNECT: u32 = 1;
    /// Watchdog sweep for stalled requests.
    pub const WATCHDOG: u32 = 2;
    /// Per-connection think-time expiry; data = connection index.
    pub const FIRE: u32 = 3;
}

/// Load generator configuration.
#[derive(Clone, Debug)]
pub struct LoadGenConfig {
    /// Server address.
    pub server: Ipv4Addr,
    /// Server port.
    pub port: u16,
    /// Number of connections.
    pub conns: u32,
    /// Request payload bytes.
    pub req_size: usize,
    /// Expected response payload bytes.
    pub resp_size: usize,
    /// Connections opened per millisecond during ramp-up.
    pub connects_per_ms: u32,
    /// Request payload template; when `None`, requests are 0x42 filler.
    /// When set, its length overrides `req_size`.
    pub req_template: Option<Vec<u8>>,
    /// Stop issuing new requests after this instant (0 = never) — used by
    /// the proportionality experiment to step load down.
    pub stop_at: SimTime,
    /// Think time between a response and the next request on a
    /// connection (0 = immediate closed loop).
    pub think: SimTime,
}

impl Default for LoadGenConfig {
    fn default() -> Self {
        LoadGenConfig {
            server: Ipv4Addr::UNSPECIFIED,
            port: 7,
            conns: 1,
            req_size: 64,
            resp_size: 64,
            connects_per_ms: 400,
            req_template: None,
            stop_at: SimTime::ZERO,
            think: SimTime::ZERO,
        }
    }
}

/// The window-scale shift the generator's SYNs offer.
const WSCALE: u8 = 7;

/// The advertised receive window, 256 KiB scaled by [`WSCALE`].
const WINDOW: u16 = ((256 * 1024) >> WSCALE) as u16;

/// Local ports 1024 onwards, wrapping after 64,000.
const PROFILE: Profile = Profile {
    base: 1024,
    ports: 64_000,
    wscale: Some(WSCALE),
};

/// The load-generator host agent.
pub struct LoadGenHost {
    cfg: LoadGenConfig,
    raw: RawClient,
    /// Completed request/response exchanges.
    pub done: u64,
    /// Requests sent (first transmissions).
    pub sent: u64,
    /// Request retransmissions by the watchdog.
    pub rexmits: u64,
    /// Established connections.
    pub established: u64,
    /// RPC latency histogram (ns).
    pub latency: Histogram,
    /// Warmup gate for latency recording.
    pub measure_from: SimTime,
    /// Resettable latency accumulator for time-series sampling (Fig. 15):
    /// harnesses read the mean and call [`LoadGenHost::reset_window`].
    pub window_lat_us: tas_sim::MeanVar,
}

impl LoadGenHost {
    /// Creates a load generator; inject [`timers::INIT`] to start it.
    pub fn new(
        ip: Ipv4Addr,
        mac: MacAddr,
        nic_cfg: NicConfig,
        uplink: tas_sim::AgentId,
        cfg: LoadGenConfig,
    ) -> Self {
        let nic = HostNic::new(mac, nic_cfg, uplink);
        let req = match &cfg.req_template {
            Some(t) => PayloadBuf::from_slice(t),
            None => PayloadBuf::with(cfg.req_size, |dst| dst.fill(0x42)),
        };
        let server = SocketAddrV4::new(cfg.server, cfg.port);
        let raw = RawClient::new(ip, mac, nic, server, PROFILE, req, cfg.resp_size);
        LoadGenHost {
            cfg,
            raw,
            done: 0,
            sent: 0,
            rexmits: 0,
            established: 0,
            latency: Histogram::new(),
            measure_from: SimTime::ZERO,
            window_lat_us: tas_sim::MeanVar::new(),
        }
    }

    /// Resets the windowed latency accumulator (time-series sampling).
    pub fn reset_window(&mut self) {
        self.window_lat_us = tas_sim::MeanVar::new();
    }

    /// Sets the stop time for new requests (0 = never).
    pub fn set_stop_at(&mut self, t: SimTime) {
        self.cfg.stop_at = t;
    }

    /// True until the stop time.
    fn issuing(&self, now: SimTime) -> bool {
        self.cfg.stop_at == SimTime::ZERO || now < self.cfg.stop_at
    }

    fn fire_request(&mut self, idx: u32, ctx: &mut Ctx<'_, NetMsg>) {
        self.raw.request(idx, WINDOW, ctx);
        self.sent += 1;
    }

    fn ack(&mut self, idx: u32, ctx: &mut Ctx<'_, NetMsg>) {
        let ack = self.raw.cum_ack(idx);
        self.raw.ack(idx, ack, WINDOW, ctx);
    }

    fn on_packet(&mut self, seg: Segment, ctx: &mut Ctx<'_, NetMsg>) {
        let now = ctx.now();
        match self.raw.receive(&seg, now) {
            Rx::Established(idx) => {
                self.established += 1;
                if self.issuing(now) {
                    self.fire_request(idx, ctx);
                } else {
                    self.ack(idx, ctx);
                }
            }
            Rx::Span { idx, got, .. } => {
                let sent_at = match self.raw.conn(idx) {
                    Some(c) if c.awaiting == 0 && got > 0 => c.sent_at,
                    _ => return self.ack(idx, ctx),
                };
                let rtt = now - sent_at;
                self.done += 1;
                if now >= self.measure_from {
                    self.latency.record_time(rtt);
                    self.window_lat_us.add(rtt.as_micros_f64());
                }
                if !self.issuing(now) {
                    return;
                }
                if self.cfg.think > SimTime::ZERO {
                    // Think, then fire; meanwhile acknowledge the response.
                    ctx.timer(self.cfg.think, timers::FIRE, idx as u64);
                    self.ack(idx, ctx);
                } else {
                    // The next request's data packet carries the cumulative ACK.
                    self.fire_request(idx, ctx);
                }
            }
            Rx::DupAck(idx) => self.ack(idx, ctx),
            Rx::Ignored => {}
        }
    }
}

impl Agent<NetMsg> for LoadGenHost {
    fn on_event(&mut self, ev: Event<NetMsg>, ctx: &mut Ctx<'_, NetMsg>) {
        match ev {
            Event::Msg {
                msg: NetMsg::Packet(seg),
                ..
            } => {
                // No CPU model: the loadgen host processes instantly.
                self.on_packet(seg, ctx);
            }
            Event::Timer {
                kind: timers::INIT, ..
            } => {
                ctx.timer(SimTime::ZERO, timers::CONNECT, 0);
                ctx.timer(WATCHDOG, timers::WATCHDOG, 0);
            }
            Event::Timer {
                kind: timers::CONNECT,
                data,
            } => {
                let start = data as u32;
                let end = (start + self.cfg.connects_per_ms).min(self.cfg.conns);
                for _ in start..end {
                    self.raw.open(ctx);
                }
                if end < self.cfg.conns {
                    ctx.timer(SimTime::from_ms(1), timers::CONNECT, end as u64);
                }
            }
            Event::Timer {
                kind: timers::WATCHDOG,
                ..
            } => {
                self.rexmits += self.raw.watchdog(ctx, || WINDOW);
                ctx.timer(WATCHDOG, timers::WATCHDOG, 0);
            }
            Event::Timer {
                kind: timers::FIRE,
                data,
            } => {
                let idx = data as u32;
                let idle = |c: &RawConn| c.established && c.awaiting == 0;
                if self.raw.conn(idx).is_some_and(idle) && self.issuing(ctx.now()) {
                    self.fire_request(idx, ctx);
                }
            }
            _ => {}
        }
    }

    impl_as_any!();
}
