//! Lightweight raw-TCP RPC load generator.
//!
//! The paper's scalability experiments drive the server with banks of
//! client machines whose stacks are *not* under test (e.g. Fig. 4's 96K
//! connections, Fig. 8's 32K). Simulating a full per-connection TCP engine
//! on the client side would cost far more memory than the server under
//! test; this host instead speaks minimal-but-correct TCP directly
//! (handshake with options, one outstanding request per connection,
//! per-packet ACKs with advertised windows, stall-based request
//! retransmission). The client consumes no modeled CPU — exactly like the
//! paper's assumption that clients are never the bottleneck.

use std::net::Ipv4Addr;
use tas_netsim::topo::mac_for_ip;
use tas_netsim::{HostNic, NetMsg, NicConfig};
use tas_proto::{FlowKey, MacAddr, PayloadBuf, Segment, Seq, TcpFlags, TcpHeader};
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
    /// Watchdog interval for stalled-request retransmission.
    pub watchdog: SimTime,
    /// Advertised receive window (bytes).
    pub adv_window: u32,
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
            watchdog: SimTime::from_ms(50),
            adv_window: 256 * 1024,
            req_template: None,
            stop_at: SimTime::ZERO,
            think: SimTime::ZERO,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LgState {
    SynSent,
    Established,
}

struct LgConn {
    state: LgState,
    local_port: u16,
    iss: Seq,
    irs: Seq,
    /// Bytes of request stream sent (stream offset past SYN).
    sent_off: u64,
    /// Bytes of request stream acked by the server.
    acked_off: u64,
    /// Bytes of response stream received in order.
    rcv_off: u64,
    /// Response bytes still expected for the current request.
    awaiting: usize,
    /// When the current request went out.
    sent_at: SimTime,
    ts_recent: u32,
    last_progress: SimTime,
}

impl LgConn {
    /// Our sequence number at request-stream offset `off`.
    fn seq_of(&self, off: u64) -> Seq {
        self.iss + 1 + off as u32
    }

    /// The server's sequence number at response-stream offset `off`.
    fn rcv_seq_of(&self, off: u64) -> Seq {
        self.irs + 1 + off as u32
    }
}

/// The load-generator host agent.
pub struct LoadGenHost {
    cfg: LoadGenConfig,
    ip: Ipv4Addr,
    mac: MacAddr,
    nic: HostNic,
    conns: Vec<LgConn>,
    /// Connection index by local port, at `port - 1024`. A port reused
    /// by a later connection maps to that one.
    by_port: Vec<Option<u32>>,
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
    wscale: u8,
}

const LG_WSCALE: u8 = 7;

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
        LoadGenHost {
            cfg,
            ip,
            mac,
            nic,
            conns: Vec::new(),
            by_port: Vec::new(),
            done: 0,
            sent: 0,
            rexmits: 0,
            established: 0,
            latency: Histogram::new(),
            measure_from: SimTime::ZERO,
            window_lat_us: tas_sim::MeanVar::new(),
            wscale: LG_WSCALE,
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

    fn header(&self, c: &LgConn, flags: TcpFlags, now: SimTime) -> TcpHeader {
        let mut h = TcpHeader::new(c.local_port, self.cfg.port, 0, 0, flags);
        h.seq = c.seq_of(c.sent_off);
        h.ack = c.rcv_seq_of(c.rcv_off);
        h.window = ((self.cfg.adv_window >> self.wscale) as u16).max(1);
        h.options.timestamp = Some((now.as_micros() as u32, c.ts_recent));
        h
    }

    fn tx(&mut self, seg: Segment, now: SimTime, ctx: &mut Ctx<'_, NetMsg>) {
        self.nic.tx(now, seg, ctx);
    }

    fn seg(&self, h: TcpHeader, payload: PayloadBuf) -> Segment {
        Segment::tcp(
            self.mac,
            mac_for_ip(self.cfg.server),
            self.ip,
            self.cfg.server,
            h,
            payload,
            false,
        )
    }

    fn open_connection(&mut self, idx: u32, now: SimTime, ctx: &mut Ctx<'_, NetMsg>) {
        let local_port = 1024 + (idx % 64_000) as u16;
        let c = LgConn {
            state: LgState::SynSent,
            local_port,
            iss: Seq(ctx.rng().next_u32()),
            irs: Seq(0),
            sent_off: 0,
            acked_off: 0,
            rcv_off: 0,
            awaiting: 0,
            sent_at: now,
            ts_recent: 0,
            last_progress: now,
        };
        let seg = self.syn(&c, now);
        let slot = (local_port - 1024) as usize;
        if slot >= self.by_port.len() {
            self.by_port.resize(slot + 1, None);
        }
        self.by_port[slot] = Some(self.conns.len() as u32);
        self.conns.push(c);
        self.tx(seg, now, ctx);
    }

    fn syn(&self, c: &LgConn, now: SimTime) -> Segment {
        let mut h = TcpHeader::new(c.local_port, self.cfg.port, c.iss.0, 0, TcpFlags::SYN);
        h.options.mss = Some(1448);
        h.options.wscale = Some(self.wscale);
        h.options.timestamp = Some((now.as_micros() as u32, 0));
        h.window = u16::MAX;
        self.seg(h, PayloadBuf::empty())
    }

    /// The request, built straight into a pooled payload buffer.
    fn request_payload(&self) -> PayloadBuf {
        match &self.cfg.req_template {
            Some(t) => PayloadBuf::from_slice(t),
            None => PayloadBuf::with(self.cfg.req_size, |dst| dst.fill(0x42)),
        }
    }

    fn fire_request(&mut self, idx: u32, now: SimTime, ctx: &mut Ctx<'_, NetMsg>) {
        let payload = self.request_payload();
        let h = self.header_for(idx, TcpFlags::ACK | TcpFlags::PSH, now);
        {
            let c = &mut self.conns[idx as usize];
            c.sent_off += payload.len() as u64;
            c.awaiting = self.cfg.resp_size;
            c.sent_at = now;
            c.last_progress = now;
        }
        self.sent += 1;
        let seg = self.seg(h, payload);
        self.tx(seg, now, ctx);
    }

    fn header_for(&self, idx: u32, flags: TcpFlags, now: SimTime) -> TcpHeader {
        self.header(&self.conns[idx as usize], flags, now)
    }

    fn on_packet(&mut self, seg: Segment, now: SimTime, ctx: &mut Ctx<'_, NetMsg>) {
        let key: FlowKey = seg.flow_key();
        let slot = key.local_port.checked_sub(1024).map(usize::from);
        let Some(&Some(idx)) = slot.and_then(|s| self.by_port.get(s)) else {
            return;
        };
        // Collect response actions to avoid aliasing.
        let mut send_ack = false;
        let mut fire_next = false;
        let mut completed_latency: Option<SimTime> = None;
        {
            let c = &mut self.conns[idx as usize];
            if let Some((tsval, _)) = seg.tcp.options.timestamp {
                c.ts_recent = tsval;
            }
            match c.state {
                LgState::SynSent => {
                    if seg.tcp.flags.contains(TcpFlags::SYN | TcpFlags::ACK)
                        && seg.tcp.ack == c.iss + 1
                    {
                        c.irs = seg.tcp.seq;
                        c.state = LgState::Established;
                        self.established += 1;
                        send_ack = true;
                        fire_next = true;
                    }
                }
                LgState::Established => {
                    // ACK processing for our requests.
                    if seg.tcp.flags.contains(TcpFlags::ACK) {
                        let una = c.seq_of(c.acked_off);
                        if seg.tcp.ack.gt(una) && seg.tcp.ack.le(c.seq_of(c.sent_off)) {
                            c.acked_off += (seg.tcp.ack - una) as u64;
                        }
                    }
                    // Response data.
                    if !seg.payload.is_empty() {
                        if seg.tcp.seq == c.rcv_seq_of(c.rcv_off) {
                            c.rcv_off += seg.payload.len() as u64;
                            c.last_progress = now;
                            let got = seg.payload.len().min(c.awaiting);
                            c.awaiting -= got;
                            if c.awaiting == 0 && got > 0 {
                                completed_latency = Some(c.sent_at);
                                fire_next = true;
                            } else {
                                send_ack = true;
                            }
                        } else {
                            // Old or out-of-order: plain dup-ACK.
                            send_ack = true;
                        }
                    }
                }
            }
        }
        if let Some(t0) = completed_latency {
            self.done += 1;
            if now >= self.measure_from {
                self.latency.record_time(now - t0);
                self.window_lat_us.add((now - t0).as_micros_f64());
            }
        }
        if fire_next
            && self.conns[idx as usize].state == LgState::Established
            && (self.cfg.stop_at == SimTime::ZERO || now < self.cfg.stop_at)
        {
            if self.cfg.think > SimTime::ZERO && completed_latency.is_some() {
                // Think, then fire; meanwhile acknowledge the response.
                ctx.timer(self.cfg.think, timers::FIRE, idx as u64);
                let h = self.header_for(idx, TcpFlags::ACK, now);
                let seg = self.seg(h, PayloadBuf::empty());
                self.tx(seg, now, ctx);
            } else {
                // The next request's data packet carries the cumulative ACK.
                self.fire_request(idx, now, ctx);
            }
        } else if send_ack {
            let h = self.header_for(idx, TcpFlags::ACK, now);
            let seg = self.seg(h, PayloadBuf::empty());
            self.tx(seg, now, ctx);
        }
    }

    fn watchdog(&mut self, now: SimTime, ctx: &mut Ctx<'_, NetMsg>) {
        let stall = self.cfg.watchdog;
        let mut to_resend: Vec<u32> = Vec::new();
        let mut to_reconnect: Vec<u32> = Vec::new();
        for (i, c) in self.conns.iter().enumerate() {
            match c.state {
                LgState::Established if c.awaiting > 0 && now - c.last_progress > stall => {
                    to_resend.push(i as u32);
                }
                LgState::SynSent if now - c.last_progress > stall => {
                    to_reconnect.push(i as u32);
                }
                _ => {}
            }
        }
        for idx in to_resend {
            // Retransmit the outstanding request from its first byte.
            self.rexmits += 1;
            let payload = self.request_payload();
            self.conns[idx as usize].last_progress = now;
            let c = &self.conns[idx as usize];
            let mut h = self.header(c, TcpFlags::ACK | TcpFlags::PSH, now);
            h.seq = c.seq_of(c.sent_off - payload.len() as u64);
            let seg = self.seg(h, payload);
            self.tx(seg, now, ctx);
        }
        for idx in to_reconnect {
            self.conns[idx as usize].last_progress = now;
            let seg = self.syn(&self.conns[idx as usize], now);
            self.tx(seg, now, ctx);
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
                let now = ctx.now();
                // No CPU model: the loadgen host processes instantly.
                self.on_packet(seg, now, ctx);
            }
            Event::Timer {
                kind: timers::INIT, ..
            } => {
                ctx.timer(SimTime::ZERO, timers::CONNECT, 0);
                ctx.timer(self.cfg.watchdog, timers::WATCHDOG, 0);
            }
            Event::Timer {
                kind: timers::CONNECT,
                data,
            } => {
                let now = ctx.now();
                let start = data as u32;
                let end = (start + self.cfg.connects_per_ms).min(self.cfg.conns);
                for i in start..end {
                    self.open_connection(i, now, ctx);
                }
                if end < self.cfg.conns {
                    ctx.timer(SimTime::from_ms(1), timers::CONNECT, end as u64);
                }
            }
            Event::Timer {
                kind: timers::WATCHDOG,
                ..
            } => {
                let now = ctx.now();
                self.watchdog(now, ctx);
                ctx.timer(self.cfg.watchdog, timers::WATCHDOG, 0);
            }
            Event::Timer {
                kind: timers::FIRE,
                data,
            } => {
                let now = ctx.now();
                let idx = data as u32;
                if (idx as usize) < self.conns.len()
                    && self.conns[idx as usize].state == LgState::Established
                    && self.conns[idx as usize].awaiting == 0
                    && (self.cfg.stop_at == SimTime::ZERO || now < self.cfg.stop_at)
                {
                    self.fire_request(idx, now, ctx);
                }
            }
            _ => {}
        }
    }

    impl_as_any!();
}
