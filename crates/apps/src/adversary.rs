//! Adversarial clients for the multi-tenant scenario suite.
//!
//! The paper's isolation claim (§3.6: per-flow fairness, per-flow state,
//! rate enforcement on the fast path) is only meaningful against clients
//! that misbehave. Three classics, each stressing a different resource:
//!
//! * [`SlowReader`] — requests data and never reads it, pinning its own
//!   rx byte-ring full so the server's per-flow tx state stays occupied
//!   at zero window (a receive-livelock / buffer-squatting attack).
//! * ACK division ([`AdvMode::AckDivision`]) — acknowledges responses in
//!   sub-MSS slivers, multiplying the server's per-ACK fast-path work
//!   per byte of useful payload (Savage et al., CCR '99).
//! * Window stuffing ([`AdvMode::WindowStuff`]) — advertises a hostile
//!   receive-window sequence (tiny or oscillating), forcing the server
//!   to emit many small segments per response (silly-window syndrome,
//!   induced deliberately).
//!
//! The slow reader runs above a real stack as a plain [`App`]: its attack
//! is *not reading*, which any socket API permits. The other two need
//! header-level control no socket API grants, so they are raw host
//! agents on the load generator's `raw` engine, crafting
//! TCP segments directly and consuming no modeled CPU.
#![cfg_attr(
    not(test),
    deny(
        unsafe_code,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

use crate::kv;
use crate::raw::{Profile, RawClient, Rx, WATCHDOG};
use crate::util::SendBuf;
use std::net::{Ipv4Addr, SocketAddrV4};
use tas_netsim::app::{App, AppEvent, SockId, StackApi};
use tas_netsim::{HostNic, NetMsg, NicConfig};
use tas_proto::{MacAddr, PayloadBuf, Segment, Seq};
use tas_sim::{impl_as_any, Agent, Ctx, Event, SimTime};

// ---------------------------------------------------------------------
// Slow reader (stack-level App).

/// A client that solicits responses and never reads them.
///
/// On connect it fires `burst` pipelined requests per connection, then
/// ignores every `Readable` notification. The responses fill the
/// connection's rx byte-ring; once full, the advertised window closes and
/// the server's per-flow tx buffer (plus whatever its app has buffered
/// behind the socket) stays pinned for the duration. A well-isolated
/// server keeps serving other tenants; a badly isolated one wedges
/// shared resources behind the stalled flows.
///
/// Set [`SlowReader::resume_at`] to drain everything at a fixed instant
/// (used by tests to prove the data really was pent up, and by scenarios
/// to model a lagging-then-recovering consumer).
pub struct SlowReader {
    server: Ipv4Addr,
    port: u16,
    n_conns: u32,
    /// Pipelined requests fired per connection at connect time.
    pub burst: u32,
    /// When to start reading (ZERO = never).
    pub resume_at: SimTime,
    /// `Readable` notifications received while refusing to read.
    pub readable_events: u64,
    /// Bytes actually read (stays 0 until `resume_at`).
    pub bytes_read: u64,
    /// Requests sent.
    pub sent: u64,
    socks: Vec<SockId>,
    out: SendBuf,
    resumed: bool,
}

/// App-timer token for the resume instant.
const RESUME_TOKEN: u64 = 0x51_0eade6;

impl SlowReader {
    /// Creates a slow reader: `conns` connections, `burst` pipelined
    /// requests each, never reading (set [`SlowReader::resume_at`] to
    /// drain later).
    pub fn new(server: Ipv4Addr, port: u16, conns: u32, burst: u32) -> Self {
        SlowReader {
            server,
            port,
            n_conns: conns,
            burst,
            resume_at: SimTime::ZERO,
            readable_events: 0,
            bytes_read: 0,
            sent: 0,
            socks: Vec::new(),
            out: SendBuf::default(),
            resumed: false,
        }
    }
}

impl App for SlowReader {
    fn on_start(&mut self, api: &mut dyn StackApi) {
        for _ in 0..self.n_conns {
            let sock = api.connect(self.server, self.port);
            self.socks.push(sock);
        }
        if self.resume_at > SimTime::ZERO {
            let delay = self.resume_at.saturating_sub(api.now());
            api.set_app_timer(delay, RESUME_TOKEN);
        }
    }

    fn on_event(&mut self, ev: AppEvent, api: &mut dyn StackApi) {
        match ev {
            AppEvent::Connected { sock } => {
                // Solicit a pipelined burst of responses, then go deaf.
                let req = kv::get_request(1);
                for _ in 0..self.burst {
                    self.out.send(api, sock, &req);
                    self.sent += 1;
                }
            }
            AppEvent::Writable { sock } => {
                self.out.on_writable(api, sock);
            }
            AppEvent::Readable { .. } => {
                self.readable_events += 1;
                if self.resumed {
                    for i in 0..self.socks.len() {
                        self.bytes_read +=
                            api.recv_with(self.socks[i], usize::MAX, &mut |d| d.len()) as u64;
                    }
                }
            }
            AppEvent::Timer {
                token: RESUME_TOKEN,
            } => {
                self.resumed = true;
                for i in 0..self.socks.len() {
                    self.bytes_read +=
                        api.recv_with(self.socks[i], usize::MAX, &mut |d| d.len()) as u64;
                }
            }
            _ => {}
        }
    }

    impl_as_any!();
}

// ---------------------------------------------------------------------
// Raw-TCP adversaries (host agents).

/// Timer kinds for [`AdversaryHost`].
pub mod timers {
    /// Start: open every connection.
    pub const INIT: u32 = 0;
    /// Watchdog sweep for stalled requests/handshakes.
    pub const WATCHDOG: u32 = 1;
}

/// Which header-level attack the raw host mounts.
#[derive(Clone, Debug)]
pub enum AdvMode {
    /// Acknowledge response data in `chunk`-byte steps instead of one
    /// cumulative ACK per delivery.
    AckDivision {
        /// ACK advance per segment sent (sub-MSS, e.g. 16).
        chunk: u32,
    },
    /// Advertise this cycling window sequence (raw 16-bit values, no
    /// window scaling) on every segment sent after the handshake.
    WindowStuff {
        /// The advertised-window cycle.
        pattern: Vec<u16>,
    },
}

/// Configuration for [`AdversaryHost`].
#[derive(Clone, Debug)]
pub struct AdversaryConfig {
    /// Server address.
    pub server: Ipv4Addr,
    /// Server port.
    pub port: u16,
    /// Connections to open.
    pub conns: u32,
    /// The attack.
    pub mode: AdvMode,
}

impl AdversaryConfig {
    /// A KV-speaking adversary of the given mode.
    pub fn kv(server: Ipv4Addr, port: u16, conns: u32, mode: AdvMode) -> Self {
        AdversaryConfig {
            server,
            port,
            conns,
            mode,
        }
    }
}

/// The key every adversary request GETs ([`kv::get_request`]): a
/// well-formed request, so the server's normal response path produces
/// the payload the attack then mishandles.
const REQ_KEY: u32 = 1;
/// Expected response payload bytes per request.
const RESP_SIZE: usize = kv::RESP_LEN;

/// Local ports 2048 onwards, wrapping after 60,000; no window scaling,
/// so the advertised patterns are the raw 16-bit windows.
const PROFILE: Profile = Profile {
    base: 2048,
    ports: 60_000,
    wscale: None,
};

/// Raw-TCP adversarial client host: the `raw` engine's
/// handshake and request loop, with a pure ACK before each request and
/// the ACK stream shaped by [`AdvMode`]. Consumes no modeled CPU.
pub struct AdversaryHost {
    cfg: AdversaryConfig,
    raw: RawClient,
    /// Completed request/response exchanges.
    pub done: u64,
    /// Requests sent.
    pub sent: u64,
    /// Established connections.
    pub established: u64,
    /// Pure ACK segments sent (excludes handshake and request packets).
    pub acks_sent: u64,
    /// ACK-number advances of the pure ACKs, in order (capped log; the
    /// unit tests assert every entry is sub-MSS in division mode).
    pub ack_deltas: Vec<u32>,
    /// Advertised windows placed on the wire after the handshake, in
    /// order (capped log; tests assert it equals the intended cycle).
    pub adv_history: Vec<u16>,
    win_cursor: usize,
}

/// Cap on the diagnostic logs so long scenario runs stay cheap.
const LOG_CAP: usize = 4096;

/// The next advertised window per the attack `mode`: window stuffing
/// advances `cursor` through its cycle and logs each window in `history`.
fn next_window(mode: &AdvMode, cursor: &mut usize, history: &mut Vec<u16>) -> u16 {
    match mode {
        AdvMode::WindowStuff { pattern } if !pattern.is_empty() => {
            let w = pattern[*cursor % pattern.len()];
            *cursor += 1;
            if history.len() < LOG_CAP {
                history.push(w);
            }
            w
        }
        _ => u16::MAX,
    }
}

impl AdversaryHost {
    /// Creates the host; inject [`timers::INIT`] to start it.
    pub fn new(
        ip: Ipv4Addr,
        mac: MacAddr,
        nic_cfg: NicConfig,
        uplink: tas_sim::AgentId,
        cfg: AdversaryConfig,
    ) -> Self {
        let nic = HostNic::new(mac, nic_cfg, uplink);
        let server = SocketAddrV4::new(cfg.server, cfg.port);
        let req = PayloadBuf::from_slice(&kv::get_request(REQ_KEY));
        AdversaryHost {
            raw: RawClient::new(ip, mac, nic, server, PROFILE, req, RESP_SIZE),
            cfg,
            done: 0,
            sent: 0,
            established: 0,
            acks_sent: 0,
            ack_deltas: Vec::new(),
            adv_history: Vec::new(),
            win_cursor: 0,
        }
    }

    fn fire_request(&mut self, idx: u32, ctx: &mut Ctx<'_, NetMsg>) {
        let window = next_window(&self.cfg.mode, &mut self.win_cursor, &mut self.adv_history);
        self.raw.request(idx, window, ctx);
        self.sent += 1;
    }

    fn send_ack(&mut self, idx: u32, ack: Seq, ctx: &mut Ctx<'_, NetMsg>) {
        let window = next_window(&self.cfg.mode, &mut self.win_cursor, &mut self.adv_history);
        self.raw.ack(idx, ack, window, ctx);
        self.acks_sent += 1;
    }

    fn on_packet(&mut self, seg: Segment, ctx: &mut Ctx<'_, NetMsg>) {
        match self.raw.receive(&seg, ctx.now()) {
            Rx::Established(idx) => {
                self.established += 1;
                // Complete the handshake, then bait the first response.
                self.send_ack(idx, self.raw.cum_ack(idx), ctx);
                self.fire_request(idx, ctx);
            }
            Rx::Span { idx, seq, len, .. } => {
                if let AdvMode::AckDivision { chunk } = self.cfg.mode {
                    // Acknowledge the span in sub-MSS slivers: each pure
                    // ACK advances by at most `chunk` bytes.
                    let (step, len) = (chunk.max(1), len as u32);
                    for start in (0..len).step_by(step as usize) {
                        let adv = step.min(len - start);
                        if self.ack_deltas.len() < LOG_CAP {
                            self.ack_deltas.push(adv);
                        }
                        self.send_ack(idx, seq + start + adv, ctx);
                    }
                } else {
                    self.send_ack(idx, self.raw.cum_ack(idx), ctx);
                }
                if self.raw.conn(idx).is_some_and(|c| c.awaiting == 0) {
                    self.done += 1;
                    self.fire_request(idx, ctx);
                }
            }
            Rx::DupAck(idx) => self.send_ack(idx, self.raw.cum_ack(idx), ctx),
            Rx::Ignored => {}
        }
    }
}

impl Agent<NetMsg> for AdversaryHost {
    fn on_event(&mut self, ev: Event<NetMsg>, ctx: &mut Ctx<'_, NetMsg>) {
        match ev {
            Event::Msg {
                msg: NetMsg::Packet(seg),
                ..
            } => {
                self.on_packet(seg, ctx);
            }
            Event::Timer {
                kind: timers::INIT, ..
            } => {
                for _ in 0..self.cfg.conns {
                    self.raw.open(ctx);
                }
                ctx.timer(WATCHDOG, timers::WATCHDOG, 0);
            }
            Event::Timer {
                kind: timers::WATCHDOG,
                ..
            } => {
                let (mode, cursor, log) =
                    (&self.cfg.mode, &mut self.win_cursor, &mut self.adv_history);
                self.raw.watchdog(ctx, || next_window(mode, cursor, log));
                ctx.timer(WATCHDOG, timers::WATCHDOG, 0);
            }
            _ => {}
        }
    }

    impl_as_any!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_pattern_cycles_and_logs() {
        let mode = AdvMode::WindowStuff {
            pattern: vec![16, 1, 512],
        };
        let (mut cursor, mut log) = (0, Vec::new());
        let got: Vec<u16> = (0..7)
            .map(|_| next_window(&mode, &mut cursor, &mut log))
            .collect();
        assert_eq!(got, vec![16, 1, 512, 16, 1, 512, 16]);
        assert_eq!(log, got);
    }
}
