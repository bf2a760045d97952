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
//! header-level control no socket API grants, so — like the load
//! generator — they are raw host agents crafting TCP segments directly
//! and consuming no modeled CPU.
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

use crate::util::SendBuf;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use tas_netsim::app::{App, AppEvent, SockId, StackApi};
use tas_netsim::topo::mac_for_ip;
use tas_netsim::{HostNic, NetMsg, NicConfig};
use tas_proto::{FlowKey, MacAddr, Segment, Seq, TcpFlags, TcpHeader};
use tas_sim::{impl_as_any, Agent, Ctx, Event, SimTime};

/// Builds the KV GET request the adversaries use as bait: a well-formed
/// request for `key` so the server's normal response path produces the
/// payload the attack then mishandles.
pub fn kv_get_request(key: u32) -> Vec<u8> {
    let mut req = vec![0u8; crate::kv::REQ_HDR + crate::kv::VAL_SIZE];
    req[0] = crate::kv::OP_GET;
    req[1..5].copy_from_slice(&key.to_be_bytes());
    req[5..7].copy_from_slice(&(crate::kv::VAL_SIZE as u16).to_be_bytes());
    req
}

/// KV response size matching [`kv_get_request`].
pub fn kv_resp_size() -> usize {
    crate::kv::RESP_HDR + crate::kv::VAL_SIZE
}

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
            let now = api.now();
            let delay = if self.resume_at > now {
                self.resume_at - now
            } else {
                SimTime::ZERO
            };
            api.set_app_timer(delay, RESUME_TOKEN);
        }
    }

    fn on_event(&mut self, ev: AppEvent, api: &mut dyn StackApi) {
        match ev {
            AppEvent::Connected { sock } => {
                // Solicit a pipelined burst of responses, then go deaf.
                let req = kv_get_request(1);
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
    /// Request payload (defaults to [`kv_get_request`] for key 1).
    pub req_template: Vec<u8>,
    /// Expected response payload bytes per request.
    pub resp_size: usize,
    /// The attack.
    pub mode: AdvMode,
    /// Watchdog interval for stalled-request retransmission.
    pub watchdog: SimTime,
}

impl AdversaryConfig {
    /// A KV-speaking adversary of the given mode.
    pub fn kv(server: Ipv4Addr, port: u16, conns: u32, mode: AdvMode) -> Self {
        AdversaryConfig {
            server,
            port,
            conns,
            req_template: kv_get_request(1),
            resp_size: kv_resp_size(),
            mode,
            watchdog: SimTime::from_ms(50),
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum AdvState {
    SynSent,
    Established,
}

struct AdvConn {
    state: AdvState,
    local_port: u16,
    iss: Seq,
    irs: Seq,
    /// Request-stream bytes sent.
    sent_off: u64,
    /// Response-stream bytes received in order.
    rcv_off: u64,
    /// Response bytes still expected for the current request.
    awaiting: usize,
    ts_recent: u32,
    last_progress: SimTime,
}

/// Raw-TCP adversarial client host: minimal-but-correct handshake and
/// request loop (mirroring the load generator), with the ACK stream
/// shaped by [`AdvMode`]. Consumes no modeled CPU.
pub struct AdversaryHost {
    cfg: AdversaryConfig,
    ip: Ipv4Addr,
    mac: MacAddr,
    nic: HostNic,
    conns: Vec<AdvConn>,
    by_port: BTreeMap<u16, u32>,
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
        AdversaryHost {
            cfg,
            ip,
            mac,
            nic,
            conns: Vec::new(),
            by_port: BTreeMap::new(),
            done: 0,
            sent: 0,
            established: 0,
            acks_sent: 0,
            ack_deltas: Vec::new(),
            adv_history: Vec::new(),
            win_cursor: 0,
        }
    }

    /// The next advertised window per the attack mode.
    fn next_window(&mut self) -> u16 {
        match &self.cfg.mode {
            AdvMode::AckDivision { .. } => u16::MAX,
            AdvMode::WindowStuff { pattern } => {
                if pattern.is_empty() {
                    return u16::MAX;
                }
                let w = pattern[self.win_cursor % pattern.len()];
                self.win_cursor += 1;
                if self.adv_history.len() < LOG_CAP {
                    self.adv_history.push(w);
                }
                w
            }
        }
    }

    fn seg(&self, h: TcpHeader, payload: Vec<u8>) -> Segment {
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

    /// A header whose ACK field is explicit (division mode sends several
    /// per delivery, each a different sliver).
    fn header_with_ack(&mut self, idx: u32, ack: Seq, flags: TcpFlags, now: SimTime) -> TcpHeader {
        let window = self.next_window();
        let Some(c) = self.conns.get(idx as usize) else {
            return TcpHeader::new(0, self.cfg.port, 0, 0, flags);
        };
        let mut h = TcpHeader::new(c.local_port, self.cfg.port, 0, 0, flags);
        h.seq = c.iss + 1 + c.sent_off as u32;
        h.ack = ack;
        h.window = window;
        h.options.timestamp = Some((now.as_micros() as u32, c.ts_recent));
        h
    }

    fn cum_ack(&self, idx: u32) -> Seq {
        let Some(c) = self.conns.get(idx as usize) else {
            return Seq(0);
        };
        c.irs + 1 + c.rcv_off as u32
    }

    fn open_connection(&mut self, idx: u32, now: SimTime, ctx: &mut Ctx<'_, NetMsg>) {
        let local_port = 2048 + (idx % 60_000) as u16;
        let iss = Seq(ctx.rng().next_u32());
        self.by_port.insert(local_port, self.conns.len() as u32);
        self.conns.push(AdvConn {
            state: AdvState::SynSent,
            local_port,
            iss,
            irs: Seq(0),
            sent_off: 0,
            rcv_off: 0,
            awaiting: 0,
            ts_recent: 0,
            last_progress: now,
        });
        let mut h = TcpHeader::new(local_port, self.cfg.port, iss.0, 0, TcpFlags::SYN);
        h.options.mss = Some(1448);
        // No window scaling: the advertised patterns are raw 16-bit.
        h.options.timestamp = Some((now.as_micros() as u32, 0));
        h.window = u16::MAX;
        let seg = self.seg(h, Vec::new());
        self.nic.tx(now, seg, ctx);
    }

    fn fire_request(&mut self, idx: u32, now: SimTime, ctx: &mut Ctx<'_, NetMsg>) {
        let payload = self.cfg.req_template.clone();
        let ack = self.cum_ack(idx);
        let h = self.header_with_ack(idx, ack, TcpFlags::ACK | TcpFlags::PSH, now);
        if let Some(c) = self.conns.get_mut(idx as usize) {
            c.sent_off += payload.len() as u64;
            c.awaiting = self.cfg.resp_size;
            c.last_progress = now;
        }
        self.sent += 1;
        let seg = self.seg(h, payload);
        self.nic.tx(now, seg, ctx);
    }

    fn send_ack(&mut self, idx: u32, ack: Seq, now: SimTime, ctx: &mut Ctx<'_, NetMsg>) {
        let h = self.header_with_ack(idx, ack, TcpFlags::ACK, now);
        self.acks_sent += 1;
        let seg = self.seg(h, Vec::new());
        self.nic.tx(now, seg, ctx);
    }

    fn on_packet(&mut self, seg: Segment, now: SimTime, ctx: &mut Ctx<'_, NetMsg>) {
        let key: FlowKey = seg.flow_key();
        let Some(&idx) = self.by_port.get(&key.local_port) else {
            return;
        };
        let mut handshake_done = false;
        let mut in_order_span: Option<(Seq, usize)> = None; // (base ack, len)
        let mut dup_ack = false;
        {
            let Some(c) = self.conns.get_mut(idx as usize) else {
                return;
            };
            if let Some((tsval, _)) = seg.tcp.options.timestamp {
                c.ts_recent = tsval;
            }
            match c.state {
                AdvState::SynSent => {
                    if seg.tcp.flags.contains(TcpFlags::SYN | TcpFlags::ACK)
                        && seg.tcp.ack == c.iss + 1
                    {
                        c.irs = seg.tcp.seq;
                        c.state = AdvState::Established;
                        c.last_progress = now;
                        handshake_done = true;
                    }
                }
                AdvState::Established => {
                    if !seg.payload.is_empty() {
                        let expected = c.irs + 1 + c.rcv_off as u32;
                        if seg.tcp.seq == expected {
                            let len = seg.payload.len();
                            let base = expected;
                            c.rcv_off += len as u64;
                            c.last_progress = now;
                            let got = len.min(c.awaiting);
                            c.awaiting -= got;
                            in_order_span = Some((base, len));
                        } else {
                            dup_ack = true;
                        }
                    }
                }
            }
        }
        if handshake_done {
            self.established += 1;
            // Complete the handshake, then bait the first response.
            let ack = self.cum_ack(idx);
            self.send_ack(idx, ack, now, ctx);
            self.fire_request(idx, now, ctx);
            return;
        }
        if let Some((base, len)) = in_order_span {
            match self.cfg.mode.clone() {
                AdvMode::AckDivision { chunk } => {
                    // Acknowledge the span in sub-MSS slivers: each pure
                    // ACK advances by at most `chunk` bytes.
                    let step = chunk.max(1);
                    let mut covered = 0u32;
                    while (covered as usize) < len {
                        let adv = step.min(len as u32 - covered);
                        covered += adv;
                        if self.ack_deltas.len() < LOG_CAP {
                            self.ack_deltas.push(adv);
                        }
                        let ack = base + covered;
                        self.send_ack(idx, ack, now, ctx);
                    }
                }
                AdvMode::WindowStuff { .. } => {
                    let ack = self.cum_ack(idx);
                    self.send_ack(idx, ack, now, ctx);
                }
            }
            let fire = self
                .conns
                .get(idx as usize)
                .map(|c| c.awaiting == 0)
                .unwrap_or(false);
            if fire {
                self.done += 1;
                self.fire_request(idx, now, ctx);
            }
        } else if dup_ack {
            let ack = self.cum_ack(idx);
            self.send_ack(idx, ack, now, ctx);
        }
    }

    fn watchdog(&mut self, now: SimTime, ctx: &mut Ctx<'_, NetMsg>) {
        let stall = self.cfg.watchdog;
        let mut resend: Vec<u32> = Vec::new();
        let mut resyn: Vec<u32> = Vec::new();
        for (i, c) in self.conns.iter().enumerate() {
            match c.state {
                AdvState::Established if c.awaiting > 0 && now - c.last_progress > stall => {
                    resend.push(i as u32);
                }
                AdvState::SynSent if now - c.last_progress > stall => resyn.push(i as u32),
                _ => {}
            }
        }
        for idx in resend {
            let payload = self.cfg.req_template.clone();
            let ack = self.cum_ack(idx);
            let mut h = self.header_with_ack(idx, ack, TcpFlags::ACK | TcpFlags::PSH, now);
            // Rewind to the outstanding request's first byte.
            if let Some(c) = self.conns.get_mut(idx as usize) {
                c.last_progress = now;
                h.seq = c.iss + 1 + c.sent_off.saturating_sub(payload.len() as u64) as u32;
            }
            let seg = self.seg(h, payload);
            self.nic.tx(now, seg, ctx);
        }
        for idx in resyn {
            let Some(c) = self.conns.get_mut(idx as usize) else {
                continue;
            };
            c.last_progress = now;
            let mut h = TcpHeader::new(c.local_port, self.cfg.port, c.iss.0, 0, TcpFlags::SYN);
            h.options.mss = Some(1448);
            h.options.timestamp = Some((now.as_micros() as u32, 0));
            h.window = u16::MAX;
            let seg = self.seg(h, Vec::new());
            self.nic.tx(now, seg, ctx);
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
                let now = ctx.now();
                self.on_packet(seg, now, ctx);
            }
            Event::Timer {
                kind: timers::INIT, ..
            } => {
                let now = ctx.now();
                for i in 0..self.cfg.conns {
                    self.open_connection(i, now, ctx);
                }
                ctx.timer(self.cfg.watchdog, timers::WATCHDOG, 0);
            }
            Event::Timer {
                kind: timers::WATCHDOG,
                ..
            } => {
                let now = ctx.now();
                self.watchdog(now, ctx);
                ctx.timer(self.cfg.watchdog, timers::WATCHDOG, 0);
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
    fn kv_bait_is_well_formed() {
        let req = kv_get_request(5);
        assert_eq!(req.len(), crate::kv::REQ_HDR + crate::kv::VAL_SIZE);
        assert_eq!(req[0], crate::kv::OP_GET);
        assert_eq!(u32::from_be_bytes([req[1], req[2], req[3], req[4]]), 5);
        assert_eq!(kv_resp_size(), crate::kv::RESP_HDR + crate::kv::VAL_SIZE);
    }

    #[test]
    fn window_pattern_cycles_and_logs() {
        let cfg = AdversaryConfig::kv(
            Ipv4Addr::new(10, 0, 0, 1),
            7,
            1,
            AdvMode::WindowStuff {
                pattern: vec![16, 1, 512],
            },
        );
        let mut h = AdversaryHost::new(
            Ipv4Addr::new(10, 0, 0, 9),
            MacAddr::for_host(9),
            NicConfig::client_10g(1),
            0,
            cfg,
        );
        let got: Vec<u16> = (0..7).map(|_| h.next_window()).collect();
        assert_eq!(got, vec![16, 1, 512, 16, 1, 512, 16]);
        assert_eq!(h.adv_history, got);
    }
}
