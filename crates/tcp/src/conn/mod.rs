//! The TCP connection state machine, decomposed into five components
//! with disjoint write scopes (DESIGN.md §16):
//!
//! * [`ConnMgmt`](mgmt::ConnMgmt) — lifecycle: RFC 793 states,
//!   open/close, TIME_WAIT, timestamp echo;
//! * [`SendRel`](send::SendRel) — send reliability: transmit ring,
//!   una/nxt/max-sent offsets, recovery, RTT, the RTO;
//! * [`RecvRel`](recv::RecvRel) — receive reliability: in-order ring,
//!   reassembler, receive frontier;
//! * [`FlowCtrl`](flowctrl::FlowCtrl) — both directions' window
//!   accounting;
//! * [`CongCtrl`](congctrl::CongCtrl) — the pluggable algorithm
//!   (shared `tas-cc`) plus ECN state.
//!
//! [`TcpConn`] is the orchestrator: it owns one instance of each
//! component and drives the protocol. Each component's fields are private
//! to its own module, so `TcpConn` (like everything else) reads them
//! through getters and can mutate them only through that component's
//! `&mut self` methods — a foreign write does not compile.

pub mod congctrl;
pub mod flowctrl;
pub mod mgmt;
pub mod recv;
pub mod send;

pub use congctrl::CongCtrl;
pub use flowctrl::FlowCtrl;
pub use mgmt::ConnMgmt;
pub use recv::RecvRel;
pub use send::SendRel;

use std::net::Ipv4Addr;
use tas_cc::{AckInfo, CcKind};
use tas_proto::{Ecn, FlowKey, MacAddr, PayloadBuf, Segment, Seq, TcpFlags, TcpHeader};
use tas_sim::{probe, prof_scope, trace, SimTime};

/// TCP connection states (RFC 793), minus LISTEN which is a host-level
/// table of pending accepts rather than a connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TcpState {
    /// SYN sent, awaiting SYN-ACK.
    SynSent,
    /// SYN received and SYN-ACK sent, awaiting ACK.
    SynRcvd,
    /// Data transfer.
    Established,
    /// We closed first; FIN sent, awaiting its ACK.
    FinWait1,
    /// Our FIN acknowledged, awaiting peer FIN.
    FinWait2,
    /// Peer closed first; awaiting our close.
    CloseWait,
    /// Both closed, our FIN outstanding after peer's FIN.
    LastAck,
    /// Simultaneous close: FIN crossed; awaiting ACK of our FIN.
    Closing,
    /// Draining the network before releasing state.
    TimeWait,
    /// Fully closed.
    Closed,
}

impl TcpState {
    /// Stable lowercase name, used in traces and diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            TcpState::SynSent => "syn_sent",
            TcpState::SynRcvd => "syn_rcvd",
            TcpState::Established => "established",
            TcpState::FinWait1 => "fin_wait1",
            TcpState::FinWait2 => "fin_wait2",
            TcpState::CloseWait => "close_wait",
            TcpState::LastAck => "last_ack",
            TcpState::Closing => "closing",
            TcpState::TimeWait => "time_wait",
            TcpState::Closed => "closed",
        }
    }
}

/// Events a connection reports to its owner.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TcpEvent {
    /// Handshake completed.
    Connected,
    /// New in-order data is readable.
    DataAvailable,
    /// Acknowledgements freed send-buffer space.
    SendSpaceAvailable,
    /// Peer sent FIN; no more data will arrive.
    PeerFin,
    /// The connection reached CLOSED.
    Closed,
    /// The connection was reset.
    Reset,
}

/// Static per-connection configuration.
#[derive(Clone, Debug)]
pub struct TcpConfig {
    /// Maximum segment size (1448 = 1500 MTU − 40 TCP/IP − 12 timestamps).
    pub mss: u32,
    /// Send buffer capacity in bytes.
    pub send_buf: usize,
    /// Receive buffer capacity in bytes.
    pub recv_buf: usize,
    /// Negotiate and use ECN.
    pub ecn: bool,
    /// Congestion control algorithm.
    pub cc: CcKind,
    /// Minimum retransmission timeout (datacenter configs use 1–10 ms).
    pub rto_min: SimTime,
    /// Maximum retransmission timeout.
    pub rto_max: SimTime,
}

/// Our receive window scale shift, offered on every SYN.
const WINDOW_SCALE: u8 = 7;
/// TIME_WAIT duration (kept short; the simulator never reuses tuples).
const TIME_WAIT: SimTime = SimTime::from_ms(1);

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 1448,
            send_buf: 128 * 1024,
            recv_buf: 128 * 1024,
            ecn: true,
            cc: CcKind::Dctcp,
            rto_min: SimTime::from_ms(1),
            rto_max: SimTime::from_secs(1),
        }
    }
}

/// One side's addressing.
#[derive(Clone, Copy, Debug)]
pub struct EndpointInfo {
    /// IP address.
    pub ip: Ipv4Addr,
    /// TCP port.
    pub port: u16,
    /// MAC address (the slow path's ARP/neighbour entry).
    pub mac: MacAddr,
}

/// Per-connection counters used by the experiments.
#[derive(Clone, Copy, Debug, Default)]
pub struct ConnStats {
    /// Data segments sent (including retransmissions).
    pub segs_out: u64,
    /// Segments received.
    pub segs_in: u64,
    /// Payload bytes sent (first transmissions).
    pub bytes_sent: u64,
    /// Payload bytes received in order.
    pub bytes_received: u64,
    /// Retransmitted segments (all causes).
    pub retransmits: u64,
    /// Fast retransmits triggered.
    pub fast_retransmits: u64,
    /// Retransmission timeouts fired.
    pub timeouts: u64,
    /// Duplicate ACKs received.
    pub dupacks_in: u64,
    /// ACKs carrying ECN echo received.
    pub ece_in: u64,
}

impl std::ops::AddAssign for ConnStats {
    fn add_assign(&mut self, o: ConnStats) {
        self.segs_out += o.segs_out;
        self.segs_in += o.segs_in;
        self.bytes_sent += o.bytes_sent;
        self.bytes_received += o.bytes_received;
        self.retransmits += o.retransmits;
        self.fast_retransmits += o.fast_retransmits;
        self.timeouts += o.timeouts;
        self.dupacks_in += o.dupacks_in;
        self.ece_in += o.ece_in;
    }
}

/// A sans-IO TCP connection.
///
/// The owner feeds it segments ([`TcpConn::on_segment`]) and time
/// ([`TcpConn::on_timer`]), writes with [`TcpConn::send`]/[`TcpConn::close`]
/// and reads with [`TcpConn::recv_with`]; staged output segments are
/// drained with [`TcpConn::move_outgoing`] and application events with
/// [`TcpConn::move_events`]. [`TcpConn::next_timer`] reports when
/// `on_timer` next wants to run.
#[derive(Debug)]
pub struct TcpConn {
    cfg: TcpConfig,
    /// Lifecycle component.
    mgmt: ConnMgmt,
    /// Send-reliability component.
    snd: SendRel,
    /// Receive-reliability component.
    rcv: RecvRel,
    /// Flow-control component.
    fc: FlowCtrl,
    /// Congestion-control + ECN component.
    cc: CongCtrl,

    out: Vec<Segment>,
    events: Vec<TcpEvent>,
    /// Counters.
    pub stats: ConnStats,

    /// Flight-recorder clock: the time of the entry point currently being
    /// processed, so segment construction deep in the call tree can stamp
    /// trace records without threading `now` everywhere.
    #[cfg(feature = "telemetry")]
    trace_now: SimTime,
    /// Last state reported to the flight recorder; transitions are
    /// emitted by diffing at entry-point boundaries (a `close()` between
    /// events is reported at the next poll).
    #[cfg(feature = "telemetry")]
    traced_state: TcpState,
}

impl TcpConn {
    /// Opens a connection: returns the connection in SYN_SENT with the SYN
    /// staged for transmission.
    pub fn connect(
        now: SimTime,
        cfg: TcpConfig,
        local: EndpointInfo,
        remote: EndpointInfo,
        iss: u32,
    ) -> TcpConn {
        let mut conn = TcpConn::new_common(cfg, local, remote, iss);
        probe! { conn.trace_now = now; }
        conn.mgmt.set_state(TcpState::SynSent);
        let mut h = conn.header(TcpFlags::SYN, now);
        h.seq = Seq(iss);
        if conn.cfg.ecn {
            h.flags |= TcpFlags::ECE | TcpFlags::CWR;
        }
        conn.set_syn_options(&mut h);
        probe! { conn.trace_state_sync(); }
        conn.push_segment(h, PayloadBuf::empty(), false);
        let rto = now + conn.snd.rtt().rto();
        conn.snd.arm_rto(rto);
        conn
    }

    /// Accepts a connection from a received SYN: returns the connection in
    /// SYN_RCVD with the SYN-ACK staged.
    pub fn accept(
        now: SimTime,
        cfg: TcpConfig,
        local: EndpointInfo,
        remote: EndpointInfo,
        syn: &Segment,
        iss: u32,
    ) -> TcpConn {
        let mut conn = TcpConn::new_common(cfg, local, remote, iss);
        probe! { conn.trace_now = now; }
        trace!("conn", now, SegRx(syn));
        conn.mgmt.set_state(TcpState::SynRcvd);
        conn.rcv.init_irs(syn.tcp.seq);
        conn.apply_syn_options(syn);
        // ECN negotiation: peer requested with ECE|CWR on the SYN.
        let peer_wants_ecn = syn.tcp.flags.contains(TcpFlags::ECE | TcpFlags::CWR);
        let active = conn.cfg.ecn && peer_wants_ecn;
        conn.cc.set_active(active);
        let mut h = conn.header(TcpFlags::SYN | TcpFlags::ACK, now);
        h.seq = Seq(iss);
        h.ack = syn.tcp.seq + 1;
        if conn.cc.ecn_active() {
            h.flags |= TcpFlags::ECE;
        }
        conn.set_syn_options(&mut h);
        probe! { conn.trace_state_sync(); }
        conn.push_segment(h, PayloadBuf::empty(), false);
        let rto = now + conn.snd.rtt().rto();
        conn.snd.arm_rto(rto);
        conn
    }

    fn new_common(cfg: TcpConfig, local: EndpointInfo, remote: EndpointInfo, iss: u32) -> TcpConn {
        TcpConn {
            mgmt: ConnMgmt::new(local, remote),
            snd: SendRel::new(Seq(iss), cfg.send_buf, cfg.rto_min, cfg.rto_max),
            rcv: RecvRel::new(cfg.recv_buf),
            fc: FlowCtrl::new(cfg.mss, cfg.recv_buf),
            cc: CongCtrl::new(cfg.cc, cfg.mss),
            out: Vec::new(),
            events: Vec::new(),
            stats: ConnStats::default(),
            #[cfg(feature = "telemetry")]
            trace_now: SimTime::ZERO,
            #[cfg(feature = "telemetry")]
            traced_state: TcpState::Closed,
            cfg,
        }
    }

    /// The connection's flow key (local perspective).
    pub fn flow_key(&self) -> FlowKey {
        FlowKey::new(
            self.mgmt.local().ip,
            self.mgmt.local().port,
            self.mgmt.remote().ip,
            self.mgmt.remote().port,
        )
    }

    /// Emits one State record if the state changed since last sync.
    #[cfg(feature = "telemetry")]
    fn trace_state_sync(&mut self) {
        let (from, to) = (self.traced_state, self.mgmt.state());
        if from != to {
            trace!(
                "conn",
                self.trace_now,
                State {
                    flow: self.flow_key(),
                    from: from.name(),
                    to: to.name(),
                }
            );
            self.traced_state = to;
        }
    }

    /// Emits one Retransmit record for this flow.
    #[cfg(feature = "telemetry")]
    fn trace_rexmit(&self, kind: &'static str, seq: Seq) {
        let flow = self.flow_key();
        trace!("conn", self.trace_now, Retransmit { flow, kind, seq });
    }

    // ------------------------------------------------------------------
    // Accessors.

    /// Current state.
    pub fn state(&self) -> TcpState {
        self.mgmt.state()
    }

    /// Local endpoint.
    pub fn local(&self) -> EndpointInfo {
        self.mgmt.local()
    }

    /// Remote endpoint.
    pub fn remote(&self) -> EndpointInfo {
        self.mgmt.remote()
    }

    /// Whether ECN was negotiated.
    pub fn ecn_active(&self) -> bool {
        self.cc.ecn_active()
    }

    /// Current congestion window in bytes.
    pub fn cwnd(&self) -> u32 {
        self.cc.cwnd()
    }

    /// Smoothed RTT, if measured.
    pub fn srtt(&self) -> Option<SimTime> {
        self.snd.rtt().srtt()
    }

    /// Bytes readable by the application.
    pub fn readable(&self) -> usize {
        self.rcv.rx().len()
    }

    /// Free space in the send buffer.
    pub fn send_space(&self) -> usize {
        self.snd.tx().free()
    }

    /// Occupied bytes in the send buffer (queued + unacknowledged).
    pub fn send_buffered(&self) -> usize {
        self.snd.tx().len()
    }

    /// Unacknowledged payload bytes in flight.
    pub fn in_flight(&self) -> u64 {
        self.snd.nxt_off() - self.snd.una_off()
    }

    /// The connection is fully closed and its state can be dropped.
    pub fn is_closed(&self) -> bool {
        self.mgmt.state() == TcpState::Closed
    }

    /// When [`TcpConn::on_timer`] next needs to run, if ever.
    pub fn next_timer(&self) -> Option<SimTime> {
        match (self.snd.rto_deadline(), self.mgmt.time_wait_deadline()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (Some(a), None) => Some(a),
            (None, b) => b,
        }
    }

    /// Drains staged outgoing segments. The connection's buffer goes with
    /// them, so the next staged segment allocates a new one; a packet
    /// loop uses [`TcpConn::move_outgoing`].
    pub fn take_outgoing(&mut self) -> Vec<Segment> {
        std::mem::take(&mut self.out)
    }

    /// Appends the staged outgoing segments to `dst`, in order. Both
    /// buffers keep their capacity, so an owner that drains `dst` and
    /// calls this per packet allocates nothing in steady state.
    pub fn move_outgoing(&mut self, dst: &mut Vec<Segment>) {
        dst.append(&mut self.out);
    }

    /// True when output is staged (lets owners skip the Vec swap).
    pub fn has_outgoing(&self) -> bool {
        !self.out.is_empty()
    }

    /// Drains pending application events (see [`TcpConn::move_events`]).
    pub fn take_events(&mut self) -> Vec<TcpEvent> {
        std::mem::take(&mut self.events)
    }

    /// Appends the pending application events to `dst`, in order,
    /// keeping both buffers' capacity.
    pub fn move_events(&mut self, dst: &mut Vec<TcpEvent>) {
        dst.append(&mut self.events);
    }

    // ------------------------------------------------------------------
    // Application calls.

    /// Buffers application data for transmission; returns bytes accepted
    /// (bounded by send-buffer space). Call [`TcpConn::poll`] afterwards.
    pub fn send(&mut self, data: &[u8]) -> usize {
        if self.mgmt.fin_queued()
            || matches!(self.mgmt.state(), TcpState::Closed | TcpState::TimeWait)
        {
            return 0;
        }
        self.snd.buffer(data)
    }

    /// Hands up to `max` bytes of in-order received data to `f` in place,
    /// as at most two slices, and consumes what `f` takes
    /// ([`tas_shm::ByteRing::read_with`]); returns the bytes taken.
    pub fn recv_with(&mut self, max: usize, f: impl FnMut(&[u8]) -> usize) -> usize {
        self.rcv.read_with(max, f)
    }

    /// Reads up to `max` bytes of in-order received data into a new `Vec`.
    pub fn recv(&mut self, max: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(max.min(self.readable()));
        self.recv_with(max, |s| {
            out.extend_from_slice(s);
            s.len()
        });
        out
    }

    /// Initiates close: a FIN is sent once buffered data drains.
    pub fn close(&mut self) {
        if !self.mgmt.queue_fin() {
            return;
        }
        match self.mgmt.state() {
            TcpState::Established | TcpState::SynRcvd => {
                self.mgmt.set_state(TcpState::FinWait1);
            }
            TcpState::CloseWait => self.mgmt.set_state(TcpState::LastAck),
            _ => {}
        }
    }

    /// Aborts: stages an RST and closes immediately.
    pub fn abort(&mut self, now: SimTime) {
        probe! { self.trace_now = now; }
        if !matches!(self.mgmt.state(), TcpState::Closed) {
            let mut h = self.header(TcpFlags::RST | TcpFlags::ACK, now);
            h.seq = self.seq_of(self.snd.nxt_off());
            h.ack = self.ack_value();
            self.push_segment(h, PayloadBuf::empty(), false);
            self.enter_closed();
            probe! { self.trace_state_sync(); }
        }
    }

    // ------------------------------------------------------------------
    // Sequence/offset mapping.

    fn seq_of(&self, off: u64) -> Seq {
        self.snd.iss() + 1 + off as u32
    }

    fn rcv_seq_of(&self, off: u64) -> Seq {
        self.rcv.irs() + 1 + off as u32
    }

    fn ack_value(&self) -> Seq {
        // ACK covers the peer FIN once all data before it is consumed.
        let mut a = self.rcv_seq_of(self.rcv.rcv_off());
        if let Some(fo) = self.mgmt.peer_fin_off() {
            if self.rcv.rcv_off() >= fo {
                a = a + 1;
            }
        }
        a
    }

    // ------------------------------------------------------------------
    // Segment construction.

    fn header(&self, flags: TcpFlags, now: SimTime) -> TcpHeader {
        let mut h = TcpHeader::new(self.mgmt.local().port, self.mgmt.remote().port, 0, 0, flags);
        h.options.timestamp = Some((now.as_micros() as u32, self.mgmt.ts_recent()));
        let adv = self.adv_window();
        h.window = (adv >> WINDOW_SCALE).min(u16::MAX as u64) as u16;
        h
    }

    fn adv_window(&self) -> u64 {
        // Conservative: space that in-order data can always use.
        self.rcv.rx().free().saturating_sub(self.rcv.reasm().held()) as u64
    }

    fn set_syn_options(&self, h: &mut TcpHeader) {
        h.options.mss = Some(self.cfg.mss.min(u16::MAX as u32) as u16);
        h.options.wscale = Some(WINDOW_SCALE);
        h.options.sack_permitted = true;
        // SYN windows are never scaled.
        h.window = self.adv_window().min(u16::MAX as u64) as u16;
    }

    fn apply_syn_options(&mut self, syn: &Segment) {
        self.fc.apply_syn(
            syn.tcp.options.mss.map(|m| m as u32),
            syn.tcp.options.wscale.unwrap_or(0),
            syn.tcp.window as u64,
        );
        if let Some((tsval, _)) = syn.tcp.options.timestamp {
            self.mgmt.note_ts(tsval);
        }
    }

    fn push_segment(&mut self, tcp: TcpHeader, payload: PayloadBuf, data_ect: bool) {
        let mut seg = Segment::tcp(
            self.mgmt.local().mac,
            self.mgmt.remote().mac,
            self.mgmt.local().ip,
            self.mgmt.remote().ip,
            tcp,
            payload,
            false,
        );
        // ECT(0) only on data segments of ECN connections.
        if data_ect && self.cc.ecn_active() {
            seg.ip.ecn = Ecn::Ect0;
        }
        self.stats.segs_out += 1;
        trace!("conn", self.trace_now, SegTx(seg));
        self.out.push(seg);
    }

    /// `n` bytes of the send ring from stream offset `off`, copied
    /// straight into a pooled payload buffer; `None` if the ring does not
    /// hold them.
    fn tx_payload(&self, off: u64, n: u64) -> Option<PayloadBuf> {
        let mut ok = true;
        let payload = PayloadBuf::with(n as usize, |dst| {
            ok = self.snd.tx().read_into(off, dst).is_ok();
        });
        ok.then_some(payload)
    }

    /// Stages a pure ACK reflecting current receive state.
    fn emit_ack(&mut self, now: SimTime) {
        let mut h = self.header(TcpFlags::ACK, now);
        h.seq = self.seq_of(self.snd.nxt_off().min(self.fin_off_or_max()));
        h.ack = self.ack_value();
        if let Some((off, len)) = self.rcv.reasm().first_range() {
            h.options.sack_block = Some((self.rcv_seq_of(off).0, self.rcv_seq_of(off + len).0));
        }
        if self.echo_ece() {
            h.flags |= TcpFlags::ECE;
        }
        let adv = self.adv_window();
        self.fc.note_advertised(adv);
        self.push_segment(h, PayloadBuf::empty(), false);
    }

    fn fin_off_or_max(&self) -> u64 {
        u64::MAX
    }

    fn echo_ece(&self) -> bool {
        if !self.cc.ecn_active() {
            return false;
        }
        match self.cfg.cc {
            // DCTCP: accurate per-packet echo.
            CcKind::Dctcp => self.cc.last_seg_ce(),
            // Classic: latched until CWR.
            CcKind::NewReno => self.cc.ece_latched(),
        }
    }

    /// Re-checks structural invariants (see [`crate::audit`]); compiled
    /// out of release builds.
    #[cfg(any(test, debug_assertions))]
    fn audit_invariants(&self) {
        crate::audit::check_conn(&crate::audit::ConnView {
            una_off: self.snd.una_off(),
            nxt_off: self.snd.nxt_off(),
            max_sent_off: self.snd.max_sent_off(),
            tx: self.snd.tx(),
            rcv_off: self.rcv.rcv_off(),
            rx: self.rcv.rx(),
            reasm: self.rcv.reasm(),
        });
    }

    #[cfg(not(any(test, debug_assertions)))]
    #[inline(always)]
    fn audit_invariants(&self) {}

    // ------------------------------------------------------------------
    // Transmission.

    /// Transmits whatever the congestion and flow-control windows allow;
    /// also emits window updates after the application drained a full
    /// receive buffer. Call after `send`, `recv`, `on_segment`, `on_timer`.
    pub fn poll(&mut self, now: SimTime) {
        prof_scope!("tcp_tx");
        probe! { self.trace_now = now; }
        probe! { self.trace_state_sync(); }
        if matches!(
            self.mgmt.state(),
            TcpState::SynSent | TcpState::SynRcvd | TcpState::Closed
        ) {
            return;
        }
        // Window update after the app freed a previously-tight window.
        let adv = self.adv_window();
        if self.fc.last_adv_window() < self.cfg.mss as u64 && adv >= 2 * self.cfg.mss as u64 {
            self.emit_ack(now);
        }
        let mut wnd = self.fc.snd_wnd().min(self.cc.cwnd() as u64);
        if self.snd.in_recovery() {
            // NewReno window inflation: each duplicate ACK signals a
            // departed segment; sending new data keeps the ACK clock
            // alive through recovery.
            wnd = wnd.saturating_add(self.snd.dupacks() as u64 * self.cfg.mss as u64);
        }
        loop {
            let avail = self
                .snd
                .tx()
                .end_offset()
                .saturating_sub(self.snd.nxt_off());
            let in_flight = self.snd.nxt_off() - self.snd.una_off();
            let budget = wnd.saturating_sub(in_flight);
            let n = avail
                .min(budget)
                .min(self.fc.peer_mss().min(self.cfg.mss) as u64);
            if n == 0 {
                break;
            }
            let Some(payload) = self.tx_payload(self.snd.nxt_off(), n) else {
                debug_assert!(false, "nxt_off within tx ring");
                break;
            };
            let mut h = self.header(TcpFlags::ACK, now);
            h.seq = self.seq_of(self.snd.nxt_off());
            h.ack = self.ack_value();
            if avail == n {
                h.flags |= TcpFlags::PSH;
            }
            if self.cc.take_cwr_pending() {
                h.flags |= TcpFlags::CWR;
            }
            if self.echo_ece() {
                h.flags |= TcpFlags::ECE;
            }
            self.snd.note_sent(n);
            self.stats.bytes_sent += n;
            self.push_segment(h, payload, true);
            let rto = now + self.snd.rtt().rto();
            self.snd.arm_rto_if_unarmed(rto);
        }
        // Zero-window persist: data is waiting but the advertised window
        // is shut and nothing is in flight — without a probe, a lost
        // window update deadlocks the connection. Arm the RTO as a
        // persist timer; on_timer sends a probe segment.
        if self.snd.tx().end_offset() > self.snd.nxt_off()
            && self.in_flight() == 0
            && self.snd.rto_deadline().is_none()
        {
            let rto = now + self.snd.rtt().rto();
            self.snd.arm_rto(rto);
        }
        // FIN once everything buffered has been transmitted.
        if self.mgmt.fin_queued()
            && !self.mgmt.fin_sent()
            && self.snd.nxt_off() == self.snd.tx().end_offset()
            && matches!(
                self.mgmt.state(),
                TcpState::FinWait1 | TcpState::LastAck | TcpState::Closing
            )
        {
            let mut h = self.header(TcpFlags::FIN | TcpFlags::ACK, now);
            h.seq = self.seq_of(self.snd.nxt_off());
            h.ack = self.ack_value();
            self.mgmt.set_fin_sent(true);
            self.push_segment(h, PayloadBuf::empty(), false);
            let rto = now + self.snd.rtt().rto();
            self.snd.arm_rto_if_unarmed(rto);
        }
        probe! { self.trace_state_sync(); }
        self.audit_invariants();
    }

    /// Retransmits one MSS of payload starting at stream offset `off`.
    fn retransmit_at(&mut self, now: SimTime, off: u64) {
        let end = self.snd.tx().end_offset();
        if off >= end {
            return;
        }
        let n = (end - off).min(self.fc.peer_mss().min(self.cfg.mss) as u64);
        let Some(payload) = self.tx_payload(off, n) else {
            return;
        };
        let mut h = self.header(TcpFlags::ACK | TcpFlags::PSH, now);
        h.seq = self.seq_of(off);
        h.ack = self.ack_value();
        self.stats.retransmits += 1;
        self.push_segment(h, payload, true);
    }

    /// Retransmits one segment from the left window edge (fast retransmit
    /// or RTO-driven go-back-N start).
    fn retransmit_head(&mut self, now: SimTime) {
        let avail = self
            .snd
            .tx()
            .end_offset()
            .saturating_sub(self.snd.una_off());
        let n = avail.min(self.fc.peer_mss().min(self.cfg.mss) as u64);
        if n > 0 {
            let Some(payload) = self.tx_payload(self.snd.una_off(), n) else {
                debug_assert!(false, "una_off within tx ring");
                return;
            };
            let mut h = self.header(TcpFlags::ACK | TcpFlags::PSH, now);
            h.seq = self.seq_of(self.snd.una_off());
            h.ack = self.ack_value();
            self.stats.retransmits += 1;
            self.push_segment(h, payload, true);
        } else if self.mgmt.fin_sent() && !self.mgmt.fin_acked() {
            let mut h = self.header(TcpFlags::FIN | TcpFlags::ACK, now);
            h.seq = self.seq_of(self.snd.una_off());
            h.ack = self.ack_value();
            self.stats.retransmits += 1;
            self.push_segment(h, PayloadBuf::empty(), false);
        }
        let rto = now + self.snd.rtt().rto();
        self.snd.arm_rto_if_unarmed(rto);
    }

    // ------------------------------------------------------------------
    // Timers.

    /// Processes timer expirations at `now`.
    pub fn on_timer(&mut self, now: SimTime) {
        prof_scope!("tcp_timer");
        probe! { self.trace_now = now; }
        if let Some(tw) = self.mgmt.time_wait_deadline() {
            if now >= tw {
                self.enter_closed();
                probe! { self.trace_state_sync(); }
                return;
            }
        }
        let Some(deadline) = self.snd.rto_deadline() else {
            return;
        };
        if now < deadline {
            return;
        }
        self.snd.disarm_rto();
        match self.mgmt.state() {
            TcpState::SynSent | TcpState::SynRcvd => {
                // Retransmit the handshake segment.
                self.snd.rtt_backoff();
                self.stats.timeouts += 1;
                let flags = if self.mgmt.state() == TcpState::SynSent {
                    let mut f = TcpFlags::SYN;
                    if self.cfg.ecn {
                        f |= TcpFlags::ECE | TcpFlags::CWR;
                    }
                    f
                } else {
                    TcpFlags::SYN | TcpFlags::ACK
                };
                let mut h = self.header(flags, now);
                h.seq = self.snd.iss();
                h.ack = if self.mgmt.state() == TcpState::SynRcvd {
                    self.rcv.irs() + 1
                } else {
                    Seq(0)
                };
                self.set_syn_options(&mut h);
                self.stats.retransmits += 1;
                probe! { self.trace_rexmit("handshake", self.snd.iss()); }
                self.push_segment(h, PayloadBuf::empty(), false);
                let rto = now + self.snd.rtt().rto();
                self.snd.arm_rto(rto);
            }
            TcpState::Closed => {}
            _ => {
                let outstanding = self.in_flight() > 0
                    || (self.mgmt.fin_sent() && !self.mgmt.fin_acked())
                    || self.snd.tx().end_offset() > self.snd.nxt_off();
                if outstanding {
                    // Go-back-N: rewind to the left edge.
                    self.snd.rtt_backoff();
                    self.stats.timeouts += 1;
                    probe! { self.trace_rexmit("timeout", self.seq_of(self.snd.una_off())); }
                    self.cc.on_timeout();
                    self.snd.rewind_to_una();
                    self.snd.exit_recovery();
                    self.snd.reset_dupacks();
                    if self.mgmt.fin_sent() && self.snd.nxt_off() == self.snd.tx().end_offset() {
                        // Only the FIN is outstanding.
                        self.mgmt.set_fin_sent(true);
                        self.retransmit_head(now);
                    } else {
                        self.mgmt.set_fin_sent(false);
                        self.retransmit_head(now);
                    }
                    let rto = now + self.snd.rtt().rto();
                    self.snd.arm_rto(rto);
                    self.poll(now);
                }
            }
        }
        probe! { self.trace_state_sync(); }
        self.audit_invariants();
    }

    // ------------------------------------------------------------------
    // Segment processing.

    /// Processes one received segment addressed to this connection.
    pub fn on_segment(&mut self, now: SimTime, seg: Segment) {
        prof_scope!("tcp_rx");
        probe! { self.trace_now = now; }
        trace!("conn", now, SegRx(seg));
        self.stats.segs_in += 1;
        if seg.tcp.flags.contains(TcpFlags::RST) {
            self.events.push(TcpEvent::Reset);
            self.enter_closed();
            probe! { self.trace_state_sync(); }
            return;
        }
        if let Some((tsval, _)) = seg.tcp.options.timestamp {
            // PAWS is not needed (no wrap within experiments); keep the
            // most recent value for echo.
            self.mgmt.note_ts(tsval);
        }
        match self.mgmt.state() {
            TcpState::SynSent => self.on_segment_syn_sent(now, seg),
            TcpState::SynRcvd => self.on_segment_syn_rcvd(now, seg),
            TcpState::Closed => {}
            _ => self.on_segment_established(now, seg),
        }
        self.poll(now);
        self.audit_invariants();
    }

    fn on_segment_syn_sent(&mut self, now: SimTime, seg: Segment) {
        let f = seg.tcp.flags;
        if !f.contains(TcpFlags::SYN | TcpFlags::ACK) {
            return;
        }
        if seg.tcp.ack != self.snd.iss() + 1 {
            return;
        }
        self.rcv.init_irs(seg.tcp.seq);
        self.apply_syn_options(&seg);
        let active = self.cfg.ecn && f.contains(TcpFlags::ECE);
        self.cc.set_active(active);
        self.mgmt.set_state(TcpState::Established);
        self.snd.disarm_rto();
        // RTT from the handshake echo.
        self.rtt_from_echo(now, &seg);
        self.events.push(TcpEvent::Connected);
        self.emit_ack(now);
    }

    fn on_segment_syn_rcvd(&mut self, now: SimTime, seg: Segment) {
        let f = seg.tcp.flags;
        if f.contains(TcpFlags::SYN) {
            // Duplicate SYN: retransmit SYN-ACK via timer path; ignore here.
            return;
        }
        if f.contains(TcpFlags::ACK) && seg.tcp.ack == self.snd.iss() + 1 {
            self.mgmt.set_state(TcpState::Established);
            self.snd.disarm_rto();
            self.fc.update_wnd(seg.tcp.window);
            self.rtt_from_echo(now, &seg);
            self.events.push(TcpEvent::Connected);
            // The ACK may carry data; fall through.
            if !seg.payload.is_empty() || f.contains(TcpFlags::FIN) {
                self.on_segment_established(now, seg);
            }
        }
    }

    /// Feeds the estimator one RTT sample from the segment's timestamp
    /// echo, if it carries a valid one.
    fn rtt_from_echo(&mut self, now: SimTime, seg: &Segment) {
        if let Some(us) = seg.tcp.options.echo_rtt_us(now.as_micros()) {
            self.snd.rtt_update(SimTime::from_us(us as u64));
        }
    }

    fn on_segment_established(&mut self, now: SimTime, seg: Segment) {
        let f = seg.tcp.flags;
        if f.contains(TcpFlags::ACK) {
            self.process_ack(now, &seg);
        }
        if !seg.payload.is_empty() {
            self.process_data(now, &seg);
        }
        if f.contains(TcpFlags::FIN) {
            self.process_fin(now, &seg);
        } else if seg.payload.is_empty() {
            // Pure ACK: no response needed.
        }
    }

    fn process_ack(&mut self, now: SimTime, seg: &Segment) {
        let ack = seg.tcp.ack;
        let una_seq = self.seq_of(self.snd.una_off());
        // Highest valid ack: the highest byte ever sent (+1 if FIN sent) —
        // recovery may have rewound nxt below data the peer holds.
        let mut max_seq = self.seq_of(self.snd.max_sent_off().max(self.snd.nxt_off()));
        if self.mgmt.fin_sent() {
            max_seq = max_seq + 1;
        }
        let ece = self.cc.ecn_active() && seg.tcp.flags.contains(TcpFlags::ECE);
        if ece {
            self.stats.ece_in += 1;
        }
        if ack.gt(una_seq) && ack.le(max_seq) {
            let mut newly = (ack - una_seq) as u64;
            // Does the ack cover our FIN?
            if self.mgmt.fin_sent() && ack == max_seq {
                self.mgmt.mark_fin_acked();
                newly -= 1;
            }
            let payload_acked = newly.min(self.snd.tx().len() as u64);
            if !self.snd.advance_una(newly, payload_acked) {
                debug_assert!(false, "acked bytes are in the ring");
            }
            if payload_acked > 0 {
                self.events.push(TcpEvent::SendSpaceAvailable);
            }
            self.snd.reset_dupacks();
            self.rtt_from_echo(now, seg);
            // Congestion response. NewReno reduces at most once per window
            // in flight; DCTCP consumes every echo for its mark fraction.
            let cc_ece = match self.cfg.cc {
                CcKind::Dctcp => ece,
                CcKind::NewReno => {
                    self.cc
                        .classic_ece_gate(ece, self.snd.una_off(), self.snd.nxt_off())
                }
            };
            self.cc.on_ack(AckInfo {
                acked: payload_acked as u32,
                ece: cc_ece,
                now,
                srtt: self.snd.rtt().srtt(),
            });
            // Recovery bookkeeping.
            if self.snd.in_recovery() {
                if self.snd.una_off() >= self.snd.recover_off() {
                    self.snd.exit_recovery();
                } else {
                    // NewReno partial ack: retransmit the next hole.
                    self.retransmit_head(now);
                }
            }
            // Rearm or disarm the RTO.
            let outstanding =
                self.in_flight() > 0 || (self.mgmt.fin_sent() && !self.mgmt.fin_acked());
            if outstanding {
                let rto = now + self.snd.rtt().rto();
                self.snd.arm_rto(rto);
            } else {
                self.snd.disarm_rto();
            }
            self.advance_close_states(now);
        } else if ack == una_seq
            && seg.payload.is_empty()
            && !seg.tcp.flags.contains(TcpFlags::FIN)
            && self.in_flight() > 0
            && (seg.tcp.window as u64) << self.fc.peer_wscale() <= self.fc.snd_wnd()
        {
            // Duplicate ACK.
            self.stats.dupacks_in += 1;
            let dups = self.snd.count_dupack();
            if ece {
                self.cc.on_ack(AckInfo {
                    acked: 0,
                    ece,
                    now,
                    srtt: self.snd.rtt().srtt(),
                });
            }
            if dups == 3 && !self.snd.in_recovery() {
                self.snd.enter_recovery(self.cfg.mss);
                self.stats.fast_retransmits += 1;
                probe! { self.trace_rexmit("fast", self.seq_of(self.snd.una_off())); }
                self.cc.on_fast_retransmit();
                self.retransmit_head(now);
            } else if self.snd.in_recovery() && dups > 3 {
                // SACK-guided recovery: retransmit only the hole between
                // the cumulative ACK and the receiver's first held block.
                let hole_end = match seg.tcp.options.sack_block {
                    Some((l, _)) => {
                        let una = self.seq_of(self.snd.una_off());
                        self.snd.una_off() + (Seq(l) - una) as u64
                    }
                    None => self.snd.recover_off(),
                };
                self.snd.clamp_cursor_to_una();
                if self.snd.recovery_cursor_off() < hole_end.min(self.snd.recover_off()) {
                    probe! {
                        self.trace_rexmit("fast", self.seq_of(self.snd.recovery_cursor_off()));
                    }
                    self.retransmit_at(now, self.snd.recovery_cursor_off());
                    self.snd.advance_cursor(self.cfg.mss);
                }
            }
        }
        // Window update (simplified: latest segment wins).
        self.fc.update_wnd(seg.tcp.window);
    }

    fn process_data(&mut self, now: SimTime, seg: &Segment) {
        let rcv_nxt = self.rcv_seq_of(self.rcv.rcv_off());
        let seg_seq = seg.tcp.seq;
        self.cc.note_ce(seg.is_ce_marked());
        if seg.tcp.flags.contains(TcpFlags::CWR) {
            self.cc.clear_latch_on_cwr();
        }
        // Offset of the segment start relative to rcv_nxt.
        let data = &seg.payload;
        if rcv_nxt.ge(seg_seq) {
            // Starts at or before rcv_nxt: possibly old data.
            let skip = (rcv_nxt - seg_seq) as usize;
            if skip >= data.len() {
                // Entirely old: pure duplicate.
                self.emit_ack(now);
                return;
            }
            let fresh = &data[skip..];
            // In-order: commit to the rx ring.
            let n = self.rcv.commit_in_order(fresh);
            self.stats.bytes_received += n as u64;
            // Pull any now-contiguous reassembled data.
            let drained = self.rcv.drain_reassembled();
            self.stats.bytes_received += drained as u64;
            if n > 0 {
                self.events.push(TcpEvent::DataAvailable);
            }
        } else {
            // Out of order: ahead of rcv_nxt.
            let off = self.rcv.rcv_off() + (seg_seq - rcv_nxt) as u64;
            // Bound by the receive window horizon.
            let horizon = self.rcv.rcv_off() + self.rcv.rx().free() as u64;
            if off < horizon {
                let room = (horizon - off) as usize;
                let d = data[..data.len().min(room)].to_vec();
                trace!(
                    "conn",
                    self.trace_now,
                    OooPlace {
                        flow: self.flow_key(),
                        start: off,
                        len: d.len() as u64,
                    }
                );
                self.rcv.insert_ooo(off, d);
            }
            // Duplicate ACK to trigger peer fast retransmit.
        }
        self.emit_ack(now);
    }

    fn process_fin(&mut self, now: SimTime, seg: &Segment) {
        let rcv_nxt = self.rcv_seq_of(self.rcv.rcv_off());
        let fin_seq = seg.tcp.seq + seg.payload.len() as u32;
        let fin_off = self.rcv.rcv_off() + (fin_seq - rcv_nxt) as u64;
        if fin_seq.gt(rcv_nxt) {
            // FIN beyond in-order data we hold: remember and ack what we
            // have (the gap will be retransmitted).
            self.mgmt.set_peer_fin(fin_off);
            self.emit_ack(now);
            return;
        }
        self.mgmt.set_peer_fin(self.rcv.rcv_off());
        if self.mgmt.mark_peer_fin_done() {
            self.events.push(TcpEvent::PeerFin);
            match self.mgmt.state() {
                TcpState::Established | TcpState::SynRcvd => {
                    self.mgmt.set_state(TcpState::CloseWait);
                }
                TcpState::FinWait1 => {
                    if self.mgmt.fin_acked() {
                        self.enter_time_wait(now);
                        self.mgmt.set_state(TcpState::TimeWait);
                    } else {
                        self.mgmt.set_state(TcpState::Closing);
                    }
                }
                TcpState::FinWait2 => {
                    self.enter_time_wait(now);
                    self.mgmt.set_state(TcpState::TimeWait);
                }
                _ => {}
            }
        }
        self.emit_ack(now);
        self.advance_close_states(now);
    }

    fn advance_close_states(&mut self, now: SimTime) {
        if self.mgmt.fin_acked() {
            match self.mgmt.state() {
                TcpState::FinWait1 => self.mgmt.set_state(TcpState::FinWait2),
                TcpState::Closing => {
                    self.enter_time_wait(now);
                    self.mgmt.set_state(TcpState::TimeWait);
                }
                TcpState::LastAck => self.enter_closed(),
                _ => {}
            }
        }
    }

    fn enter_time_wait(&mut self, now: SimTime) {
        self.mgmt.arm_time_wait(now + TIME_WAIT);
        self.snd.disarm_rto();
    }

    fn enter_closed(&mut self) {
        if self.mgmt.enter_closed() {
            self.snd.disarm_rto();
            self.events.push(TcpEvent::Closed);
        }
    }
}
