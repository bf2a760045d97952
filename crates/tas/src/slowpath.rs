//! The TAS slow path (paper §3.2).
//!
//! Everything with non-constant per-packet cost or policy content lives
//! here: connection control (port allocation, handshakes, teardown, with
//! retry), the congestion-control control loop (rate-based DCTCP or
//! TIMELY, one iteration per flow per control interval), and detection of
//! retransmission timeouts (a flow whose left window edge has not moved
//! for multiple control intervals is told to go-back-N). The state those
//! two need per flow is the slow path's own (`SpFlow`); the fast path
//! only accumulates the feedback counters the control loop drains.
//!
//! Like the fast path, the slow path is sans-IO: it stages packets and
//! application events into [`SpOut`]; the host charges the returned cycle
//! costs to the slow-path core and moves staged items.
//!
//! Connection control decides each thing once: one retry rule, one
//! close-out, one header builder, so the control loop resends as it walks.
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

use crate::config::{CcAlgo, TasConfig, MSS};
use crate::fastpath::FastPath;
use crate::flow::{
    FlowState, FpCongCtrl, FpConnMgmt, FpFlowCtrl, FpRecvRel, FpSendRel, RateBucket, TAS_WSCALE,
};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use tas_cc::{dctcp_rate, timely_rate, CcState};
use tas_cpusim::{CycleAccount, Module};
use tas_proto::{FlowKey, MacAddr, Segment, Seq, TcpFlags, TcpHeader};
use tas_shm::ByteRing;
use tas_sim::{probe, prof_charge, prof_scope, trace, SimTime};

/// Application-facing events produced by the slow path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpAppEvent {
    /// An outgoing connection completed; the flow is installed.
    ConnectDone {
        /// The opaque value given at `connect` (the socket id).
        opaque: u64,
        /// Fast-path flow id.
        fid: u32,
    },
    /// An outgoing connection failed (retries exhausted, RST, or no
    /// ephemeral port left toward the peer).
    ConnectFailed {
        /// The opaque value given at `connect`.
        opaque: u64,
    },
    /// An incoming connection completed on a listening port.
    AcceptDone {
        /// The opaque value the host assigned at SYN time.
        opaque: u64,
        /// Fast-path flow id.
        fid: u32,
        /// The listening port.
        port: u16,
        /// The connection 4-tuple.
        key: FlowKey,
    },
    /// The peer closed a connection (FIN or RST received).
    PeerClosed {
        /// The opaque of the closed connection.
        opaque: u64,
        /// Flow id (after a FIN, still installed until the app closes).
        fid: u32,
    },
    /// A locally-initiated close finished; all state is gone.
    CloseDone {
        /// The opaque of the closed connection.
        opaque: u64,
    },
    /// A flow was removed from the fast path (teardown started); the host
    /// must drop its fid mapping before the id is reused.
    Detached {
        /// The opaque of the detaching connection.
        opaque: u64,
        /// The (now invalid) fast-path flow id.
        fid: u32,
    },
}

/// Staged slow-path effects.
#[derive(Debug, Default)]
pub struct SpOut {
    /// Packets to transmit.
    pub packets: Vec<Segment>,
    /// Application events.
    pub events: Vec<SpAppEvent>,
}

/// Slow-path counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpStats {
    /// Connections fully established (either direction).
    pub established: u64,
    /// Connections fully closed.
    pub closed: u64,
    /// Handshake segment retransmissions.
    pub handshake_rexmits: u64,
    /// Retransmissions triggered by the stall detector.
    pub timeout_rexmits: u64,
    /// Exception packets processed.
    pub exceptions: u64,
    /// Exceptions dropped as unmatchable.
    pub dropped: u64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum HsState {
    /// SYN sent, awaiting SYN-ACK (local connect).
    SynSent,
    /// SYN-ACK sent, awaiting the final ACK (remote connect). The host
    /// accepts a new passive handshake before anything else runs, so its
    /// SYN-ACK is staged before any other code can see the record.
    SynAckSent,
}

/// The one retry rule of connection control: an unanswered SYN, SYN-ACK
/// or FIN is resent every [`RETRY_AFTER`], and its record gives up after
/// [`MAX_ATTEMPTS`] resends.
#[derive(Clone, Copy, Debug)]
struct Retry {
    deadline: SimTime,
    attempts: u32,
}

/// What one control-loop pass does with a record's [`Retry`].
enum Due {
    Wait,
    Resend,
    GiveUp,
}

impl Retry {
    fn new(now: SimTime) -> Retry {
        Retry {
            deadline: now + RETRY_AFTER,
            attempts: 0,
        }
    }

    /// Counts one attempt once the deadline has passed; a resend re-arms.
    fn due(&mut self, now: SimTime) -> Due {
        if now < self.deadline {
            return Due::Wait;
        }
        self.attempts += 1;
        if self.attempts > MAX_ATTEMPTS {
            return Due::GiveUp;
        }
        self.deadline = now + RETRY_AFTER;
        Due::Resend
    }
}

/// A connection the slow path is establishing.
#[derive(Debug)]
struct Handshake {
    state: HsState,
    key: FlowKey,
    peer_mac: MacAddr,
    opaque: u64,
    context: u16,
    iss: Seq,
    irs: Seq,
    peer_wscale: u8,
    peer_win: u64,
    ts_recent: u32,
    retry: Retry,
}

impl Handshake {
    /// Stages this handshake's SYN (active) or SYN-ACK (passive).
    fn send(&self, hdr: &CtrlHeader, now: SimTime, packets: &mut Vec<Segment>) {
        let (flags, ack, ts_ecr) = match self.state {
            // ECN negotiation (TAS runs DCTCP).
            HsState::SynSent => (TcpFlags::SYN | TcpFlags::ECE | TcpFlags::CWR, Seq(0), 0),
            // Accept ECN.
            HsState::SynAckSent => (
                TcpFlags::SYN | TcpFlags::ACK | TcpFlags::ECE,
                self.irs + 1,
                self.ts_recent,
            ),
        };
        hdr.send_ctrl(
            packets,
            now,
            self.key,
            self.peer_mac,
            flags,
            self.iss,
            ack,
            ts_ecr,
        );
    }
}

/// A connection the slow path is tearing down (already removed from the
/// fast path, or peer-initiated).
#[derive(Debug)]
struct Teardown {
    key: FlowKey,
    peer_mac: MacAddr,
    opaque: u64,
    /// Sequence of our FIN (== snd_nxt at close time).
    fin_seq: Seq,
    /// What we acknowledge (peer's nxt, +1 once their FIN is in).
    rcv_ack: Seq,
    ts_recent: u32,
    fin_acked: bool,
    peer_fin: bool,
    /// Our FIN's retry; `None` for a peer-FIN record, which has nothing
    /// to resend.
    retry: Option<Retry>,
}

impl Teardown {
    fn send_fin(&self, hdr: &CtrlHeader, now: SimTime, packets: &mut Vec<Segment>) {
        let flags = TcpFlags::FIN | TcpFlags::ACK;
        let (seq_no, ack) = (self.fin_seq, self.rcv_ack);
        hdr.send_ctrl(
            packets,
            now,
            self.key,
            self.peer_mac,
            flags,
            seq_no,
            ack,
            self.ts_recent,
        );
    }

    /// The one close-out, for a teardown its caller is removing: the
    /// connection counts as closed and the host hears `CloseDone`.
    /// `_now` is read only by the trace probe.
    fn close_out(&self, _now: SimTime, stats: &mut SpStats, events: &mut Vec<SpAppEvent>) {
        stats.closed += 1;
        trace!(
            "sp",
            _now,
            State {
                flow: self.key,
                from: "closing",
                to: "closed",
            }
        );
        events.push(SpAppEvent::CloseDone {
            opaque: self.opaque,
        });
    }
}

/// What every control segment of this host carries.
#[derive(Debug)]
struct CtrlHeader {
    ip: Ipv4Addr,
    mac: MacAddr,
    rx_buf: usize,
}

impl CtrlHeader {
    /// Stages one payload-free control segment — the one place the slow
    /// path assembles a header. Every such segment advertises the whole
    /// receive buffer and echoes `ts_ecr`; one that carries SYN also
    /// offers the MSS and window-scale options.
    #[allow(clippy::too_many_arguments)]
    fn send_ctrl(
        &self,
        packets: &mut Vec<Segment>,
        now: SimTime,
        key: FlowKey,
        peer_mac: MacAddr,
        flags: TcpFlags,
        seq_no: Seq,
        ack: Seq,
        ts_ecr: u32,
    ) {
        let mut h = TcpHeader::new(key.local_port, key.remote_port, seq_no.0, ack.0, flags);
        if flags.contains(TcpFlags::SYN) {
            h.options.mss = Some(MSS as u16);
            h.options.wscale = Some(TAS_WSCALE);
        }
        h.options.timestamp = Some((now.as_micros() as u32, ts_ecr));
        h.window = self.rx_buf.min(u16::MAX as usize) as u16;
        packets.push(Segment::tcp(
            self.mac,
            peer_mac,
            self.ip,
            key.remote_ip,
            h,
            Vec::new(),
            false,
        ));
    }
}

/// The slow path's own per-flow state: the rate law's [`CcState`] and
/// the stall detector's bookkeeping. Policy state stays out of the fast
/// path's per-flow record (paper §3.2).
#[derive(Clone, Copy, Debug, Default)]
struct SpFlow {
    /// Rate-law state (DCTCP alpha and rate EWMA, TIMELY RTT gradient).
    law: CcState,
    /// TX left edge sampled at the previous control-loop iteration.
    last_una_off: u64,
    /// Control intervals the left edge has been stalled with data out.
    stall_intervals: u32,
}

impl SpFlow {
    /// Flow `fid`'s record in `flows`, growing the table on first use.
    fn of(flows: &mut Vec<SpFlow>, fid: u32) -> &mut SpFlow {
        let i = fid as usize;
        if i >= flows.len() {
            flows.resize(i + 1, SpFlow::default());
        }
        &mut flows[i]
    }
}

/// The slow path.
#[derive(Debug)]
pub struct SlowPath {
    hdr: CtrlHeader,
    tx_buf: usize,
    cc: CcAlgo,
    control_interval: SimTime,
    stall_intervals_for_rexmit: u32,
    initial_rate_bps: u64,
    // BTreeMap, not HashMap: the control loop resends as it walks these,
    // and packet emission order must not depend on the process's hash
    // seed (runs must reproduce bit-for-bit across runs). One 4-tuple can
    // sit in both: a new SYN may reuse a tuple whose teardown lingers.
    listeners: BTreeMap<u16, ()>,
    handshakes: BTreeMap<FlowKey, Handshake>,
    teardowns: BTreeMap<FlowKey, Teardown>,
    next_port: u16,
    /// Per-flow state indexed by fast-path flow id, reset in `install`.
    flows: Vec<SpFlow>,
    /// Completion time of the previous control-loop iteration (the loop
    /// self-paces: with many flows an iteration takes longer than the
    /// nominal interval, exactly like the real slow-path thread).
    last_loop: SimTime,
    /// The rate changes one control-loop iteration applies, drained by it
    /// and kept for its capacity: the loop runs every interval.
    rate_updates: Vec<(u32, u64)>,
    /// Staged effects.
    pub out: SpOut,
    /// Counters.
    pub stats: SpStats,
}

/// Handshake/teardown retry interval (datacenter-scale: a dropped SYN
/// costs a couple of RTT-magnitudes, not a WAN timeout).
const RETRY_AFTER: SimTime = SimTime::from_ms(2);
/// Retry attempts before giving up.
const MAX_ATTEMPTS: u32 = 8;
/// The ephemeral port range is `EPHEMERAL_FIRST..=u16::MAX`.
const EPHEMERAL_FIRST: u16 = 32_768;
const EPHEMERAL_PORTS: u32 = u16::MAX as u32 - EPHEMERAL_FIRST as u32 + 1;

impl SlowPath {
    /// Creates a slow path for a host.
    pub fn new(local_ip: Ipv4Addr, local_mac: MacAddr, cfg: &TasConfig) -> Self {
        SlowPath {
            hdr: CtrlHeader {
                ip: local_ip,
                mac: local_mac,
                rx_buf: cfg.rx_buf,
            },
            tx_buf: cfg.tx_buf,
            cc: cfg.cc,
            control_interval: cfg.control_interval,
            stall_intervals_for_rexmit: cfg.stall_intervals_for_rexmit,
            initial_rate_bps: cfg.initial_rate_bps,
            listeners: BTreeMap::new(),
            handshakes: BTreeMap::new(),
            teardowns: BTreeMap::new(),
            next_port: EPHEMERAL_FIRST,
            flows: Vec::new(),
            last_loop: SimTime::ZERO,
            rate_updates: Vec::new(),
            out: SpOut::default(),
            stats: SpStats::default(),
        }
    }

    fn charge(&self, acct: &mut CycleAccount, cycles: u64) -> u64 {
        // Slow-path work bills as "Other" stack cycles (it runs on its own
        // partially-used core; Table 6 counts it there).
        acct.charge(Module::Other, cycles, cycles);
        prof_charge!(cycles);
        cycles
    }

    /// Registers a listening port.
    pub fn listen(&mut self, port: u16) {
        self.listeners.insert(port, ());
    }

    /// Allocates an ephemeral local port toward `peer_ip:peer_port`,
    /// round-robin, skipping every port whose 4-tuple is still live: in a
    /// handshake, in a teardown, or installed in the fast path. `None`
    /// when all of them are.
    fn alloc_port(&mut self, fp: &FastPath, peer_ip: Ipv4Addr, peer_port: u16) -> Option<u16> {
        for _ in 0..EPHEMERAL_PORTS {
            let p = self.next_port;
            self.next_port = self.next_port.checked_add(1).unwrap_or(EPHEMERAL_FIRST);
            let key = FlowKey::new(self.hdr.ip, p, peer_ip, peer_port);
            let live = self.handshakes.contains_key(&key)
                || self.teardowns.contains_key(&key)
                || fp.flows.lookup(&key).is_some();
            if !live {
                return Some(p);
            }
        }
        None
    }

    // ------------------------------------------------------------------
    // Application commands.

    /// Starts an outgoing connection; stages a SYN, or `ConnectFailed`
    /// when every ephemeral port toward the peer is in use. `opaque`
    /// identifies the socket; `context` is the app context for the future
    /// flow.
    #[allow(clippy::too_many_arguments)] // The handshake tuple is irreducible.
    pub fn connect(
        &mut self,
        now: SimTime,
        peer_ip: Ipv4Addr,
        peer_port: u16,
        peer_mac: MacAddr,
        opaque: u64,
        context: u16,
        iss: u32,
        fp: &FastPath,
        acct: &mut CycleAccount,
    ) -> u64 {
        prof_scope!("connect");
        let cycles = self.charge(acct, 900);
        let Some(local_port) = self.alloc_port(fp, peer_ip, peer_port) else {
            self.out.events.push(SpAppEvent::ConnectFailed { opaque });
            return cycles;
        };
        let key = FlowKey::new(self.hdr.ip, local_port, peer_ip, peer_port);
        let hs = Handshake {
            state: HsState::SynSent,
            key,
            peer_mac,
            opaque,
            context,
            iss: Seq(iss),
            irs: Seq(0),
            peer_wscale: 0,
            peer_win: 0,
            ts_recent: 0,
            retry: Retry::new(now),
        };
        hs.send(&self.hdr, now, &mut self.out.packets);
        self.handshakes.insert(key, hs);
        cycles
    }

    /// Builds the established flow state and installs it in the fast path.
    fn install(&mut self, fp: &mut FastPath, hs: &Handshake, now: SimTime) -> u32 {
        let bucket = match self.cc {
            CcAlgo::None => RateBucket::unlimited(),
            _ => RateBucket::limited(
                self.initial_rate_bps,
                self.burst_for(self.initial_rate_bps),
                now,
            ),
        };
        let flow = FlowState {
            conn: FpConnMgmt::new(hs.opaque, hs.context, hs.key, hs.peer_mac, hs.ts_recent),
            snd: FpSendRel::new(ByteRing::new(self.tx_buf), hs.iss.0),
            rcv: FpRecvRel::new(ByteRing::new(self.hdr.rx_buf), hs.irs.0),
            fc: FpFlowCtrl::new(hs.peer_win, hs.peer_wscale),
            cc: FpCongCtrl::new(bucket),
        };
        self.stats.established += 1;
        trace!(
            "sp",
            now,
            State {
                flow: hs.key,
                from: match hs.state {
                    HsState::SynSent => "syn_sent",
                    HsState::SynAckSent => "syn_rcvd",
                },
                to: "established",
            }
        );
        let fid = fp.install_flow(flow);
        *SpFlow::of(&mut self.flows, fid) = SpFlow::default();
        fid
    }

    fn burst_for(&self, rate_bps: u64) -> u64 {
        // Credit for one control interval, at least 2 MSS.
        let per_interval = (rate_bps as u128 * self.control_interval.as_ps() as u128
            / 8
            / 1_000_000_000_000) as u64;
        per_interval.max(2 * MSS as u64)
    }

    /// Application closes a connection. If the flow has drained, teardown
    /// starts immediately; otherwise it is marked and the control loop
    /// picks it up.
    pub fn close(
        &mut self,
        now: SimTime,
        fid: u32,
        fp: &mut FastPath,
        acct: &mut CycleAccount,
    ) -> u64 {
        prof_scope!("close");
        let cycles = self.charge(acct, 700);
        let Some(flow) = fp.flows.get_mut(fid) else {
            return cycles;
        };
        flow.conn.mark_closing();
        if flow.snd.tx.is_empty() {
            self.start_teardown(now, fid, fp);
        }
        cycles
    }

    /// Removes the flow from the fast path and sends our FIN. Teardown
    /// starts only after the application's own `close()`, so nobody is
    /// left to read the receive ring: unread data is dropped with the flow.
    fn start_teardown(&mut self, now: SimTime, fid: u32, fp: &mut FastPath) {
        let Some(flow) = fp.remove_flow(fid) else {
            return;
        };
        self.out.events.push(SpAppEvent::Detached {
            opaque: flow.conn.opaque(),
            fid,
        });
        // Existing peer-FIN state (remote closed first): ACK their FIN too.
        let key = flow.conn.key();
        let peer_fin = self.teardowns.get(&key).is_some_and(|t| t.peer_fin);
        let fin_seq = flow.seq_of(flow.nxt_off());
        let rcv_ack = flow.rcv_seq_of(flow.rcv.rx.end_offset()) + u32::from(peer_fin);
        let td = Teardown {
            key,
            peer_mac: flow.conn.peer_mac(),
            opaque: flow.conn.opaque(),
            fin_seq,
            rcv_ack,
            ts_recent: flow.conn.ts_recent(),
            fin_acked: false,
            peer_fin,
            retry: Some(Retry::new(now)),
        };
        td.send_fin(&self.hdr, now, &mut self.out.packets);
        self.teardowns.insert(key, td);
    }

    // ------------------------------------------------------------------
    // Exception processing.

    /// Processes one exception packet forwarded by the fast path.
    /// `fresh_iss` seeds a new ISN when a connection must be created.
    /// Returns the cycle cost and, for a SYN that opened a passive
    /// handshake, the key the host must [`accept`](Self::accept).
    #[allow(clippy::too_many_arguments)] // The handshake tuple is irreducible.
    pub fn on_exception(
        &mut self,
        now: SimTime,
        seg: Segment,
        fp: &mut FastPath,
        fresh_iss: u32,
        fresh_opaque: u64,
        context_for_accept: u16,
        acct: &mut CycleAccount,
    ) -> (u64, Option<FlowKey>) {
        prof_scope!("exception");
        self.stats.exceptions += 1;
        let cycles = self.charge(acct, 900);
        let key = seg.flow_key();
        let f = seg.tcp.flags;
        let ts = seg.tcp.options.timestamp.map(|(v, _)| v).unwrap_or(0);
        if f.contains(TcpFlags::RST) {
            // Reset: drop all state for the tuple.
            if let Some(hs) = self.handshakes.remove(&key) {
                self.out
                    .events
                    .push(SpAppEvent::ConnectFailed { opaque: hs.opaque });
            }
            if let Some(fid) = fp.flows.lookup(&key) {
                if let Some(flow) = fp.remove_flow(fid) {
                    let opaque = flow.conn.opaque();
                    self.out.events.push(SpAppEvent::PeerClosed { opaque, fid });
                    self.out.events.push(SpAppEvent::Detached { opaque, fid });
                }
            }
            self.teardowns.remove(&key);
            return (cycles, None);
        }
        if f.contains(TcpFlags::SYN) && !f.contains(TcpFlags::ACK) {
            // Incoming connection request.
            if let Some(hs) = self.handshakes.get(&key) {
                // Duplicate SYN: if we already answered, answer again.
                if hs.state == HsState::SynAckSent {
                    hs.send(&self.hdr, now, &mut self.out.packets);
                }
                return (cycles, None);
            }
            if !self.listeners.contains_key(&key.local_port) {
                self.stats.dropped += 1;
                return (cycles, None);
            }
            let hs = Handshake {
                state: HsState::SynAckSent,
                key,
                peer_mac: seg.eth.src,
                opaque: fresh_opaque,
                context: context_for_accept,
                iss: Seq(fresh_iss),
                irs: seg.tcp.seq,
                peer_wscale: seg.tcp.options.wscale.unwrap_or(0),
                peer_win: seg.tcp.window as u64,
                ts_recent: ts,
                retry: Retry::new(now),
            };
            self.handshakes.insert(key, hs);
            // The host relays the accept decision through `accept()`
            // (charging the application's side of the handshake).
            return (cycles, Some(key));
        }
        if f.contains(TcpFlags::SYN | TcpFlags::ACK) {
            // SYN-ACK for one of our connects.
            let Some(mut hs) = self.handshakes.remove(&key) else {
                self.stats.dropped += 1;
                return (cycles, None);
            };
            if hs.state != HsState::SynSent || seg.tcp.ack != hs.iss + 1 {
                self.handshakes.insert(key, hs);
                return (cycles, None);
            }
            hs.irs = seg.tcp.seq;
            hs.peer_wscale = seg.tcp.options.wscale.unwrap_or(0);
            hs.peer_win = seg.tcp.window as u64; // SYN windows unscaled.
            hs.ts_recent = ts;
            // Final ACK of the handshake.
            self.hdr.send_ctrl(
                &mut self.out.packets,
                now,
                key,
                hs.peer_mac,
                TcpFlags::ACK,
                hs.iss + 1,
                hs.irs + 1,
                hs.ts_recent,
            );
            let fid = self.install(fp, &hs, now);
            self.out.events.push(SpAppEvent::ConnectDone {
                opaque: hs.opaque,
                fid,
            });
            return (cycles, None);
        }
        if f.contains(TcpFlags::FIN) {
            self.on_fin(now, seg, fp);
            return (cycles, None);
        }
        // Plain ACK exceptions: final handshake ACK or teardown ACK.
        if f.contains(TcpFlags::ACK) {
            let hs_done = self
                .handshakes
                .get(&key)
                .is_some_and(|hs| hs.state == HsState::SynAckSent && seg.tcp.ack == hs.iss + 1);
            if let Some(mut hs) = hs_done.then(|| self.handshakes.remove(&key)).flatten() {
                hs.ts_recent = ts;
                hs.peer_win = (seg.tcp.window as u64) << hs.peer_wscale;
                let fid = self.install(fp, &hs, now);
                self.out.events.push(SpAppEvent::AcceptDone {
                    opaque: hs.opaque,
                    fid,
                    port: key.local_port,
                    key,
                });
                // Data may ride on the handshake-completing ACK; now that
                // the flow is installed, the fast path takes it.
                if !seg.payload.is_empty() {
                    fp.rx_segment(now, seg, acct);
                }
                return (cycles, None);
            }
            if let Some(td) = self.teardowns.get_mut(&key) {
                if seg.tcp.ack == td.fin_seq + 1 {
                    td.fin_acked = true;
                    if td.peer_fin {
                        td.close_out(now, &mut self.stats, &mut self.out.events);
                        self.teardowns.remove(&key);
                    }
                    return (cycles, None);
                }
            }
            self.stats.dropped += 1;
            return (cycles, None);
        }
        self.stats.dropped += 1;
        (cycles, None)
    }

    fn on_fin(&mut self, now: SimTime, seg: Segment, fp: &mut FastPath) {
        let key = seg.flow_key();
        let ts = seg.tcp.options.timestamp.map(|(v, _)| v).unwrap_or(0);
        // Case 1: flow still installed — peer closed first.
        let installed = fp.flows.lookup(&key);
        if let Some((fid, flow)) = installed.and_then(|fid| Some((fid, fp.flows.get_mut(fid)?))) {
            let expected = flow.rcv_seq_of(flow.rcv.rx.end_offset());
            // Deliver any payload carried with the FIN (rare; peers here
            // send pure FINs, but be liberal).
            let fin_seq = seg.tcp.seq + seg.payload.len() as u32;
            if fin_seq.gt(expected) && !seg.payload.is_empty() && seg.tcp.seq == expected {
                let take = seg.payload.len().min(flow.rcv.rx.free());
                if flow.rcv.rx.append(&seg.payload[..take]).is_err() {
                    debug_assert!(false, "append is bounded by rx.free()");
                }
            }
            let rcv_ack = flow.rcv_seq_of(flow.rcv.rx.end_offset()) + 1;
            let peer_mac = flow.conn.peer_mac();
            let opaque = flow.conn.opaque();
            let seq_no = flow.seq_of(flow.nxt_off());
            // Record the peer FIN so a later local close skips its wait.
            let td = Teardown {
                key,
                peer_mac,
                opaque,
                fin_seq: Seq(0),
                rcv_ack,
                ts_recent: ts,
                fin_acked: false,
                peer_fin: true,
                retry: None,
            };
            let packets = &mut self.out.packets;
            self.hdr.send_ctrl(
                packets,
                now,
                key,
                peer_mac,
                TcpFlags::ACK,
                seq_no,
                rcv_ack,
                ts,
            );
            self.teardowns.insert(key, td);
            self.out.events.push(SpAppEvent::PeerClosed { opaque, fid });
            return;
        }
        // Case 2: we closed first; peer's FIN completes the teardown.
        if let Some(td) = self.teardowns.get_mut(&key) {
            td.peer_fin = true;
            td.ts_recent = ts;
            let ack = seg.tcp.seq + seg.payload.len() as u32 + 1;
            td.rcv_ack = ack;
            // ACK their FIN; our seq is past our FIN.
            let (packets, seq_no) = (&mut self.out.packets, td.fin_seq + 1);
            self.hdr.send_ctrl(
                packets,
                now,
                key,
                td.peer_mac,
                TcpFlags::ACK,
                seq_no,
                ack,
                ts,
            );
            if td.fin_acked || seg.tcp.flags.contains(TcpFlags::ACK) && seg.tcp.ack == seq_no {
                td.close_out(now, &mut self.stats, &mut self.out.events);
                self.teardowns.remove(&key);
            }
            return;
        }
        // Stray FIN (state already gone): ACK it so the peer stops.
        self.hdr.send_ctrl(
            &mut self.out.packets,
            now,
            key,
            seg.eth.src,
            TcpFlags::ACK,
            seg.tcp.ack,
            seg.tcp.seq + seg.payload.len() as u32 + 1,
            ts,
        );
    }

    /// The host relays the application's accept of the passive handshake
    /// `key`, named by the [`on_exception`](Self::on_exception) that
    /// opened it; the slow path answers the SYN with a SYN-ACK.
    pub fn accept(&mut self, now: SimTime, key: FlowKey, acct: &mut CycleAccount) {
        prof_scope!("accept");
        self.charge(acct, 900);
        if let Some(hs) = self.handshakes.get_mut(&key) {
            hs.retry = Retry::new(now);
            hs.send(&self.hdr, now, &mut self.out.packets);
        }
    }

    // ------------------------------------------------------------------
    // Control loop.

    /// One control-loop iteration over all flows: congestion control,
    /// stall/retransmit detection, deferred closes, handshake retries.
    /// Returns the cycle cost (proportional to flow count).
    pub fn control_loop(
        &mut self,
        now: SimTime,
        fp: &mut FastPath,
        acct: &mut CycleAccount,
    ) -> u64 {
        // Effective interval since the previous iteration (self-pacing).
        let effective = if self.last_loop == SimTime::ZERO {
            self.control_interval
        } else {
            (now - self.last_loop).max(self.control_interval)
        };
        self.last_loop = now;
        let interval_secs = effective.as_secs_f64();
        prof_scope!("control");
        // Fast-path work driven from this loop charges itself through
        // `FastPath::charge`; track it so the trailing bulk charge below
        // can profile only the loop's own cycles.
        probe! { let mut fp_cycles = 0u64; }
        let mut cycles = self.charge(acct, 300);
        let mut rexmit: Vec<u32> = Vec::new();
        let mut win_probe: Vec<u32> = Vec::new();
        let mut to_close: Vec<u32> = Vec::new();
        let mut rate_updates = std::mem::take(&mut self.rate_updates);
        for (fid, flow) in fp.flows.iter_mut() {
            cycles += 60; // Per-flow control work.
            let sf = SpFlow::of(&mut self.flows, fid);
            // Stall detection (paper: unacked data with constant sequence
            // number for 2 control intervals → retransmit).
            if flow.snd.tx_sent() > 0 {
                if flow.snd.tx.start_offset() == sf.last_una_off {
                    sf.stall_intervals += 1;
                    let stalls = sf.stall_intervals;
                    // Retransmit after the configured number of intervals,
                    // but never before several RTTs have elapsed (the flow's
                    // own timescale; avoids spurious go-back-N when RTTs
                    // inflate under load).
                    let stalled_for = effective.as_ps().saturating_mul(stalls as u64);
                    let rtt_floor = (flow.conn.rtt_est_us() as u64)
                        .saturating_mul(3_000_000) // 3 RTTs in ps.
                        .max(effective.as_ps());
                    if stalls >= self.stall_intervals_for_rexmit && stalled_for >= rtt_floor {
                        sf.stall_intervals = 0;
                        // Count as loss for the next CC iteration.
                        flow.cc.count_fast_rexmit();
                        rexmit.push(fid);
                    }
                } else {
                    sf.stall_intervals = 0;
                }
            } else if flow.snd.tx.len() > flow.snd.tx_sent() as usize
                && flow.fc.snd_wnd() < MSS as u64
            {
                // Zero-window persist: pending data, nothing in flight,
                // shut window — probe so a lost window update cannot
                // deadlock the flow.
                sf.stall_intervals += 1;
                if sf.stall_intervals >= self.stall_intervals_for_rexmit {
                    sf.stall_intervals = 0;
                    win_probe.push(fid);
                }
            } else {
                sf.stall_intervals = 0;
            }
            sf.last_una_off = flow.snd.tx.start_offset();
            // Congestion control: drain the fast path's feedback into the
            // configured rate law.
            let cur = flow.cc.bucket().rate_bps.saturating_mul(8);
            let rtt = flow.conn.rtt_est_us();
            let newr = match self.cc {
                CcAlgo::None => cur,
                CcAlgo::DctcpRate => {
                    let fb = flow.cc.take_feedback(rtt);
                    dctcp_rate(&mut sf.law, fb, cur, interval_secs)
                }
                CcAlgo::Timely => {
                    let fb = flow.cc.take_feedback(rtt);
                    timely_rate(&mut sf.law, fb, cur)
                }
            };
            if newr != cur {
                rate_updates.push((fid, newr));
            }
            // Deferred close once drained.
            if flow.conn.closing() && flow.snd.tx.is_empty() {
                to_close.push(fid);
            }
        }
        for (fid, bps) in rate_updates.drain(..) {
            let burst = self.burst_for(bps);
            probe! {
                if let Some(flow) = fp.flows.get(fid) {
                    trace!("sp", now, CcRate { flow: flow.conn.key(), rate: bps });
                }
            }
            fp.set_rate(fid, bps, burst, now);
            // A rate increase may unblock a paced flow immediately (the
            // armed pacing timer, if any, remains valid).
            let c = fp.poke_tx(now, fid, acct);
            probe! { fp_cycles += c; }
            cycles += c;
        }
        self.rate_updates = rate_updates;
        for fid in rexmit {
            self.stats.timeout_rexmits += 1;
            let c = fp.trigger_retransmit(now, fid, acct);
            probe! { fp_cycles += c; }
            cycles += c;
        }
        for fid in win_probe {
            let c = fp.window_probe(now, fid, acct);
            probe! { fp_cycles += c; }
            cycles += c;
        }
        for fid in to_close {
            self.start_teardown(now, fid, fp);
        }
        // Handshake and teardown retries, resent as the maps are walked:
        // SYNs, then SYN-ACKs, then FINs, each in key order.
        let (hdr, out, stats) = (&self.hdr, &mut self.out, &mut self.stats);
        for state in [HsState::SynSent, HsState::SynAckSent] {
            self.handshakes.retain(|_, hs| {
                if hs.state != state {
                    return true;
                }
                match hs.retry.due(now) {
                    Due::Wait => true,
                    Due::Resend => {
                        stats.handshake_rexmits += 1;
                        trace!(
                            "sp",
                            now,
                            Retransmit {
                                flow: hs.key,
                                kind: "handshake",
                                seq: hs.iss,
                            }
                        );
                        hs.send(hdr, now, &mut out.packets);
                        true
                    }
                    Due::GiveUp => {
                        // The application never saw a passive handshake.
                        if state == HsState::SynSent {
                            let opaque = hs.opaque;
                            out.events.push(SpAppEvent::ConnectFailed { opaque });
                        }
                        false
                    }
                }
            });
        }
        self.teardowns.retain(|_, td| {
            let due = match td.retry.as_mut() {
                Some(retry) if !td.fin_acked => retry.due(now),
                _ => Due::Wait,
            };
            match due {
                Due::Wait => true,
                Due::Resend => {
                    td.send_fin(hdr, now, &mut out.packets);
                    true
                }
                Due::GiveUp => {
                    td.close_out(now, stats, &mut out.events);
                    false
                }
            }
        });
        // The bulk charge keeps the historical account total (which
        // double-bills fp-driven work into "Other"); the profiler sees
        // only the loop's own cycles — the fp portion already queued
        // itself through `FastPath::charge` under its own frames.
        acct.charge(
            Module::Other,
            cycles.saturating_sub(300),
            cycles.saturating_sub(300),
        );
        prof_charge!(cycles.saturating_sub(300).saturating_sub(fp_cycles));
        cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::COSTS;

    // The rate laws are tested beside their code in `tas-cc`; these cover
    // the control loop's drain — a flow's fast-path counters and RTT
    // estimate reach the law, whose state the slow path keeps per flow.

    const INTERVAL_US: u64 = 200;

    /// A slow path running `cc` with one installed flow whose RTT estimate
    /// is `rtt_est_us` and whose bucket starts at the default 1 Gbps.
    fn installed(cc: CcAlgo, rtt_est_us: u32) -> (SlowPath, FastPath, u32) {
        let (ip, mac) = (Ipv4Addr::new(10, 0, 0, 1), MacAddr::for_host(1));
        let cfg = TasConfig {
            cc,
            control_interval: SimTime::from_us(INTERVAL_US),
            ..TasConfig::default()
        };
        let mut sp = SlowPath::new(ip, mac, &cfg);
        let mut fp = FastPath::new(ip, mac, MSS, COSTS);
        let hs = Handshake {
            state: HsState::SynAckSent,
            key: FlowKey::new(ip, 80, Ipv4Addr::new(10, 0, 0, 2), 4000),
            peer_mac: MacAddr::for_host(2),
            opaque: 7,
            context: 0,
            iss: Seq(1000),
            irs: Seq(5000),
            peer_wscale: 0,
            peer_win: 65_535,
            ts_recent: 0,
            retry: Retry::new(SimTime::ZERO),
        };
        let fid = sp.install(&mut fp, &hs, SimTime::ZERO);
        fp.flows
            .get_mut(fid)
            .expect("installed")
            .conn
            .rtt_sample(rtt_est_us);
        (sp, fp, fid)
    }

    fn rate_bps(fp: &FastPath, fid: u32) -> u64 {
        fp.flows.get(fid).expect("installed").cc.bucket().rate_bps * 8
    }

    #[test]
    fn dctcp_iteration_drains_the_flow_counters() {
        let (mut sp, mut fp, fid) = installed(CcAlgo::DctcpRate, 100);
        let mut acct = CycleAccount::new();
        {
            // Sending flat out at 1 Gbps, every byte marked, one fast rexmit.
            let f = fp.flows.get_mut(fid).expect("installed");
            f.cc.count_acked(1_000_000_000 / 8 * INTERVAL_US / 1_000_000, true);
            f.cc.count_fast_rexmit();
        }
        sp.control_loop(SimTime::from_us(INTERVAL_US), &mut fp, &mut acct);
        assert_eq!(
            rate_bps(&fp, fid),
            500_000_000,
            "the loss signal reached the law"
        );
        assert!(!sp.flows[fid as usize].law.slow_start, "so did the marks");
        let f = fp.flows.get(fid).expect("installed");
        assert_eq!(
            (f.cc.cnt_ackb(), f.cc.cnt_ecnb(), f.cc.cnt_frexmits()),
            (0, 0, 0)
        );
        // Drained: the next iteration sees an idle flow and holds the rate.
        sp.control_loop(SimTime::from_us(2 * INTERVAL_US), &mut fp, &mut acct);
        assert_eq!(rate_bps(&fp, fid), 500_000_000);
    }

    #[test]
    fn timely_iteration_drains_the_counters_and_reads_the_rtt() {
        let (mut sp, mut fp, fid) = installed(CcAlgo::Timely, 30); // Below t_low.
        let mut acct = CycleAccount::new();
        fp.flows
            .get_mut(fid)
            .expect("installed")
            .cc
            .count_acked(1000, false);
        sp.control_loop(SimTime::from_us(INTERVAL_US), &mut fp, &mut acct);
        assert_eq!(rate_bps(&fp, fid), 2_000_000_000, "slow start doubles");
        assert_eq!(fp.flows.get(fid).expect("installed").cc.cnt_ackb(), 0);
        assert_eq!(
            sp.flows[fid as usize].law.prev_rtt_us, 30,
            "the flow's estimate fed the law"
        );
    }
}
