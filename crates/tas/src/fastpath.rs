//! The TAS fast path (paper §3.1).
//!
//! Handles the minimum functionality for common-case RPC packet exchange:
//! header validation, flow lookup, in-order payload deposit into per-flow
//! user-space receive buffers, ACK generation with DCTCP-accurate ECN echo
//! and timestamps, transmit segmentation under rate-bucket/window
//! enforcement, plus exactly two inline exceptions — duplicate-ACK fast
//! recovery and a single tracked out-of-order interval. Everything else
//! (SYN/FIN/RST, fragments, unknown flows) is forwarded to the slow path.
//!
//! The fast path is sans-IO: methods stage packets, context-queue notices,
//! slow-path exceptions, and pacing-timer requests into [`FpOut`]; the host
//! drains them and charges the returned cycle cost to the owning core.
//!
//! This file is the orchestrator of DESIGN.md §16 and nothing more: every
//! public entry point resolves its `&mut FlowState` once and hands it,
//! beside a `Pipe` split-borrowed from the rest of [`FastPath`], to the
//! steps below. A step that touches one component is that component's
//! method (`crate::flow`); what stays here is the sequencing and the
//! logic that spans components — an ACK advancing `snd`, feeding `cc` and
//! updating `fc`; `try_tx` reading all five.
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

use crate::config::TasCosts;
use crate::flow::{FlowState, FlowTable, Placed};
use std::net::Ipv4Addr;
use tas_cpusim::{CycleAccount, Module};
use tas_proto::{MacAddr, PayloadBuf, Segment, TcpFlags};
use tas_sim::{prof_charge, prof_scope, trace, SimTime};

/// A descriptor posted to an application's RX context queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RxNotice {
    /// The application-defined flow identifier.
    pub opaque: u64,
    /// Newly readable in-order bytes.
    pub rx_bytes: u32,
    /// Newly acknowledged (reliably delivered) transmit bytes.
    pub tx_acked: u32,
}

/// Staged fast-path effects, drained by the host after each operation.
#[derive(Debug, Default)]
pub struct FpOut {
    /// Packets to transmit.
    pub packets: Vec<Segment>,
    /// Notices for application context queues.
    pub notices: Vec<(u16, RxNotice)>,
    /// Exception packets forwarded to the slow path.
    pub exceptions: Vec<Segment>,
    /// Pacing timers to arm: (flow id, absolute time).
    pub tx_timers: Vec<(u32, SimTime)>,
}

/// Fast-path counters (per host).
#[derive(Clone, Copy, Debug, Default)]
pub struct FpStats {
    /// Data/ACK packets processed on the fast path.
    pub pkts_rx: u64,
    /// Data segments transmitted.
    pub segs_tx: u64,
    /// Pure ACKs generated.
    pub acks_tx: u64,
    /// Packets forwarded to the slow path.
    pub exceptions: u64,
    /// Packets dropped because the receive payload buffer was full.
    pub drop_buf_full: u64,
    /// Out-of-order segments dropped (outside the single interval).
    pub drop_ooo: u64,
    /// In-order bytes delivered to payload buffers.
    pub bytes_rx: u64,
    /// Fast retransmits triggered by duplicate ACKs.
    pub fast_rexmits: u64,
    /// Pacing timers armed.
    pub timers_armed: u64,
    /// Pacing-timer expirations processed.
    pub tx_polls: u64,
}

/// The fast path: flow table plus staging buffers.
#[derive(Debug)]
pub struct FastPath {
    /// Installed flows.
    pub flows: FlowTable,
    /// Local IP (for segment construction).
    pub local_ip: Ipv4Addr,
    /// Local MAC.
    pub local_mac: MacAddr,
    /// Maximum segment size.
    pub mss: u32,
    /// Track the single out-of-order interval (false = go-back-N).
    pub ooo_rx: bool,
    costs: TasCosts,
    /// Staged effects.
    pub out: FpOut,
    /// Counters.
    pub stats: FpStats,
}

/// Everything a per-packet step needs besides the flow itself,
/// split-borrowed from [`FastPath`] so that one `&mut FlowState` can live
/// beside it for the whole packet.
struct Pipe<'a> {
    out: &'a mut FpOut,
    stats: &'a mut FpStats,
    costs: &'a TasCosts,
    local_ip: Ipv4Addr,
    local_mac: MacAddr,
    mss: u64,
    ooo_rx: bool,
}

impl FastPath {
    /// Creates a fast path for a host.
    pub fn new(local_ip: Ipv4Addr, local_mac: MacAddr, mss: u32, costs: TasCosts) -> Self {
        FastPath {
            flows: FlowTable::new(),
            local_ip,
            local_mac,
            mss,
            ooo_rx: true,
            costs,
            out: FpOut::default(),
            stats: FpStats::default(),
        }
    }

    fn split(&mut self) -> (&mut FlowTable, Pipe<'_>) {
        let pipe = Pipe {
            out: &mut self.out,
            stats: &mut self.stats,
            costs: &self.costs,
            local_ip: self.local_ip,
            local_mac: self.local_mac,
            mss: self.mss as u64,
            ooo_rx: self.ooo_rx,
        };
        (&mut self.flows, pipe)
    }

    /// Processes one received packet. Returns the cycle cost.
    pub fn rx_segment(&mut self, now: SimTime, seg: Segment, acct: &mut CycleAccount) -> u64 {
        prof_scope!("rx");
        let (flows, mut p) = self.split();
        let mut cycles = p.charge(acct, Module::Driver, p.costs.drv_rx);
        // Exception filter: connection control, unusual flags, fragments,
        // unknown flows — all slow-path work.
        let f = seg.tcp.flags;
        let exceptional = f
            .intersects(TcpFlags::SYN | TcpFlags::FIN | TcpFlags::RST | TcpFlags::URG)
            || seg.ip.is_fragment();
        let fid = if exceptional {
            None
        } else {
            flows.lookup(&seg.flow_key())
        };
        let Some((fid, flow)) = fid.and_then(|fid| flows.get_mut(fid).map(|fl| (fid, fl))) else {
            p.stats.exceptions += 1;
            cycles += p.charge(acct, Module::Tcp, 40);
            p.out.exceptions.push(seg);
            return cycles;
        };
        p.stats.pkts_rx += 1;
        let has_payload = !seg.payload.is_empty();
        // Timestamp echo bookkeeping.
        if let Some((tsval, _)) = seg.tcp.options.timestamp {
            flow.conn.note_ts(tsval);
        }
        if f.contains(TcpFlags::ACK) {
            if let Some(sample) = seg.tcp.options.echo_rtt_us(now.as_micros()) {
                flow.conn.rtt_sample(sample);
            }
            cycles += p.process_ack(now, fid, flow, &seg, has_payload, acct);
        }
        if has_payload {
            cycles += p.process_data(now, flow, &seg, acct);
        }
        cycles
    }

    /// Handles a TX command from a context queue (the application appended
    /// data to a flow's transmit buffer). Returns the cycle cost. The flow
    /// may already be gone (teardown raced the queued command).
    pub fn tx_command(&mut self, now: SimTime, fid: u32, acct: &mut CycleAccount) -> u64 {
        prof_scope!("tx_cmd");
        let (flows, mut p) = self.split();
        let mut cycles = p.charge(acct, Module::Tcp, p.costs.tcp_tx_cmd);
        if let Some(flow) = flows.get_mut(fid) {
            cycles += p.try_tx(now, fid, flow, acct);
        }
        cycles
    }

    /// Handles an RX-bump command: the application advanced its read
    /// pointer. If the advertised window had collapsed below one MSS, an
    /// explicit window-update ACK un-sticks a blocked sender.
    pub fn rx_bump(&mut self, now: SimTime, fid: u32, acct: &mut CycleAccount) -> u64 {
        prof_scope!("rx_bump");
        let (flows, mut p) = self.split();
        let mut cycles = p.charge(acct, Module::Tcp, p.costs.rx_bump);
        if let Some(flow) = flows.get_mut(fid) {
            if flow.fc.win_closed() && flow.adv_window() >= p.mss {
                cycles += p.emit_ack(now, flow, acct);
            }
        }
        cycles
    }

    /// Pokes a flow's transmitter without consuming its armed pacing
    /// timer (used by the slow path after rate updates — the pending
    /// timer, if any, stays valid).
    pub fn poke_tx(&mut self, now: SimTime, fid: u32, acct: &mut CycleAccount) -> u64 {
        let (flows, mut p) = self.split();
        match flows.get_mut(fid) {
            Some(flow) => p.try_tx(now, fid, flow, acct),
            None => 0,
        }
    }

    /// Handles a pacing-timer expiration for a flow.
    pub fn tx_poll(&mut self, now: SimTime, fid: u32, acct: &mut CycleAccount) -> u64 {
        prof_scope!("tx_poll");
        let (flows, mut p) = self.split();
        p.stats.tx_polls += 1;
        let Some(flow) = flows.get_mut(fid) else {
            return 0;
        };
        flow.snd.clear_tx_timer();
        p.try_tx(now, fid, flow, acct)
    }

    // ------------------------------------------------------------------
    // Slow-path control interface (charged to the slow-path core by the
    // host).

    /// Installs an established flow (slow path, after handshake).
    pub fn install_flow(&mut self, flow: FlowState) -> u32 {
        self.flows.insert(flow)
    }

    /// Removes a flow (slow path, connection teardown).
    pub fn remove_flow(&mut self, fid: u32) -> Option<FlowState> {
        self.flows.remove(fid)
    }

    /// Updates a flow's rate limit (slow-path congestion control).
    pub fn set_rate(&mut self, fid: u32, bits_per_sec: u64, burst: u64, now: SimTime) {
        if let Some(flow) = self.flows.get_mut(fid) {
            flow.cc.apply_rate(bits_per_sec, burst, now);
        }
    }

    /// Sends one segment ignoring the peer window — the zero-window
    /// persist probe, triggered by the slow path when a flow has pending
    /// data, nothing in flight, and a shut window (a lost window update
    /// would otherwise deadlock the connection).
    pub fn window_probe(&mut self, now: SimTime, fid: u32, acct: &mut CycleAccount) -> u64 {
        prof_scope!("probe");
        let (flows, mut p) = self.split();
        let cycles = p.charge(acct, Module::Tcp, p.costs.tcp_tx_seg)
            + p.charge(acct, Module::Driver, p.costs.drv_tx);
        let Some(flow) = flows.get_mut(fid) else {
            return 0;
        };
        let n = flow.snd.unsent().min(p.mss);
        if n > 0 {
            p.send_data(now, flow, n);
        }
        cycles
    }

    /// Slow-path-triggered retransmission: reset the flow's sender state
    /// and retransmit from the left window edge.
    pub fn trigger_retransmit(&mut self, now: SimTime, fid: u32, acct: &mut CycleAccount) -> u64 {
        prof_scope!("rexmit");
        let (flows, mut p) = self.split();
        let Some(flow) = flows.get_mut(fid) else {
            return 0;
        };
        trace!(
            "fp",
            now,
            Retransmit {
                flow: flow.conn.key(),
                kind: "timeout",
                seq: flow.seq_of(flow.snd.tx.start_offset()),
            }
        );
        flow.snd.rewind();
        p.try_tx(now, fid, flow, acct)
    }
}

/// The per-packet steps. Each takes the flow its entry point resolved;
/// none looks it up again.
impl Pipe<'_> {
    fn charge(&self, acct: &mut CycleAccount, module: Module, cycles: u64) -> u64 {
        let instr = cycles * self.costs.ipc_times_100 / 100;
        acct.charge(module, cycles, instr);
        // Every fast-path cycle flows through this funnel, so the
        // attribution profiler sees the exact cost the host will run.
        prof_charge!(cycles);
        cycles
    }

    /// Posts one notice to the flow's application context queue.
    fn notify(&mut self, flow: &FlowState, rx_bytes: u32, tx_acked: u32) {
        let notice = RxNotice {
            opaque: flow.conn.opaque(),
            rx_bytes,
            tx_acked,
        };
        self.out.notices.push((flow.conn.context(), notice));
    }

    fn process_ack(
        &mut self,
        now: SimTime,
        fid: u32,
        flow: &mut FlowState,
        seg: &Segment,
        has_payload: bool,
        acct: &mut CycleAccount,
    ) -> u64 {
        prof_scope!("ack");
        let cost = if has_payload {
            // Piggybacked ACK: the data-path cost covers it.
            30
        } else {
            self.costs.tcp_rx_ack
        };
        let mut cycles = self.charge(acct, Module::Tcp, cost);
        let ece = seg.tcp.flags.contains(TcpFlags::ECE);
        let una_seq = flow.seq_of(flow.snd.tx.start_offset());
        // Accept cumulative ACKs up to the highest byte ever sent —
        // recovery may have rewound `tx_sent` below data the peer has.
        let hi_seq = flow.seq_of(flow.snd.max_sent_off().max(flow.nxt_off()));
        let ack = seg.tcp.ack;
        // A pure window update may unblock transmission.
        let wnd_grew = flow.fc.peer_window(seg.tcp.window);
        let mut want_tx = wnd_grew;
        if ack.gt(una_seq) && ack.le(hi_seq) {
            let newly = (ack - una_seq) as u64;
            if !flow.snd.consume_acked(newly) {
                // ACK range validated against hi_seq above; degrade by
                // ignoring the ACK rather than corrupting the ring.
                debug_assert!(false, "acked bytes within the tx ring");
                return cycles;
            }
            flow.cc.count_acked(newly, ece);
            self.notify(flow, 0, newly as u32);
            want_tx = true;
        } else if ack == una_seq && !has_payload && flow.snd.tx_sent() > 0 && !wnd_grew {
            // Fast-path exception #1: duplicate ACK counting and fast
            // recovery (§3.1).
            if ece {
                flow.cc.count_nominal_mark(self.mss);
            }
            if flow.snd.dupack() {
                flow.cc.count_fast_rexmit();
                self.stats.fast_rexmits += 1;
                trace!(
                    "fp",
                    now,
                    Retransmit {
                        flow: flow.conn.key(),
                        kind: "fast",
                        seq: una_seq,
                    }
                );
                want_tx = true;
            }
        }
        if want_tx {
            cycles += self.try_tx(now, fid, flow, acct);
        }
        cycles
    }

    fn process_data(
        &mut self,
        now: SimTime,
        flow: &mut FlowState,
        seg: &Segment,
        acct: &mut CycleAccount,
    ) -> u64 {
        prof_scope!("data");
        let cycles = self.charge(acct, Module::Tcp, self.costs.tcp_rx_data);
        flow.cc.note_ce(seg.is_ce_marked());
        match flow.rcv.place(seg.tcp.seq, &seg.payload, self.ooo_rx) {
            Placed::InOrder(n) => {
                self.stats.bytes_rx += n as u64;
                self.notify(flow, n, 0);
            }
            Placed::BufFull => {
                // Dropped silently: TCP flow control makes this uncommon.
                self.stats.drop_buf_full += 1;
                return cycles;
            }
            Placed::Staged => {
                trace!(
                    "fp",
                    now,
                    OooPlace {
                        flow: flow.conn.key(),
                        start: flow.rcv.ooo_start(),
                        len: flow.rcv.ooo_len() as u64,
                    }
                );
            }
            Placed::Dropped => self.stats.drop_ooo += 1,
            // ACK to resynchronize the peer.
            Placed::Duplicate => {}
        }
        cycles + self.emit_ack(now, flow, acct)
    }

    /// Stages a pure ACK for a flow.
    fn emit_ack(&mut self, now: SimTime, flow: &mut FlowState, acct: &mut CycleAccount) -> u64 {
        prof_scope!("ack_tx");
        let cycles = self.charge(acct, Module::Tcp, self.costs.tcp_ack_gen)
            + self.charge(acct, Module::Driver, self.costs.drv_tx);
        flow.fc.set_win_closed(flow.adv_window() < self.mss);
        let ack = flow.segment(
            now,
            self.local_ip,
            self.local_mac,
            TcpFlags::ACK,
            PayloadBuf::empty(),
            false,
        );
        self.stats.acks_tx += 1;
        self.out.packets.push(ack);
        cycles
    }

    /// Cuts `n` bytes at the send frontier into one ECT(0) data segment
    /// and stages it; false (nothing sent) if the ring cannot supply them.
    fn send_data(&mut self, now: SimTime, flow: &mut FlowState, n: u64) -> bool {
        let off = flow.nxt_off();
        // Pooled buffer filled straight from the ring: the per-packet tx
        // path never touches the allocator in steady state.
        let mut ok = true;
        let payload = PayloadBuf::with(n as usize, |dst| {
            ok = flow.snd.tx.read_into(off, dst).is_ok();
        });
        if !ok {
            debug_assert!(false, "tx offset within ring");
            return false;
        }
        let flags = TcpFlags::ACK | TcpFlags::PSH;
        let seg = flow.segment(now, self.local_ip, self.local_mac, flags, payload, true);
        flow.snd.note_sent(n);
        self.stats.segs_tx += 1;
        self.out.packets.push(seg);
        true
    }

    /// Transmits whatever the rate bucket and the peer window currently
    /// allow.
    fn try_tx(
        &mut self,
        now: SimTime,
        fid: u32,
        flow: &mut FlowState,
        acct: &mut CycleAccount,
    ) -> u64 {
        prof_scope!("tx");
        let mut sent_segments = 0u64;
        flow.cc.refill_bucket(now);
        loop {
            let budget = flow.fc.snd_wnd().saturating_sub(flow.snd.tx_sent());
            let n = flow.snd.unsent().min(budget).min(self.mss);
            if n == 0 {
                break;
            }
            let bucket = flow.cc.bucket();
            if !bucket.is_unlimited() && bucket.tokens < n {
                // Paced out: arm a timer for when this segment's credit
                // accrues.
                let wait = bucket.time_until(n, now);
                if wait < SimTime::MAX && flow.snd.arm_tx_timer() {
                    self.stats.timers_armed += 1;
                    let at = now + wait.max(SimTime::from_ns(500));
                    self.out.tx_timers.push((fid, at));
                }
                break;
            }
            if !self.send_data(now, flow, n) {
                break;
            }
            flow.cc.consume_credit(n);
            sent_segments += 1;
        }
        if sent_segments == 0 {
            return 0;
        }
        self.charge(acct, Module::Tcp, self.costs.tcp_tx_seg * sent_segments)
            + self.charge(acct, Module::Driver, self.costs.drv_tx * sent_segments)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{FpCongCtrl, FpConnMgmt, FpFlowCtrl, FpRecvRel, FpSendRel, RateBucket};
    use tas_proto::{Ecn, FlowKey, Seq, TcpHeader};
    use tas_shm::ByteRing;

    const MSS: u32 = 1448;

    fn fp() -> FastPath {
        FastPath::new(
            Ipv4Addr::new(10, 0, 0, 1),
            MacAddr::for_host(1),
            MSS,
            TasCosts::default(),
        )
    }

    fn install(fp: &mut FastPath) -> u32 {
        let flow = FlowState {
            conn: FpConnMgmt::new(
                42,
                3,
                FlowKey::new(
                    Ipv4Addr::new(10, 0, 0, 1),
                    80,
                    Ipv4Addr::new(10, 0, 0, 2),
                    5000,
                ),
                MacAddr::for_host(2),
                0,
            ),
            snd: FpSendRel::new(ByteRing::new(8192), 10_000),
            rcv: FpRecvRel::new(ByteRing::new(8192), 20_000),
            fc: FpFlowCtrl::new(64 * 1024, 0),
            cc: FpCongCtrl::new(RateBucket::unlimited()),
        };
        fp.install_flow(flow)
    }

    /// A data segment from the peer (10.0.0.2:5000 -> 10.0.0.1:80).
    fn data_seg(seq: u32, payload: &[u8], ce: bool) -> Segment {
        let mut h = TcpHeader::new(5000, 80, seq, 10_001, TcpFlags::ACK | TcpFlags::PSH);
        h.window = 60_000;
        h.options.timestamp = Some((777, 0));
        let mut s = Segment::tcp(
            MacAddr::for_host(2),
            MacAddr::for_host(1),
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(10, 0, 0, 1),
            h,
            payload.to_vec(),
            true,
        );
        if ce {
            s.ip.ecn = Ecn::Ce;
        }
        s
    }

    fn ack_seg(ack: u32, window: u16, ece: bool) -> Segment {
        let mut h = TcpHeader::new(5000, 80, 20_001, ack, TcpFlags::ACK);
        h.window = window;
        if ece {
            h.flags |= TcpFlags::ECE;
        }
        h.options.timestamp = Some((778, 5));
        Segment::tcp(
            MacAddr::for_host(2),
            MacAddr::for_host(1),
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(10, 0, 0, 1),
            h,
            Vec::new(),
            false,
        )
    }

    #[test]
    fn in_order_rx_deposits_and_acks() {
        let mut fp = fp();
        let fid = install(&mut fp);
        let mut acct = CycleAccount::new();
        let t = SimTime::from_us(100);
        fp.rx_segment(t, data_seg(20_001, b"hello", false), &mut acct);
        // Payload is in the flow's rx ring.
        let flow = fp.flows.get_mut(fid).unwrap();
        assert_eq!(flow.rcv.rx.pop(16), b"hello");
        // One ACK staged, acking 20_006.
        assert_eq!(fp.out.packets.len(), 1);
        let ack = &fp.out.packets[0];
        assert_eq!(ack.tcp.ack, Seq(20_006));
        assert!(ack.tcp.flags.contains(TcpFlags::ACK));
        assert!(!ack.tcp.flags.contains(TcpFlags::ECE));
        assert_eq!(ack.tcp.options.timestamp, Some((100, 777)));
        // One notice for context 3 with opaque 42.
        assert_eq!(
            fp.out.notices,
            vec![(
                3,
                RxNotice {
                    opaque: 42,
                    rx_bytes: 5,
                    tx_acked: 0
                }
            )]
        );
        assert!(acct.cycles(Module::Tcp) > 0);
        assert!(acct.cycles(Module::Driver) > 0);
    }

    #[test]
    fn ce_mark_echoed_on_ack() {
        let mut fp = fp();
        install(&mut fp);
        let mut acct = CycleAccount::new();
        fp.rx_segment(SimTime::from_us(1), data_seg(20_001, b"x", true), &mut acct);
        assert!(fp.out.packets[0].tcp.flags.contains(TcpFlags::ECE));
        // Next unmarked segment: echo clears (per-packet accuracy).
        fp.rx_segment(
            SimTime::from_us(2),
            data_seg(20_002, b"y", false),
            &mut acct,
        );
        assert!(!fp.out.packets[1].tcp.flags.contains(TcpFlags::ECE));
    }

    #[test]
    fn unknown_flow_and_control_flags_are_exceptions() {
        let mut fp = fp();
        install(&mut fp);
        let mut acct = CycleAccount::new();
        // SYN on a known flow: still an exception.
        let mut syn = data_seg(20_001, b"", false);
        syn.tcp.flags = TcpFlags::SYN;
        fp.rx_segment(SimTime::ZERO, syn, &mut acct);
        // Unknown 4-tuple.
        let mut unknown = data_seg(20_001, b"hi", false);
        unknown.tcp.src_port = 9999;
        fp.rx_segment(SimTime::ZERO, unknown, &mut acct);
        assert_eq!(fp.out.exceptions.len(), 2);
        assert_eq!(fp.stats.exceptions, 2);
        assert!(
            fp.out.packets.is_empty(),
            "no fast-path response to exceptions"
        );
    }

    #[test]
    fn ooo_single_interval_merge() {
        let mut fp = fp();
        let fid = install(&mut fp);
        let mut acct = CycleAccount::new();
        // Bytes 5..10 arrive before 0..5.
        fp.rx_segment(SimTime::ZERO, data_seg(20_006, b"WORLD", false), &mut acct);
        {
            let flow = fp.flows.get(fid).unwrap();
            assert_eq!(flow.rcv.ooo_len(), 5);
            assert_eq!(flow.rcv.ooo_start(), 5);
        }
        // The dup-ACK still asks for 20_001.
        assert_eq!(fp.out.packets[0].tcp.ack, Seq(20_001));
        // Gap fills: both chunks delivered, one merged notice.
        fp.rx_segment(SimTime::ZERO, data_seg(20_001, b"HELLO", false), &mut acct);
        let flow = fp.flows.get_mut(fid).unwrap();
        assert_eq!(flow.rcv.ooo_len(), 0);
        assert_eq!(flow.rcv.rx.pop(16), b"HELLOWORLD");
        assert_eq!(fp.out.packets[1].tcp.ack, Seq(20_011));
        let last = fp.out.notices.last().unwrap();
        assert_eq!(
            last.1.rx_bytes, 10,
            "merged interval notified as one segment"
        );
    }

    #[test]
    fn ooo_interval_extends_and_rejects_second_interval() {
        let mut fp = fp();
        let fid = install(&mut fp);
        let mut acct = CycleAccount::new();
        fp.rx_segment(SimTime::ZERO, data_seg(20_011, b"cc", false), &mut acct);
        // Extend at tail.
        fp.rx_segment(SimTime::ZERO, data_seg(20_013, b"dd", false), &mut acct);
        // Extend at head.
        fp.rx_segment(SimTime::ZERO, data_seg(20_009, b"bb", false), &mut acct);
        {
            let flow = fp.flows.get(fid).unwrap();
            assert_eq!((flow.rcv.ooo_start(), flow.rcv.ooo_len()), (8, 6));
        }
        // A second, disjoint interval is dropped.
        fp.rx_segment(SimTime::ZERO, data_seg(20_050, b"zz", false), &mut acct);
        assert_eq!(fp.stats.drop_ooo, 1);
        // Fill the gap; everything up to offset 14 delivers.
        fp.rx_segment(
            SimTime::ZERO,
            data_seg(20_001, b"aaaaaaaa", false),
            &mut acct,
        );
        let flow = fp.flows.get_mut(fid).unwrap();
        assert_eq!(flow.rcv.rx.pop(32), b"aaaaaaaabbccdd");
    }

    #[test]
    fn rx_buffer_full_drops_packet() {
        let mut fp = fp();
        let fid = install(&mut fp);
        fp.flows.get_mut(fid).unwrap().rcv.rx = ByteRing::new(4);
        let mut acct = CycleAccount::new();
        fp.rx_segment(
            SimTime::ZERO,
            data_seg(20_001, b"toolong", false),
            &mut acct,
        );
        assert_eq!(fp.stats.drop_buf_full, 1);
        assert!(fp.out.packets.is_empty(), "dropped silently");
        assert!(fp.out.notices.is_empty());
    }

    #[test]
    fn tx_segments_and_ack_processing_free_buffer() {
        let mut fp = fp();
        let fid = install(&mut fp);
        let mut acct = CycleAccount::new();
        let t = SimTime::from_us(10);
        // App wrote 3000 bytes (2 segments + 104).
        fp.flows
            .get_mut(fid)
            .unwrap()
            .snd
            .tx
            .append(&[9u8; 3000])
            .unwrap();
        fp.tx_command(t, fid, &mut acct);
        assert_eq!(fp.out.packets.len(), 3);
        assert_eq!(fp.out.packets[0].payload.len(), MSS as usize);
        assert_eq!(fp.out.packets[0].tcp.seq, Seq(10_001));
        assert_eq!(fp.out.packets[1].tcp.seq, Seq(10_001 + MSS));
        assert_eq!(fp.out.packets[2].payload.len(), 3000 - 2 * MSS as usize);
        assert_eq!(fp.out.packets[0].ip.ecn, Ecn::Ect0, "data is ECT(0)");
        let flow = fp.flows.get(fid).unwrap();
        assert_eq!(flow.snd.tx_sent(), 3000);
        // Peer acks the first 1448: buffer space freed, notice posted.
        fp.rx_segment(
            t + SimTime::from_us(50),
            ack_seg(10_001 + MSS, 60_000, false),
            &mut acct,
        );
        let flow = fp.flows.get(fid).unwrap();
        assert_eq!(flow.snd.tx_sent(), 3000 - MSS as u64);
        assert_eq!(flow.snd.tx.len(), 3000 - MSS as usize);
        let last = fp.out.notices.last().unwrap();
        assert_eq!(last.1.tx_acked, MSS);
        // RTT estimated from the timestamp echo (tsecr=5 -> 55us).
        assert_eq!(flow.conn.rtt_est_us(), 55);
    }

    #[test]
    fn piggybacked_ack_notifies_ack_then_data_and_acks_once() {
        let mut fp = fp();
        let fid = install(&mut fp);
        let mut acct = CycleAccount::new();
        let flow = fp.flows.get_mut(fid).unwrap();
        flow.snd.tx.append(&[9u8; 1000]).unwrap();
        fp.tx_command(SimTime::ZERO, fid, &mut acct);
        fp.out.packets.clear();
        // CE-marked data from the peer that also acknowledges all 1000 bytes.
        let t = SimTime::from_us(100);
        let mut seg = data_seg(20_001, b"hello", true);
        seg.tcp.ack = Seq(10_001 + 1000);
        fp.rx_segment(t, seg, &mut acct);
        let notice = |rx_bytes, tx_acked| {
            let opaque = 42;
            (
                3,
                RxNotice {
                    opaque,
                    rx_bytes,
                    tx_acked,
                },
            )
        };
        assert_eq!(fp.out.notices, vec![notice(0, 1000), notice(5, 0)]);
        // One ACK, and it is exactly what the flow's builder assembles.
        let flow = fp.flows.get(fid).unwrap();
        let built = flow.segment(
            t,
            fp.local_ip,
            fp.local_mac,
            TcpFlags::ACK,
            PayloadBuf::empty(),
            false,
        );
        assert_eq!(fp.out.packets, vec![built]);
        let h = &fp.out.packets[0].tcp;
        assert_eq!((h.seq, h.ack), (Seq(10_001 + 1000), Seq(20_006)));
        assert_eq!(h.flags, TcpFlags::ACK | TcpFlags::ECE);
        assert_eq!(h.options.timestamp, Some((100, 777)));
    }

    #[test]
    fn tsecr_ahead_of_the_clock_is_not_an_rtt_sample() {
        // TSecr is peer-controlled: an echo ahead of our clock (here 4 µs)
        // is, in wrapping timestamp space, almost 2^32 µs behind it. It
        // used to saturate the estimate; now it is no sample at all.
        let mut fp = fp();
        let fid = install(&mut fp);
        let mut acct = CycleAccount::new();
        for (seq, tsecr) in [(20_001, 5), (20_002, 1_000_000)] {
            let mut seg = data_seg(seq, b"x", false);
            seg.tcp.options.timestamp = Some((777, tsecr));
            fp.rx_segment(SimTime::from_us(4), seg, &mut acct);
        }
        let flow = fp.flows.get(fid).unwrap();
        assert_eq!(flow.conn.rtt_est_us(), 0, "no sample taken");
        assert_eq!(flow.rcv.rx.len(), 2, "both segments still delivered");
    }

    #[test]
    fn ecn_feedback_counted_for_slow_path() {
        let mut fp = fp();
        let fid = install(&mut fp);
        let mut acct = CycleAccount::new();
        fp.flows
            .get_mut(fid)
            .unwrap()
            .snd
            .tx
            .append(&[9u8; 2000])
            .unwrap();
        fp.tx_command(SimTime::ZERO, fid, &mut acct);
        fp.rx_segment(
            SimTime::from_us(100),
            ack_seg(10_001 + 1448, 60_000, true),
            &mut acct,
        );
        let flow = fp.flows.get(fid).unwrap();
        assert_eq!(flow.cc.cnt_ackb(), 1448);
        assert_eq!(flow.cc.cnt_ecnb(), 1448);
    }

    #[test]
    fn triple_dupack_fast_retransmit() {
        let mut fp = fp();
        let fid = install(&mut fp);
        let mut acct = CycleAccount::new();
        // Duplicate-ACK counting requires an unchanged window (RFC 5681);
        // make the flow's view match the ACKs the test sends.
        fp.flows.get_mut(fid).unwrap().fc.peer_window(60_000);
        fp.flows
            .get_mut(fid)
            .unwrap()
            .snd
            .tx
            .append(&[7u8; 4000])
            .unwrap();
        fp.tx_command(SimTime::ZERO, fid, &mut acct);
        let first_sent = fp.out.packets.len();
        assert_eq!(first_sent, 3);
        // Three duplicate ACKs at the left edge.
        for i in 0..3 {
            fp.rx_segment(
                SimTime::from_us(10 + i),
                ack_seg(10_001, 60_000, false),
                &mut acct,
            );
        }
        assert_eq!(fp.stats.fast_rexmits, 1);
        let flow = fp.flows.get(fid).unwrap();
        assert_eq!(flow.cc.cnt_frexmits(), 1);
        // Retransmission resent everything from the left edge.
        assert!(fp.out.packets.len() > first_sent);
        assert_eq!(fp.out.packets[first_sent].tcp.seq, Seq(10_001));
    }

    #[test]
    fn peer_window_limits_tx() {
        let mut fp = fp();
        let fid = install(&mut fp);
        fp.flows.get_mut(fid).unwrap().fc.peer_window(2000);
        let mut acct = CycleAccount::new();
        fp.flows
            .get_mut(fid)
            .unwrap()
            .snd
            .tx
            .append(&[1u8; 8000])
            .unwrap();
        fp.tx_command(SimTime::ZERO, fid, &mut acct);
        let flow = fp.flows.get(fid).unwrap();
        assert_eq!(flow.snd.tx_sent(), 2000, "limited by peer window");
        assert_eq!(fp.out.packets.len(), 2);
    }

    #[test]
    fn rate_bucket_paces_and_arms_timer() {
        let mut fp = fp();
        let fid = install(&mut fp);
        let t0 = SimTime::from_ms(1);
        {
            let flow = fp.flows.get_mut(fid).unwrap();
            // 8 Mbps = 1 MB/s; bucket starts with exactly one MSS credit.
            flow.cc = FpCongCtrl::new(RateBucket {
                tokens: MSS as u64,
                ..RateBucket::limited(8_000_000, 1 << 20, t0)
            });
            flow.snd.tx.append(&[2u8; 5000]).unwrap();
        }
        let mut acct = CycleAccount::new();
        fp.tx_command(t0, fid, &mut acct);
        assert_eq!(fp.out.packets.len(), 1, "one segment of credit");
        assert_eq!(fp.out.tx_timers.len(), 1, "pacing timer armed");
        let (tfid, at) = fp.out.tx_timers[0];
        assert_eq!(tfid, fid);
        // 1448 bytes at 1 MB/s ≈ 1.448 ms later.
        let dt = at - t0;
        assert!(
            dt >= SimTime::from_us(1400) && dt <= SimTime::from_us(1500),
            "pacing delay {dt}"
        );
        // Timer fires: next segment goes out.
        fp.out.tx_timers.clear();
        fp.tx_poll(at, fid, &mut acct);
        assert_eq!(fp.out.packets.len(), 2);
    }

    #[test]
    fn slow_path_retransmit_resets_sender() {
        let mut fp = fp();
        let fid = install(&mut fp);
        let mut acct = CycleAccount::new();
        fp.flows
            .get_mut(fid)
            .unwrap()
            .snd
            .tx
            .append(&[3u8; 1000])
            .unwrap();
        fp.tx_command(SimTime::ZERO, fid, &mut acct);
        assert_eq!(fp.out.packets.len(), 1);
        // Slow path decides the flow timed out.
        fp.trigger_retransmit(SimTime::from_ms(5), fid, &mut acct);
        assert_eq!(fp.out.packets.len(), 2);
        assert_eq!(fp.out.packets[1].tcp.seq, fp.out.packets[0].tcp.seq);
    }

    #[test]
    fn set_rate_converts_unlimited_bucket() {
        let mut fp = fp();
        let fid = install(&mut fp);
        fp.set_rate(fid, 100_000_000, 1 << 16, SimTime::ZERO);
        let flow = fp.flows.get(fid).unwrap();
        assert!(!flow.cc.bucket().is_unlimited());
        assert_eq!(flow.cc.bucket().rate_bps, 12_500_000);
    }
}
