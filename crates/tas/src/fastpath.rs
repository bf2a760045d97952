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

use crate::config::TasCosts;
use crate::flow::{FlowState, FlowTable};
use std::net::Ipv4Addr;
use tas_cpusim::{CycleAccount, Module};
use tas_proto::tcp::seq;
use tas_proto::{Ecn, MacAddr, PayloadBuf, Segment, TcpFlags, TcpHeader};
use tas_sim::SimTime;

/// TAS's receive window scale shift (negotiated by the slow path).
pub const TAS_WSCALE: u8 = 7;

/// Emits a flight-recorder record at site `"fp"`.
#[cfg(feature = "trace")]
fn trace_fp(t: SimTime, ev: tas_telemetry::TraceEvent) {
    tas_telemetry::emit(|| tas_telemetry::TraceRecord { t, site: "fp", ev });
}

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

    fn charge(&self, acct: &mut CycleAccount, module: Module, cycles: u64) -> u64 {
        let instr = cycles * self.costs.ipc_times_100 / 100;
        acct.charge(module, cycles, instr);
        // Every fast-path cycle flows through this funnel, so the
        // attribution profiler sees the exact cost the host will run.
        #[cfg(feature = "profile")]
        tas_telemetry::profile::charge(cycles);
        cycles
    }

    /// Processes one received packet. Returns the cycle cost.
    pub fn rx_segment(&mut self, now: SimTime, seg: Segment, acct: &mut CycleAccount) -> u64 {
        #[cfg(feature = "profile")]
        let _prof = tas_telemetry::profile::guard("rx");
        let mut cycles = self.charge(acct, Module::Driver, self.costs.drv_rx);
        // Exception filter: connection control, unusual flags, fragments,
        // unknown flows — all slow-path work.
        let f = seg.tcp.flags;
        let exceptional = f
            .intersects(TcpFlags::SYN | TcpFlags::FIN | TcpFlags::RST | TcpFlags::URG)
            || seg.ip.is_fragment();
        let flow_id = if exceptional {
            None
        } else {
            self.flows.lookup(&seg.flow_key())
        };
        let Some(fid) = flow_id else {
            self.stats.exceptions += 1;
            cycles += self.charge(acct, Module::Tcp, 40);
            self.out.exceptions.push(seg);
            return cycles;
        };
        self.stats.pkts_rx += 1;
        let has_payload = !seg.payload.is_empty();
        // Timestamp echo bookkeeping.
        if let (Some((tsval, tsecr)), Some(flow)) =
            (seg.tcp.options.timestamp, self.flows.get_mut(fid))
        {
            flow.conn.note_ts(tsval);
            if f.contains(TcpFlags::ACK) && tsecr != 0 {
                let sample = now.as_micros().wrapping_sub(tsecr as u64).max(1) as u32;
                // EWMA 7/8, like the kernel's SRTT.
                flow.conn.rtt_sample(sample);
            }
        }
        if f.contains(TcpFlags::ACK) {
            cycles += self.process_ack(now, fid, &seg, has_payload, acct);
        }
        if has_payload {
            cycles += self.process_data(now, fid, seg, acct);
        }
        cycles
    }

    fn process_ack(
        &mut self,
        now: SimTime,
        fid: u32,
        seg: &Segment,
        has_payload: bool,
        acct: &mut CycleAccount,
    ) -> u64 {
        #[cfg(feature = "profile")]
        let _prof = tas_telemetry::profile::guard("ack");
        let cost = if has_payload {
            // Piggybacked ACK: the data-path cost covers it.
            30
        } else {
            self.costs.tcp_rx_ack
        };
        let mut cycles = self.charge(acct, Module::Tcp, cost);
        let mut acked_notice = 0u32;
        let mut want_tx = false;
        {
            let Some(flow) = self.flows.get_mut(fid) else {
                debug_assert!(false, "process_ack: flow {fid} not installed");
                return cycles;
            };
            let ece = seg.tcp.flags.contains(TcpFlags::ECE);
            let una_seq = flow.seq_of(flow.snd.tx.start_offset());
            // Accept cumulative ACKs up to the highest byte ever sent —
            // recovery may have rewound `tx_sent` below data the peer has.
            let hi_seq = flow.seq_of(flow.snd.max_sent_off().max(flow.nxt_off()));
            let ack = seg.tcp.ack;
            let new_wnd = (seg.tcp.window as u64) << flow.fc.peer_wscale();
            // Window growth marks a window update, not a duplicate; a
            // shrinking window accompanies held out-of-order data and is
            // a genuine loss signal.
            let wnd_unchanged = new_wnd <= flow.fc.snd_wnd();
            flow.fc.update_wnd(new_wnd);
            if seq::gt(ack, una_seq) && seq::le(ack, hi_seq) {
                let newly = seq::sub(ack, una_seq) as u64;
                if !flow.snd.consume_acked(newly) {
                    // ACK range validated against hi_seq above; degrade by
                    // ignoring the ACK rather than corrupting the ring.
                    debug_assert!(false, "acked bytes within the tx ring");
                    return cycles;
                }
                flow.cc.count_acked(newly, ece);
                flow.snd.reset_dupacks();
                acked_notice = newly as u32;
                want_tx = true;
            } else if ack == una_seq && !has_payload && flow.snd.tx_sent() > 0 && wnd_unchanged {
                // Fast-path exception #1: duplicate ACK counting and fast
                // recovery — reset the sender as if unacked segments were
                // never sent (§3.1). Window updates are not duplicates
                // (RFC 5681's "no window change" condition).
                let dupacks = flow.snd.count_dupack();
                if ece {
                    // Count a nominal MSS of marked bytes so the slow path
                    // sees congestion feedback even without progress.
                    flow.cc.count_nominal_mark(self.mss as u64);
                }
                if dupacks >= 3 {
                    flow.snd.reset_for_fast_rexmit();
                    flow.cc.count_fast_rexmit();
                    self.stats.fast_rexmits += 1;
                    #[cfg(feature = "trace")]
                    trace_fp(
                        now,
                        tas_telemetry::TraceEvent::Retransmit {
                            flow: flow.conn.key(),
                            kind: "fast",
                            seq: flow.seq_of(flow.snd.tx.start_offset()),
                        },
                    );
                    want_tx = true;
                }
            } else if !wnd_unchanged {
                // A pure window update may unblock transmission.
                want_tx = true;
            }
        }
        if acked_notice > 0 {
            let Some(flow) = self.flows.get(fid) else {
                debug_assert!(false, "flow {fid} vanished mid-ack");
                return cycles;
            };
            let notice = RxNotice {
                opaque: flow.conn.opaque(),
                rx_bytes: 0,
                tx_acked: acked_notice,
            };
            self.out.notices.push((flow.conn.context(), notice));
        }
        if want_tx {
            cycles += self.try_tx(now, fid, acct);
        }
        cycles
    }

    fn process_data(
        &mut self,
        now: SimTime,
        fid: u32,
        seg: Segment,
        acct: &mut CycleAccount,
    ) -> u64 {
        #[cfg(feature = "profile")]
        let _prof = tas_telemetry::profile::guard("data");
        let mut cycles = self.charge(acct, Module::Tcp, self.costs.tcp_rx_data);
        let mut notify_bytes = 0u64;
        {
            let Some(flow) = self.flows.get_mut(fid) else {
                debug_assert!(false, "process_data: flow {fid} not installed");
                return cycles;
            };
            flow.cc.note_ce(seg.is_ce_marked());
            let expected = flow.rcv_seq_of(flow.rcv.rx.end_offset());
            let mut seg_seq = seg.tcp.seq;
            let mut data: &[u8] = &seg.payload;
            // Trim a partially-old segment.
            if seq::lt(seg_seq, expected) {
                let old = seq::sub(expected, seg_seq) as usize;
                if old >= data.len() {
                    data = &[];
                } else {
                    data = &data[old..];
                    seg_seq = expected;
                }
            }
            if data.is_empty() {
                // Entirely duplicate: ACK to resynchronize the peer.
            } else if seg_seq == expected {
                // Common case: in-order deposit directly into the
                // user-space payload buffer.
                if flow.rcv.rx.free() >= data.len() {
                    if flow.rcv.rx.append(data).is_err() {
                        debug_assert!(false, "append within checked free space");
                        self.stats.drop_buf_full += 1;
                        return cycles;
                    }
                    notify_bytes = data.len() as u64;
                    // Merge the tracked out-of-order interval if the gap
                    // just closed ("as if one big segment arrived").
                    if flow.rcv.ooo_len() > 0 && flow.rcv.ooo_start() <= flow.rcv.rx.end_offset() {
                        let int_end = flow.rcv.ooo_start() + flow.rcv.ooo_len() as u64;
                        let end = flow.rcv.rx.end_offset();
                        if int_end > end {
                            if flow.rcv.rx.advance_end(int_end - end).is_ok() {
                                notify_bytes += int_end - end;
                            } else {
                                debug_assert!(false, "ooo interval within the ring");
                            }
                        }
                        flow.rcv.clear_ooo();
                    }
                } else {
                    // Payload buffer full: drop the packet (§3.1) — TCP
                    // flow control makes this uncommon.
                    self.stats.drop_buf_full += 1;
                    return cycles;
                }
            } else {
                // Fast-path exception #2: one tracked out-of-order
                // interval within the receive buffer.
                let off = flow.rcv.rx.end_offset() + seq::sub(seg_seq, expected) as u64;
                let horizon = flow.rcv.rx.start_offset() + flow.rcv.rx.capacity() as u64;
                let fits = off + data.len() as u64 <= horizon;
                let int_end = flow.rcv.ooo_start() + flow.rcv.ooo_len() as u64;
                if !self.ooo_rx {
                    // Go-back-N mode: drop everything out of order.
                    self.stats.drop_ooo += 1;
                } else if !fits {
                    self.stats.drop_ooo += 1;
                } else if flow.rcv.ooo_len() == 0 {
                    if flow.rcv.rx.write_at(off, data).is_ok() {
                        flow.rcv.set_ooo(off, data.len() as u32);
                        #[cfg(feature = "trace")]
                        trace_fp(
                            now,
                            tas_telemetry::TraceEvent::OooPlace {
                                flow: flow.conn.key(),
                                start: flow.rcv.ooo_start(),
                                len: flow.rcv.ooo_len() as u64,
                            },
                        );
                    } else {
                        // `fits` was checked against the horizon; degrade
                        // by dropping rather than panicking mid-packet.
                        debug_assert!(false, "ooo write fits by horizon check");
                        self.stats.drop_ooo += 1;
                    }
                } else if off >= flow.rcv.ooo_start() && off + data.len() as u64 <= int_end {
                    // Duplicate of data already staged.
                } else if off == int_end {
                    if flow.rcv.rx.write_at(off, data).is_ok() {
                        flow.rcv.grow_ooo_tail(data.len() as u32);
                        #[cfg(feature = "trace")]
                        trace_fp(
                            now,
                            tas_telemetry::TraceEvent::OooPlace {
                                flow: flow.conn.key(),
                                start: flow.rcv.ooo_start(),
                                len: flow.rcv.ooo_len() as u64,
                            },
                        );
                    } else {
                        debug_assert!(false, "ooo write fits by horizon check");
                        self.stats.drop_ooo += 1;
                    }
                } else if off + data.len() as u64 == flow.rcv.ooo_start() {
                    if flow.rcv.rx.write_at(off, data).is_ok() {
                        flow.rcv.grow_ooo_head(off, data.len() as u32);
                        #[cfg(feature = "trace")]
                        trace_fp(
                            now,
                            tas_telemetry::TraceEvent::OooPlace {
                                flow: flow.conn.key(),
                                start: flow.rcv.ooo_start(),
                                len: flow.rcv.ooo_len() as u64,
                            },
                        );
                    } else {
                        debug_assert!(false, "ooo write fits by horizon check");
                        self.stats.drop_ooo += 1;
                    }
                } else {
                    // Not mergeable with the single interval: drop; the
                    // ACK below triggers fast retransmission at the peer.
                    self.stats.drop_ooo += 1;
                }
            }
            self.stats.bytes_rx += notify_bytes;
        }
        if notify_bytes > 0 {
            let Some(flow) = self.flows.get(fid) else {
                debug_assert!(false, "flow {fid} vanished mid-data");
                return cycles;
            };
            self.out.notices.push((
                flow.conn.context(),
                RxNotice {
                    opaque: flow.conn.opaque(),
                    rx_bytes: notify_bytes as u32,
                    tx_acked: 0,
                },
            ));
        }
        cycles += self.emit_ack(now, fid, acct);
        cycles
    }

    /// Stages a pure ACK for a flow.
    fn emit_ack(&mut self, now: SimTime, fid: u32, acct: &mut CycleAccount) -> u64 {
        #[cfg(feature = "profile")]
        let _prof = tas_telemetry::profile::guard("ack_tx");
        let cycles = self.charge(acct, Module::Tcp, self.costs.tcp_ack_gen)
            + self.charge(acct, Module::Driver, self.costs.drv_tx);
        let mss = self.mss as u64;
        {
            let Some(flow) = self.flows.get_mut(fid) else {
                debug_assert!(false, "emit_ack: flow {fid} not installed");
                return cycles;
            };
            let closed = flow.adv_window() < mss;
            flow.fc.set_win_closed(closed);
        }
        let Some(flow) = self.flows.get(fid) else {
            debug_assert!(false, "emit_ack: flow {fid} not installed");
            return cycles;
        };
        let mut h = TcpHeader::new(
            flow.conn.key().local_port,
            flow.conn.key().remote_port,
            flow.seq_of(flow.nxt_off()),
            flow.rcv_seq_of(flow.rcv.rx.end_offset()),
            TcpFlags::ACK,
        );
        if flow.cc.last_seg_ce() {
            // DCTCP-accurate per-packet ECN echo.
            h.flags |= TcpFlags::ECE;
        }
        h.window = (flow.adv_window() >> TAS_WSCALE).min(u16::MAX as u64) as u16;
        h.options.timestamp = Some((now.as_micros() as u32, flow.conn.ts_recent()));
        let seg = Segment::tcp(
            self.local_mac,
            flow.conn.peer_mac(),
            self.local_ip,
            flow.conn.key().remote_ip,
            h,
            PayloadBuf::empty(),
            false,
        );
        self.stats.acks_tx += 1;
        self.out.packets.push(seg);
        cycles
    }

    /// Handles a TX command from a context queue (the application appended
    /// data to a flow's transmit buffer). Returns the cycle cost. The flow
    /// may already be gone (teardown raced the queued command).
    pub fn tx_command(&mut self, now: SimTime, fid: u32, acct: &mut CycleAccount) -> u64 {
        #[cfg(feature = "profile")]
        let _prof = tas_telemetry::profile::guard("tx_cmd");
        let mut cycles = self.charge(acct, Module::Tcp, self.costs.tcp_tx_cmd);
        if self.flows.get(fid).is_some() {
            cycles += self.try_tx(now, fid, acct);
        }
        cycles
    }

    /// Handles an RX-bump command: the application advanced its read
    /// pointer. If the advertised window had collapsed below one MSS, an
    /// explicit window-update ACK un-sticks a blocked sender.
    pub fn rx_bump(&mut self, now: SimTime, fid: u32, acct: &mut CycleAccount) -> u64 {
        #[cfg(feature = "profile")]
        let _prof = tas_telemetry::profile::guard("rx_bump");
        let mut cycles = self.charge(acct, Module::Tcp, self.costs.rx_bump);
        let emit = match self.flows.get_mut(fid) {
            Some(flow) => flow.fc.win_closed() && flow.adv_window() >= self.mss as u64,
            None => false,
        };
        if emit {
            cycles += self.emit_ack(now, fid, acct);
        }
        cycles
    }

    /// Pokes a flow's transmitter without consuming its armed pacing
    /// timer (used by the slow path after rate updates — the pending
    /// timer, if any, stays valid).
    pub fn poke_tx(&mut self, now: SimTime, fid: u32, acct: &mut CycleAccount) -> u64 {
        if self.flows.get(fid).is_none() {
            return 0;
        }
        self.try_tx(now, fid, acct)
    }

    /// Handles a pacing-timer expiration for a flow.
    pub fn tx_poll(&mut self, now: SimTime, fid: u32, acct: &mut CycleAccount) -> u64 {
        #[cfg(feature = "profile")]
        let _prof = tas_telemetry::profile::guard("tx_poll");
        self.stats.tx_polls += 1;
        if let Some(flow) = self.flows.get_mut(fid) {
            flow.snd.clear_tx_timer();
        } else {
            return 0;
        }
        self.try_tx(now, fid, acct)
    }

    /// Transmits whatever the rate bucket, congestion window, and peer
    /// window currently allow.
    fn try_tx(&mut self, now: SimTime, fid: u32, acct: &mut CycleAccount) -> u64 {
        #[cfg(feature = "profile")]
        let _prof = tas_telemetry::profile::guard("tx");
        let mut cycles = 0;
        let mut arm_at: Option<SimTime> = None;
        let mut sent_segments = 0u64;
        {
            let mss = self.mss as u64;
            // The flow may have been torn down between the triggering
            // event and this deferred execution.
            let Some(flow) = self.flows.get_mut(fid) else {
                return 0;
            };
            flow.cc.refill_bucket(now);
            loop {
                let avail = flow.snd.tx.end_offset().saturating_sub(flow.nxt_off());
                let wnd = flow.fc.snd_wnd().min(flow.cc.cwnd());
                let budget = wnd.saturating_sub(flow.snd.tx_sent());
                let mut n = avail.min(budget).min(mss);
                if n == 0 {
                    break;
                }
                if !flow.cc.bucket().is_unlimited() {
                    if flow.cc.bucket().tokens == 0
                        || (flow.cc.bucket().tokens < n && flow.cc.bucket().tokens < mss)
                    {
                        // Paced out: arm a timer for when one segment's
                        // credit accrues.
                        let need = n.min(mss);
                        let wait = flow.cc.bucket().time_until(need, now);
                        if wait < SimTime::MAX && !flow.snd.tx_timer_armed() {
                            flow.snd.arm_tx_timer();
                            arm_at = Some(now + wait.max(SimTime::from_ns(500)));
                        }
                        break;
                    }
                    n = n.min(flow.cc.bucket().tokens);
                }
                let off = flow.nxt_off();
                // Pooled buffer filled straight from the ring: the per-
                // packet tx path never touches the allocator in steady
                // state.
                let mut ok = true;
                let payload = PayloadBuf::with(n as usize, |dst| {
                    ok = flow.snd.tx.read_into(off, dst).is_ok();
                });
                if !ok {
                    debug_assert!(false, "tx offset within ring");
                    break;
                }
                let mut h = TcpHeader::new(
                    flow.conn.key().local_port,
                    flow.conn.key().remote_port,
                    flow.seq_of(off),
                    flow.rcv_seq_of(flow.rcv.rx.end_offset()),
                    TcpFlags::ACK | TcpFlags::PSH,
                );
                if flow.cc.last_seg_ce() {
                    h.flags |= TcpFlags::ECE;
                }
                h.window = (flow.adv_window() >> TAS_WSCALE).min(u16::MAX as u64) as u16;
                h.options.timestamp = Some((now.as_micros() as u32, flow.conn.ts_recent()));
                let mut seg = Segment::tcp(
                    self.local_mac,
                    flow.conn.peer_mac(),
                    self.local_ip,
                    flow.conn.key().remote_ip,
                    h,
                    payload,
                    false,
                );
                seg.ip.ecn = Ecn::Ect0;
                flow.snd.note_sent(n);
                flow.cc.consume_credit(n);
                sent_segments += 1;
                self.out.packets.push(seg);
                self.stats.segs_tx += 1;
            }
        }
        if sent_segments > 0 {
            cycles += self.charge(acct, Module::Tcp, self.costs.tcp_tx_seg * sent_segments);
            cycles += self.charge(acct, Module::Driver, self.costs.drv_tx * sent_segments);
        }
        if let Some(at) = arm_at {
            self.stats.timers_armed += 1;
            self.out.tx_timers.push((fid, at));
        }
        cycles
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
        #[cfg(feature = "profile")]
        let _prof = tas_telemetry::profile::guard("probe");
        let cycles = self.charge(acct, Module::Tcp, self.costs.tcp_tx_seg)
            + self.charge(acct, Module::Driver, self.costs.drv_tx);
        let mss = self.mss as u64;
        let Some(flow) = self.flows.get_mut(fid) else {
            return 0;
        };
        let off = flow.nxt_off();
        let avail = flow.snd.tx.end_offset().saturating_sub(off);
        let n = avail.min(mss);
        if n == 0 {
            return cycles;
        }
        let mut ok = true;
        let payload = PayloadBuf::with(n as usize, |dst| {
            ok = flow.snd.tx.read_into(off, dst).is_ok();
        });
        if !ok {
            debug_assert!(false, "probe offset within tx ring");
            return cycles;
        }
        let mut h = TcpHeader::new(
            flow.conn.key().local_port,
            flow.conn.key().remote_port,
            flow.seq_of(off),
            flow.rcv_seq_of(flow.rcv.rx.end_offset()),
            TcpFlags::ACK | TcpFlags::PSH,
        );
        h.window = (flow.adv_window() >> TAS_WSCALE).min(u16::MAX as u64) as u16;
        h.options.timestamp = Some((now.as_micros() as u32, flow.conn.ts_recent()));
        let mut seg = Segment::tcp(
            self.local_mac,
            flow.conn.peer_mac(),
            self.local_ip,
            flow.conn.key().remote_ip,
            h,
            payload,
            false,
        );
        seg.ip.ecn = Ecn::Ect0;
        flow.snd.note_sent(n);
        self.stats.segs_tx += 1;
        self.out.packets.push(seg);
        cycles
    }

    /// Slow-path-triggered retransmission: reset the flow's sender state
    /// and retransmit from the left window edge.
    pub fn trigger_retransmit(&mut self, now: SimTime, fid: u32, acct: &mut CycleAccount) -> u64 {
        #[cfg(feature = "profile")]
        let _prof = tas_telemetry::profile::guard("rexmit");
        if let Some(flow) = self.flows.get_mut(fid) {
            #[cfg(feature = "trace")]
            trace_fp(
                now,
                tas_telemetry::TraceEvent::Retransmit {
                    flow: flow.conn.key(),
                    kind: "timeout",
                    seq: flow.seq_of(flow.snd.tx.start_offset()),
                },
            );
            flow.snd.rewind_for_retransmit();
            self.try_tx(now, fid, acct)
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{FpCongCtrl, FpConnMgmt, FpFlowCtrl, FpRecvRel, FpSendRel, RateBucket};
    use tas_proto::FlowKey;
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
        assert_eq!(ack.tcp.ack, 20_006);
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
        assert_eq!(fp.out.packets[0].tcp.ack, 20_001);
        // Gap fills: both chunks delivered, one merged notice.
        fp.rx_segment(SimTime::ZERO, data_seg(20_001, b"HELLO", false), &mut acct);
        let flow = fp.flows.get_mut(fid).unwrap();
        assert_eq!(flow.rcv.ooo_len(), 0);
        assert_eq!(flow.rcv.rx.pop(16), b"HELLOWORLD");
        assert_eq!(fp.out.packets[1].tcp.ack, 20_011);
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
        assert_eq!(fp.out.packets[0].tcp.seq, 10_001);
        assert_eq!(fp.out.packets[1].tcp.seq, 10_001 + MSS);
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
    fn tsecr_ahead_of_the_clock_cannot_overflow_the_rtt_estimate() {
        // TSecr is peer-controlled: echoing a value ahead of our clock
        // wraps the sample to ~2^32 µs, and the second such sample used to
        // overflow the u32 EWMA (debug panic, silent wrap in release).
        let mut fp = fp();
        let fid = install(&mut fp);
        let mut acct = CycleAccount::new();
        for seq in [20_001, 20_002] {
            let mut seg = data_seg(seq, b"x", false);
            seg.tcp.options.timestamp = Some((777, 5));
            fp.rx_segment(SimTime::from_us(4), seg, &mut acct);
        }
        let flow = fp.flows.get(fid).unwrap();
        assert_eq!(flow.conn.rtt_est_us(), u32::MAX, "saturated, not wrapped");
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
        fp.flows.get_mut(fid).unwrap().fc.update_wnd(60_000);
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
        assert_eq!(fp.out.packets[first_sent].tcp.seq, 10_001);
    }

    #[test]
    fn peer_window_limits_tx() {
        let mut fp = fp();
        let fid = install(&mut fp);
        fp.flows.get_mut(fid).unwrap().fc.update_wnd(2000);
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
