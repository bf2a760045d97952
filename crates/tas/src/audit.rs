//! Per-flow invariant auditing for the fast path and slow path.
//!
//! In debug/test builds the host re-checks structural invariants of every installed flow after
//! each fast-path and slow-path operation: sequence-window sanity,
//! [`ByteRing`](tas_shm::ByteRing) start/end/capacity accounting,
//! rate-bucket credit conservation, single-out-of-order-interval
//! consistency, and timer/flow-table agreement. A violation panics with
//! the flow id and the failed invariant, so fuzzing and e2e runs under
//! fault injection turn silent state corruption into immediate, located
//! failures.
//!
//! The hook sites compile away entirely in release builds
//! (`#[cfg(any(test, debug_assertions))]`), so the release fast-path
//! cost is unchanged.

use crate::fastpath::FastPath;
use crate::flow::FlowState;
use std::sync::atomic::{AtomicU64, Ordering};
use tas_sim::SimTime;

/// Process-wide count of audited operations — lets tests assert the
/// auditor was actually live rather than compiled out.
static CHECKS: AtomicU64 = AtomicU64::new(0);

/// Number of audit passes performed so far in this process.
pub fn checks_performed() -> u64 {
    CHECKS.load(Ordering::Relaxed)
}

/// True when audit hooks are compiled in.
pub const fn enabled() -> bool {
    cfg!(any(test, debug_assertions))
}

macro_rules! audit_assert {
    ($cond:expr, $fid:expr, $($msg:tt)+) => {
        assert!($cond, "audit violation (flow {}): {}", $fid, format_args!($($msg)+));
    };
}

/// Checks one flow's invariants. `fid` labels the failure message.
pub fn check_flow(fid: u32, f: &FlowState) {
    // ByteRing accounting: offsets and occupancy must agree with the
    // capacity on both payload buffers.
    for (name, ring) in [("rx", &f.rcv.rx), ("tx", &f.snd.tx)] {
        audit_assert!(
            ring.len() + ring.free() == ring.capacity(),
            fid,
            "{name} ring len {} + free {} != capacity {}",
            ring.len(),
            ring.free(),
            ring.capacity()
        );
        audit_assert!(
            ring.end_offset() - ring.start_offset() == ring.len() as u64,
            fid,
            "{name} ring offsets [{}, {}) disagree with len {}",
            ring.start_offset(),
            ring.end_offset(),
            ring.len()
        );
    }
    // Sequence-window sanity: sent-but-unacked bytes live inside the
    // buffered unacked window, and stay far below the 2^31 wraparound
    // horizon that seq comparison arithmetic needs.
    audit_assert!(
        f.snd.tx_sent() <= f.snd.tx.len() as u64,
        fid,
        "tx_sent {} exceeds buffered unacked bytes {}",
        f.snd.tx_sent(),
        f.snd.tx.len()
    );
    audit_assert!(
        f.snd.tx_sent() < 1 << 31,
        fid,
        "tx_sent {} crosses the sequence-comparison horizon",
        f.snd.tx_sent()
    );
    audit_assert!(
        f.snd.max_sent_off() >= f.nxt_off(),
        fid,
        "max_sent_off {} behind next-to-send offset {}",
        f.snd.max_sent_off(),
        f.nxt_off()
    );
    // Duplicate-ACK counter: fast recovery resets at 3, so the counter
    // can never be observed above it between operations.
    audit_assert!(
        f.snd.dupack_cnt() <= 3,
        fid,
        "dupack_cnt {} ran away",
        f.snd.dupack_cnt()
    );
    // Single out-of-order interval: when tracked, it must sit strictly
    // beyond the in-order frontier (a closed gap merges immediately) and
    // within the receive-buffer horizon.
    if f.rcv.ooo_len() > 0 {
        audit_assert!(
            f.rcv.ooo_start() > f.rcv.rx.end_offset(),
            fid,
            "ooo interval start {} not beyond in-order frontier {}",
            f.rcv.ooo_start(),
            f.rcv.rx.end_offset()
        );
        audit_assert!(
            f.rcv.ooo_start() + f.rcv.ooo_len() as u64
                <= f.rcv.rx.start_offset() + f.rcv.rx.capacity() as u64,
            fid,
            "ooo interval [{}, {}) exceeds rx horizon {}",
            f.rcv.ooo_start(),
            f.rcv.ooo_start() + f.rcv.ooo_len() as u64,
            f.rcv.rx.start_offset() + f.rcv.rx.capacity() as u64
        );
    }
    // Rate-bucket credit conservation: credit never exceeds the burst
    // cap, whatever sequence of refill/set_rate_bps/consume ran.
    if !f.cc.bucket().is_unlimited() {
        audit_assert!(
            f.cc.bucket().tokens <= f.cc.bucket().burst,
            fid,
            "rate bucket tokens {} exceed burst {}",
            f.cc.bucket().tokens,
            f.cc.bucket().burst
        );
    }
}

/// Audits the whole fast path after an operation: every flow's invariants,
/// flow-table index/slot agreement, and staged pacing timers referencing
/// live flows that actually armed them.
///
/// Staged timer *deadlines* are deliberately not compared against `now`:
/// the host clamps them forward at flush time (`at.max(end)`), so a
/// deadline behind the core clock is legitimate.
pub fn check_fastpath(fp: &FastPath, now: SimTime) {
    let _ = now;
    CHECKS.fetch_add(1, Ordering::Relaxed);
    let mut seen = 0usize;
    for (fid, flow) in fp.flows.iter() {
        check_flow(fid, flow);
        // Table agreement: the 4-tuple index must point back at this slot.
        audit_assert!(
            fp.flows.lookup(&flow.conn.key()) == Some(fid),
            fid,
            "flow-table index diverged for key {}",
            flow.conn.key()
        );
        seen += 1;
    }
    assert!(
        seen == fp.flows.len(),
        "audit violation: flow table len {} but {} occupied slots",
        fp.flows.len(),
        seen
    );
    // Timer/flow-table agreement: staged pacing timers must reference
    // installed flows that have their timer flag set, at a sane deadline.
    for &(fid, at) in &fp.out.tx_timers {
        let Some(flow) = fp.flows.get(fid) else {
            panic!("audit violation: pacing timer staged for unknown flow {fid}");
        };
        audit_assert!(
            flow.snd.tx_timer_armed(),
            fid,
            "pacing timer staged at {at:?} but tx_timer_armed is clear"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{
        FlowTable, FpCongCtrl, FpConnMgmt, FpFlowCtrl, FpRecvRel, FpSendRel, RateBucket,
    };
    use std::net::Ipv4Addr;
    use tas_proto::FlowKey;
    use tas_shm::ByteRing;

    fn flow(port: u16) -> FlowState {
        FlowState {
            conn: FpConnMgmt::new(
                0,
                0,
                FlowKey::new(
                    Ipv4Addr::new(10, 0, 0, 1),
                    80,
                    Ipv4Addr::new(10, 0, 0, 2),
                    port,
                ),
                tas_proto::MacAddr::for_host(2),
                0,
            ),
            snd: FpSendRel::new(ByteRing::new(1024), 1),
            rcv: FpRecvRel::new(ByteRing::new(1024), 2),
            fc: FpFlowCtrl::new(1024, 0),
            cc: FpCongCtrl::new(RateBucket::unlimited()),
        }
    }

    #[test]
    fn healthy_flow_passes() {
        let f = flow(1);
        check_flow(0, &f);
        assert!(enabled());
    }

    #[test]
    #[should_panic(expected = "tx_sent")]
    fn tx_sent_beyond_buffer_caught() {
        let mut f = flow(1);
        f.snd.note_sent(10); // Nothing buffered.
        check_flow(0, &f);
    }

    #[test]
    #[should_panic(expected = "ooo interval start")]
    fn ooo_interval_at_frontier_caught() {
        let mut f = flow(1);
        // Stage offsets 5..10 (irs 2: offset 0 is seq 3), then commit up to
        // the interval through the shared ring without the component —
        // what a buggy libTAS could do. No gap: it should have merged.
        f.rcv.place(tas_proto::Seq(8), b"later", true);
        f.rcv.rx.append(b"early").unwrap();
        check_flow(0, &f);
    }

    #[test]
    #[should_panic(expected = "exceed burst")]
    fn bucket_over_burst_caught() {
        let mut f = flow(1);
        f.cc = FpCongCtrl::new(RateBucket {
            tokens: 2_000,
            ..RateBucket::limited(8_000_000, 1_000, tas_sim::SimTime::ZERO)
        });
        check_flow(0, &f);
    }

    #[test]
    fn counter_advances_on_fastpath_check() {
        let mut table = FlowTable::new();
        table.insert(flow(9));
        let fp = {
            let mut fp = FastPath::new(
                Ipv4Addr::new(10, 0, 0, 1),
                tas_proto::MacAddr::for_host(1),
                1448,
                crate::config::TasCosts::default(),
            );
            fp.flows = table;
            fp
        };
        let before = checks_performed();
        check_fastpath(&fp, tas_sim::SimTime::ZERO);
        assert!(checks_performed() > before);
    }
}
