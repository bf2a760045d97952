//! Connection invariant auditing for the baseline TCP stack.
//!
//! Sibling of `tas::audit`: in debug/test builds,
//! [`TcpConn`](crate::TcpConn) re-checks its structural invariants at the
//! entry and exit of every segment/timer/poll operation. `TcpConn`'s fields are private to its module, so the
//! connection hands this module a [`ConnView`] of the relevant values.

use crate::reasm::Reassembler;
use std::sync::atomic::{AtomicU64, Ordering};
use tas_shm::ByteRing;

/// Process-wide count of audited operations.
static CHECKS: AtomicU64 = AtomicU64::new(0);

/// Number of audit passes performed so far in this process.
pub fn checks_performed() -> u64 {
    CHECKS.load(Ordering::Relaxed)
}

/// True when audit hooks are compiled in.
pub const fn enabled() -> bool {
    cfg!(any(test, debug_assertions))
}

/// The slice of connection state the auditor inspects.
pub struct ConnView<'a> {
    /// Send-side unacknowledged base (stream offset).
    pub una_off: u64,
    /// Next stream offset to transmit.
    pub nxt_off: u64,
    /// Highest stream offset ever transmitted.
    pub max_sent_off: u64,
    /// Transmit payload ring.
    pub tx: &'a ByteRing,
    /// In-order receive frontier (stream offset).
    pub rcv_off: u64,
    /// Receive payload ring.
    pub rx: &'a ByteRing,
    /// Out-of-order reassembly buffer.
    pub reasm: &'a Reassembler,
}

/// Checks one connection's invariants; panics with a description on any
/// violation.
pub fn check_conn(v: &ConnView<'_>) {
    CHECKS.fetch_add(1, Ordering::Relaxed);
    for (name, ring) in [("rx", v.rx), ("tx", v.tx)] {
        assert!(
            ring.len() + ring.free() == ring.capacity(),
            "audit violation: {name} ring len {} + free {} != capacity {}",
            ring.len(),
            ring.free(),
            ring.capacity()
        );
        assert!(
            ring.end_offset() - ring.start_offset() == ring.len() as u64,
            "audit violation: {name} ring offsets [{}, {}) disagree with len {}",
            ring.start_offset(),
            ring.end_offset(),
            ring.len()
        );
    }
    // Send side: the unacked base is exactly the TX ring's start (ACK
    // processing consumes acked payload in lockstep; the FIN sequence
    // byte never advances una_off), and the send cursor stays between
    // the base and the buffered frontier even across go-back-N rewinds.
    assert!(
        v.una_off == v.tx.start_offset(),
        "audit violation: una_off {} diverged from tx ring base {}",
        v.una_off,
        v.tx.start_offset()
    );
    assert!(
        v.una_off <= v.nxt_off && v.nxt_off <= v.tx.end_offset(),
        "audit violation: send cursor {} outside [{}, {}]",
        v.nxt_off,
        v.una_off,
        v.tx.end_offset()
    );
    assert!(
        v.max_sent_off <= v.tx.end_offset(),
        "audit violation: max_sent_off {} beyond buffered frontier {}",
        v.max_sent_off,
        v.tx.end_offset()
    );
    // Receive side: the in-order frontier advances in lockstep with
    // bytes committed to the RX ring.
    assert!(
        v.rcv_off == v.rx.end_offset(),
        "audit violation: rcv_off {} diverged from rx ring frontier {}",
        v.rcv_off,
        v.rx.end_offset()
    );
    // Reassembler: no buffered chunk may sit below the delivered
    // frontier (delivered data must never be re-surfaced — the
    // duplicate-residue bug class).
    if let Some((start, _end)) = v.reasm.first_range() {
        assert!(
            start >= v.reasm.delivered_frontier(),
            "audit violation: reassembler holds chunk at {} below delivered frontier {}",
            start,
            v.reasm.delivered_frontier()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rings() -> (ByteRing, ByteRing) {
        (ByteRing::new(1024), ByteRing::new(1024))
    }

    #[test]
    fn fresh_conn_view_passes() {
        let (rx, tx) = rings();
        let reasm = Reassembler::new(4096);
        check_conn(&ConnView {
            una_off: 0,
            nxt_off: 0,
            max_sent_off: 0,
            tx: &tx,
            rcv_off: 0,
            rx: &rx,
            reasm: &reasm,
        });
        assert!(checks_performed() > 0);
        assert!(enabled());
    }

    #[test]
    #[should_panic(expected = "una_off")]
    fn diverged_una_caught() {
        let (rx, tx) = rings();
        let reasm = Reassembler::new(4096);
        check_conn(&ConnView {
            una_off: 3,
            nxt_off: 3,
            max_sent_off: 3,
            tx: &tx,
            rcv_off: 0,
            rx: &rx,
            reasm: &reasm,
        });
    }

    #[test]
    #[should_panic(expected = "rcv_off")]
    fn diverged_rcv_frontier_caught() {
        let (rx, tx) = rings();
        let reasm = Reassembler::new(4096);
        check_conn(&ConnView {
            una_off: 0,
            nxt_off: 0,
            max_sent_off: 0,
            tx: &tx,
            rcv_off: 10,
            rx: &rx,
            reasm: &reasm,
        });
    }
}
