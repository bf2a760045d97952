//! Property tests for the hierarchical timing-wheel event queue: under
//! arbitrary push / cancel / pop interleavings — same-timestamp ties,
//! delays inside the finest tick (which land in the window already
//! drained and merge into the sorted ready run), delays spanning every
//! wheel level and the overflow heap, deadline-bounded pops, stale and
//! duplicate cancellations — the wheel must dispatch exactly the sequence
//! of the retained reference implementation, the global binary heap
//! ([`HeapQueue`]), and agree with it on every observable (peek, length,
//! cancel outcome) at every step.

use proptest::prelude::*;
use tas_repro::sim::{EventQueue, HeapQueue, SimTime};

#[derive(Debug, Clone)]
enum QOp {
    /// Push at `now + delay` (delays drawn from mixed horizons so entries
    /// land in every wheel level and the overflow heap).
    Push(u64),
    /// Push at exactly the previous push's timestamp: a dispatch-order tie
    /// that must break by insertion order in both engines.
    PushTie,
    /// Cancel the i-th handle issued so far (mod count): sometimes live,
    /// sometimes already dispatched or already cancelled — both engines
    /// must agree on the outcome either way.
    Cancel(usize),
    /// Pop up to n events, advancing the clock.
    Pop(u8),
    /// Pop every event due within `window` of now, the way `Sim::run_until`
    /// does: the reference is the heap's `peek_time` + `pop`.
    PopDue(u64),
}

/// Delay caps, one per place an entry can land: inside the level-0 tick
/// (2^18 ps), levels 0-3, and past the wheel's top horizon (2^50 ps,
/// ~1126 s) in the overflow heap.
const DELAY_CAPS: [u64; 6] = [
    200_000,
    50_000_000,
    10_000_000_000,
    3_000_000_000_000,
    1_000_000_000_000_000,
    4_000_000_000_000_000,
];

fn arb_ops() -> impl Strategy<Value = Vec<QOp>> {
    proptest::collection::vec(
        prop_oneof![
            (0usize..DELAY_CAPS.len(), any::<u64>())
                .prop_map(|(h, raw)| QOp::Push(raw % DELAY_CAPS[h])),
            Just(QOp::PushTie),
            any::<usize>().prop_map(QOp::Cancel),
            (1u8..8).prop_map(QOp::Pop),
            (0usize..3, any::<u64>()).prop_map(|(h, raw)| QOp::PopDue(raw % DELAY_CAPS[h])),
        ],
        1..400,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The wheel and the heap reference dispatch identical (time, payload)
    /// sequences and agree on peek/len/cancel at every step.
    #[test]
    fn wheel_matches_heap_reference(ops in arb_ops()) {
        let mut wheel: EventQueue<u64> = EventQueue::new();
        let mut heap: HeapQueue<u64> = HeapQueue::new();
        let mut handles = Vec::new();
        let mut now = 0u64;
        let mut last_at = 0u64;
        for (i, op) in ops.into_iter().enumerate() {
            match op {
                QOp::Push(delay) => {
                    last_at = now + delay;
                    let at = SimTime::from_ps(last_at);
                    handles.push((wheel.push(at, i as u64), heap.push(at, i as u64)));
                }
                QOp::PushTie => {
                    let at = SimTime::from_ps(last_at.max(now));
                    handles.push((wheel.push(at, i as u64), heap.push(at, i as u64)));
                }
                QOp::Cancel(j) => {
                    if !handles.is_empty() {
                        let (w, h) = handles[j % handles.len()];
                        prop_assert_eq!(wheel.cancel(w), heap.cancel(h));
                    }
                }
                QOp::Pop(n) => {
                    for _ in 0..n {
                        let (w, h) = (wheel.pop(), heap.pop());
                        prop_assert_eq!(w, h);
                        match w {
                            Some((t, _)) => now = now.max(t.as_ps()),
                            None => break,
                        }
                    }
                }
                QOp::PopDue(window) => {
                    let deadline = SimTime::from_ps(now + window);
                    loop {
                        let due = heap.peek_time().is_some_and(|t| t <= deadline);
                        let h = if due { heap.pop() } else { None };
                        let w = wheel.pop_due(deadline);
                        prop_assert_eq!(w, h);
                        if w.is_none() {
                            break;
                        }
                    }
                    now = deadline.as_ps();
                }
            }
            prop_assert_eq!(wheel.live_len(), heap.live_len());
            prop_assert_eq!(wheel.is_empty(), heap.is_empty());
            prop_assert_eq!(wheel.peek_time(), heap.peek_time());
        }
        // Drain to exhaustion: every remaining live event must come out of
        // both engines in the same order with the same key and payload.
        loop {
            let (w, h) = (wheel.pop(), heap.pop());
            prop_assert_eq!(w, h);
            if w.is_none() {
                break;
            }
        }
        prop_assert!(wheel.is_empty() && heap.is_empty());
    }
}
