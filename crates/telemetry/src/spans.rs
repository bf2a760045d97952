//! Causal span tracking: where did a byte's latency go?
//!
//! The paper's §5.2 tail-latency analysis attributes p99 to fast-path
//! queueing. To answer that question on this substrate, every hop of a
//! payload range's journey from sending app to receiving app stamps a
//! [`TraceEvent::Stage`] record into the flight-recorder ring:
//!
//! ```text
//! app_send → fp_tx → nic_tx → switch_fwd → nic_rx → fp_rx
//!          → shm_doorbell → app_deliver        (+ sp_rx/sp_tx detours)
//! ```
//!
//! [`assemble`] groups the stamps by flow and correlates them in TCP
//! sequence space (every stage of one journey — the app's shm-ring append,
//! the fast path's segment cut, the wire hops, the receiver's shm-ring
//! read — names the same byte range by the same sequence numbers), then
//! emits one [`Span`] per transmitted segment. Per-stage deltas partition
//! the end-to-end time *exactly*: stage `i`'s delta is `t_i − t_{i−1}`,
//! so the sum over stages is `t_last − t_first` by construction. Each
//! stamp also carries the time the unit waited in a queue before service
//! at that hop, which splits every delta into queueing vs. processing —
//! the critical-path decomposition [`critical_path`] reports.
//!
//! # Truncation honesty
//!
//! The trace ring is bounded; under load it wraps and evicts the oldest
//! records. A span whose early stamps were evicted must *not* be reported
//! as a short latency — [`Span::e2e_ns`] is `None` unless the span is
//! complete, and when the ring wrapped, incomplete spans carry
//! `truncated = true` so consumers can tell "evicted" from "still in
//! flight". A property test pins this: under adversarial ring sizes every
//! assembled span is either complete (and exact) or flagged.

use crate::{TraceEvent, TraceRecord};
use std::collections::BTreeMap;
use tas_proto::FlowKey;
use tas_sim::Histogram;

/// One hop of a payload range's app-to-app journey. Variants are in
/// causal data-path order; the slow-path detour stages sort after the
/// data path and never appear in data spans.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// The sending app copied payload into its user-space shm TX ring.
    AppSend,
    /// The fast path dequeued the range from the shm ring, built a
    /// segment, and staged it for the NIC.
    FpTx,
    /// The NIC finished serializing the segment onto the wire.
    NicTx,
    /// A switch forwarded the segment (absent on switchless links).
    SwitchFwd,
    /// The segment arrived at the destination NIC's RX queue.
    NicRx,
    /// The destination fast path finished protocol processing and
    /// deposited the payload into the receiver's shm RX ring.
    FpRx,
    /// The fast path posted the readable notice to the app's context
    /// queue (the shm doorbell).
    ShmDoorbell,
    /// The receiving app read the bytes out of its shm RX ring.
    AppDeliver,
    /// Slow-path detour: the slow path processed an exception segment
    /// (handshake, teardown, unknown flow).
    SpRx,
    /// Slow-path detour: the slow path staged a segment (SYN/SYN-ACK/…).
    SpTx,
}

impl Stage {
    /// Stable lowercase name used by the renderers and report schema.
    pub fn name(&self) -> &'static str {
        match self {
            Stage::AppSend => "app_send",
            Stage::FpTx => "fp_tx",
            Stage::NicTx => "nic_tx",
            Stage::SwitchFwd => "switch_fwd",
            Stage::NicRx => "nic_rx",
            Stage::FpRx => "fp_rx",
            Stage::ShmDoorbell => "shm_doorbell",
            Stage::AppDeliver => "app_deliver",
            Stage::SpRx => "sp_rx",
            Stage::SpTx => "sp_tx",
        }
    }

    /// The data path in causal order (excludes the slow-path detour).
    pub const DATA_PATH: [Stage; 8] = [
        Stage::AppSend,
        Stage::FpTx,
        Stage::NicTx,
        Stage::SwitchFwd,
        Stage::NicRx,
        Stage::FpRx,
        Stage::ShmDoorbell,
        Stage::AppDeliver,
    ];

    /// Stages a span must contain to count as complete. `SwitchFwd` is
    /// optional (switchless links exist); `ShmDoorbell` is optional (a
    /// second segment arriving while a readable notice is outstanding is
    /// coalesced into the earlier doorbell, exactly like epoll
    /// level-triggering).
    const REQUIRED: [Stage; 6] = [
        Stage::AppSend,
        Stage::FpTx,
        Stage::NicTx,
        Stage::NicRx,
        Stage::FpRx,
        Stage::AppDeliver,
    ];
}

/// One stage's share of a span: total delta since the previous stamp,
/// split into queue wait and processing (service + propagation).
#[derive(Clone, Copy, Debug)]
pub struct StageDelta {
    /// The completed hop.
    pub stage: Stage,
    /// `t_stage − t_previous_stage` in nanoseconds.
    pub delta_ns: u64,
    /// Portion of the delta spent queued before service at this hop.
    pub queue_ns: u64,
    /// The rest: service time, serialization, propagation.
    pub proc_ns: u64,
}

/// The assembled journey of one transmitted payload range.
#[derive(Clone, Debug)]
pub struct Span {
    /// The flow from the data sender's perspective.
    pub flow: FlowKey,
    /// Sequence number of the range's first byte.
    pub seq: u32,
    /// Range length in bytes (as cut by the fast path into one segment).
    pub len: u32,
    /// `(stage, t_ns, wait_ns)` stamps in causal order.
    pub stages: Vec<(Stage, u64, u64)>,
    /// Every required stage was found, in order.
    pub complete: bool,
    /// The span is incomplete *and* the ring evicted records, so stamps
    /// may have been lost rather than never emitted.
    pub truncated: bool,
}

impl Span {
    /// End-to-end nanoseconds (app send → app deliver). `None` unless the
    /// span is complete — an incomplete span must never masquerade as a
    /// short latency.
    pub fn e2e_ns(&self) -> Option<u64> {
        if !self.complete || self.stages.len() < 2 {
            return None;
        }
        Some(self.stages[self.stages.len() - 1].1 - self.stages[0].1)
    }

    /// Per-stage deltas (entries for every stamp after the first). Their
    /// `delta_ns` sum equals [`Span::e2e_ns`] exactly by construction.
    pub fn deltas(&self) -> Vec<StageDelta> {
        let mut out = Vec::with_capacity(self.stages.len().saturating_sub(1));
        for w in self.stages.windows(2) {
            let (stage, t, wait) = w[1];
            let delta = t - w[0].1;
            let queue = wait.min(delta);
            out.push(StageDelta {
                stage,
                delta_ns: delta,
                queue_ns: queue,
                proc_ns: delta - queue,
            });
        }
        out
    }
}

struct StageEv {
    t_ns: u64,
    /// Stream offset relative to the flow's base sequence (wrapping u32
    /// space unwrapped against the first transmitted byte).
    rel: u64,
    len: u64,
    wait_ns: u64,
}

/// Assembles spans from a drained trace ring. `evicted` is the count
/// reported by [`crate::evicted`] at drain time; it decides whether
/// incomplete spans are flagged as truncated.
pub fn assemble(records: &[TraceRecord], evicted: u64) -> Vec<Span> {
    // Collect stage stamps grouped by flow, in time order (stable sort:
    // equal timestamps keep deterministic emission order).
    type RawStamp = (u64, Stage, u32, u32, u64);
    let mut by_flow: BTreeMap<FlowKey, Vec<RawStamp>> = BTreeMap::new();
    for r in records {
        if let TraceEvent::Stage {
            stage,
            flow,
            seq,
            len,
            wait_ns,
        } = r.ev
        {
            by_flow
                .entry(flow)
                .or_default()
                .push((r.t.as_nanos(), stage, seq.0, len, wait_ns));
        }
    }
    let mut spans = Vec::new();
    for (flow, mut evs) in by_flow {
        evs.sort_by_key(|e| e.0);
        // Base sequence: first byte the fast path transmitted (falls back
        // to the first stamp seen if the trace starts mid-flow).
        let base = evs
            .iter()
            .find(|e| e.1 == Stage::FpTx)
            .or(evs.first())
            .map(|e| e.2)
            .unwrap_or(0);
        // Per-stage interval indexes sorted by relative offset.
        let mut idx: BTreeMap<Stage, Vec<StageEv>> = BTreeMap::new();
        for &(t_ns, stage, seq, len, wait_ns) in &evs {
            idx.entry(stage).or_default().push(StageEv {
                t_ns,
                rel: seq.wrapping_sub(base) as u64,
                len: len as u64,
                wait_ns,
            });
        }
        let mut max_len: BTreeMap<Stage, u64> = BTreeMap::new();
        for (s, v) in idx.iter_mut() {
            v.sort_by(|a, b| a.rel.cmp(&b.rel).then(a.t_ns.cmp(&b.t_ns)));
            max_len.insert(*s, v.iter().map(|e| e.len).max().unwrap_or(0));
        }
        // One span per distinct transmitted range (first transmission
        // wins; retransmits of the same first byte do not open new spans).
        let mut seen = std::collections::BTreeSet::new();
        for &(_, stage, seq, len, _) in &evs {
            if stage != Stage::FpTx || len == 0 || !seen.insert(seq) {
                continue;
            }
            let b = seq.wrapping_sub(base) as u64;
            let mut stamps: Vec<(Stage, u64, u64)> = Vec::with_capacity(8);
            let mut t_prev = 0u64;
            let mut complete = true;
            for s in Stage::DATA_PATH {
                let found = idx
                    .get(&s)
                    .and_then(|v| find_covering(v, b, t_prev, *max_len.get(&s).unwrap_or(&0)));
                match found {
                    Some((t, wait)) => {
                        stamps.push((s, t, wait));
                        t_prev = t;
                    }
                    None => {
                        if Stage::REQUIRED.contains(&s) {
                            complete = false;
                        }
                    }
                }
            }
            spans.push(Span {
                flow,
                seq,
                len,
                stages: stamps,
                complete,
                truncated: !complete && evicted > 0,
            });
        }
    }
    spans
}

/// Finds the earliest event at or after `t_min` whose interval covers
/// relative offset `b`. Events are sorted by `rel`; overlapping intervals
/// (coalesced sends, retransmits) are bounded by `max_len`, so the scan
/// left of the binary-search insertion point terminates early.
fn find_covering(evs: &[StageEv], b: u64, t_min: u64, max_len: u64) -> Option<(u64, u64)> {
    let hi = evs.partition_point(|e| e.rel <= b);
    let mut best: Option<(u64, u64)> = None;
    for e in evs[..hi].iter().rev() {
        if b - e.rel >= max_len {
            break;
        }
        if b - e.rel < e.len && e.t_ns >= t_min && best.is_none_or(|(t, _)| e.t_ns < t) {
            best = Some((e.t_ns, e.wait_ns));
        }
    }
    best
}

/// Aggregate view over a set of spans: end-to-end distribution plus
/// per-stage delta and queue-wait distributions (complete spans only).
#[derive(Debug, Default)]
pub struct Breakdown {
    /// End-to-end nanoseconds of every complete span.
    pub e2e: Histogram,
    /// `(stage, delta, queue)` distributions in data-path order.
    pub per_stage: Vec<(Stage, Histogram, Histogram)>,
    /// Spans examined.
    pub spans: usize,
    /// Complete spans (contributing to the distributions).
    pub complete: usize,
    /// Incomplete spans flagged truncated (ring wrapped mid-flow).
    pub truncated: usize,
}

/// Builds the aggregate breakdown over `spans`.
pub fn breakdown(spans: &[Span]) -> Breakdown {
    let mut b = Breakdown {
        per_stage: Stage::DATA_PATH
            .iter()
            .map(|&s| (s, Histogram::new(), Histogram::new()))
            .collect(),
        ..Breakdown::default()
    };
    for sp in spans {
        b.spans += 1;
        if sp.truncated {
            b.truncated += 1;
        }
        let Some(e2e) = sp.e2e_ns() else { continue };
        b.complete += 1;
        b.e2e.record(e2e);
        for d in sp.deltas() {
            if let Some(slot) = b.per_stage.iter_mut().find(|(s, _, _)| *s == d.stage) {
                slot.1.record(d.delta_ns);
                slot.2.record(d.queue_ns);
            }
        }
    }
    b
}

/// The exact per-stage decomposition of the span at quantile `q` of the
/// end-to-end distribution.
#[derive(Clone, Debug)]
pub struct CriticalPath {
    /// The selected span's end-to-end nanoseconds.
    pub e2e_ns: u64,
    /// Its per-stage deltas; `delta_ns` sums to `e2e_ns` exactly.
    pub stages: Vec<StageDelta>,
}

impl CriticalPath {
    /// Fraction of the end-to-end time spent queueing across all stages.
    pub fn queue_share(&self) -> f64 {
        if self.e2e_ns == 0 {
            return 0.0;
        }
        let q: u64 = self.stages.iter().map(|d| d.queue_ns).sum();
        q as f64 / self.e2e_ns as f64
    }
}

/// Selects the complete span at quantile `q` (by end-to-end latency) and
/// returns its exact stage decomposition. Unlike aggregate per-stage
/// quantiles — which need not sum to any particular span's total — this
/// is one real journey, so the parts sum to the whole.
pub fn critical_path(spans: &[Span], q: f64) -> Option<CriticalPath> {
    let mut complete: Vec<&Span> = spans.iter().filter(|s| s.complete).collect();
    if complete.is_empty() {
        return None;
    }
    complete.sort_by_key(|s| (s.e2e_ns().unwrap_or(0), s.seq));
    let q = q.clamp(0.0, 1.0);
    let rank = ((q * complete.len() as f64).ceil() as usize).clamp(1, complete.len());
    let sp = complete[rank - 1];
    Some(CriticalPath {
        e2e_ns: sp.e2e_ns().expect("complete span"),
        stages: sp.deltas(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;
    use tas_sim::SimTime;

    fn flow() -> FlowKey {
        FlowKey::new(
            Ipv4Addr::new(10, 0, 0, 1),
            5000,
            Ipv4Addr::new(10, 0, 0, 2),
            7,
        )
    }

    fn rec(t_us: u64, stage: Stage, seq: u32, len: u32, wait_ns: u64) -> TraceRecord {
        TraceRecord {
            t: SimTime::from_us(t_us),
            site: "test",
            ev: TraceEvent::Stage {
                stage,
                flow: flow(),
                seq: tas_proto::Seq(seq),
                len,
                wait_ns,
            },
        }
    }

    /// A full chain for one unit starting at `seq`, hops 1µs apart
    /// starting at `t0_us`.
    fn chain(t0_us: u64, seq: u32, len: u32) -> Vec<TraceRecord> {
        Stage::DATA_PATH
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                rec(
                    t0_us + i as u64,
                    s,
                    seq,
                    len,
                    if s == Stage::FpRx { 300 } else { 0 },
                )
            })
            .collect()
    }

    #[test]
    fn single_unit_assembles_exactly() {
        let spans = assemble(&chain(10, 1000, 64), 0);
        assert_eq!(spans.len(), 1);
        let sp = &spans[0];
        assert!(sp.complete && !sp.truncated);
        assert_eq!(sp.stages.len(), 8);
        assert_eq!(sp.e2e_ns(), Some(7_000));
        let deltas = sp.deltas();
        let sum: u64 = deltas.iter().map(|d| d.delta_ns).sum();
        assert_eq!(sum, 7_000, "stage deltas must partition the e2e exactly");
        // FpRx carried 300ns of queue wait; its 1µs delta splits 300/700.
        let fprx = deltas.iter().find(|d| d.stage == Stage::FpRx).unwrap();
        assert_eq!((fprx.queue_ns, fprx.proc_ns), (300, 700));
    }

    #[test]
    fn coalesced_app_send_covers_multiple_units() {
        // One 128-byte app send, cut into two 64-byte segments.
        let mut recs = vec![rec(1, Stage::AppSend, 1000, 128, 0)];
        for (t0, seq) in [(10u64, 1000u32), (20, 1064)] {
            recs.extend(chain(t0, seq, 64).into_iter().skip(1)); // no per-unit AppSend
        }
        let spans = assemble(&recs, 0);
        assert_eq!(spans.len(), 2);
        for sp in &spans {
            assert!(sp.complete, "coalesced send must still complete: {sp:?}");
            assert_eq!(sp.stages[0].0, Stage::AppSend);
            assert_eq!(sp.stages[0].1, 1_000);
        }
    }

    #[test]
    fn incomplete_span_reports_no_latency() {
        // AppSend and the delivery tail are missing; ring did not wrap.
        let recs: Vec<_> = chain(10, 500, 64).into_iter().skip(1).take(3).collect();
        let spans = assemble(&recs, 0);
        assert_eq!(spans.len(), 1);
        assert!(!spans[0].complete);
        assert!(!spans[0].truncated, "no evictions: merely in flight");
        assert_eq!(spans[0].e2e_ns(), None);
    }

    #[test]
    fn wrapped_ring_flags_truncation() {
        // The AppSend stamp fell off the wrapped ring.
        let recs: Vec<_> = chain(10, 500, 64).into_iter().skip(1).collect();
        let spans = assemble(&recs, 17);
        assert_eq!(spans.len(), 1);
        assert!(!spans[0].complete);
        assert!(spans[0].truncated, "evictions happened: must be flagged");
        assert_eq!(spans[0].e2e_ns(), None);
    }

    #[test]
    fn retransmit_does_not_open_a_second_span() {
        let mut recs = chain(10, 900, 64);
        recs.push(rec(50, Stage::FpTx, 900, 64, 0)); // rexmit of the same range
        recs.push(rec(51, Stage::NicTx, 900, 64, 0));
        let spans = assemble(&recs, 0);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].e2e_ns(), Some(7_000), "first journey wins");
    }

    #[test]
    fn sequence_wraparound_is_handled() {
        let seq = u32::MAX - 10;
        let spans = assemble(&chain(10, seq, 64), 0);
        assert_eq!(spans.len(), 1);
        assert!(spans[0].complete, "wrapping seq space must still match");
        assert_eq!(spans[0].e2e_ns(), Some(7_000));
    }

    #[test]
    fn breakdown_and_critical_path_agree() {
        let mut recs = Vec::new();
        // Ten units; the last one queues 40µs extra at FpRx.
        for i in 0..10u32 {
            let mut c = chain(100 + 100 * i as u64, 1000 + 64 * i, 64);
            if i == 9 {
                // Delay FpRx and everything after by 40µs.
                for r in c.iter_mut() {
                    if let TraceEvent::Stage { stage, .. } = r.ev {
                        if stage >= Stage::FpRx && stage <= Stage::AppDeliver {
                            r.t += SimTime::from_us(40);
                        }
                    }
                }
                if let TraceEvent::Stage {
                    ref mut wait_ns, ..
                } = c[5].ev
                {
                    *wait_ns = 40_000 + 300;
                }
            }
            recs.extend(c);
        }
        let spans = assemble(&recs, 0);
        let b = breakdown(&spans);
        assert_eq!((b.spans, b.complete, b.truncated), (10, 10, 0));
        assert_eq!(b.e2e.count(), 10);
        // p50 span: plain 7µs chain, queueing only the 300ns FpRx wait.
        let p50 = critical_path(&spans, 0.5).unwrap();
        assert_eq!(p50.e2e_ns, 7_000);
        // p99 span: the delayed one; queueing dominates.
        let p99 = critical_path(&spans, 0.99).unwrap();
        assert_eq!(p99.e2e_ns, 47_000);
        let sum: u64 = p99.stages.iter().map(|d| d.delta_ns).sum();
        assert_eq!(sum, p99.e2e_ns);
        assert!(p99.queue_share() > 0.8, "queue share {}", p99.queue_share());
        assert!(p50.queue_share() < 0.1);
    }
}
