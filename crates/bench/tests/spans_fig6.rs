//! Acceptance check for the span profiler on the canonical fig6 run: the
//! critical-path decomposition must sum to the measured end-to-end
//! latency within 1%, split each stage into queue + processing exactly,
//! and see zero truncation at the default ring size.
#![cfg(feature = "telemetry")]

use tas_bench::scenarios::fig6;
use tas_telemetry::spans;

#[test]
fn critical_path_sums_to_measured_e2e() {
    let a = fig6::span_analysis(1 << 20);
    let b = &a.breakdown;
    assert!(b.complete > 100, "expected a real span population: {b:?}");
    assert_eq!(b.truncated, 0, "default ring must not truncate: {b:?}");
    assert_eq!(b.e2e.count() as usize, b.complete);
    for q in [0.5, 0.9, 0.99] {
        let cp = spans::critical_path(&a.spans, q).expect("complete spans exist");
        let sum: u64 = cp.stages.iter().map(|d| d.delta_ns).sum();
        let err = sum.abs_diff(cp.e2e_ns) as f64;
        assert!(
            err <= 0.01 * cp.e2e_ns as f64,
            "q={q}: stage sum {sum} vs e2e {} off by more than 1%",
            cp.e2e_ns
        );
        for d in &cp.stages {
            assert_eq!(
                d.queue_ns + d.proc_ns,
                d.delta_ns,
                "queue/proc must partition the {:?} delta",
                d.stage
            );
        }
    }
}
