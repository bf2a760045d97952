//! Cross-process determinism fingerprint for the simulator hot loops.
//!
//! ```text
//! simspeed fingerprint   # deterministic dispatch-order hashes (no clocks)
//! ```
//!
//! No wall clock anywhere in the output, so two fresh processes must
//! print identical bytes (CI `cmp`s them). Fixed op counts (independent
//! of quick/full scale) keep the output stable across CI configurations.
//! The timed `BENCH_simspeed.json` report over the same kernels
//! (`tas_bench::simspeed`) is `bench-report simspeed`.

use std::process::ExitCode;
use tas_bench::simspeed::{churn_heap, churn_wheel, packet_churn};

/// Short RTO so live expiries are frequent enough to exercise the
/// dispatch path in a bounded run.
const FP_G: u64 = 3;

fn fingerprint() -> ExitCode {
    for (flows, tag) in [(1_000, "1k"), (10_000, "10k"), (100_000, "100k")] {
        let (wheel, _) = churn_wheel(flows, 200_000, FP_G);
        let (heap, _) = churn_heap(flows, 200_000, FP_G);
        println!("events_{tag}: wheel {wheel:016x} heap {heap:016x}");
        if wheel != heap {
            eprintln!("simspeed: wheel and heap dispatch orders diverged at {flows} flows");
            return ExitCode::FAILURE;
        }
    }
    for (flows, tag) in [(10_000, "10k"), (100_000, "100k")] {
        let (h, _, done) = packet_churn(flows, 100_000);
        println!("packets_{tag}: {h:016x} ({done} pkts)");
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    match std::env::args().nth(1).as_deref() {
        Some("fingerprint") => fingerprint(),
        other => {
            eprintln!("usage: simspeed fingerprint  (got {other:?})");
            ExitCode::FAILURE
        }
    }
}
