//! Determinism and monotonicity properties of the design-space models.
//!
//! The head-to-head report (`BENCH_designspace.json`) is byte-compared
//! across processes in CI, so the MPK and PnO runs must be bit-identical
//! for a given seed — including across *process* boundaries (ASLR,
//! environment, allocator state must not leak in). And the models must
//! respond sanely to their defining parameters: raising the WRPKRU
//! crossing cost or the PCIe one-way latency can never make the
//! client-observed latency distribution faster.

use tas_bench::report::{Metric, Report};
use tas_bench::scenarios::designspace;
use tas_sim::{Histogram, Rng, SimTime};

/// Runs the MPK sweep point and returns the latency histogram.
fn mpk_hist(crossing_cycles: u64, seed: u64) -> Histogram {
    designspace::run_custom(designspace::mpk_host(crossing_cycles), seed)
}

/// Runs the PnO sweep point and returns the latency histogram.
fn pno_hist(latency_ns: u64, seed: u64) -> Histogram {
    let server = designspace::pno_host(SimTime::from_ns(latency_ns));
    designspace::run_custom(server, seed)
}

/// The report fragment the cross-process property byte-compares: both
/// design-space models at their default operating points, serialized
/// exactly as the gated report serializes distributions.
fn fragment() -> String {
    let mut r = Report::new("designspace-frag", "cross-process determinism probe", 0);
    r.push(Metric::quantiles(
        "mpk",
        "ns",
        &mpk_hist(80, designspace::SEED),
    ));
    r.push(Metric::quantiles(
        "pno",
        "ns",
        &pno_hist(900, designspace::SEED),
    ));
    r.to_json()
}

const CHILD_ENV: &str = "DESIGNSPACE_FRAGMENT_OUT";

/// Same seed, two *processes*: the serialized report fragments must be
/// byte-identical. The test re-executes its own binary (filtered down to
/// this one test) in child mode; the child writes the fragment and
/// exits before spawning anything itself.
#[test]
fn same_seed_is_byte_identical_across_processes() {
    if let Ok(out) = std::env::var(CHILD_ENV) {
        std::fs::write(out, fragment()).expect("child writes fragment");
        return;
    }
    let exe = std::env::current_exe().expect("current test binary");
    let dir = std::env::temp_dir();
    let mut bodies = Vec::new();
    for run in 0..2 {
        let out = dir.join(format!(
            "designspace_frag_{}_{run}.json",
            std::process::id()
        ));
        let status = std::process::Command::new(&exe)
            .arg("same_seed_is_byte_identical_across_processes")
            .arg("--exact")
            .env(CHILD_ENV, &out)
            .status()
            .expect("spawn child process");
        assert!(status.success(), "child run {run} failed");
        bodies.push(std::fs::read(&out).expect("read child fragment"));
        let _ = std::fs::remove_file(&out);
    }
    assert!(
        bodies[0] == bodies[1],
        "design-space report fragment differs across processes"
    );
}

/// Raising the WRPKRU crossing cost never makes the MPK dataplane
/// faster at p50 or p99.
#[test]
fn mpk_latency_monotone_in_crossing_cost() {
    let mut prev: Option<Histogram> = None;
    for c in designspace::MPK_SWEEP {
        let h = mpk_hist(c, designspace::SEED);
        if let Some(p) = &prev {
            assert!(h.p50() >= p.p50(), "p50 dropped at crossing cost {c}");
            assert!(h.p99() >= p.p99(), "p99 dropped at crossing cost {c}");
        }
        prev = Some(h);
    }
}

/// Raising the PCIe one-way latency never makes the off-path stack
/// faster at p50 or p99.
#[test]
fn pno_latency_monotone_in_pcie_latency() {
    let mut prev: Option<Histogram> = None;
    for l in designspace::PNO_SWEEP {
        let h = pno_hist(l, designspace::SEED);
        if let Some(p) = &prev {
            assert!(h.p50() >= p.p50(), "p50 dropped at PCIe latency {l} ns");
            assert!(h.p99() >= p.p99(), "p99 dropped at PCIe latency {l} ns");
        }
        prev = Some(h);
    }
}

/// In-process determinism over random seeds: running either model twice
/// with the same seed reproduces the full latency distribution
/// bit-for-bit (the property the cross-process check narrows to one
/// pinned seed).
#[test]
fn same_seed_same_distribution() {
    for case in 0..3 {
        let seed = Rng::new(case).range_inclusive(1, u64::from(u32::MAX) - 1);
        let (a, b) = (mpk_hist(80, seed), mpk_hist(80, seed));
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "case {case}: mpk");
        let (a, b) = (pno_hist(900, seed), pno_hist(900, seed));
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "case {case}: pno");
    }
}
