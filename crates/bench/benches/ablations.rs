//! Ablation studies for the TAS design choices DESIGN.md calls out.
//!
//! Not a paper figure: each section removes or degrades one mechanism the
//! paper argues for and measures the cost of losing it.
//!
//!   A. Compact per-flow state (Table 3, §3.1): inflate the 102-byte flow
//!      state to 512 B and 1.9 KB (a Linux-like tcp_sock) and watch echo
//!      throughput collapse at high connection counts.
//!   B. Fast-path rate enforcement (§3.1–3.2): run the same bulk fan-in
//!      with congestion control disabled and watch the shared queue
//!      collapse into retransmissions.
//!   C. Stall-detector retransmit threshold (§3.2, default 2 intervals):
//!      thresholds 1/2/4 under 1% loss trade spurious retransmissions
//!      against recovery latency.
//!
//! The runners live in `tas_bench::scenarios::ablations` so this harness
//! and the `bench-report` regression gate measure the exact same runs.

use tas_bench::scenarios::ablations::{self, BulkRun, STATE_VARIANTS};
use tas_bench::{fmt_mops, section};

fn bulk_row(label: &str, width: usize, r: &BulkRun) {
    println!(
        "{label:<width$} {:>10.2} {:>14} {:>16}",
        r.gbps, r.fast_rexmits, r.timeout_rexmits
    );
}

fn main() {
    let o = ablations::run();

    section(
        "Ablation A: per-flow state footprint (lines touched per request)",
        "design choice: 102 B compact state (Table 3); fat state thrashes the cache",
    );
    println!(
        "{:<8}{}",
        "conns",
        STATE_VARIANTS.map(|(n, _, _)| format!("{n:>14}")).join("")
    );
    for (conns, mops) in &o.state {
        let cells = mops.map(|m| format!("{:>14}", fmt_mops(m)));
        println!("{conns:<8}{}", cells.join(""));
    }
    println!();
    let at_max = o.state.last().expect("rows").1;
    println!(
        "at max conns: fat state costs {:.0}% (512B) / {:.0}% (1.9KB) of the compact-state \
         throughput",
        100.0 * (1.0 - at_max[1] / at_max[0]),
        100.0 * (1.0 - at_max[2] / at_max[0]),
    );

    section(
        "Ablation B: fast-path per-flow rate enforcement (4x25 bulk flows -> one 10G port)",
        "design choice: slow-path CC enforced by fast-path rate limiters; off = queue collapse",
    );
    println!(
        "{:<22} {:>10} {:>14} {:>16}",
        "enforcement", "Gbps", "fast rexmits", "timeout rexmits"
    );
    bulk_row("DCTCP rate buckets", 22, &o.enforced);
    bulk_row("none (window only)", 22, &o.unenforced);
    println!();
    let (on, off) = (
        o.enforced.fast_rexmits + o.enforced.timeout_rexmits,
        o.unenforced.fast_rexmits + o.unenforced.timeout_rexmits,
    );
    println!(
        "retransmissions without enforcement: {}x the enforced run",
        if on > 0 {
            format!("{:.0}", off as f64 / on as f64)
        } else {
            format!("inf ({off} vs 0)")
        }
    );

    section(
        "Ablation C: stall-detector retransmit threshold (1% loss, 25 bulk flows)",
        "design choice: retransmit after 2 stalled control intervals (paper §3.2)",
    );
    println!(
        "{:<12} {:>10} {:>14} {:>16}",
        "intervals", "Gbps", "fast rexmits", "timeout rexmits"
    );
    for (intervals, r) in &o.stall {
        bulk_row(&intervals.to_string(), 12, r);
    }
    println!();
    println!(
        "expectation: threshold 1 fires spuriously (more timeout rexmits, go-back-N waste); \
         threshold 4 recovers tail losses slowly; 2 balances both"
    );

    let path = ablations::report_from(&o)
        .write()
        .expect("write BENCH_ablations.json");
    println!("report: {}", path.display());
}
