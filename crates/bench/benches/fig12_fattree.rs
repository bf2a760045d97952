//! Figure 12: flow completion times in a FatTree cluster at ~30% core
//! load, for TCP (NewReno), DCTCP, and TAS (rate-based DCTCP, τ = 100 µs).
//!
//! Paper (ns-3, 2560 hosts): TAS's FCT distributions match DCTCP's for
//! both short (≤50 packets) and long flows; TCP's tail is worse. We run a
//! scaled-down k = 4 (quick) / k = 8 (TAS_FULL) FatTree with the same
//! 1:4 core oversubscription — documented in EXPERIMENTS.md.
//!
//! The runner lives in `tas_bench::scenarios::fig12` so this harness and
//! the `bench-report` regression gate measure the exact same scenario.

use tas_bench::scenarios::fig12;
use tas_bench::section;

fn main() {
    section(
        "Figure 12: FatTree FCT distributions (short <=50 pkts / long flows)",
        "TAS ~ DCTCP in both CDFs; TCP worse in the tail (scaled k-ary tree)",
    );
    let k = fig12::k();
    println!(
        "(k = {k}, {} hosts, 1:4 oversubscribed core, tau = 100us)",
        k * k * k / 4
    );
    let rows = fig12::sweep();
    for (which, short) in [("short flows (<=50 pkts)", true), ("long flows", false)] {
        println!();
        println!("{which}: FCT percentiles [ms]");
        println!(
            "{:<8} {:>8} {:>8} {:>8} {:>8} {:>8}",
            "cc", "p50", "p90", "p99", "mean", "flows"
        );
        for (name, s, l) in &rows {
            let h = if short { s } else { l };
            println!(
                "{:<8} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8}",
                name,
                h.quantile(0.5) as f64 / 1e6,
                h.quantile(0.9) as f64 / 1e6,
                h.quantile(0.99) as f64 / 1e6,
                h.mean() / 1e6,
                h.count()
            );
        }
    }
    println!();
    println!("paper shape: TAS's distribution tracks DCTCP's; TCP has the heavier tail");
    let path = fig12::report_from(&rows)
        .write()
        .expect("write BENCH_fig12.json");
    println!("report: {}", path.display());
}
