//! Table 2: per-request app/stack overheads — cycles, instructions, CPI.
//!
//! Paper: Linux 1.1k/15.7k app/stack cycles, 12.7 ki, CPI 1.32;
//! IX 0.8k/1.9k, 3.3 ki, CPI 0.82; TAS 0.7k/1.9k, 3.9 ki, CPI 0.66.
//! (The paper's four top-down buckets need hardware PMUs; we report the
//! model's backend-stall share — cycles charged without retired
//! instructions — as the "backend bound" analogue.)
//!
//! The runner lives in `tas_bench::scenarios::table2` so this harness and
//! the `bench-report` regression gate measure the exact same scenario.

use tas_bench::scenarios::table2;
use tas_bench::{scaled, section};

fn main() {
    section(
        "Table 2: per-request app/stack cycles, instructions, CPI (KV store)",
        "Linux 1.1k/15.7k, 12.7ki, CPI 1.32; IX 0.8k/1.9k, 3.3ki, 0.82; TAS 0.7k/1.9k, 3.9ki, 0.66",
    );
    println!("(connections: {})", scaled(2_000, 32_000));
    println!();
    println!(
        "{:<10} {:>14} {:>10} {:>6} {:>14}",
        "Stack", "cyc app/stack", "instr", "CPI", "backend-ish"
    );
    let rows = table2::rows();
    for (kind, p) in &rows {
        // "Backend bound" analogue: cycles charged with no retired
        // instructions (the cache/contention stall charges).
        let backend = p.total_cycles() - p.total_instr().min(p.total_cycles());
        println!(
            "{:<10} {:>6.0}/{:<7.0} {:>10.0} {:>6.2} {:>14.0}",
            kind.label(),
            table2::app_cycles(p),
            p.stack_cycles(),
            p.total_instr(),
            p.cpi(),
            backend.max(0.0),
        );
    }
    println!();
    println!("paper reference:");
    println!("Linux         1100/15700      12700   1.32  (backend 388/9046)");
    println!("IX             800/1900        3300   0.82  (backend 402/1005)");
    println!("TAS            700/1900        3900   0.66  (backend 353/684)");
    let path = table2::report_from(&rows)
        .write()
        .expect("write BENCH_table2.json");
    println!("report: {}", path.display());
}
