//! Table 7: throughput for the non-scalable key-value workload — a single
//! contended 4-byte key whose updates serialize on a lock.
//!
//! Paper (256 connections): TAS LL 2.4/3.8/4.6 mOps at 2/3/4 cores;
//! TAS SO 2.4/3.1/3.1; IX 1.5/2.5/2.8/2.8 at 1–4; Linux 0.3/0.4/0.6/0.8.
//! TAS scales the *stack* even when the app cannot scale: in the limit
//! 1.6× IX and 5.7× Linux.
//!
//! The runner lives in `tas_bench::scenarios::table7` so this harness and
//! the `bench-report` regression gate measure the exact same scenario.

use tas_bench::scenarios::table7;
use tas_bench::{fmt_mops, section};

fn main() {
    section(
        "Table 7: non-scalable KV workload (single contended key, 256 conns)",
        "TAS LL 2.4/3.8/4.6 mOps; TAS SO 2.4/3.1/3.1; IX 1.5-2.8; Linux 0.3-0.8",
    );
    println!(
        "{:<9} {:>9} {:>9} {:>9} {:>9}",
        "cores", "TAS LL", "TAS SO", "IX", "Linux"
    );
    let rows = table7::sweep();
    for (total, mops) in &rows {
        let cells = mops.map(|m| format!(" {:>8}", fmt_mops(m)));
        println!("{total:<9}{}", cells.join(""));
    }
    println!();
    let [ll, _, ix, linux] = rows.last().expect("rows").1;
    println!(
        "in the limit: TAS LL/IX = {:.1}x, TAS LL/Linux = {:.1}x (paper: 1.6x, 5.7x)",
        ll / ix,
        ll / linux
    );
    let path = table7::report_from(&rows)
        .write()
        .expect("write BENCH_table7.json");
    println!("report: {}", path.display());
}
