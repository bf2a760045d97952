//! Figure 8 + Table 6: key-value store throughput scalability with server
//! cores, for TAS LL, TAS SO, IX, and Linux.
//!
//! Paper: 32k connections; TAS LL up to 9.6× Linux and 1.9× IX; TAS SO up
//! to 7.0× Linux and 1.3× IX. Table 6 gives the app/TAS core split used
//! at each total core count.
//!
//! The runner lives in `tas_bench::scenarios::fig8` so this harness and
//! the `bench-report` regression gate measure the exact same scenario.

use tas_bench::scenarios::fig8;
use tas_bench::{fmt_mops, section, Kind};

fn main() {
    section(
        "Figure 8 + Table 6: KV-store throughput vs. total server cores",
        "TAS LL up to 9.6x Linux / 1.9x IX; TAS SO 7.0x / 1.3x (32k conns)",
    );
    println!("(connections: {})", fig8::conns());
    println!(
        "{:<7} {:>9} {:>9} {:>9} {:>9}",
        "cores", "TAS LL", "TAS SO", "IX", "Linux"
    );
    let rows = fig8::sweep();
    for (total, mops) in &rows {
        let cells = mops.map(|m| format!(" {:>8}", fmt_mops(m)));
        println!("{total:<7}{}", cells.join(""));
    }
    println!();
    println!("Table 6 core splits used (app/TAS):");
    for (total, _) in &rows {
        let (fp, app) = fig8::split(Kind::TasSockets, *total);
        let (fpl, appl) = fig8::split(Kind::TasLowLevel, *total);
        println!("  {total} cores: sockets {app}/{fp}, lowlevel {appl}/{fpl}");
    }
    println!();
    let [ll, so, ix, linux] = rows.last().expect("rows").1;
    println!(
        "at max cores: TAS LL/Linux = {:.1}x, TAS LL/IX = {:.1}x, TAS SO/Linux = {:.1}x, TAS SO/IX = {:.1}x",
        ll / linux,
        ll / ix,
        so / linux,
        so / ix,
    );
    println!("paper: 9.6x, 1.9x, 7.0x, 1.3x");
    let path = fig8::report_from(&rows)
        .write()
        .expect("write BENCH_fig8.json");
    println!("report: {}", path.display());
}
