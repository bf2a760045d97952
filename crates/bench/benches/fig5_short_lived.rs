//! Figure 5: throughput with short-lived connections (messages per
//! connection swept), TAS vs. Linux.
//!
//! Paper: 1,024 concurrent short-lived connections, one app core (TAS:
//! two fast-path cores + partial slow path). With ≥4 RPCs/connection TAS
//! outperforms Linux; with 256 RPCs/connection TAS reaches 95% of its
//! persistent-connection throughput.
//!
//! The runner lives in `tas_bench::scenarios::fig5` so this harness and
//! the `bench-report` regression gate measure the exact same scenario.

use tas_bench::scenarios::fig5;
use tas_bench::section;

fn main() {
    section(
        "Figure 5: throughput with short-lived connections",
        "TAS beats Linux from ~4 RPCs/conn; 95% of line throughput at 256",
    );
    let o = fig5::sweep();
    println!("({} concurrent connections)", o.conns);
    println!(
        "{:<12} {:>10} {:>10}",
        "msgs/conn", "TAS mOps", "Linux mOps"
    );
    for (m, t, l) in &o.rows {
        println!("{m:<12} {t:>10.3} {l:>10.3}");
    }
    println!(
        "{:<12} {:>10.3} {:>10}",
        "persistent", o.tas_persistent, "-"
    );
    println!();
    // Shape checks: throughput grows with msgs/conn; TAS wins at >= 4.
    let first = o.rows.first().expect("rows");
    let last = o.rows.last().expect("rows");
    println!(
        "TAS grows {:.2} -> {:.2} mOps; at {} msgs/conn TAS/Linux = {:.1}x",
        first.1,
        last.1,
        last.0,
        last.1 / last.2
    );
    println!("paper: TAS outperforms Linux with >=4 RPCs/conn; 95% utilization at 256");
    let path = fig5::report_from(&o)
        .write()
        .expect("write BENCH_fig5.json");
    println!("report: {}", path.display());
}
