//! Figure 10 + Table 8: FlexStorm real-time analytics on Linux, mTCP, TAS.
//!
//! Three nodes in a processing chain; tuples stream over TCP; each node
//! runs demux → workers → batching mux. Paper: raw throughput Linux ≈
//! 1.3 mt/s, mTCP ≈ 2.8 (2.1×), TAS ≈ 3.0 (+8%); per-tuple time is
//! dominated by the mux output queue: Linux 20 ms, mTCP 14+4 ms, TAS 8 ms
//! (TAS needs no stack batching).
//!
//! The runner lives in `tas_bench::scenarios::fig10` so this harness and
//! the `bench-report` regression gate measure the exact same scenario.

use tas_apps::flexstorm::TUPLE_SIZE;
use tas_bench::scenarios::fig10;
use tas_bench::section;

fn main() {
    section(
        "Figure 10 + Table 8: FlexStorm throughput and tuple latency breakdown",
        "raw mt/s: Linux 1.3, mTCP 2.8, TAS 3.0; tuple time: 20ms / 18ms / 8ms",
    );
    println!(
        "(offered spout rate: {} tuples/s, 3 nodes, 2 workers each)",
        fig10::spout_rate()
    );
    println!();
    println!(
        "{:<8} {:>10} {:>12} {:>12} {:>12} {:>12}",
        "stack", "mt/s", "input us", "proc us", "output ms", "total ms"
    );
    let rows = fig10::sweep();
    for (_, kind, mtps, st) in &rows {
        println!(
            "{:<8} {:>10.3} {:>12.2} {:>12.2} {:>12.2} {:>12.2}",
            kind.label(),
            mtps,
            st.input_us,
            st.proc_us,
            st.output_ms,
            st.input_us / 1000.0 + st.proc_us / 1000.0 + st.output_ms,
        );
    }
    println!();
    println!(
        "tuple wire size {} B; paper reference: Linux 6.96us/0.37us/20ms; mTCP 4ms/0.33us/14ms; TAS 7.47us/0.36us/8ms",
        TUPLE_SIZE
    );
    let path = fig10::report_from(&rows)
        .write()
        .expect("write BENCH_fig10.json");
    println!("report: {}", path.display());
}
