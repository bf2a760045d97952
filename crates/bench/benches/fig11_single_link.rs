//! Figure 11: congestion-control fidelity on a single 10 Gbps link at 75%
//! load, sweeping TAS's slow-path control interval τ.
//!
//! Paper (ns-3): average flow completion time for TAS's rate-based DCTCP
//! matches window DCTCP once τ exceeds the RTT (100 µs); very small τ
//! converges slowly; the average bottleneck queue stays near DCTCP's and
//! grows slowly with τ. Plain TCP (NewReno) sits above both with a much
//! larger queue.
//!
//! The runner lives in `tas_bench::scenarios::fig11` so this harness and
//! the `bench-report` regression gate measure the exact same scenario.

use tas_bench::scenarios::fig11;
use tas_bench::section;

fn main() {
    section(
        "Figure 11: single 10G link at 75% load — FCT and queue vs. control interval",
        "TAS ~ DCTCP for tau >= RTT (100us); small tau converges slowly; queue grows mildly with tau",
    );
    let o = fig11::sweep();
    println!(
        "reference lines:   TCP: FCT {:.2} ms, queue {:.1} pkts",
        o.tcp.0, o.tcp.1
    );
    println!(
        "                 DCTCP: FCT {:.2} ms, queue {:.1} pkts",
        o.dctcp.0, o.dctcp.1
    );
    println!();
    println!(
        "{:<10} {:>12} {:>14}",
        "tau [us]", "TAS FCT ms", "TAS queue pkts"
    );
    for (tau, fct, q) in &o.tas {
        println!("{tau:<10} {fct:>12.2} {q:>14.1}");
    }
    println!();
    println!(
        "extension — TAS running TIMELY (tau 200us): FCT {:.2} ms, queue {:.1} \
         pkts (the paper names TIMELY as a pluggable policy but does not evaluate it)",
        o.timely.0, o.timely.1
    );
    println!();
    println!(
        "paper shape: TAS FCT ~= DCTCP's for tau > RTT; TCP's queue is much larger than DCTCP/TAS"
    );
    let path = fig11::report_from(&o)
        .write()
        .expect("write BENCH_fig11.json");
    println!("report: {}", path.display());
}
