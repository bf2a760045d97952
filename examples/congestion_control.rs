//! Congestion-control walkthrough: rate-based DCTCP under incast.
//!
//! Four TAS hosts blast bulk data at one receiver through an ECN-marking
//! switch. The slow path's control loop reads per-flow ECN feedback from
//! the fast path every 2 RTTs and adjusts per-flow rate buckets; the fast
//! path enforces them. Watch the switch queue hover near the marking
//! threshold while every connection gets a fair share (§3.2, §5.5).
//!
//! Run with: `cargo run --release --example congestion_control`

use std::iter;
use tas_bench::testbed::{build, Agent, Net, Testbed};
use tas_bench::{app, HostCfg};
use tas_repro::apps::bulk::{BulkReceiver, BulkSender};
use tas_repro::netsim::switch::TIMER_SAMPLE_QUEUE;
use tas_repro::netsim::topo::host_ip;
use tas_repro::netsim::{PortConfig, Switch};
use tas_repro::sim::SimTime;
use tas_repro::tas::{CcAlgo, TasConfig};

fn main() {
    let senders = 4usize;
    let conns_per_sender = 8u32;
    let mut cfg = TasConfig::rpc_bench(2, 2);
    cfg.cc = CcAlgo::DctcpRate; // The paper's default policy.
    cfg.initial_rate_bps = 200_000_000;
    cfg.control_interval = SimTime::from_us(200); // ~2 RTTs.
    cfg.rx_buf = 128 * 1024;
    cfg.tx_buf = 128 * 1024;
    cfg.max_core_backlog = SimTime::from_ms(50);
    let host = |app| Agent::stack(HostCfg::Tas(cfg.clone()), app);
    let receiver = BulkReceiver::new(9).sampling(SimTime::from_ms(20), SimTime::from_ms(40));
    let sender = || host(Box::new(BulkSender::new(host_ip(0), 9, conns_per_sender)));
    let agents = iter::once(host(Box::new(receiver))).chain((0..senders).map(|_| sender()));
    // ECN marking threshold: 65 packets.
    let Net {
        mut sim,
        switches,
        hosts,
    } = build(Testbed::uniform(99, PortConfig::tengig(), agents));
    let switch = switches[0];
    sim.agent_mut::<Switch>(switch)
        .monitor_port(0, SimTime::from_us(50));
    sim.inject_timer(SimTime::from_ms(40), switch, TIMER_SAMPLE_QUEUE, 0);

    sim.run_until(SimTime::from_ms(240));

    let app = app::<BulkReceiver>(&sim, hosts[0]);
    let sw = sim.agent::<Switch>(switch);
    let total_conns = senders as u32 * conns_per_sender;
    println!("incast: {senders} senders x {conns_per_sender} conns -> one 10G receiver");
    println!(
        "goodput        : {:.2} Gbps",
        app.total as f64 * 8.0 / 0.24 / 1e9
    );
    println!(
        "switch queue   : {:.1} packets average (ECN threshold 65)",
        sw.mean_queue_depth()
    );
    println!("CE marks       : {}", sw.total_marked());
    println!("drop-tail drops: {}", sw.total_drops());
    // Fairness: per-connection bytes per 20ms interval.
    let mut samples = app.interval_samples.clone();
    samples.sort_unstable();
    if !samples.is_empty() {
        let med = samples[samples.len() / 2];
        let p99 = samples[(samples.len() * 99 / 100).min(samples.len() - 1)];
        let fair = 9.4e9 / 8.0 * 0.02 / total_conns as f64;
        println!(
            "per-conn bytes/20ms: median {med} (fair share {fair:.0}), p99/median {:.2}",
            p99 as f64 / med.max(1) as f64
        );
    }
    println!();
    println!("the slow path computed rates; the fast path enforced them per-flow —");
    println!("untrusted applications never touch congestion control (paper §3.1).");
}
