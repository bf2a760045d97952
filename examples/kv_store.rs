//! Key-value store walkthrough: the same memcached-like server binary
//! running over TAS and over the Linux-model stack, with throughput and
//! latency side by side (the paper's §5.3 workload in miniature).
//!
//! Run with: `cargo run --release --example kv_store`

use tas_bench::testbed::{build, Agent, Net, Testbed};
use tas_bench::{app, app_mut, HostCfg};
use tas_repro::apps::kv::{KvClient, KvLoad, KvServer};
use tas_repro::baselines::{profiles, StackHostConfig};
use tas_repro::netsim::topo::host_ip;
use tas_repro::sim::SimTime;
use tas_repro::tas::TasConfig;

/// Runs the KV workload against a server on `server` and returns its
/// throughput and latency.
fn run(server: HostCfg) -> (f64, f64, f64) {
    // The server: 100k keys, zipf(0.9), 90% GETs — once clients populate
    // it.
    let server = Agent::stack(server, Box::new(KvServer::new(11211)));
    // Clients always run on TAS (they are not under test).
    let clients = (1..=2).map(|i| {
        let app = KvClient::new(host_ip(0), 11211, 64, 100_000, KvLoad::Closed, i);
        Agent::stack(HostCfg::Tas(TasConfig::rpc_bench(2, 2)), Box::new(app))
    });
    let Net { mut sim, hosts, .. } = build(Testbed::paper(7, server, clients));
    let warmup = SimTime::from_ms(20);
    let window = SimTime::from_ms(30);
    sim.run_until(warmup);
    let done0: u64 = hosts[1..]
        .iter()
        .map(|&h| app::<KvClient>(&sim, h).done)
        .sum();
    for &h in &hosts[1..] {
        app_mut::<KvClient>(&mut sim, h).measure_from = warmup;
    }
    sim.run_until(warmup + window);
    let mut hist = tas_repro::sim::Histogram::new();
    let mut done1 = 0;
    for &h in &hosts[1..] {
        let c = app::<KvClient>(&sim, h);
        done1 += c.done;
        hist.merge(&c.latency);
    }
    let mops = (done1 - done0) as f64 / window.as_secs_f64() / 1e6;
    (
        mops,
        hist.quantile(0.5) as f64 / 1000.0,
        hist.quantile(0.99) as f64 / 1000.0,
    )
}

fn main() {
    println!("key-value store, 128 closed-loop connections, 2 client machines");
    println!(
        "{:<8} {:>10} {:>12} {:>12}",
        "stack", "mOps/s", "p50 [us]", "p99 [us]"
    );
    let (tm, tp50, tp99) = run(HostCfg::Tas(TasConfig::rpc_bench(2, 2)));
    println!("{:<8} {tm:>10.2} {tp50:>12.1} {tp99:>12.1}", "TAS");
    let linux = HostCfg::Model(Box::new(profiles::linux()), StackHostConfig::linux(4));
    let (lm, lp50, lp99) = run(linux);
    println!("{:<8} {lm:>10.2} {lp50:>12.1} {lp99:>12.1}", "Linux");
    println!();
    println!(
        "TAS/Linux throughput: {:.1}x (paper §5.3: up to 7x with sockets)",
        tm / lm
    );
    assert!(tm > lm, "TAS should outperform the Linux model");
}
