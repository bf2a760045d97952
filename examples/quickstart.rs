//! Quickstart: an RPC echo server on TAS, driven by a TAS client, over a
//! simulated 10G switch.
//!
//! Run with: `cargo run --release --example quickstart`

use tas_bench::testbed::{build, Agent, Net, Testbed};
use tas_bench::{app, HostCfg};
use tas_repro::apps::echo::{EchoServer, Lifetime, RpcClient, ServerMode};
use tas_repro::netsim::topo::host_ip;
use tas_repro::netsim::PortConfig;
use tas_repro::sim::SimTime;
use tas_repro::tas::{TasConfig, TasHost};

fn main() {
    // Host 0: echo server on TAS (2 fast-path cores, 1 app core).
    // Host 1: client opening 4 connections, 1000 RPCs of 64 bytes.
    let server = EchoServer::new(7, 64, ServerMode::Echo, 300);
    let mut client = RpcClient::new(host_ip(0), 7, 4, 1, 64, Lifetime::Persistent);
    client.max_requests = 1000;
    let agents = [
        Agent::stack(HostCfg::Tas(TasConfig::rpc_bench(2, 1)), Box::new(server)),
        Agent::stack(HostCfg::Tas(TasConfig::rpc_bench(1, 1)), Box::new(client)),
    ];
    // A deterministic simulation: same seed, same run, every time. Both
    // hosts sit on one 10G switch and start at t = 0 (INIT timers start
    // apps and control loops).
    let Net { mut sim, hosts, .. } = build(Testbed::uniform(42, PortConfig::tengig(), agents));

    sim.run_until(SimTime::from_ms(100));

    let client = app::<RpcClient>(&sim, hosts[1]);
    let server = sim.agent::<TasHost>(hosts[0]);
    println!("RPCs completed : {}", client.done);
    println!(
        "median latency : {:.1} us",
        client.latency.quantile(0.5) as f64 / 1000.0
    );
    println!(
        "99th latency   : {:.1} us",
        client.latency.quantile(0.99) as f64 / 1000.0
    );
    println!("server fast-path packets: {}", server.fp_stats().pkts_rx);
    println!(
        "server slow-path: {} connections established, {} exceptions handled",
        server.sp_stats().established,
        server.sp_stats().exceptions
    );
    assert_eq!(client.done, 1000, "all RPCs should complete");
    println!(
        "OK — see DESIGN.md for the architecture and crates/bench for the paper's experiments."
    );
}
