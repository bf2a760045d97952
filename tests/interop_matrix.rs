//! Cross-stack interoperation matrix: every stack pair must complete the
//! echo workload with intact payloads — the strong form of the paper's
//! Table 4 claim ("TAS is fully compatible with existing TCP peers").
//! The matrix cells run the checking client, which compares every echoed
//! byte with the byte it sent.

mod common;

use common::{ix, linux, mpk, mtcp, pair, CheckingClient};
use tas_bench::testbed::{build, Agent, Net};
use tas_bench::{app, HostCfg};
use tas_repro::apps::echo::{EchoServer, Lifetime, RpcClient, ServerMode};
use tas_repro::netsim::topo::host_ip;
use tas_repro::netsim::FaultSpec;
use tas_repro::sim::SimTime;
use tas_repro::tas::TasConfig;

/// TAS as the matrix runs it: two fast-path cores, two app cores.
fn tas2() -> HostCfg {
    HostCfg::Tas(TasConfig::rpc_bench(2, 2))
}

/// Runs one cell: a 128-byte echo server on `server`, and a checking
/// client on `client` sending 60 requests; asserts all 60 came back
/// intact and the connection closed within one second.
fn cell(seed: u64, server: HostCfg, client: HostCfg) {
    let label = format!(
        "{} server with {} client failed",
        server.name(),
        client.name()
    );
    let echo = EchoServer::new(7, 128, ServerMode::Echo, 200);
    let checker = CheckingClient::new(host_ip(0), 7, 128, 60);
    let tb = pair(
        seed,
        Agent::stack(server, Box::new(echo)),
        Agent::stack(client, Box::new(checker)),
    );
    let Net { mut sim, hosts, .. } = build(tb);
    sim.run_until(SimTime::from_secs(1));
    let client = app::<CheckingClient>(&sim, hosts[1]);
    assert_eq!(client.done, 60, "{label}");
    assert!(client.finished, "{label} to close");
}

#[test]
fn all_sixteen_stack_pairs_interoperate() {
    let all = [tas2, linux, ix, mtcp];
    for (si, server) in all.iter().enumerate() {
        for (ci, client) in all.iter().enumerate() {
            cell((si * 4 + ci) as u64 + 1, server(), client());
        }
    }
}

#[test]
fn interop_survives_loss() {
    // TAS server, Linux client, 1% loss on the client's requests (the
    // switch port toward the server): recovery paths of both stacks must
    // cooperate.
    let echo = EchoServer::new(7, 64, ServerMode::Echo, 200);
    let mut c = RpcClient::new(host_ip(0), 7, 4, 1, 64, Lifetime::Persistent);
    c.max_requests = 200;
    let mut tb = pair(
        77,
        Agent::stack(tas2(), Box::new(echo)),
        Agent::stack(linux(), Box::new(c)),
    );
    // Seed 0 derives the stream from the port.
    tb.nodes[0].port.fault = FaultSpec::uniform_loss(0.01, 0);
    let Net { mut sim, hosts, .. } = build(tb);
    sim.run_until(SimTime::from_secs(10));
    assert_eq!(
        app::<RpcClient>(&sim, hosts[1]).done,
        200,
        "lossy interop must still complete all RPCs"
    );
}

#[test]
fn mpk_and_tas_smoke_cell_interoperates_both_directions() {
    // The MPK-dataplane baseline (DESIGN.md §15) rides the same wire
    // format; a smoke cell in each direction keeps the design-space
    // models honest against the real stack without quintupling the
    // full matrix sweep.
    cell(21, mpk(), tas2());
    cell(22, tas2(), mpk());
}
