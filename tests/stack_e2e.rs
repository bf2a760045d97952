//! End-to-end tests of the baseline stacks (Linux/IX/mTCP models) and
//! their interoperation with TAS hosts — the property behind the paper's
//! Table 4 compatibility matrix.

mod common;

use common::{ix, linux, mtcp, pair};
use tas::{TasConfig, TasHost};
use tas_apps::echo::{EchoServer, Lifetime, RpcClient, ServerMode};
use tas_apps::loadgen::{LoadGenConfig, LoadGenHost};
use tas_baselines::StackHost;
use tas_bench::testbed::{build, Agent, Net, Testbed};
use tas_bench::{app, HostCfg};
use tas_netsim::topo::host_ip;
use tas_netsim::{FaultSpec, NetMsg, Switch};
use tas_sim::{AgentId, Scope, Sim, SimTime, Snapshot};

/// TAS as these tests run it: one fast-path core, one app core.
fn tas1() -> HostCfg {
    HostCfg::Tas(TasConfig::rpc_bench(1, 1))
}

/// A 2-host star: node 0 = echo server on `server`, node 1 = one-connection
/// RPC client on `client` stopping after `reqs` requests (0 = unlimited).
fn echo_pair(
    server: HostCfg,
    client: HostCfg,
    reqs: u64,
    lifetime: Lifetime,
    seed: u64,
) -> Testbed {
    let echo = EchoServer::new(7, 64, ServerMode::Echo, 300);
    let mut c = RpcClient::new(host_ip(0), 7, 1, 1, 64, lifetime);
    c.max_requests = reqs;
    pair(
        seed,
        Agent::stack(server, Box::new(echo)),
        Agent::stack(client, Box::new(c)),
    )
}

/// Builds [`echo_pair`] with persistent connections.
fn build_pair(
    server: HostCfg,
    client: HostCfg,
    reqs: u64,
    seed: u64,
) -> (Sim<NetMsg>, Vec<AgentId>) {
    let net = build(echo_pair(server, client, reqs, Lifetime::Persistent, seed));
    (net.sim, net.hosts)
}

#[test]
fn linux_echo_round_trips() {
    let (mut sim, hosts) = build_pair(linux(), linux(), 200, 1);
    sim.run_until(SimTime::from_ms(500));
    assert_eq!(app::<RpcClient>(&sim, hosts[1]).done, 200);
    let server = sim.agent::<StackHost>(hosts[0]);
    assert_eq!(server.app_as::<EchoServer>().messages, 200);
    assert_eq!(
        server
            .registry()
            .counter_value("host.established", Scope::Global),
        1
    );
}

#[test]
#[should_panic(expected = "application is not a")]
fn a_wrong_app_downcast_names_the_type_it_wanted() {
    let (sim, hosts) = build_pair(linux(), linux(), 1, 1);
    sim.agent::<StackHost>(hosts[0]).app_as::<RpcClient>();
}

#[test]
fn ix_echo_round_trips() {
    let (mut sim, hosts) = build_pair(ix(), ix(), 200, 2);
    sim.run_until(SimTime::from_ms(500));
    assert_eq!(app::<RpcClient>(&sim, hosts[1]).done, 200);
}

#[test]
fn mtcp_echo_round_trips() {
    let (mut sim, hosts) = build_pair(mtcp(), mtcp(), 200, 3);
    sim.run_until(SimTime::from_secs(2));
    assert_eq!(app::<RpcClient>(&sim, hosts[1]).done, 200);
    let server = sim.agent::<StackHost>(hosts[0]);
    assert!(
        server
            .registry()
            .counter_value("host.batches", Scope::Global)
            > 0,
        "mTCP model must batch"
    );
}

#[test]
fn tas_linux_interop_both_directions() {
    // Table 4's property: any sender/receiver combination works.
    for (s, c, seed) in [(tas1(), linux(), 10u64), (linux(), tas1(), 11)] {
        let (sn, cn) = (s.name(), c.name());
        let (mut sim, hosts) = build_pair(s, c, 100, seed);
        sim.run_until(SimTime::from_ms(500));
        assert_eq!(
            app::<RpcClient>(&sim, hosts[1]).done,
            100,
            "{sn} server with {cn} client must interoperate"
        );
    }
}

/// Median RPC latency of 300 requests from a TAS client to a `server`
/// echo server.
fn median_latency(server: HostCfg, seed: u64) -> u64 {
    let (mut sim, hosts) = build_pair(server, tas1(), 300, seed);
    sim.run_until(SimTime::from_secs(2));
    let client = app::<RpcClient>(&sim, hosts[1]);
    assert_eq!(client.done, 300);
    client.latency.quantile(0.5)
}

#[test]
fn mtcp_latency_exceeds_ix_latency() {
    // Batching buys mTCP throughput at a latency cost; IX delivers
    // per-event. Median RPC latency must order accordingly.
    let ix = median_latency(ix(), 20);
    let mtcp = median_latency(mtcp(), 21);
    assert!(
        mtcp > ix * 2,
        "mTCP median {mtcp}ns should far exceed IX median {ix}ns"
    );
}

#[test]
fn linux_latency_exceeds_tas_latency() {
    let tas = median_latency(tas1(), 30);
    let linux = median_latency(linux(), 31);
    assert!(
        linux > tas,
        "Linux median {linux}ns should exceed TAS median {tas}ns"
    );
}

/// Runs short-lived connections of four requests each on `stack` at
/// both ends for 400 ms.
fn short_lived(stack: fn() -> HostCfg, seed: u64) -> Net {
    let lifetime = Lifetime::ShortLived { msgs_per_conn: 4 };
    let mut net = build(echo_pair(stack(), stack(), 0, lifetime, seed));
    net.sim.run_until(SimTime::from_ms(400));
    net
}

#[test]
fn short_lived_connections_cycle_on_linux() {
    let Net { sim, hosts, .. } = short_lived(linux, 40);
    let client = app::<RpcClient>(&sim, hosts[1]);
    assert!(
        client.conns_completed >= 3,
        "connections must cycle: {} completed, {} RPCs",
        client.conns_completed,
        client.done
    );
    assert!(client.done >= 12);
}

#[test]
fn short_lived_connections_cycle_on_tas() {
    let Net { sim, hosts, .. } = short_lived(tas1, 41);
    let client = app::<RpcClient>(&sim, hosts[1]);
    assert!(
        client.conns_completed >= 3,
        "connections must cycle through the slow path: {} completed, {} RPCs",
        client.conns_completed,
        client.done
    );
    let server = sim.agent::<TasHost>(hosts[0]);
    assert!(server.sp_stats().established >= 4);
}

#[test]
fn fault_schedule_linux_tas_interop_with_auditors() {
    // A Linux-model server (reference TcpConn engine) talking to a TAS
    // client under a seeded drop+dup+reorder schedule in both directions.
    // Both invariant auditors (tas::audit on the TAS host, tas_tcp::audit
    // inside every TcpConn) are live; all RPCs must complete.
    assert!(tas_tcp::audit::enabled() && tas::audit::enabled());
    let mut tb = echo_pair(linux(), tas1(), 200, Lifetime::Persistent, 60);
    // Faults toward the client (port 1) and toward the server (port 0),
    // so the reference TcpConn's reassembler sees drops, duplicates, and
    // reordering.
    tb.nodes[1].port.fault = FaultSpec::lossy(0.01, 0.01, 0.02, 61);
    tb.nodes[0].port.fault = FaultSpec::lossy(0.01, 0.01, 0.02, 62);
    let Net {
        mut sim,
        switches,
        hosts,
    } = build(tb);
    let tcp_audits = tas_tcp::audit::checks_performed();
    let tas_audits = tas::audit::checks_performed();
    sim.run_until(SimTime::from_secs(10));
    assert_eq!(
        app::<RpcClient>(&sim, hosts[1]).done,
        200,
        "all RPCs must survive the fault schedule"
    );
    let fired = |s: &Snapshot| {
        [
            "fault.dropped",
            "fault.duplicated",
            "fault.reordered",
            "fault.jittered",
            "fault.corrupted",
        ]
        .iter()
        .map(|&n| s.counter(n, Scope::Global))
        .sum::<u64>()
            > 0
    };
    let to_client = sim.agent::<Switch>(switches[0]).port_fault_snapshot(1);
    assert!(to_client.counter("fault.seen", Scope::Global) > 200 && fired(&to_client));
    let port_snap = sim.agent::<Switch>(switches[0]).port_fault_snapshot(0);
    assert!(port_snap.counter("fault.seen", Scope::Global) > 200 && fired(&port_snap));
    assert!(tas_tcp::audit::checks_performed() > tcp_audits);
    assert!(tas::audit::checks_performed() > tas_audits);
}

/// A `server` echo server driven by `conns` closed-loop load-generator
/// connections for 100 ms.
fn loadgen_run(server: HostCfg, conns: u32, seed: u64) -> Net {
    let lg = LoadGenConfig {
        server: host_ip(0),
        conns,
        ..LoadGenConfig::default()
    };
    let echo = EchoServer::new(7, 64, ServerMode::Echo, 300);
    let tb = pair(
        seed,
        Agent::stack(server, Box::new(echo)),
        Agent::LoadGen(lg),
    );
    let mut net = build(tb);
    net.sim.run_until(SimTime::from_ms(100));
    net
}

#[test]
fn loadgen_drives_tas_server() {
    let Net { sim, hosts, .. } = loadgen_run(HostCfg::Tas(TasConfig::rpc_bench(2, 1)), 64, 50);
    let lg = sim.agent::<LoadGenHost>(hosts[1]);
    assert_eq!(lg.established, 64, "all loadgen connections establish");
    assert!(lg.done > 1000, "closed-loop RPCs flow: {}", lg.done);
    assert_eq!(lg.rexmits, 0, "lossless LAN: no watchdog retransmits");
    let server = sim.agent::<TasHost>(hosts[0]);
    assert_eq!(server.sp_stats().established, 64);
}

#[test]
fn loadgen_drives_linux_server() {
    let Net { sim, hosts, .. } = loadgen_run(linux(), 32, 51);
    let lg = sim.agent::<LoadGenHost>(hosts[1]);
    assert_eq!(lg.established, 32);
    assert!(lg.done > 500, "RPCs flow over the Linux model: {}", lg.done);
}
