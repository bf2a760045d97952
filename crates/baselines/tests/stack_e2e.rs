//! End-to-end tests of the baseline stacks (Linux/IX/mTCP models) and
//! their interoperation with TAS hosts — the property behind the paper's
//! Table 4 compatibility matrix.

use tas::host::timers as tas_timers;
use tas::{TasConfig, TasHost};
use tas_apps::echo::{EchoServer, Lifetime, RpcClient, ServerMode};
use tas_baselines::{host::timers as bl_timers, profiles, StackHost, StackHostConfig};
use tas_netsim::app::App;
use tas_netsim::topo::{build_star, host_ip, HostSpec};
use tas_netsim::{NetMsg, NicConfig, PortConfig};
use tas_sim::{AgentId, Sim, SimTime};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Linux,
    Ix,
    Mtcp,
    Tas,
}

/// Builds a 2-host star: host 0 = server of `server_kind`, host 1 =
/// client of `client_kind`, echo RPC workload.
fn build_pair(
    server_kind: Kind,
    client_kind: Kind,
    reqs: u32,
    req_size: usize,
    lifetime: Lifetime,
    seed: u64,
) -> (Sim<NetMsg>, Vec<AgentId>) {
    let mut sim: Sim<NetMsg> = Sim::new(seed);
    let server_ip = host_ip(0);
    let mut factory = move |sim: &mut Sim<NetMsg>, spec: HostSpec| {
        let app: Box<dyn App> = if spec.index == 0 {
            Box::new(EchoServer::new(7, req_size, ServerMode::Echo, 300))
        } else {
            let mut c = RpcClient::new(server_ip, 7, 1, 1, req_size, lifetime);
            c.max_requests = reqs as u64;
            Box::new(c)
        };
        let kind = if spec.index == 0 {
            server_kind
        } else {
            client_kind
        };
        make_host(sim, spec, kind, app)
    };
    let topo = build_star(
        &mut sim,
        2,
        |_| PortConfig::tengig(),
        |_| NicConfig::client_10g(1),
        &mut factory,
    );
    for &h in &topo.hosts {
        // INIT timer kinds coincide (0) across host types.
        sim.inject_timer(SimTime::ZERO, h, 0, 0);
    }
    (sim, topo.hosts)
}

fn make_host(sim: &mut Sim<NetMsg>, spec: HostSpec, kind: Kind, app: Box<dyn App>) -> AgentId {
    match kind {
        Kind::Tas => sim.add_agent(Box::new(TasHost::new(
            spec.ip,
            spec.mac,
            spec.nic,
            TasConfig::rpc_bench(1, 1),
            spec.uplink,
            app,
        ))),
        Kind::Linux => sim.add_agent(Box::new(StackHost::new(
            spec.ip,
            spec.mac,
            spec.nic,
            profiles::linux(),
            StackHostConfig::linux(2),
            spec.uplink,
            app,
        ))),
        Kind::Ix => sim.add_agent(Box::new(StackHost::new(
            spec.ip,
            spec.mac,
            spec.nic,
            profiles::ix(),
            StackHostConfig::ix(2),
            spec.uplink,
            app,
        ))),
        Kind::Mtcp => sim.add_agent(Box::new(StackHost::new(
            spec.ip,
            spec.mac,
            spec.nic,
            profiles::mtcp(),
            StackHostConfig::mtcp(3, 1),
            spec.uplink,
            app,
        ))),
    }
}

fn client_done(sim: &Sim<NetMsg>, host: AgentId, kind: Kind) -> u64 {
    match kind {
        Kind::Tas => sim.agent::<TasHost>(host).app_as::<RpcClient>().done,
        _ => sim.agent::<StackHost>(host).app_as::<RpcClient>().done,
    }
}

#[test]
fn linux_echo_round_trips() {
    let (mut sim, hosts) = build_pair(Kind::Linux, Kind::Linux, 200, 64, Lifetime::Persistent, 1);
    sim.run_until(SimTime::from_ms(500));
    assert_eq!(client_done(&sim, hosts[1], Kind::Linux), 200);
    let server = sim.agent::<StackHost>(hosts[0]);
    assert_eq!(server.app_as::<EchoServer>().messages, 200);
    assert_eq!(
        server
            .registry()
            .counter_value("host.established", tas_sim::Scope::Global),
        1
    );
}

#[test]
#[should_panic(expected = "application is not a")]
fn a_wrong_app_downcast_names_the_type_it_wanted() {
    let (sim, hosts) = build_pair(Kind::Linux, Kind::Linux, 1, 64, Lifetime::Persistent, 1);
    sim.agent::<StackHost>(hosts[0]).app_as::<RpcClient>();
}

#[test]
fn ix_echo_round_trips() {
    let (mut sim, hosts) = build_pair(Kind::Ix, Kind::Ix, 200, 64, Lifetime::Persistent, 2);
    sim.run_until(SimTime::from_ms(500));
    assert_eq!(client_done(&sim, hosts[1], Kind::Ix), 200);
}

#[test]
fn mtcp_echo_round_trips() {
    let (mut sim, hosts) = build_pair(Kind::Mtcp, Kind::Mtcp, 200, 64, Lifetime::Persistent, 3);
    sim.run_until(SimTime::from_secs(2));
    assert_eq!(client_done(&sim, hosts[1], Kind::Mtcp), 200);
    let server = sim.agent::<StackHost>(hosts[0]);
    assert!(
        server
            .registry()
            .counter_value("host.batches", tas_sim::Scope::Global)
            > 0,
        "mTCP model must batch"
    );
}

#[test]
fn tas_linux_interop_both_directions() {
    // Table 4's property: any sender/receiver combination works.
    for (s, c, seed) in [
        (Kind::Tas, Kind::Linux, 10u64),
        (Kind::Linux, Kind::Tas, 11),
    ] {
        let (mut sim, hosts) = build_pair(s, c, 100, 64, Lifetime::Persistent, seed);
        sim.run_until(SimTime::from_ms(500));
        assert_eq!(
            client_done(&sim, hosts[1], c),
            100,
            "{s:?} server with {c:?} client must interoperate"
        );
    }
}

#[test]
fn mtcp_latency_exceeds_ix_latency() {
    // Batching buys mTCP throughput at a latency cost; IX delivers
    // per-event. Median RPC latency must order accordingly.
    let run = |kind: Kind, seed: u64| -> u64 {
        let (mut sim, hosts) = build_pair(kind, Kind::Tas, 300, 64, Lifetime::Persistent, seed);
        sim.run_until(SimTime::from_secs(2));
        let client = sim.agent::<TasHost>(hosts[1]).app_as::<RpcClient>();
        assert_eq!(client.done, 300);
        client.latency.quantile(0.5)
    };
    let ix = run(Kind::Ix, 20);
    let mtcp = run(Kind::Mtcp, 21);
    assert!(
        mtcp > ix * 2,
        "mTCP median {mtcp}ns should far exceed IX median {ix}ns"
    );
}

#[test]
fn linux_latency_exceeds_tas_latency() {
    let run = |kind: Kind, seed: u64| -> u64 {
        let (mut sim, hosts) = build_pair(kind, Kind::Tas, 300, 64, Lifetime::Persistent, seed);
        sim.run_until(SimTime::from_secs(2));
        let client = sim.agent::<TasHost>(hosts[1]).app_as::<RpcClient>();
        assert_eq!(client.done, 300);
        client.latency.quantile(0.5)
    };
    let tas = run(Kind::Tas, 30);
    let linux = run(Kind::Linux, 31);
    assert!(
        linux > tas,
        "Linux median {linux}ns should exceed TAS median {tas}ns"
    );
}

#[test]
fn short_lived_connections_cycle_on_linux() {
    let (mut sim, hosts) = build_pair(
        Kind::Linux,
        Kind::Linux,
        0,
        64,
        Lifetime::ShortLived { msgs_per_conn: 4 },
        40,
    );
    sim.run_until(SimTime::from_ms(400));
    let client = sim.agent::<StackHost>(hosts[1]).app_as::<RpcClient>();
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
    let (mut sim, hosts) = build_pair(
        Kind::Tas,
        Kind::Tas,
        0,
        64,
        Lifetime::ShortLived { msgs_per_conn: 4 },
        41,
    );
    sim.run_until(SimTime::from_ms(400));
    let client = sim.agent::<TasHost>(hosts[1]).app_as::<RpcClient>();
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
    use tas_netsim::{FaultSpec, Switch};
    assert!(tas_tcp::audit::enabled() && tas::audit::enabled());
    let mut sim: Sim<NetMsg> = Sim::new(60);
    let server_ip = host_ip(0);
    let mut factory = move |sim: &mut Sim<NetMsg>, spec: HostSpec| {
        let app: Box<dyn App> = if spec.index == 0 {
            Box::new(EchoServer::new(7, 64, ServerMode::Echo, 300))
        } else {
            let mut c = RpcClient::new(server_ip, 7, 1, 1, 64, Lifetime::Persistent);
            c.max_requests = 200;
            Box::new(c)
        };
        let kind = if spec.index == 0 {
            Kind::Linux
        } else {
            Kind::Tas
        };
        let mut spec = spec;
        if spec.index == 1 {
            spec.nic.tx_fault = FaultSpec::lossy(0.01, 0.01, 0.02, 61);
        }
        make_host(sim, spec, kind, app)
    };
    let topo = build_star(
        &mut sim,
        2,
        |i| {
            if i == 0 {
                // Faults toward the server, so the reference TcpConn's
                // reassembler sees drops, duplicates, and reordering.
                PortConfig {
                    fault: FaultSpec::lossy(0.01, 0.01, 0.02, 62),
                    ..PortConfig::tengig()
                }
            } else {
                PortConfig::tengig()
            }
        },
        |_| NicConfig::client_10g(1),
        &mut factory,
    );
    for &h in &topo.hosts {
        sim.inject_timer(SimTime::ZERO, h, 0, 0);
    }
    let tcp_audits = tas_tcp::audit::checks_performed();
    let tas_audits = tas::audit::checks_performed();
    sim.run_until(SimTime::from_secs(10));
    assert_eq!(
        client_done(&sim, topo.hosts[1], Kind::Tas),
        200,
        "all RPCs must survive the fault schedule"
    );
    let fired = |s: &tas_sim::Snapshot| {
        [
            "fault.dropped",
            "fault.duplicated",
            "fault.reordered",
            "fault.jittered",
            "fault.corrupted",
        ]
        .iter()
        .map(|&n| s.counter(n, tas_sim::Scope::Global))
        .sum::<u64>()
            > 0
    };
    let nic_snap = sim.agent::<TasHost>(topo.hosts[1]).nic().tx_fault_snapshot();
    assert!(nic_snap.counter("fault.seen", tas_sim::Scope::Global) > 200 && fired(&nic_snap));
    let port_snap = sim.agent::<Switch>(topo.switch).port_fault_snapshot(0);
    assert!(port_snap.counter("fault.seen", tas_sim::Scope::Global) > 200 && fired(&port_snap));
    assert!(tas_tcp::audit::checks_performed() > tcp_audits);
    assert!(tas::audit::checks_performed() > tas_audits);
}

#[test]
fn loadgen_drives_tas_server() {
    use tas_apps::loadgen::{timers as lg_timers, LoadGenConfig, LoadGenHost};
    let mut sim: Sim<NetMsg> = Sim::new(50);
    let server_ip = host_ip(0);
    let lg_cfg = LoadGenConfig {
        server: server_ip,
        conns: 64,
        ..LoadGenConfig::default()
    };
    let mut factory = move |sim: &mut Sim<NetMsg>, spec: HostSpec| -> AgentId {
        if spec.index == 0 {
            let app: Box<dyn App> = Box::new(EchoServer::new(7, 64, ServerMode::Echo, 300));
            sim.add_agent(Box::new(TasHost::new(
                spec.ip,
                spec.mac,
                spec.nic,
                TasConfig::rpc_bench(2, 1),
                spec.uplink,
                app,
            )))
        } else {
            sim.add_agent(Box::new(LoadGenHost::new(
                spec.ip,
                spec.mac,
                spec.nic,
                spec.uplink,
                lg_cfg.clone(),
            )))
        }
    };
    let topo = build_star(
        &mut sim,
        2,
        |_| PortConfig::tengig(),
        |_| NicConfig::client_10g(1),
        &mut factory,
    );
    sim.inject_timer(SimTime::ZERO, topo.hosts[0], tas_timers::INIT, 0);
    sim.inject_timer(SimTime::ZERO, topo.hosts[1], lg_timers::INIT, 0);
    sim.run_until(SimTime::from_ms(100));
    let lg = sim.agent::<LoadGenHost>(topo.hosts[1]);
    assert_eq!(lg.established, 64, "all loadgen connections establish");
    assert!(lg.done > 1000, "closed-loop RPCs flow: {}", lg.done);
    assert_eq!(lg.rexmits, 0, "lossless LAN: no watchdog retransmits");
    let server = sim.agent::<TasHost>(topo.hosts[0]);
    assert_eq!(server.sp_stats().established, 64);
}

#[test]
fn loadgen_drives_linux_server() {
    use tas_apps::loadgen::{timers as lg_timers, LoadGenConfig, LoadGenHost};
    let mut sim: Sim<NetMsg> = Sim::new(51);
    let server_ip = host_ip(0);
    let lg_cfg = LoadGenConfig {
        server: server_ip,
        conns: 32,
        ..LoadGenConfig::default()
    };
    let mut factory = move |sim: &mut Sim<NetMsg>, spec: HostSpec| -> AgentId {
        if spec.index == 0 {
            let app: Box<dyn App> = Box::new(EchoServer::new(7, 64, ServerMode::Echo, 300));
            sim.add_agent(Box::new(StackHost::new(
                spec.ip,
                spec.mac,
                spec.nic,
                profiles::linux(),
                StackHostConfig::linux(2),
                spec.uplink,
                app,
            )))
        } else {
            sim.add_agent(Box::new(LoadGenHost::new(
                spec.ip,
                spec.mac,
                spec.nic,
                spec.uplink,
                lg_cfg.clone(),
            )))
        }
    };
    let topo = build_star(
        &mut sim,
        2,
        |_| PortConfig::tengig(),
        |_| NicConfig::client_10g(1),
        &mut factory,
    );
    sim.inject_timer(SimTime::ZERO, topo.hosts[0], bl_timers::INIT, 0);
    sim.inject_timer(SimTime::ZERO, topo.hosts[1], lg_timers::INIT, 0);
    sim.run_until(SimTime::from_ms(100));
    let lg = sim.agent::<LoadGenHost>(topo.hosts[1]);
    assert_eq!(lg.established, 32);
    assert!(lg.done > 500, "RPCs flow over the Linux model: {}", lg.done);
}
