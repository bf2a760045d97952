//! Whole-system determinism: identical seeds must reproduce identical
//! runs bit-for-bit, and different seeds must actually differ — the
//! property every regenerated figure depends on.

use std::net::Ipv4Addr;
use tas_repro::apps::echo::{Lifetime, RpcClient};
use tas_repro::apps::kv::{KvClient, KvLoad, KvServer};
use tas_repro::netsim::app::App;
use tas_repro::netsim::topo::{build_star, host_ip, HostSpec};
use tas_repro::netsim::{NetMsg, NicConfig, PortConfig};
use tas_repro::sim::{AgentId, Sim, SimTime};
use tas_repro::tas::{TasConfig, TasHost};

/// Runs a mixed workload (echo + KV clients against one TAS server) and
/// returns a fingerprint of everything observable.
fn fingerprint(seed: u64) -> Vec<u64> {
    let mut sim: Sim<NetMsg> = Sim::new(seed);
    let server_ip: Ipv4Addr = host_ip(0);
    let mut factory = move |sim: &mut Sim<NetMsg>, spec: HostSpec| -> AgentId {
        let app: Box<dyn App> = match spec.index {
            0 => Box::new(KvServer::new(7)),
            1 => Box::new(KvClient::new(server_ip, 7, 16, 1_000, KvLoad::Closed, seed)),
            _ => {
                let mut c = RpcClient::new(server_ip, 9, 4, 1, 64, Lifetime::Persistent);
                c.max_requests = 100;
                Box::new(c)
            }
        };
        let mut cfg = TasConfig::rpc_bench(2, 2);
        if spec.index == 0 {
            cfg = TasConfig::rpc_bench(2, 2);
        }
        sim.add_agent(Box::new(TasHost::new(
            spec.ip,
            spec.mac,
            spec.nic,
            cfg,
            spec.uplink,
            app,
        )))
    };
    let topo = build_star(
        &mut sim,
        3,
        |_| PortConfig::tengig(),
        |_| NicConfig::client_10g(1),
        &mut factory,
    );
    // The echo clients target port 9 which nobody serves: their SYNs are
    // dropped at the server — exercising the give-up path deterministically.
    for &h in &topo.hosts {
        sim.inject_timer(SimTime::ZERO, h, 0, 0);
    }
    sim.run_until(SimTime::from_ms(60));
    let server = sim.agent::<TasHost>(topo.hosts[0]);
    let kv = sim.agent::<TasHost>(topo.hosts[1]).app_as::<KvClient>();
    vec![
        sim.events_processed(),
        server.fp_stats().pkts_rx,
        server.fp_stats().acks_tx,
        server.fp_stats().bytes_rx,
        server.sp_stats().established,
        server.account().total_cycles(),
        kv.done,
        kv.latency.quantile(0.5),
        kv.latency.quantile(0.99),
        kv.latency.count(),
    ]
}

#[test]
fn identical_seeds_reproduce_bit_for_bit() {
    let a = fingerprint(1234);
    let b = fingerprint(1234);
    assert_eq!(a, b, "same seed must reproduce the run exactly");
    assert!(a[6] > 100, "the workload actually ran: {a:?}");
}

#[test]
fn different_seeds_differ() {
    let a = fingerprint(1);
    let b = fingerprint(2);
    assert_ne!(a, b, "different seeds must perturb the run (ISNs, zipf)");
}

/// Runs an echo workload through fault injectors on both directions and
/// returns a fingerprint including the injectors' own decision counters.
fn faulty_fingerprint(sim_seed: u64, fault_seed: u64) -> Vec<u64> {
    use tas_repro::netsim::{FaultSpec, Switch};
    let mut sim: Sim<NetMsg> = Sim::new(sim_seed);
    let server_ip: Ipv4Addr = host_ip(0);
    let nic_fault = FaultSpec::lossy(0.02, 0.01, 0.02, fault_seed);
    let port_fault = FaultSpec::lossy(0.02, 0.01, 0.02, fault_seed ^ 0xABCD);
    let mut factory = move |sim: &mut Sim<NetMsg>, spec: HostSpec| -> AgentId {
        let app: Box<dyn App> = if spec.index == 0 {
            Box::new(tas_repro::apps::echo::EchoServer::new(
                7,
                64,
                tas_repro::apps::echo::ServerMode::Echo,
                300,
            ))
        } else {
            let mut c = RpcClient::new(server_ip, 7, 1, 1, 64, Lifetime::Persistent);
            c.max_requests = 100;
            Box::new(c)
        };
        let mut nic = spec.nic;
        if spec.index == 1 {
            nic.tx_fault = nic_fault;
        }
        sim.add_agent(Box::new(TasHost::new(
            spec.ip,
            spec.mac,
            nic,
            TasConfig::rpc_bench(1, 1),
            spec.uplink,
            app,
        )))
    };
    let topo = build_star(
        &mut sim,
        2,
        move |i| {
            if i == 1 {
                PortConfig {
                    fault: port_fault,
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
    sim.run_until(SimTime::from_secs(2));
    let client = sim.agent::<TasHost>(topo.hosts[1]);
    let nic_snap = client.nic().tx_fault_snapshot();
    let port_snap = sim.agent::<Switch>(topo.switch).port_fault_snapshot(1);
    let server = sim.agent::<TasHost>(topo.hosts[0]);
    use tas_repro::sim::Scope;
    vec![
        sim.events_processed(),
        server.fp_stats().pkts_rx,
        server.fp_stats().bytes_rx,
        server.account().total_cycles(),
        client.app_as::<RpcClient>().done,
        nic_snap.counter("fault.seen", Scope::Global),
        nic_snap.counter("fault.dropped", Scope::Global),
        nic_snap.counter("fault.duplicated", Scope::Global),
        nic_snap.counter("fault.reordered", Scope::Global),
        nic_snap.counter("fault.jittered", Scope::Global),
        port_snap.counter("fault.seen", Scope::Global),
        port_snap.counter("fault.dropped", Scope::Global),
        port_snap.counter("fault.duplicated", Scope::Global),
        port_snap.counter("fault.reordered", Scope::Global),
    ]
}

/// Runs the standard echo pair on either stack and returns every
/// machine-readable artifact the observability layer derives from the
/// run: the server registry's fixed-cadence series (queue depths and
/// utilization), and a bench report rendered to JSON. Two same-seed runs must
/// agree byte for byte — this is what makes `BENCH_*.json` files
/// diffable and the CI regression gate meaningful.
fn run_artifacts(seed: u64, reference: bool) -> String {
    use tas_bench::report::{Metric, Report};
    use tas_bench::testbed::{build, Agent, Testbed};
    use tas_bench::{app, host, HostCfg};
    use tas_repro::apps::echo::{EchoServer, ServerMode};
    use tas_repro::baselines::{profiles, StackHostConfig};
    let server_ip: Ipv4Addr = host_ip(0);
    let cfg = || {
        if reference {
            HostCfg::Model(profiles::linux(), StackHostConfig::linux(2))
        } else {
            HostCfg::Tas(TasConfig::rpc_bench(1, 1))
        }
    };
    let mut c = RpcClient::new(server_ip, 7, 2, 1, 64, Lifetime::Persistent);
    c.max_requests = 400;
    let agents = [
        Agent::stack(
            cfg(),
            Box::new(EchoServer::new(7, 64, ServerMode::Echo, 300)),
        ),
        Agent::stack(cfg(), Box::new(c)),
    ];
    let net = build(Testbed::uniform(seed, PortConfig::tengig(), agents));
    let (mut sim, hosts) = (net.sim, net.hosts);
    sim.run_until(SimTime::from_ms(80));
    let series = host(&sim, hosts[0]).registry().render_series();
    let client = app::<RpcClient>(&sim, hosts[1]);
    let (latency, done) = (&client.latency, client.done);
    assert!(done > 0, "the echo workload must actually run");
    let mut rep = Report::new("determinism-probe", "Echo RPC determinism probe", seed);
    rep.param("reference", u64::from(reference));
    rep.push(Metric::quantiles("rpc_latency", "ns", latency));
    rep.push(Metric::value("requests", "count", done as f64));
    format!("{series}\n{}", rep.to_json())
}

#[test]
fn same_seed_series_and_bench_reports_are_byte_identical() {
    for reference in [false, true] {
        let a = run_artifacts(4321, reference);
        let b = run_artifacts(4321, reference);
        assert_eq!(
            a, b,
            "series + report must be a pure function of the seed (reference={reference})"
        );
        assert!(a.contains("tas-bench-report-v1"), "schema header present");
        assert!(
            a.contains(".util{core=0} 1000000 "),
            "per-core series present"
        );
    }
    assert_ne!(
        run_artifacts(4321, false),
        run_artifacts(4322, false),
        "a different seed must actually change the artifacts"
    );
}

#[test]
fn fault_injection_is_deterministic_end_to_end() {
    // Same seeds: byte-identical drop/dup/reorder trace — every injector
    // counter and every downstream metric must agree exactly.
    let a = faulty_fingerprint(77, 900);
    let b = faulty_fingerprint(77, 900);
    assert_eq!(a, b, "same seeds must reproduce the faulty run exactly");
    assert!(a[6] + a[11] > 0, "faults must actually have fired: {a:?}");
    assert_eq!(a[4], 100, "the workload must complete under faults: {a:?}");
    // Different fault seed, same sim seed: the fault schedule (and thus
    // the run) must actually change.
    let c = faulty_fingerprint(77, 901);
    assert_ne!(a, c, "a different fault seed must perturb the schedule");
}
