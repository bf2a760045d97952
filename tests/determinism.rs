//! Whole-system determinism: identical seeds must reproduce identical
//! runs bit-for-bit, and different seeds must actually differ — the
//! property every regenerated figure depends on.

mod common;

use common::{linux, pair, tas};
use tas_bench::report::{Metric, Report};
use tas_bench::testbed::{build, Agent, Net, Testbed};
use tas_bench::{app, host, HostCfg};
use tas_repro::apps::echo::{EchoServer, Lifetime, RpcClient, ServerMode};
use tas_repro::apps::kv::{KvClient, KvLoad, KvServer};
use tas_repro::netsim::topo::host_ip;
use tas_repro::netsim::{FaultSpec, PortConfig, Switch};
use tas_repro::sim::{Scope, SimTime};
use tas_repro::tas::{TasConfig, TasHost};

/// Runs a mixed workload (echo + KV clients against one TAS server) and
/// returns a fingerprint of everything observable.
fn fingerprint(seed: u64) -> Vec<u64> {
    let server_ip = host_ip(0);
    let mut c = RpcClient::new(server_ip, 9, 4, 1, 64, Lifetime::Persistent);
    c.max_requests = 100;
    let cfg = TasConfig::rpc_bench(2, 2);
    let agents = [
        tas(cfg.clone(), KvServer::new(7)),
        tas(
            cfg.clone(),
            KvClient::new(server_ip, 7, 16, 1_000, KvLoad::Closed, seed),
        ),
        tas(cfg, c),
    ];
    // The echo clients target port 9 which nobody serves: their SYNs are
    // dropped at the server — exercising the give-up path deterministically.
    let Net { mut sim, hosts, .. } = build(Testbed::uniform(seed, PortConfig::tengig(), agents));
    sim.run_until(SimTime::from_ms(60));
    let server = sim.agent::<TasHost>(hosts[0]);
    let kv = app::<KvClient>(&sim, hosts[1]);
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
    let echo = EchoServer::new(7, 64, ServerMode::Echo, 300);
    let mut c = RpcClient::new(host_ip(0), 7, 1, 1, 64, Lifetime::Persistent);
    c.max_requests = 100;
    let cfg = TasConfig::rpc_bench(1, 1);
    let mut tb = pair(sim_seed, tas(cfg.clone(), echo), tas(cfg, c));
    tb.nodes[0].port.fault = FaultSpec::lossy(0.02, 0.01, 0.02, fault_seed);
    tb.nodes[1].port.fault = FaultSpec::lossy(0.02, 0.01, 0.02, fault_seed ^ 0xABCD);
    let Net {
        mut sim,
        switches,
        hosts,
    } = build(tb);
    sim.run_until(SimTime::from_secs(2));
    let client = sim.agent::<TasHost>(hosts[1]);
    let to_server = sim.agent::<Switch>(switches[0]).port_fault_snapshot(0);
    let port_snap = sim.agent::<Switch>(switches[0]).port_fault_snapshot(1);
    let server = sim.agent::<TasHost>(hosts[0]);
    vec![
        sim.events_processed(),
        server.fp_stats().pkts_rx,
        server.fp_stats().bytes_rx,
        server.account().total_cycles(),
        client.app_as::<RpcClient>().done,
        to_server.counter("fault.seen", Scope::Global),
        to_server.counter("fault.dropped", Scope::Global),
        to_server.counter("fault.duplicated", Scope::Global),
        to_server.counter("fault.reordered", Scope::Global),
        to_server.counter("fault.jittered", Scope::Global),
        port_snap.counter("fault.seen", Scope::Global),
        port_snap.counter("fault.dropped", Scope::Global),
        port_snap.counter("fault.duplicated", Scope::Global),
        port_snap.counter("fault.reordered", Scope::Global),
    ]
}

/// Runs a key-value pair for 80 ms on either stack (TAS `rpc_bench(1, 1)`
/// or the two-core Linux model), its client's zipf keys and GET/SET mix
/// drawn from `seed`; host 0 is the server.
fn kv_pair(seed: u64, reference: bool) -> Net {
    let cfg = || {
        if reference {
            linux()
        } else {
            HostCfg::Tas(TasConfig::rpc_bench(1, 1))
        }
    };
    let c = KvClient::new(host_ip(0), 7, 2, 1_000, KvLoad::Closed, seed);
    let tb = pair(
        seed,
        Agent::stack(cfg(), Box::new(KvServer::new(7))),
        Agent::stack(cfg(), Box::new(c)),
    );
    let mut net = build(tb);
    net.sim.run_until(SimTime::from_ms(80));
    net
}

/// Returns every machine-readable artifact the observability layer
/// derives from a [`kv_pair`] run: the server registry's fixed-cadence
/// series (per-core utilization, and on TAS the active fast-path core
/// count), and a bench report rendered to JSON. Two same-seed runs must
/// agree byte for byte — this is what makes `BENCH_*.json` files
/// diffable and the CI regression gate meaningful.
fn run_artifacts(seed: u64, reference: bool) -> String {
    let Net { sim, hosts, .. } = kv_pair(seed, reference);
    let series = host(&sim, hosts[0]).registry().render_series();
    let client = app::<KvClient>(&sim, hosts[1]);
    let (latency, done) = (&client.latency, client.done);
    assert!(done > 0, "the key-value workload must actually run");
    let mut rep = Report::new("determinism-probe", "KV RPC determinism probe", seed);
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
    // The report names its seed, so two seeds' artifacts always differ
    // there; compare what the runs did, not what they were told.
    let behaviour = |seed| {
        let artifacts = run_artifacts(seed, false);
        let lines: Vec<&str> = artifacts
            .lines()
            .filter(|l| !l.trim_start().starts_with("\"seed\":"))
            .collect();
        lines.join("\n")
    };
    assert!(
        behaviour(4321) != behaviour(4322),
        "a different seed must actually change the run"
    );
}

/// A host samples exactly the series something reads: Fig. 14 reads
/// `cores.active_fp` (and, under the proportionality controller,
/// `fp.util_mean`), and the cycle profiler's utilization window reads
/// every per-core `*.util` series.
#[test]
fn every_sampled_series_has_a_reader() {
    for (reference, want) in [
        (false, &["cores.active_fp", "fp.util{core=0}"][..]),
        (true, &["core.util{core=0}", "core.util{core=1}"][..]),
    ] {
        let Net { sim, hosts, .. } = kv_pair(4321, reference);
        let keys: Vec<String> = host(&sim, hosts[0])
            .registry()
            .series_iter()
            .map(|(key, _)| key.to_string())
            .collect();
        assert_eq!(keys, want, "sampled series (reference={reference})");
    }
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
