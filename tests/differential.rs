//! Differential testing: the TAS stack against the reference `tas-tcp`
//! connection engine (driving the Linux-model baseline host), both run
//! under identical seeded fault schedules.
//!
//! The two implementations share nothing above the wire format, so
//! agreement is evidence, not tautology. For each scenario the runs must
//! agree on the delivered-byte frontier (every application byte arrives,
//! exactly once, on both stacks), on the retransmission story (a clean
//! network produces exactly zero retransmits on both; a faulty schedule
//! that drops packets forces both stacks to retransmit without
//! perturbing the frontier), and on the final flow state (the persistent
//! connection is still established on both sides, nothing leaked).

mod common;

use common::{linux, pair};
use tas_bench::testbed::{build, Agent, Net};
use tas_bench::{app, host, HostCfg};
use tas_repro::apps::echo::{EchoServer, Lifetime, RpcClient, ServerMode};
use tas_repro::netsim::topo::host_ip;
use tas_repro::netsim::{DropModel, FaultSpec, Switch};
use tas_repro::sim::{Scope, SimTime};
use tas_repro::tas::TasConfig;

const REQS: u64 = 100;
const REQ_SIZE: usize = 64;

/// What one run observed, reduced to the quantities both stacks must
/// agree on.
#[derive(Debug)]
struct Outcome {
    /// RPCs the client completed.
    done: u64,
    /// Bytes the server application consumed (`app.bytes_delivered`).
    server_bytes: u64,
    /// Bytes the client application consumed.
    client_bytes: u64,
    /// Total retransmissions the sender-side stack performed.
    retransmits: u64,
    /// Packets the injectors actually dropped.
    faults_dropped: u64,
    /// Live flows/connections on the server at the end of the run.
    live: i64,
    /// Connections the server established.
    established: u64,
}

fn scenario_faults(which: &str, seed: u64) -> (FaultSpec, FaultSpec) {
    match which {
        "clean" => (FaultSpec::none(), FaultSpec::none()),
        "uniform" => (
            FaultSpec::lossy(0.02, 0.01, 0.02, seed),
            FaultSpec::lossy(0.02, 0.01, 0.02, seed ^ 0xABCD),
        ),
        "bursty" => {
            let ge = DropModel::GilbertElliott {
                p_enter_bad: 0.02,
                p_exit_bad: 0.3,
                good_loss: 0.0,
                bad_loss: 0.3,
            };
            let mut a = FaultSpec::none();
            a.seed = seed;
            a.drop = ge;
            let mut b = FaultSpec::none();
            b.seed = seed ^ 0xABCD;
            b.drop = ge;
            (a, b)
        }
        other => panic!("unknown scenario {other}"),
    }
}

/// Runs the echo workload on a pair of `stack` hosts under the `which`
/// fault schedule: the switch ports toward the server (port 0) and toward
/// the client (port 1) inject.
fn run(which: &str, seed: u64, stack: HostCfg) -> Outcome {
    let tas = matches!(stack, HostCfg::Tas(_));
    let echo = EchoServer::new(7, REQ_SIZE, ServerMode::Echo, 300);
    let mut c = RpcClient::new(host_ip(0), 7, 1, 1, REQ_SIZE, Lifetime::Persistent);
    c.max_requests = REQS;
    let server = Agent::stack(stack.clone(), Box::new(echo));
    let mut tb = pair(seed, server, Agent::stack(stack, Box::new(c)));
    (tb.nodes[0].port.fault, tb.nodes[1].port.fault) = scenario_faults(which, seed);
    let Net {
        mut sim,
        switches,
        hosts,
    } = build(tb);
    sim.run_until(SimTime::from_secs(3));
    let ssnap = host(&sim, hosts[0]).telemetry_snapshot();
    let csnap = host(&sim, hosts[1]).telemetry_snapshot();
    // The two stacks name the same quantities differently.
    let (rexmits, live, established): (&[&str], _, _) = if tas {
        let rexmits = &[
            "fp.fast_rexmits",
            "sp.timeout_rexmits",
            "sp.handshake_rexmits",
        ];
        (rexmits, "flows.live", "sp.established")
    } else {
        (&["tcp.retransmits"], "conns.live", "host.established")
    };
    let port_snap = |p| sim.agent::<Switch>(switches[0]).port_fault_snapshot(p);
    Outcome {
        done: app::<RpcClient>(&sim, hosts[1]).done,
        server_bytes: ssnap.counter("app.bytes_delivered", Scope::Global),
        client_bytes: csnap.counter("app.bytes_delivered", Scope::Global),
        retransmits: rexmits
            .iter()
            .map(|n| csnap.counter(n, Scope::Global) + ssnap.counter(n, Scope::Global))
            .sum(),
        faults_dropped: port_snap(0).counter("fault.dropped", Scope::Global)
            + port_snap(1).counter("fault.dropped", Scope::Global),
        live: ssnap.gauge(live, Scope::Global),
        established: ssnap.counter(established, Scope::Global),
    }
}

/// Runs the echo workload on a pair of TAS hosts.
fn run_tas(which: &str, seed: u64) -> Outcome {
    run(which, seed, HostCfg::Tas(TasConfig::rpc_bench(1, 1)))
}

/// Runs the identical workload and fault schedule on the reference
/// stack: `tas-tcp` connection engine inside the Linux-model host.
fn run_reference(which: &str, seed: u64) -> Outcome {
    run(which, seed, linux())
}

fn check_agreement(which: &str, tas: &Outcome, reference: &Outcome) {
    let expect = REQS * REQ_SIZE as u64;
    // Delivered-byte frontier: all bytes arrive on both stacks, exactly
    // once, in both directions.
    assert_eq!(tas.done, REQS, "[{which}] TAS client must finish: {tas:?}");
    assert_eq!(
        reference.done, REQS,
        "[{which}] reference client must finish: {reference:?}"
    );
    assert_eq!(
        (tas.server_bytes, tas.client_bytes),
        (expect, expect),
        "[{which}] TAS delivered-byte frontier: {tas:?}"
    );
    assert_eq!(
        (reference.server_bytes, reference.client_bytes),
        (expect, expect),
        "[{which}] reference delivered-byte frontier: {reference:?}"
    );
    // Final flow state: the persistent connection survives on both, and
    // exactly one connection was ever established.
    assert_eq!(
        (tas.live, tas.established),
        (reference.live, reference.established),
        "[{which}] final flow state must agree: {tas:?} vs {reference:?}"
    );
    // Retransmission story.
    if which == "clean" {
        assert_eq!(
            (tas.retransmits, tas.faults_dropped),
            (0, 0),
            "[{which}] clean network: TAS must not retransmit: {tas:?}"
        );
        assert_eq!(
            (reference.retransmits, reference.faults_dropped),
            (0, 0),
            "[{which}] clean network: reference must not retransmit: {reference:?}"
        );
    } else {
        // The injectors draw per packet, so the exact drop positions
        // differ between stacks; what must agree is the predicate: the
        // schedule fired on both runs, both stacks recovered by
        // retransmitting, and the frontier (asserted above) is intact.
        assert!(
            tas.faults_dropped > 0 && reference.faults_dropped > 0,
            "[{which}] schedule must actually drop: {tas:?} vs {reference:?}"
        );
        assert!(
            tas.retransmits > 0,
            "[{which}] TAS must have retransmitted: {tas:?}"
        );
        assert!(
            reference.retransmits > 0,
            "[{which}] reference must have retransmitted: {reference:?}"
        );
    }
}

#[test]
fn differential_clean_network() {
    let tas = run_tas("clean", 42);
    let reference = run_reference("clean", 42);
    check_agreement("clean", &tas, &reference);
}

#[test]
fn differential_uniform_loss() {
    let tas = run_tas("uniform", 77);
    let reference = run_reference("uniform", 77);
    check_agreement("uniform", &tas, &reference);
}

#[test]
fn differential_bursty_loss() {
    let tas = run_tas("bursty", 91);
    let reference = run_reference("bursty", 91);
    check_agreement("bursty", &tas, &reference);
}

#[test]
fn differential_outcomes_are_reproducible() {
    // The differential harness itself must be deterministic, or a
    // disagreement would not be actionable.
    for which in ["clean", "uniform"] {
        let a = run_tas(which, 7);
        let b = run_tas(which, 7);
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "[{which}] TAS outcome must reproduce"
        );
        let c = run_reference(which, 7);
        let d = run_reference(which, 7);
        assert_eq!(
            format!("{c:?}"),
            format!("{d:?}"),
            "[{which}] reference outcome must reproduce"
        );
    }
}
