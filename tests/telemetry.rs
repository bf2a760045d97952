//! Seeded properties of the telemetry layer: counters only ever go
//! up, snapshots are deterministic functions of the run (same seed ⇒
//! byte-identical render), registry output is independent of increment
//! interleaving, and — when the `telemetry` feature is on — enabling the
//! flight recorder never perturbs the simulation it observes.

use tas_bench::{add_host, host, start_all, uniform_star, HostCfg};
use tas_repro::apps::echo::{EchoServer, Lifetime, RpcClient, ServerMode};
use tas_repro::baselines::{profiles, StackHostConfig};
use tas_repro::netsim::app::App;
use tas_repro::netsim::topo::{host_ip, HostSpec};
use tas_repro::netsim::{FaultSpec, NetMsg, PortConfig};
use tas_repro::sim::{AgentId, Registry, Rng, Scope, Sim, SimTime};
use tas_repro::tas::TasConfig;

const REQ_SIZE: usize = 64;

fn tas() -> HostCfg {
    HostCfg::Tas(TasConfig::rpc_bench(1, 1))
}

/// The reference Linux-model stack.
fn reference() -> HostCfg {
    HostCfg::Model(profiles::linux(), StackHostConfig::linux(2))
}

/// Builds the standard two-host echo topology with both hosts on the
/// stack `cfg` makes, optionally with a lossy client NIC, and returns
/// (sim, server, client).
fn build_pair(seed: u64, cfg: fn() -> HostCfg, faulty: bool) -> (Sim<NetMsg>, AgentId, AgentId) {
    let mut sim: Sim<NetMsg> = Sim::new(seed);
    let server_ip = host_ip(0);
    let mut factory = move |sim: &mut Sim<NetMsg>, mut spec: HostSpec| -> AgentId {
        let app: Box<dyn App> = if spec.index == 0 {
            Box::new(EchoServer::new(7, REQ_SIZE, ServerMode::Echo, 300))
        } else {
            let mut c = RpcClient::new(server_ip, 7, 1, 1, REQ_SIZE, Lifetime::Persistent);
            c.max_requests = 200;
            Box::new(c)
        };
        if faulty && spec.index == 1 {
            spec.nic.tx_fault = FaultSpec::lossy(0.02, 0.01, 0.02, seed ^ 0x5EED);
        }
        add_host(sim, spec, cfg(), app)
    };
    let topo = uniform_star(&mut sim, 2, PortConfig::tengig(), &mut factory);
    start_all(&mut sim, &topo.hosts);
    (sim, topo.hosts[0], topo.hosts[1])
}

/// Runs the workload for 150 ms; returns the events processed and both
/// hosts' rendered snapshots.
fn run_150ms(seed: u64, cfg: fn() -> HostCfg, faulty: bool) -> (u64, String) {
    let (mut sim, server, client) = build_pair(seed, cfg, faulty);
    sim.run_until(SimTime::from_ms(150));
    let text = |id| host(&sim, id).telemetry_snapshot().render_text();
    let snap = format!("{}\n{}", text(server), text(client));
    (sim.events_processed(), snap)
}

/// Every counter in every scope is monotone over simulated time, on both
/// hosts, clean or lossy — pausing the sim mid-run and snapshotting twice
/// must never show a counter go backwards.
#[test]
fn counters_are_monotone_over_time() {
    for case in 0..8 {
        let mut rng = Rng::new(case);
        let (seed, faulty) = (rng.range_inclusive(1, 9_999), rng.chance(0.5));
        let (mut sim, server, client) = build_pair(seed, tas, faulty);
        let mut prev_s = host(&sim, server).telemetry_snapshot();
        let mut prev_c = host(&sim, client).telemetry_snapshot();
        for ms in [5u64, 20, 60, 150] {
            sim.run_until(SimTime::from_ms(ms));
            let cur_s = host(&sim, server).telemetry_snapshot();
            let cur_c = host(&sim, client).telemetry_snapshot();
            assert!(
                cur_s.counters_monotone_since(&prev_s),
                "case {case}: server counter went backwards between {ms}ms snapshots"
            );
            assert!(
                cur_c.counters_monotone_since(&prev_c),
                "case {case}: client counter went backwards between {ms}ms snapshots"
            );
            prev_s = cur_s;
            prev_c = cur_c;
        }
    }
}

/// The rendered snapshot is a pure function of the seed: two runs of the
/// same seeded workload produce byte-identical `render_text` output, on
/// the TAS stack and on the reference stack.
#[test]
fn same_seed_snapshots_are_byte_identical() {
    for case in 0..8 {
        let seed = Rng::new(case).range_inclusive(1, 9_999);
        let stacks: [(fn() -> HostCfg, bool); 2] = [(tas, true), (reference, false)];
        for (cfg, faulty) in stacks {
            let (a, b) = (run_150ms(seed, cfg, faulty), run_150ms(seed, cfg, faulty));
            assert_eq!(a, b, "case {case}: seed {seed}");
        }
    }
}

/// Registry snapshots are independent of increment interleaving: applying
/// the same multiset of (counter, delta) updates in any order yields the
/// same rendered snapshot.
#[test]
fn registry_order_independent() {
    const NAMES: [&str; 4] = ["a.pkts", "b.bytes", "c.drops", "d.acks"];
    let apply = |ups: &[(usize, u32, u64)]| {
        let mut reg = Registry::new();
        for &(name, core, delta) in ups {
            let id = reg.counter(NAMES[name], Scope::Core(core));
            reg.add(id, delta);
        }
        reg.snapshot().render_text()
    };
    for case in 0..8 {
        let mut rng = Rng::new(case);
        let mut updates: Vec<(usize, u32, u64)> = (0..rng.range_inclusive(1, 39))
            .map(|_| {
                (
                    rng.below(4) as usize,
                    rng.below(3) as u32,
                    rng.range_inclusive(1, 999),
                )
            })
            .collect();
        let baseline = apply(&updates);
        let r = rng.below(40) as usize % updates.len();
        updates.rotate_left(r);
        assert_eq!(apply(&updates), baseline, "case {case}");
    }
}

/// Enabling the flight recorder must be invisible to the simulation:
/// the traced and untraced runs of the same seed agree on every
/// observable (event count, all counters), and the trace itself is
/// reproducible.
#[cfg(feature = "telemetry")]
mod trace_transparency {
    use super::*;
    use tas_repro::telemetry;

    fn fingerprint(seed: u64, traced: bool) -> (u64, String, usize) {
        if traced {
            telemetry::start(65_536);
        }
        let (events, snap) = run_150ms(seed, tas, true);
        let trace_len = if traced {
            let n = telemetry::take().len();
            telemetry::stop();
            n
        } else {
            0
        };
        (events, snap, trace_len)
    }

    /// Truncation honesty under adversarial ring sizes: however small the
    /// trace ring, every assembled span is either complete — with causally
    /// ordered stamps whose deltas partition the end-to-end time exactly —
    /// or it reports no latency at all, and is flagged `truncated` exactly
    /// when the ring evicted records. A wrapped ring must never masquerade
    /// as a short latency.
    #[test]
    fn spans_are_exact_or_flagged_under_tiny_rings() {
        for case in 0..4 {
            let mut rng = Rng::new(case);
            let (seed, cap_pow) = (rng.range_inclusive(1, 9_999), rng.range_inclusive(6, 12));
            telemetry::start(1usize << cap_pow);
            let (mut sim, _server, _client) = build_pair(seed, tas, false);
            sim.run_until(SimTime::from_ms(60));
            let recs = telemetry::take();
            let evicted = telemetry::evicted();
            telemetry::stop();
            let spans = telemetry::spans::assemble(&recs, evicted);
            assert!(!spans.is_empty(), "case {case}: the run must produce spans");
            for sp in &spans {
                if sp.complete {
                    let e2e = sp.e2e_ns().expect("complete span has a latency");
                    let sum: u64 = sp.deltas().iter().map(|d| d.delta_ns).sum();
                    assert_eq!(sum, e2e, "case {case}: deltas must partition e2e exactly");
                    assert!(
                        sp.stages.windows(2).all(|w| w[0].1 <= w[1].1),
                        "case {case}: stamps must be causally ordered: {:?}",
                        sp.stages
                    );
                } else {
                    let why = "incomplete span must not report a latency";
                    assert_eq!(sp.e2e_ns(), None, "case {case}: {why}");
                    let why = "truncated flag must mirror ring eviction";
                    assert_eq!(sp.truncated, evicted > 0, "case {case}: {why}");
                }
            }
        }
    }

    #[test]
    fn tracing_never_perturbs_the_simulation() {
        for case in 0..4 {
            let seed = Rng::new(case).range_inclusive(1, 9_999);
            let (ev_off, snap_off, _) = fingerprint(seed, false);
            let (ev_on, snap_on, trace_len) = fingerprint(seed, true);
            assert_eq!(
                ev_off, ev_on,
                "case {case}: tracing changed the event count"
            );
            assert_eq!(snap_off, snap_on, "case {case}: tracing changed a counter");
            assert!(trace_len > 0, "case {case}: the recorder saw the run");
            // And the trace itself reproduces.
            let (_, _, again) = fingerprint(seed, true);
            assert_eq!(trace_len, again, "case {case}");
        }
    }
}
