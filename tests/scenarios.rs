//! Determinism properties of the multi-tenant scenario suite: the same
//! `ScenarioSpec` (same seed) run twice must produce bit-identical
//! per-tenant outcomes and a byte-identical report fragment, on both the
//! TAS stack and the reference stack. Violations here mean a scenario
//! run leaked nondeterminism (hash-order iteration, wall-clock input,
//! unseeded randomness) and the pinned `BENCH_scenarios.json` baseline
//! would flap in CI.
//!
//! The runs execute in a debug-assertions build, so the TAS invariant
//! auditors are armed: any auditor violation panics the run, making
//! "identical auditor outcomes on both stacks" part of the property —
//! both stacks must come out clean for every generated composition.

use tas_bench::report::{Metric, Report};
use tas_bench::scenario::Outcome;
use tas_bench::scenario::{runner, Role, ScenarioSpec, Tenant, TrafficShape};
use tas_bench::Kind;
use tas_sim::{Rng, SimTime};

/// One of the aggressor shapes exercised by the property, all sized tiny:
/// windows are milliseconds, so each case stays cheap even under the
/// auditors.
fn aggressor_shape(rng: &mut Rng) -> TrafficShape {
    let conns = rng.range_inclusive(1, 2) as u32;
    match rng.below(5) {
        0 => TrafficShape::KvChurn {
            conns,
            msgs_per_conn: rng.range_inclusive(1, 3) as u32,
        },
        1 => TrafficShape::KvClosed {
            conns: rng.range_inclusive(1, 3) as u32,
        },
        2 => TrafficShape::SlowRead {
            conns,
            burst: rng.range_inclusive(4, 31) as u32,
        },
        3 => TrafficShape::AckDivision {
            conns,
            chunk: rng.range_inclusive(8, 63) as u32,
        },
        _ => TrafficShape::WindowStuff {
            conns,
            pattern: vec![64, 512, 1448],
        },
    }
}

fn tiny_spec(rng: &mut Rng) -> ScenarioSpec {
    let seed = rng.range_inclusive(1, u64::from(u32::MAX) - 1);
    let per_sec = rng.range_inclusive(5_000, 19_999);
    let conns = rng.range_inclusive(1, 3) as u32;
    let victim = TrafficShape::KvOpen { per_sec, conns };
    let mut spec = ScenarioSpec::new("prop", "generated composition", seed)
        .tenant(Tenant::new("victim", Role::Victim, victim, 1))
        .tenant(Tenant::new(
            "aggressor",
            Role::Aggressor,
            aggressor_shape(rng),
            1,
        ));
    spec.warmup = SimTime::from_ms(2);
    spec.measure = SimTime::from_ms(4);
    spec.server_cores = (1, 1);
    spec
}

/// Renders an outcome as a report fragment the way `run_suite` does, so
/// byte-identity covers the serialization path too.
fn fragment(spec: &ScenarioSpec, kind: Kind, o: &Outcome) -> String {
    let mut r = Report::new("prop", "scenario determinism property", spec.seed);
    for (tid, m) in &o.tenants {
        let p = format!("t{tid}_{}", kind.label().replace(' ', "_"));
        r.push(Metric::value(&format!("{p}_ops"), "count", m.ops as f64));
        r.push(Metric::value(&format!("{p}_p99"), "ns", m.p99_ns as f64));
        r.push(Metric::value(
            &format!("{p}_sent"),
            "count",
            m.requests_sent as f64,
        ));
    }
    r.push(Metric::value("drops", "count", o.server_drops as f64));
    r.push(Metric::value(
        "established",
        "count",
        o.server_established as f64,
    ));
    r.to_json()
}

/// Same spec, same seed, run twice on each stack: identical outcomes,
/// byte-identical report fragments, and the victim made progress (the
/// composition is not vacuous).
#[test]
fn same_seed_scenarios_are_byte_deterministic() {
    for case in 0..4 {
        let spec = tiny_spec(&mut Rng::new(case));
        for kind in [Kind::TasSockets, Kind::Linux] {
            let a = runner::run_with(&spec, runner::server(&spec, kind));
            let b = runner::run_with(&spec, runner::server(&spec, kind));
            assert_eq!(a, b, "case {case}: outcome mismatch on {kind:?}");
            assert_eq!(
                fragment(&spec, kind, &a),
                fragment(&spec, kind, &b),
                "case {case}: report fragment mismatch on {kind:?}"
            );
            let victim = &a.tenants[&1];
            assert!(
                victim.requests_sent > 0,
                "case {case}: victim idle on {kind:?}: {victim:?}"
            );
        }
    }
}
