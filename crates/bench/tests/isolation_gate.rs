//! The isolation gate self-test, in the spirit of `regression_gate.rs`:
//! the gate must be demonstrably *trippable* — a deliberately unfair
//! server configuration (fast-path rate enforcement disabled) must fail
//! the per-tenant p99 bound on the incast scenario, while the canonical
//! configuration passes the very same spec. Without the trip direction a
//! bound that is accidentally vacuous (e.g. infinite) would pass CI
//! forever.

use tas::CcAlgo;
use tas_bench::scenario::{generators, isolation, runner, ScenarioSpec};
use tas_bench::{HostCfg, Kind};
use tas_sim::SimTime;

/// The incast spec with a shortened measurement window: debug-mode test
/// builds run the auditors, so the full window would dominate tier-1
/// test time. The 3x-plus tail blowup of the unfair config is visible
/// well inside 12 ms (the aggressors arrive at 5 ms).
fn short_incast() -> ScenarioSpec {
    let mut spec = generators::incast_ecn();
    spec.measure = SimTime::from_ms(12);
    spec
}

#[test]
fn clean_config_passes_the_incast_isolation_bound() {
    let spec = short_incast();
    let verdicts = isolation::evaluate(&spec, runner::server(&spec, Kind::TasSockets));
    assert!(!verdicts.is_empty(), "incast has a victim tenant");
    for v in &verdicts {
        assert!(
            v.pass,
            "canonical config must satisfy the bound: {}",
            v.render()
        );
        assert!(v.base_ops > 0, "victim made progress in the baseline");
        assert!(v.cont_p99_ns > 0, "victim latency was measured");
    }
}

#[test]
fn unfair_config_trips_the_incast_isolation_bound() {
    let spec = short_incast();
    let unfair = isolation::unfair_server(&spec);
    let verdicts = isolation::evaluate(&spec, unfair);
    assert!(!verdicts.is_empty());
    assert!(
        verdicts.iter().any(|v| !v.pass),
        "disabling fast-path rate enforcement must blow the victim's p99 \
         bound under incast, got: {:?}",
        verdicts.iter().map(|v| v.render()).collect::<Vec<_>>()
    );
    // And specifically via the latency ratio, not a goodput artifact:
    // the victim is open-loop, so the damage shows up in its tail.
    assert!(
        verdicts
            .iter()
            .any(|v| v.p99_ratio > v.bounds.p99_ratio_max),
        "the p99 ratio is the tripped bound"
    );
}

#[test]
fn baseline_spec_strips_aggressors_only() {
    let spec = generators::churn_storm();
    let base = isolation::baseline_spec(&spec);
    assert_eq!(base.tenants.len(), 1, "only the victim remains");
    assert_eq!(base.tenants[0].name, "victim");
    // Ids, seed, and windows are untouched so runs stay comparable.
    assert_eq!(base.tenants[0].id, spec.tenants[0].id);
    assert_eq!(base.seed, spec.seed);
    assert_eq!(base.measure, spec.measure);
}

#[test]
fn unfair_server_only_touches_congestion_control() {
    let spec = short_incast();
    let (HostCfg::Tas(mut unfair), HostCfg::Tas(clean)) = (
        isolation::unfair_server(&spec),
        runner::server(&spec, Kind::TasSockets),
    ) else {
        panic!("both servers run TAS");
    };
    assert_eq!(unfair.cc, CcAlgo::None);
    assert_ne!(clean.cc, CcAlgo::None);
    unfair.cc = clean.cc;
    assert_eq!(format!("{unfair:?}"), format!("{clean:?}"));
}

/// Acceptance for the design-space models: both new stacks run the
/// entire multi-tenant suite end to end — every scenario produces a
/// verdict for every victim with measured latency and progress, and no
/// run panics. (Whether a given scenario *passes* its reference bound
/// is a property of the pinned suite report, not of this smoke gate.)
#[test]
fn design_space_stacks_run_the_suite() {
    for kind in [Kind::Mpk, Kind::Pno] {
        for mut spec in tas_bench::scenario::suite() {
            // Debug builds arm the auditors; cap the windows so the
            // whole suite stays inside tier-1 test time.
            spec.measure = spec.measure.min(SimTime::from_ms(10));
            let verdicts = isolation::evaluate(&spec, runner::server(&spec, kind));
            assert!(
                !verdicts.is_empty(),
                "{}: {spec:?} has a victim tenant",
                kind.label()
            );
            for v in &verdicts {
                assert!(
                    v.base_ops > 0,
                    "{} victim made no progress on {}: {}",
                    kind.label(),
                    v.scenario,
                    v.render()
                );
                assert!(
                    v.cont_p99_ns > 0,
                    "{} victim latency unmeasured on {}: {}",
                    kind.label(),
                    v.scenario,
                    v.render()
                );
                assert!(v.p99_ratio.is_finite(), "{}", v.render());
            }
        }
    }
}
