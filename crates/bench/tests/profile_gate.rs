//! Acceptance checks for the attribution profiler (telemetry builds):
//! every cycle a server core burns inside the measurement window must
//! land in the profile tree (exact conservation, both stacks), the
//! folded export must be byte-deterministic for a fixed seed, and
//! capturing a profile must not perturb the simulation it observes.
#![cfg(feature = "telemetry")]

use tas_bench::{run_rpc, Kind, RpcScenario};
use tas_sim::SimTime;

/// A scenario small enough for debug-build test time but busy enough
/// that every core group (fast path, slow path, app) burns cycles.
fn small(kind: Kind) -> RpcScenario {
    let mut sc = RpcScenario::kv(kind, (2, 2), 256);
    sc.warmup = SimTime::from_ms(5);
    sc.measure = SimTime::from_ms(5);
    sc.profile = true;
    sc
}

#[test]
fn profile_conserves_busy_cycles_on_both_stacks() {
    for kind in [Kind::TasSockets, Kind::Linux] {
        let r = run_rpc(&small(kind));
        let cap = r.profile.expect("profile was requested");
        assert!(cap.requests > 0, "{kind:?}: no requests measured");
        assert!(cap.packets > 0, "{kind:?}: no packets measured");
        let totals = cap.profile.per_core_totals();
        for (label, busy) in &cap.busy {
            let attributed = totals.get(label).copied().unwrap_or(0);
            assert_eq!(
                attributed, *busy,
                "{kind:?} {label}: attributed cycles must equal the core's busy delta"
            );
        }
        assert_eq!(
            cap.profile.total_cycles(),
            cap.busy_total(),
            "{kind:?}: whole-tree total must equal the summed busy deltas"
        );
    }
}

#[test]
fn folded_export_is_byte_identical_for_a_fixed_seed() {
    for kind in [Kind::TasSockets, Kind::Linux] {
        let a = run_rpc(&small(kind)).profile.expect("first capture");
        let b = run_rpc(&small(kind)).profile.expect("second capture");
        assert_eq!(
            a.profile.folded(),
            b.profile.folded(),
            "{kind:?}: same-seed folded exports must be byte-identical"
        );
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.packets, b.packets);
        assert_eq!(a.busy, b.busy);
        assert_eq!(a.core_util, b.core_util);
    }
}

#[test]
fn capturing_a_profile_does_not_perturb_the_run() {
    for kind in [Kind::TasSockets, Kind::Linux] {
        let mut off = small(kind);
        off.profile = false;
        let plain = run_rpc(&off);
        let profiled = run_rpc(&small(kind));
        assert!(plain.profile.is_none());
        assert_eq!(
            plain.mops, profiled.mops,
            "{kind:?}: profiling must not change throughput"
        );
        assert_eq!(plain.latency.count(), profiled.latency.count());
        assert_eq!(
            plain.latency.quantile(0.99),
            profiled.latency.quantile(0.99)
        );
        assert_eq!(plain.established, profiled.established);
        assert_eq!(plain.drops, profiled.drops);
    }
}
