//! The per-tenant isolation assertion layer.
//!
//! Isolation is defined differentially: every scenario runs twice on the
//! same stack with the same seed — once with its aggressor tenants
//! removed (the *baseline*) and once in full (the *contended* run). The
//! victim tenant's 99th-percentile request latency must not inflate by
//! more than `p99_ratio_max`, and its completed-request goodput must not
//! fall below `goodput_frac_min` of the baseline. The bounds are
//! per-scenario and per-stack-family (a request incast legitimately
//! costs the victim some fair share; a slow reader should cost nearly
//! nothing).
//!
//! Enforcement is deliberately *not* a panic in the report path: the
//! verdicts are data; `bench-report scenarios` exits non-zero on a
//! failed verdict, and `crates/bench/tests/isolation_gate.rs` asserts
//! both directions (clean config passes, deliberately unfair config
//! trips).

use super::{runner, Role, ScenarioSpec};
use crate::{HostCfg, Kind};
use tas::CcAlgo;

/// Bounds a victim tenant is held to while aggressors run.
#[derive(Clone, Copy, Debug)]
pub struct IsolationBounds {
    /// Max allowed contended-p99 / baseline-p99.
    pub p99_ratio_max: f64,
    /// Min allowed contended-goodput / baseline-goodput.
    pub goodput_frac_min: f64,
}

impl Default for IsolationBounds {
    fn default() -> Self {
        IsolationBounds {
            p99_ratio_max: 3.0,
            goodput_frac_min: 0.5,
        }
    }
}

/// One victim tenant's isolation verdict on one stack.
#[derive(Clone, Debug)]
pub struct Verdict {
    /// Scenario name.
    pub scenario: &'static str,
    /// Stack the scenario ran on ([`HostCfg::name`]).
    pub stack: &'static str,
    /// Victim tenant id.
    pub victim: u32,
    /// Victim tenant name.
    pub victim_name: &'static str,
    /// Victim p99 latency without aggressors (ns).
    pub base_p99_ns: u64,
    /// Victim p99 latency under contention (ns).
    pub cont_p99_ns: u64,
    /// Victim completed ops without aggressors.
    pub base_ops: u64,
    /// Victim completed ops under contention.
    pub cont_ops: u64,
    /// `cont_p99 / base_p99` (1.0 when both are 0).
    pub p99_ratio: f64,
    /// `cont_ops / base_ops` (1.0 when the baseline is 0).
    pub goodput_frac: f64,
    /// The bounds applied.
    pub bounds: IsolationBounds,
    /// Whether both bounds held.
    pub pass: bool,
    /// Where the aggressors' cycles went: top server frames by
    /// contended-minus-baseline self cycles (telemetry builds; `None`
    /// otherwise).
    pub cycles_note: Option<String>,
}

impl Verdict {
    /// One-line human rendering (two lines when the cycle-attribution
    /// note is present).
    pub fn render(&self) -> String {
        let mut s = format!(
            "{:<14} {:<8} {:<10} p99 {:>9} -> {:>9} ns ({:>5.2}x <= {:.2}x)  ops {:>7} -> {:>7} ({:>4.2} >= {:.2})  {}",
            self.scenario,
            self.stack,
            self.victim_name,
            self.base_p99_ns,
            self.cont_p99_ns,
            self.p99_ratio,
            self.bounds.p99_ratio_max,
            self.base_ops,
            self.cont_ops,
            self.goodput_frac,
            self.bounds.goodput_frac_min,
            if self.pass { "PASS" } else { "FAIL" }
        );
        if let Some(n) = &self.cycles_note {
            s.push_str("\n    ");
            s.push_str(n);
        }
        s
    }
}

/// The baseline variant of a spec: aggressor tenants removed, tenant
/// ids and everything else (seed, windows, phases of the survivors)
/// unchanged so the victim's run is directly comparable.
pub fn baseline_spec(spec: &ScenarioSpec) -> ScenarioSpec {
    let mut base = spec.clone();
    base.tenants.retain(|t| t.role == Role::Victim);
    base
}

/// Evaluates the isolation contract for every victim tenant of `spec`
/// against the server stack `server` ([`runner::server`] is the canonical
/// one; the unfair fixture is another), held to the bounds of its family.
pub fn evaluate(spec: &ScenarioSpec, server: HostCfg) -> Vec<Verdict> {
    let (stack, bounds) = (server.name(), spec.bounds_for(&server));
    let base_spec = baseline_spec(spec);
    #[cfg(feature = "telemetry")]
    let (base, cont, note) = {
        let (base, base_prof) = runner::run_with_profile(&base_spec, server.clone());
        let (cont, cont_prof) = runner::run_with_profile(spec, server);
        let note = cycles_note(&base_prof, &cont_prof);
        (base, cont, note)
    };
    #[cfg(not(feature = "telemetry"))]
    let (base, cont, note) = (
        runner::run_with(&base_spec, server.clone()),
        runner::run_with(spec, server),
        None::<String>,
    );
    let mut out = Vec::new();
    for t in spec.victims() {
        let b = runner::tenant_metrics(&base, t);
        let c = runner::tenant_metrics(&cont, t);
        let p99_ratio = if b.p99_ns == 0 {
            if c.p99_ns == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            c.p99_ns as f64 / b.p99_ns as f64
        };
        let goodput_frac = if b.ops == 0 {
            1.0
        } else {
            c.ops as f64 / b.ops as f64
        };
        let pass = p99_ratio <= bounds.p99_ratio_max && goodput_frac >= bounds.goodput_frac_min;
        out.push(Verdict {
            scenario: spec.name,
            stack,
            victim: t.id,
            victim_name: t.name,
            base_p99_ns: b.p99_ns,
            cont_p99_ns: c.p99_ns,
            base_ops: b.ops,
            cont_ops: c.ops,
            p99_ratio,
            goodput_frac,
            bounds,
            pass,
            cycles_note: note.clone(),
        });
    }
    out
}

/// Renders "where the aggressors' cycles went": the top server frames
/// by contended-minus-baseline self cycles, with the net total.
#[cfg(feature = "telemetry")]
fn cycles_note(
    base: &tas_telemetry::profile::Profile,
    cont: &tas_telemetry::profile::Profile,
) -> Option<String> {
    let b = base.flat_self();
    let c = cont.flat_self();
    let mut deltas: Vec<(String, i64)> = c
        .iter()
        .map(|(k, &v)| (k.clone(), v as i64 - b.get(k).copied().unwrap_or(0) as i64))
        .collect();
    for (k, &v) in &b {
        if !c.contains_key(k) {
            deltas.push((k.clone(), -(v as i64)));
        }
    }
    let total: i64 = deltas.iter().map(|d| d.1).sum();
    deltas.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let top: Vec<String> = deltas
        .iter()
        .filter(|(_, d)| *d > 0)
        .take(3)
        .map(|(k, d)| format!("{k} +{d}"))
        .collect();
    if top.is_empty() {
        Some(format!("cycles: contention added {total} server cycles"))
    } else {
        Some(format!(
            "cycles: contention added {total} server cycles; top frames: {}",
            top.join(", ")
        ))
    }
}

/// A deliberately unfair TAS server for `spec`: the canonical one with
/// fast-path rate enforcement disabled (no congestion control), so
/// aggressor floods collapse the shared switch queue and the victim's
/// tail inflates past any reasonable bound.
/// `crates/bench/tests/isolation_gate.rs` proves the gate trips on this
/// config and passes on the canonical one.
pub fn unfair_server(spec: &ScenarioSpec) -> HostCfg {
    let mut cfg = runner::server(spec, Kind::TasSockets);
    if let HostCfg::Tas(tas) = &mut cfg {
        tas.cc = CcAlgo::None;
    }
    cfg
}
