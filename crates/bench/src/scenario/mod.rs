//! Multi-tenant "datacenter day" scenario suite.
//!
//! The paper's evaluation runs one workload at a time; a real deployment
//! runs many tenants — well-behaved, bursty, lossy, and hostile — against
//! the *same* stack simultaneously, and the isolation story (§3.6:
//! per-flow state, per-flow queueing, fast-path rate enforcement) only
//! matters under that composition. This module is a small declarative
//! DSL for such days: a [`ScenarioSpec`] composes tenants (application
//! kind, traffic shape, start and flash phases, per-tenant WAN profile) over
//! the canonical star topology, runs the composition on both the TAS
//! stack and the reference stack, and holds a designated *victim* tenant
//! to per-scenario isolation bounds — its p99 latency and goodput under
//! contention versus an aggressor-free baseline run of the same spec.
//!
//! The suite ([`suite`]) covers connection-churn storms, request incast
//! with ECN, Gilbert–Elliott WAN loss, a zipf-skewed flash crowd, and
//! three adversarial clients (slow reader, ACK division, window
//! stuffing; see `tas_apps::adversary`). [`run_suite`] produces both the
//! pass/fail verdicts and the byte-deterministic `BENCH_scenarios.json`
//! report; `bench-report scenarios` gates the report byte-for-byte and
//! re-derives the verdicts from it ([`isolation_checks`]). Runs under
//! `cargo test` are additionally checked by the per-flow invariant
//! auditors compiled into those builds.
//!
//! Grammar (DESIGN.md §13):
//!
//! ```text
//! scenario  := name title seed warmup measure server tenants bounds
//! server    := cores ecn_threshold?
//! tenant    := name role shape hosts start flash? wan?
//! shape     := KvOpen(rate, conns) | KvClosed(conns)
//!            | KvChurn(conns, msgs_per_conn)
//!            | SlowRead(conns, burst) | AckDivision(conns, chunk)
//!            | WindowStuff(conns, pattern)
//! bounds    := p99_ratio_max goodput_frac_min     (per stack family)
//! ```
#![cfg_attr(
    not(test),
    deny(
        unsafe_code,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

use crate::report::{Metric, MetricData, Report};
use crate::scenarios::Check;
use crate::{scaled, HostCfg, Kind};
use tas_sim::SimTime;

pub mod generators;
pub mod isolation;
pub mod runner;

pub use isolation::{IsolationBounds, Verdict};
pub use runner::{Outcome, TenantMetrics};

/// What a tenant's client hosts do.
#[derive(Clone, Debug)]
pub enum TrafficShape {
    /// Open-loop KV load (zipf keys, 90/10 GET/SET) at `per_sec`
    /// requests/s per host over `conns` connections.
    KvOpen {
        /// Aggregate request rate per client host.
        per_sec: u64,
        /// Connections per client host.
        conns: u32,
    },
    /// Closed-loop KV load: one outstanding request per connection.
    KvClosed {
        /// Connections per client host.
        conns: u32,
    },
    /// Connection-churn storm: closed-loop KV, but every connection is
    /// torn down and re-established after `msgs_per_conn` requests.
    KvChurn {
        /// Connections per client host.
        conns: u32,
        /// Requests per connection before teardown.
        msgs_per_conn: u32,
    },
    /// Slow-reader adversary: solicits `burst` pipelined responses per
    /// connection and never reads them (rx byte-ring pinned full).
    SlowRead {
        /// Connections per client host.
        conns: u32,
        /// Pipelined requests per connection.
        burst: u32,
    },
    /// ACK-division adversary (raw host): acknowledges responses in
    /// sub-MSS `chunk`-byte slivers.
    AckDivision {
        /// Connections per client host.
        conns: u32,
        /// Bytes acknowledged per ACK segment.
        chunk: u32,
    },
    /// Window-stuffing adversary (raw host): advertises the cycling
    /// receive-window `pattern`.
    WindowStuff {
        /// Connections per client host.
        conns: u32,
        /// Advertised-window cycle (raw 16-bit values).
        pattern: Vec<u16>,
    },
}

/// A tenant's part in the isolation contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// The protected tenant: its p99/goodput are held to the bounds.
    Victim,
    /// A misbehaving or bursty tenant; removed in the baseline pass.
    Aggressor,
}

/// Mid-run load surge for a `KvOpen` tenant (the flash crowd): between
/// `at` and `until` the open-loop rate is multiplied by `rate_mult`.
#[derive(Clone, Copy, Debug)]
pub struct Flash {
    /// Surge start.
    pub at: SimTime,
    /// Surge end (rate restored).
    pub until: SimTime,
    /// Rate multiplier during the surge.
    pub rate_mult: u64,
}

/// One tenant of a scenario.
#[derive(Clone, Debug)]
pub struct Tenant {
    /// Tenant id (1-based; the server host is tenant 0). Assigned by
    /// [`ScenarioSpec::tenant`].
    pub id: u32,
    /// Stable name (used in report metric names).
    pub name: &'static str,
    /// Victim or aggressor.
    pub role: Role,
    /// Traffic shape.
    pub shape: TrafficShape,
    /// Client hosts this tenant runs on (each gets its own switch port).
    pub hosts: usize,
    /// Start phase: hosts stay silent until this instant.
    pub start: SimTime,
    /// Optional flash crowd (KvOpen only).
    pub flash: Option<Flash>,
    /// This tenant's access links emulate a bursty-loss WAN path
    /// (`runner::wan_port`).
    pub wan: bool,
}

impl Tenant {
    /// A tenant with no phases and clean LAN links; compose with the
    /// builder methods below.
    pub fn new(name: &'static str, role: Role, shape: TrafficShape, hosts: usize) -> Tenant {
        Tenant {
            id: 0,
            name,
            role,
            shape,
            hosts,
            start: SimTime::ZERO,
            flash: None,
            wan: false,
        }
    }

    /// Sets the start phase.
    pub fn starting_at(mut self, t: SimTime) -> Tenant {
        self.start = t;
        self
    }

    /// Adds a flash crowd.
    pub fn with_flash(mut self, f: Flash) -> Tenant {
        self.flash = Some(f);
        self
    }

    /// Puts this tenant behind the bursty-loss WAN path.
    pub fn over_wan(mut self) -> Tenant {
        self.wan = true;
        self
    }
}

/// A complete scenario: server sizing, tenant composition, isolation
/// bounds.
#[derive(Clone, Debug)]
pub struct ScenarioSpec {
    /// Stable scenario name (report metric prefix).
    pub name: &'static str,
    /// Human title.
    pub title: &'static str,
    /// RNG seed (baseline and contended passes share it).
    pub seed: u64,
    /// Warmup before the measurement window.
    pub warmup: SimTime,
    /// Measurement window.
    pub measure: SimTime,
    /// Server cores (TAS: fast-path/app split; baselines: total).
    pub server_cores: (usize, usize),
    /// Override of the server port's ECN marking threshold in packets
    /// (`None` keeps the canonical 65-packet threshold).
    pub ecn_threshold_pkts: Option<usize>,
    /// The tenants.
    pub tenants: Vec<Tenant>,
    /// Isolation bounds for TAS-family stacks.
    pub tas_bounds: IsolationBounds,
    /// Isolation bounds for the reference stack (the paper expects the
    /// kernel stack to isolate *worse*; its bounds are honest, not
    /// aspirational).
    pub linux_bounds: IsolationBounds,
}

impl ScenarioSpec {
    /// A scenario skeleton with canonical windows and sizing.
    pub fn new(name: &'static str, title: &'static str, seed: u64) -> ScenarioSpec {
        ScenarioSpec {
            name,
            title,
            seed,
            warmup: SimTime::from_ms(10),
            measure: SimTime::from_ms(scaled(30, 120)),
            server_cores: (2, 2),
            ecn_threshold_pkts: None,
            tenants: Vec::new(),
            tas_bounds: IsolationBounds::default(),
            linux_bounds: IsolationBounds::default(),
        }
    }

    /// Adds a tenant, assigning the next tenant id (1-based).
    pub fn tenant(mut self, mut t: Tenant) -> ScenarioSpec {
        t.id = self.tenants.len() as u32 + 1;
        self.tenants.push(t);
        self
    }

    /// Sets the per-stack isolation bounds.
    pub fn bounds(mut self, tas: IsolationBounds, linux: IsolationBounds) -> ScenarioSpec {
        self.tas_bounds = tas;
        self.linux_bounds = linux;
        self
    }

    /// Bounds applicable to a server on the stack `server`.
    pub fn bounds_for(&self, server: &HostCfg) -> IsolationBounds {
        match server {
            HostCfg::Tas(_) => self.tas_bounds,
            HostCfg::Model(..) => self.linux_bounds,
        }
    }

    /// The scenario end time.
    pub fn end(&self) -> SimTime {
        self.warmup + self.measure
    }

    /// The victim tenants (isolation is asserted for each).
    pub fn victims(&self) -> impl Iterator<Item = &Tenant> {
        self.tenants.iter().filter(|t| t.role == Role::Victim)
    }
}

/// The canonical datacenter-day suite.
pub fn suite() -> Vec<ScenarioSpec> {
    generators::all()
}

/// Stacks every scenario runs on: TAS and the reference kernel stack.
pub fn stacks() -> [(&'static str, Kind); 2] {
    [("tas", Kind::TasSockets), ("linux", Kind::Linux)]
}

/// The whole suite's outcome: per-victim verdicts plus the gated report.
pub struct SuiteOutcome {
    /// One verdict per scenario × stack × victim tenant.
    pub verdicts: Vec<Verdict>,
    /// The `BENCH_scenarios.json` report.
    pub report: Report,
}

/// Runs every scenario on both stacks (baseline + contended passes) and
/// assembles verdicts and the report in one sweep.
pub fn run_suite() -> SuiteOutcome {
    let (specs, stacks) = (suite(), stacks());
    let mut verdicts: Vec<Verdict> = Vec::new();
    let mut r = Report::new(
        "scenarios",
        "Multi-tenant datacenter day: per-tenant isolation suite",
        9000,
    );
    r.param("scenarios", specs.len());
    let names: Vec<&str> = stacks.iter().map(|s| s.0).collect();
    r.param("stacks", names.join(","));
    for spec in &specs {
        for &(sname, kind) in &stacks {
            let vs = isolation::evaluate(spec, runner::server(spec, kind));
            for v in &vs {
                let prefix = format!("{}_{}_{}", spec.name, sname, v.victim_name);
                r.push(
                    Metric::value(&format!("{prefix}_p99"), "ns", v.cont_p99_ns as f64)
                        .with_component("baseline_p99", v.base_p99_ns as f64),
                );
                r.push(
                    Metric::value(
                        &format!("{prefix}_kops"),
                        "kops",
                        v.cont_ops as f64 / spec.measure.as_secs_f64() / 1e3,
                    )
                    .with_component("baseline_ops", v.base_ops as f64),
                );
                // Each verdict, read back by [`isolation_checks`] against
                // the bound recorded beside it.
                r.push(
                    Metric::value(&format!("{prefix}_p99_ratio"), "ratio", v.p99_ratio)
                        .with_component("bound", v.bounds.p99_ratio_max),
                );
                r.push(
                    Metric::value(
                        &format!("{prefix}_goodput_frac"),
                        "fraction",
                        v.goodput_frac,
                    )
                    .with_component("bound", v.bounds.goodput_frac_min),
                );
            }
            verdicts.extend(vs);
        }
    }
    let passes = verdicts.iter().filter(|v| v.pass).count();
    r.push(Metric::value("isolation_passes", "count", passes as f64));
    r.push(Metric::value(
        "isolation_checks",
        "count",
        verdicts.len() as f64,
    ));
    SuiteOutcome {
        verdicts,
        report: r,
    }
}

/// The gated report builder: runs the suite, printing one verdict line
/// per scenario × stack × victim as it goes.
pub fn report() -> Report {
    let outcome = run_suite();
    for v in &outcome.verdicts {
        eprintln!("{}", v.render());
    }
    outcome.report
}

/// The isolation verdicts, read back from a suite report: every victim's
/// contended/baseline p99 ratio and goodput fraction against the bound
/// recorded beside it, and the suite's own pass count.
pub fn isolation_checks(r: &Report) -> Vec<Check> {
    let mut checks: Vec<Check> = Vec::new();
    for m in &r.metrics {
        let (Some(&(_, bound)), MetricData::Value(v)) =
            (m.breakdown.iter().find(|(k, _)| k == "bound"), &m.data)
        else {
            continue;
        };
        if m.name.ends_with("_p99_ratio") {
            checks.push((format!("{} {v:.2} <= {bound:.2}", m.name), *v <= bound));
        } else if m.name.ends_with("_goodput_frac") {
            checks.push((format!("{} {v:.2} >= {bound:.2}", m.name), *v >= bound));
        }
    }
    // An unbounded ratio serializes as 0, so the suite's own tally must
    // agree that every verdict passed.
    let (passes, total) = (r.value("isolation_passes"), r.value("isolation_checks"));
    checks.push((
        format!("isolation verdicts passed: {passes:?} of {total:?}"),
        passes.is_some() && passes == total,
    ));
    checks
}
