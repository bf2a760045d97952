//! Executes a [`ScenarioSpec`] on one stack: describes the star as a
//! [`Testbed`] (one node per client host, with its tenant, start phase
//! and WAN port), applies flash-crowd rate changes at their instants,
//! and collects per-tenant metrics over the measurement window.

use super::{ScenarioSpec, Tenant, TrafficShape};
use crate::testbed::{build, Agent, Net, Testbed};
use crate::{app, app_mut, host, HostCfg, Kind, KV_BUF};
use std::collections::BTreeMap;
use tas_apps::adversary::{AdvMode, AdversaryConfig, AdversaryHost, SlowReader};
use tas_apps::kv::{KvClient, KvLoad, KvServer};
use tas_netsim::app::App;
use tas_netsim::topo::host_ip;
use tas_netsim::{DropModel, FaultSpec, NetMsg, PortConfig};
use tas_sim::{AgentId, Sim, SimTime};

/// What one tenant did over the measurement window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantMetrics {
    /// Completed request/response exchanges in the window.
    pub ops: u64,
    /// Median request latency (ns; 0 when the tenant measures none).
    pub p50_ns: u64,
    /// 99th-percentile request latency (ns).
    pub p99_ns: u64,
    /// Requests issued in the window (slow readers issue but never
    /// complete).
    pub requests_sent: u64,
    /// Connections fully torn down and re-established (churn tenants).
    pub conns_completed: u64,
}

/// A full scenario run's observables.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Outcome {
    /// Per-tenant metrics, keyed by tenant id.
    pub tenants: BTreeMap<u32, TenantMetrics>,
    /// Server NIC backlog drops over the whole run.
    pub server_drops: u64,
    /// Connections the server established over the whole run.
    pub server_established: u64,
}

/// One entry per client host, in host order: the tenant it belongs to.
fn plans(spec: &ScenarioSpec) -> Vec<Tenant> {
    let per_tenant = |t: &Tenant| std::iter::repeat_n(t.clone(), t.hosts);
    spec.tenants.iter().flat_map(per_tenant).collect()
}

/// A WAN tenant's access port: a moderately bursty continental path with
/// ~0.3 % average loss concentrated in Gilbert–Elliott bursts, 2 ms
/// one-way delay and up to 50 µs of uniform extra jitter.
fn wan_port(seed: u64) -> PortConfig {
    let mut p = PortConfig::tengig();
    p.prop_delay = SimTime::from_ms(2);
    p.fault = FaultSpec {
        seed,
        drop: DropModel::GilbertElliott {
            p_enter_bad: 0.002,
            p_exit_bad: 0.2,
            good_loss: 0.0,
            bad_loss: 0.3,
        },
        jitter: SimTime::from_us(50),
        ..FaultSpec::none()
    };
    p
}

/// A phase mutation applied mid-run: a KvOpen tenant's rate becomes
/// `per_sec`.
#[derive(Clone, Copy, Debug)]
struct Phase {
    tenant: u32,
    per_sec: u64,
}

fn phase_schedule(spec: &ScenarioSpec) -> BTreeMap<SimTime, Vec<Phase>> {
    let mut sched: BTreeMap<SimTime, Vec<Phase>> = BTreeMap::new();
    for t in &spec.tenants {
        if let (Some(f), TrafficShape::KvOpen { per_sec, .. }) = (t.flash, &t.shape) {
            sched.entry(f.at).or_default().push(Phase {
                tenant: t.id,
                per_sec: per_sec * f.rate_mult,
            });
            sched.entry(f.until).or_default().push(Phase {
                tenant: t.id,
                per_sec: *per_sec,
            });
        }
    }
    sched
}

/// The scenario's server on `kind`: the KV store on the spec's cores.
pub fn server(spec: &ScenarioSpec, kind: Kind) -> HostCfg {
    HostCfg::new(kind, spec.server_cores, KV_BUF)
}

/// The scenario's star: the `server` stack behind the 40G port (with
/// the spec's ECN threshold), then one node per client host. Client `i`
/// starts at its tenant's start plus `i` µs (a stagger against
/// synchronized handshakes); raw shapes run as header-level hosts with
/// no stack underneath.
fn testbed(spec: &ScenarioSpec, server: HostCfg) -> Testbed {
    let kv = |conns, load, seed| KvClient::new(host_ip(0), 7, conns, 100_000, load, seed);
    let raw = |conns, mode| Agent::Adversary(AdversaryConfig::kv(host_ip(0), 7, conns, mode));
    let client = |(i, plan): (u64, &Tenant)| {
        let seed = spec.seed + i;
        let app: Box<dyn App> = match &plan.shape {
            TrafficShape::KvOpen { per_sec, conns } => {
                Box::new(kv(*conns, KvLoad::OpenRate { per_sec: *per_sec }, seed))
            }
            TrafficShape::KvClosed { conns } => Box::new(kv(*conns, KvLoad::Closed, seed)),
            TrafficShape::KvChurn {
                conns,
                msgs_per_conn,
            } => Box::new(kv(*conns, KvLoad::Closed, seed).short_lived(*msgs_per_conn)),
            TrafficShape::SlowRead { conns, burst } => {
                Box::new(SlowReader::new(host_ip(0), 7, *conns, *burst))
            }
            TrafficShape::AckDivision { conns, chunk } => {
                return raw(*conns, AdvMode::AckDivision { chunk: *chunk });
            }
            TrafficShape::WindowStuff { conns, pattern } => {
                let pattern = pattern.clone();
                return raw(*conns, AdvMode::WindowStuff { pattern });
            }
        };
        Agent::stack(HostCfg::new(Kind::TasSockets, (2, 2), KV_BUF), app)
    };
    let plans = plans(spec);
    let server = Agent::stack(server, Box::new(KvServer::new(7)));
    let mut tb = Testbed::paper(spec.seed, server, (1..).zip(&plans).map(client));
    if let Some(e) = spec.ecn_threshold_pkts {
        tb.nodes[0].port.ecn_threshold_pkts = Some(e);
    }
    for ((i, plan), node) in (1u64..).zip(&plans).zip(&mut tb.nodes[1..]) {
        if plan.wan {
            node.port = wan_port(spec.seed ^ (0x5ce0 + i));
        }
        node.start = plan.start + SimTime::from_us(i - 1);
        node.tenant = Some(plan.id);
    }
    tb
}

fn is_kv(shape: &TrafficShape) -> bool {
    matches!(
        shape,
        TrafficShape::KvOpen { .. } | TrafficShape::KvClosed { .. } | TrafficShape::KvChurn { .. }
    )
}

/// Completed-exchange counter for one client host.
fn host_done(sim: &Sim<NetMsg>, shape: &TrafficShape, h: AgentId) -> u64 {
    match shape {
        s if is_kv(s) => app::<KvClient>(sim, h).done,
        TrafficShape::SlowRead { .. } => 0,
        _ => sim.agent::<AdversaryHost>(h).done,
    }
}

fn host_sent(sim: &Sim<NetMsg>, shape: &TrafficShape, h: AgentId) -> u64 {
    match shape {
        s if is_kv(s) => app::<KvClient>(sim, h).sent,
        TrafficShape::SlowRead { .. } => app::<SlowReader>(sim, h).sent,
        _ => sim.agent::<AdversaryHost>(h).sent,
    }
}

fn apply_phase(sim: &mut Sim<NetMsg>, clients: &[(u32, TrafficShape, AgentId)], ph: Phase) {
    let load = KvLoad::OpenRate {
        per_sec: ph.per_sec,
    };
    for (tid, shape, h) in clients {
        if *tid == ph.tenant && is_kv(shape) {
            app_mut::<KvClient>(sim, *h).set_load(load);
        }
    }
}

/// Runs a scenario against the `server` stack (the isolation
/// self-test's deliberately unfair configuration is one).
///
/// Under the `telemetry` feature the server's cycles over the measurement
/// window are attributed; [`run_with_profile`] harvests the tree.
pub fn run_with(spec: &ScenarioSpec, server: HostCfg) -> Outcome {
    let Net { mut sim, hosts, .. } = build(testbed(spec, server));
    let server = hosts[0];
    // (tenant id, shape, host agent) per client host, in host order.
    let clients: Vec<(u32, TrafficShape, AgentId)> = plans(spec)
        .into_iter()
        .zip(&hosts[1..])
        .map(|(plan, &h)| (plan.id, plan.shape, h))
        .collect();
    let end = spec.end();
    // Phase boundaries between warmup and end, in order.
    let sched = phase_schedule(spec);
    sim.run_until(spec.warmup);
    #[cfg(feature = "telemetry")]
    {
        crate::host_mut(&mut sim, server).enable_profiling();
        tas_telemetry::profile::start();
    }
    // Gate latency measurement to the window.
    for (_, shape, h) in &clients {
        if is_kv(shape) {
            app_mut::<KvClient>(&mut sim, *h).measure_from = spec.warmup;
        }
    }
    let mut done0: BTreeMap<u32, u64> = BTreeMap::new();
    let mut sent0: BTreeMap<u32, u64> = BTreeMap::new();
    for (tid, shape, h) in &clients {
        *done0.entry(*tid).or_default() += host_done(&sim, shape, *h);
        *sent0.entry(*tid).or_default() += host_sent(&sim, shape, *h);
    }
    for (&at, phases) in &sched {
        if at <= spec.warmup || at >= end {
            continue;
        }
        sim.run_until(at);
        for &ph in phases {
            apply_phase(&mut sim, &clients, ph);
        }
    }
    sim.run_until(end);
    let mut out = Outcome::default();
    for t in &spec.tenants {
        let mut m = TenantMetrics::default();
        let mut hist = tas_sim::Histogram::new();
        for (tid, shape, h) in &clients {
            if *tid != t.id {
                continue;
            }
            m.ops += host_done(&sim, shape, *h);
            m.requests_sent += host_sent(&sim, shape, *h);
            if is_kv(shape) {
                let c = app::<KvClient>(&sim, *h);
                hist.merge(&c.latency);
                m.conns_completed += c.conns_completed;
            }
        }
        m.ops = m.ops.saturating_sub(done0.get(&t.id).copied().unwrap_or(0));
        m.requests_sent = m
            .requests_sent
            .saturating_sub(sent0.get(&t.id).copied().unwrap_or(0));
        m.p50_ns = hist.p50();
        m.p99_ns = hist.p99();
        out.tenants.insert(t.id, m);
    }
    let server = host(&sim, server);
    out.server_drops = server.drops();
    out.server_established = server.established();
    out
}

/// [`run_with`] plus the server's cycle-attribution tree over the
/// measurement window (profiling is left disabled afterwards).
#[cfg(feature = "telemetry")]
pub fn run_with_profile(
    spec: &ScenarioSpec,
    server: HostCfg,
) -> (Outcome, tas_telemetry::profile::Profile) {
    let out = run_with(spec, server);
    let prof = tas_telemetry::profile::take();
    tas_telemetry::profile::stop();
    (out, prof)
}

/// Metrics of one tenant from an outcome (zeros when absent).
pub fn tenant_metrics(o: &Outcome, t: &Tenant) -> TenantMetrics {
    o.tenants.get(&t.id).copied().unwrap_or_default()
}
