//! Executes a [`ScenarioSpec`] on one stack: builds the tenant-tagged
//! star, injects per-tenant start phases, applies stop/flash phase
//! mutations at their instants, and collects per-tenant metrics over the
//! measurement window.

use super::{ScenarioSpec, Tenant, TrafficShape};
use crate::{app, app_mut, host, make_server, make_server_with, Bufs, Kind, TasOverrides};
use std::collections::BTreeMap;
use tas::TasHost;
use tas_apps::adversary::{AdvMode, AdversaryConfig, AdversaryHost, SlowReader};
use tas_apps::kv::{KvClient, KvLoad, KvServer};
use tas_netsim::app::App;
use tas_netsim::topo::{build_star_tenants, host_ip, HostSpec};
use tas_netsim::{DropModel, FaultSpec, NetMsg, NicConfig, PortConfig};
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

fn wan_port(w: &super::WanProfile, seed: u64) -> PortConfig {
    let mut p = PortConfig::tengig();
    p.prop_delay = w.prop_delay;
    p.fault = FaultSpec {
        seed,
        drop: DropModel::GilbertElliott {
            p_enter_bad: w.p_enter_bad,
            p_exit_bad: w.p_exit_bad,
            good_loss: 0.0,
            bad_loss: w.bad_loss,
        },
        jitter: w.jitter,
        ..FaultSpec::none()
    };
    p
}

/// Phase mutations applied mid-run, keyed by instant.
#[derive(Clone, Copy, Debug)]
enum Phase {
    /// KV tenant goes idle.
    Stop { tenant: u32 },
    /// KvOpen tenant's rate becomes `per_sec`.
    SetRate { tenant: u32, per_sec: u64 },
}

fn phase_schedule(spec: &ScenarioSpec) -> BTreeMap<SimTime, Vec<Phase>> {
    let mut sched: BTreeMap<SimTime, Vec<Phase>> = BTreeMap::new();
    for t in &spec.tenants {
        if let Some(stop) = t.stop {
            sched
                .entry(stop)
                .or_default()
                .push(Phase::Stop { tenant: t.id });
        }
        if let (Some(f), TrafficShape::KvOpen { per_sec, .. }) = (t.flash, &t.shape) {
            sched.entry(f.at).or_default().push(Phase::SetRate {
                tenant: t.id,
                per_sec: per_sec * f.rate_mult,
            });
            sched.entry(f.until).or_default().push(Phase::SetRate {
                tenant: t.id,
                per_sec: *per_sec,
            });
        }
    }
    sched
}

/// A built scenario ready to run.
struct Built {
    sim: Sim<NetMsg>,
    server: AgentId,
    /// (tenant id, shape, host agent) per client host, in host order.
    clients: Vec<(u32, TrafficShape, AgentId)>,
}

fn build(spec: &ScenarioSpec, kind: Kind, overrides: TasOverrides) -> Built {
    let mut sim: Sim<NetMsg> = Sim::new(spec.seed);
    let server_ip = host_ip(0);
    let hosts = plans(spec);
    let n = 1 + hosts.len();
    let seed = spec.seed;
    let cores = spec.server_cores;
    let hosts_f = hosts.clone();
    let mut factory = move |sim: &mut Sim<NetMsg>, spec_h: HostSpec| -> AgentId {
        if spec_h.index == 0 {
            let app: Box<dyn App> = Box::new(KvServer::new(7));
            return make_server_with(sim, spec_h, kind, cores, Bufs::small(), app, overrides);
        }
        let Some(plan) = hosts_f.get(spec_h.index as usize - 1) else {
            // Unreachable by construction (n = 1 + hosts.len()); a
            // degenerate host keeps the factory total without panicking.
            let app: Box<dyn App> = Box::new(KvServer::new(9));
            return make_server(sim, spec_h, Kind::TasSockets, (1, 1), Bufs::tiny(), app);
        };
        let host_seed = seed + spec_h.index as u64;
        let kv = |conns, load| KvClient::new(server_ip, 7, conns, 100_000, load, host_seed);
        // Raw header-level adversaries: no stack underneath.
        let raw = |sim: &mut Sim<NetMsg>, h: HostSpec, conns, mode| {
            let cfg = AdversaryConfig::kv(server_ip, 7, conns, mode);
            sim.add_agent(Box::new(AdversaryHost::new(
                h.ip, h.mac, h.nic, h.uplink, cfg,
            )))
        };
        let app: Box<dyn App> = match &plan.shape {
            TrafficShape::KvOpen { per_sec, conns } => {
                Box::new(kv(*conns, KvLoad::OpenRate { per_sec: *per_sec }))
            }
            TrafficShape::KvClosed { conns } => Box::new(kv(*conns, KvLoad::Closed)),
            TrafficShape::KvChurn {
                conns,
                msgs_per_conn,
            } => Box::new(kv(*conns, KvLoad::Closed).short_lived(*msgs_per_conn)),
            TrafficShape::SlowRead { conns, burst } => {
                Box::new(SlowReader::new(server_ip, 7, *conns, *burst))
            }
            TrafficShape::AckDivision { conns, chunk } => {
                return raw(sim, spec_h, *conns, AdvMode::AckDivision { chunk: *chunk });
            }
            TrafficShape::WindowStuff { conns, pattern } => {
                let pattern = pattern.clone();
                return raw(sim, spec_h, *conns, AdvMode::WindowStuff { pattern });
            }
        };
        make_server(sim, spec_h, Kind::TasSockets, (2, 2), Bufs::small(), app)
    };
    let hosts_p = hosts.clone();
    let ecn = spec.ecn_threshold_pkts;
    let seed_p = spec.seed;
    let topo = build_star_tenants(
        &mut sim,
        n,
        |i| {
            if i == 0 {
                0
            } else {
                hosts_p.get(i as usize - 1).map(|p| p.id).unwrap_or(0)
            }
        },
        |i| {
            if i == 0 {
                let mut p = PortConfig::fortygig();
                if let Some(e) = ecn {
                    p.ecn_threshold_pkts = Some(e);
                }
                p
            } else {
                match hosts_p.get(i as usize - 1).and_then(|p| p.wan.as_ref()) {
                    Some(w) => wan_port(w, seed_p ^ (0x5ce0 + i as u64)),
                    None => PortConfig::tengig(),
                }
            }
        },
        |i| {
            if i == 0 {
                NicConfig::server_40g(1)
            } else {
                NicConfig::client_10g(1)
            }
        },
        &mut factory,
    );
    // Start phases: the server at t=0, each client host at its tenant's
    // start instant (plus a 1 µs per-host stagger to avoid synchronized
    // handshake artifacts). Timer kind 0 is INIT for every host type.
    sim.inject_timer(SimTime::ZERO, topo.hosts[0], 0, 0);
    let mut clients = Vec::new();
    for (i, plan) in hosts.iter().enumerate() {
        let h = topo.hosts[i + 1];
        sim.inject_timer(plan.start + SimTime::from_us(i as u64), h, 0, 0);
        // Tag stack-backed client hosts with their tenant so registry
        // snapshots and spans carry the tenant dimension.
        if !plan.shape.is_raw() {
            sim.agent_mut::<TasHost>(h).set_tenant(plan.id);
        }
        clients.push((plan.id, plan.shape.clone(), h));
    }
    Built {
        sim,
        server: topo.hosts[0],
        clients,
    }
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
    let (tenant, load) = match ph {
        Phase::Stop { tenant } => (tenant, KvLoad::Idle),
        Phase::SetRate { tenant, per_sec } => (tenant, KvLoad::OpenRate { per_sec }),
    };
    for (tid, shape, h) in clients {
        if *tid == tenant && is_kv(shape) {
            app_mut::<KvClient>(sim, *h).set_load(load);
        }
    }
}

/// Runs a scenario on `kind` with TAS server overrides (used by the
/// isolation self-test's deliberately unfair configuration).
///
/// Under the `telemetry` feature the server's cycles over the measurement
/// window are attributed; [`run_with_profile`] harvests the tree.
pub fn run_with(spec: &ScenarioSpec, kind: Kind, overrides: TasOverrides) -> Outcome {
    let Built {
        mut sim,
        server,
        clients,
    } = build(spec, kind, overrides);
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

/// Runs a scenario on `kind` with the canonical server configuration.
pub fn run(spec: &ScenarioSpec, kind: Kind) -> Outcome {
    run_with(spec, kind, TasOverrides::default())
}

/// [`run_with`] plus the server's cycle-attribution tree over the
/// measurement window (profiling is left disabled afterwards).
#[cfg(feature = "telemetry")]
pub fn run_with_profile(
    spec: &ScenarioSpec,
    kind: Kind,
    overrides: TasOverrides,
) -> (Outcome, tas_telemetry::profile::Profile) {
    let out = run_with(spec, kind, overrides);
    let prof = tas_telemetry::profile::take();
    tas_telemetry::profile::stop();
    (out, prof)
}

/// Metrics of one tenant from an outcome (zeros when absent).
pub fn tenant_metrics(o: &Outcome, t: &Tenant) -> TenantMetrics {
    o.tenants.get(&t.id).copied().unwrap_or_default()
}
