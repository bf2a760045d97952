//! The paper-reproduction experiments and their one driver.
//!
//! Every table and figure of the paper's evaluation is an entry of the
//! report catalogue ([`scenarios::catalogue`]): one module with one
//! `report()` that holds every cell the artefact measures. The
//! `bench-report` binary ([`gate`]) simulates, renders ([`report`]) and
//! gates them. This root provides the common scenario builders: a server
//! of any stack kind behind a bank of client machines, with
//! warmup/measure windows.
//!
//! Scale: by default every experiment runs a reduced-but-faithful
//! configuration sized to finish in seconds; setting `TAS_FULL=1` selects
//! the paper-scale parameters (more connections, longer windows).

use tas::{ApiKind, CcAlgo, TasConfig};
use tas_apps::echo::{EchoServer, ServerMode};
use tas_apps::kv::KvServer;
use tas_apps::loadgen::{LoadGenConfig, LoadGenHost};
use tas_baselines::{profiles, StackHostConfig};
use tas_cpusim::{CycleAccount, Module, MODULE_COUNT};
use tas_netsim::app::App;
use tas_netsim::topo::{host_ip, HostSpec};
use tas_netsim::NetMsg;
use tas_sim::{AgentId, Sim, SimTime};

pub use tas_sim::Histogram;

pub mod gate;
mod host;
pub mod report;
pub mod scenario;
pub mod scenarios;

pub use host::{
    add_host, app, app_mut, host, host_mut, start_all, testbed_star, uniform_star, Host, HostCfg,
};

/// True when `TAS_FULL=1` requests paper-scale runs.
fn full_scale() -> bool {
    std::env::var("TAS_FULL").map(|v| v == "1").unwrap_or(false)
}

/// Picks `quick` or `full` by [`full_scale`].
fn scaled<T>(quick: T, full: T) -> T {
    if full_scale() {
        full
    } else {
        quick
    }
}

/// The server stack under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// TAS with POSIX sockets (TAS SO).
    TasSockets,
    /// TAS with the low-level API (TAS LL).
    TasLowLevel,
    /// Linux in-kernel model.
    Linux,
    /// IX model.
    Ix,
    /// mTCP model.
    Mtcp,
    /// MPK-protected dataplane model (WRPKRU crossings).
    Mpk,
    /// PnO-style off-path SmartNIC model (PCIe/DMA boundary).
    Pno,
}

impl Kind {
    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Kind::TasSockets => "TAS SO",
            Kind::TasLowLevel => "TAS LL",
            Kind::Linux => "Linux",
            Kind::Ix => "IX",
            Kind::Mtcp => "mTCP",
            Kind::Mpk => "MPK",
            Kind::Pno => "PnO",
        }
    }
}

/// Per-flow buffer sizing for server scenarios (small for RPC echo, larger
/// for KV / bulk workloads).
#[derive(Clone, Copy, Debug)]
pub struct Bufs {
    /// Receive buffer bytes per connection.
    pub rx: usize,
    /// Transmit buffer bytes per connection.
    pub tx: usize,
}

impl Bufs {
    /// Small buffers for 64-byte echo at huge connection counts.
    pub fn tiny() -> Bufs {
        Bufs { rx: 1024, tx: 1024 }
    }

    /// Medium buffers for KV-sized messages.
    pub fn small() -> Bufs {
        Bufs { rx: 4096, tx: 4096 }
    }
}

/// Optional TAS configuration overrides for ablation studies. `None`
/// fields keep the [`make_server`] defaults, so the overridden run is
/// comparable to the corresponding paper experiment.
#[derive(Clone, Copy, Debug, Default)]
pub struct TasOverrides {
    /// Cache lines of flow state touched per request (ablates the
    /// 102-byte compact state of Table 3).
    pub cache_lines_per_req: Option<u64>,
    /// Congestion-control policy (ablates fast-path rate enforcement).
    pub cc: Option<CcAlgo>,
    /// Stalled control intervals before a slow-path retransmission.
    pub stall_intervals_for_rexmit: Option<u32>,
    /// Control-loop interval τ.
    pub control_interval: Option<SimTime>,
}

impl TasOverrides {
    fn apply(&self, cfg: &mut TasConfig) {
        if let Some(v) = self.cache_lines_per_req {
            cfg.cache_lines_per_req = v;
        }
        if let Some(v) = self.cc {
            cfg.cc = v;
        }
        if let Some(v) = self.stall_intervals_for_rexmit {
            cfg.stall_intervals_for_rexmit = v;
        }
        if let Some(v) = self.control_interval {
            cfg.control_interval = v;
        }
    }
}

/// Builds a server host of the given kind.
///
/// `cores` means: for TAS kinds `(fast-path cores, app cores)`; for the
/// baselines the total core count (mTCP reserves ceil(total/3) of them for
/// its stack threads).
pub fn make_server(
    sim: &mut Sim<NetMsg>,
    spec: HostSpec,
    kind: Kind,
    cores: (usize, usize),
    bufs: Bufs,
    app: Box<dyn App>,
) -> AgentId {
    make_server_with(sim, spec, kind, cores, bufs, app, TasOverrides::default())
}

/// [`make_server`] with TAS ablation overrides (ignored for baselines).
#[allow(clippy::too_many_arguments)]
pub fn make_server_with(
    sim: &mut Sim<NetMsg>,
    spec: HostSpec,
    kind: Kind,
    cores: (usize, usize),
    bufs: Bufs,
    app: Box<dyn App>,
    overrides: TasOverrides,
) -> AgentId {
    let total = cores.0 + cores.1;
    let (profile, mut cfg) = match kind {
        Kind::TasSockets | Kind::TasLowLevel => {
            let mut cfg = TasConfig::rpc_bench(cores.0, cores.1);
            cfg.api = if kind == Kind::TasLowLevel {
                ApiKind::LowLevel
            } else {
                ApiKind::Sockets
            };
            cfg.rx_buf = bufs.rx;
            cfg.tx_buf = bufs.tx;
            // The paper's testbed runs DCTCP everywhere; without
            // congestion control, bulk/pipelined scenarios collapse the
            // shared switch queue.
            cfg.cc = CcAlgo::DctcpRate;
            cfg.initial_rate_bps = 1_000_000_000;
            cfg.control_interval = SimTime::from_us(200);
            // Closed-loop macrobenchmarks keep up to one request per
            // connection outstanding; deep rings absorb them (the paper's
            // clients "wait in a closed loop" with up to 96k in flight).
            cfg.max_core_backlog = SimTime::from_ms(50);
            overrides.apply(&mut cfg);
            return add_host(sim, spec, HostCfg::Tas(cfg), app);
        }
        Kind::Linux => (profiles::linux(), StackHostConfig::linux(total)),
        Kind::Ix => (profiles::ix(), StackHostConfig::ix(total)),
        Kind::Mtcp => {
            let stack = (total / 3).max(1).min(total.saturating_sub(1)).max(1);
            (profiles::mtcp(), StackHostConfig::mtcp(total.max(2), stack))
        }
        Kind::Mpk => (profiles::mpk(), StackHostConfig::mpk(total)),
        Kind::Pno => {
            // cores.0 maps to the on-NIC stack cores, cores.1 to host
            // app cores (mirroring TAS's fastpath/app split).
            let (host, nic) = (cores.1.max(1), cores.0.max(1));
            (profiles::pno(), StackHostConfig::pno(host, nic))
        }
    };
    cfg.tcp.recv_buf = bufs.rx;
    cfg.tcp.send_buf = bufs.tx;
    cfg.max_core_backlog = SimTime::from_ms(50);
    add_host(sim, spec, HostCfg::Model(profile, cfg), app)
}

/// An RPC-echo throughput scenario: one server, a bank of load-generator
/// clients, closed loop with one request in flight per connection.
#[derive(Clone, Debug)]
pub struct RpcScenario {
    /// Server stack.
    pub kind: Kind,
    /// Server cores (see [`make_server`]).
    pub cores: (usize, usize),
    /// Total client connections.
    pub conns: u32,
    /// Client machines to spread them over.
    pub client_hosts: usize,
    /// Request/response payload bytes.
    pub req_size: usize,
    /// Response size (defaults to `req_size` when `None` — echo).
    pub resp_size: Option<usize>,
    /// Per-request server app cycles.
    pub app_cycles: u64,
    /// Warmup before measurement.
    pub warmup: SimTime,
    /// Measurement window.
    pub measure: SimTime,
    /// Request template (None = echo filler).
    pub req_template: Option<Vec<u8>>,
    /// Buffers.
    pub bufs: Bufs,
    /// Which server application runs.
    pub server_app: ServerApp,
    /// Extra lock-contention cycles per op per extra app core (Table 7's
    /// non-scalable KV workload); 0 normally.
    pub kv_contention: u64,
    /// TAS ablation overrides (no effect on baseline kinds).
    pub tas_overrides: TasOverrides,
    /// RNG seed.
    pub seed: u64,
    /// Capture a cycle-attribution profile over the measurement window
    /// (telemetry builds only).
    #[cfg(feature = "telemetry")]
    pub profile: bool,
}

/// Server application selection for [`RpcScenario`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServerApp {
    /// Byte echo.
    Echo,
    /// The key-value store with the paper's GET-heavy workload.
    Kv,
}

impl RpcScenario {
    /// A default echo scenario.
    pub fn echo(kind: Kind, cores: (usize, usize), conns: u32) -> RpcScenario {
        RpcScenario {
            kind,
            cores,
            conns,
            client_hosts: 6,
            req_size: 64,
            resp_size: None,
            app_cycles: 300,
            warmup: SimTime::from_ms(30),
            measure: SimTime::from_ms(20),
            req_template: None,
            bufs: Bufs::tiny(),
            server_app: ServerApp::Echo,
            kv_contention: 0,
            tas_overrides: TasOverrides::default(),
            seed: 42,
            #[cfg(feature = "telemetry")]
            profile: false,
        }
    }

    /// A key-value store scenario: GET requests via the load generators.
    pub fn kv(kind: Kind, cores: (usize, usize), conns: u32) -> RpcScenario {
        let template = tas_apps::kv::get_request(1);
        RpcScenario {
            req_size: template.len(),
            resp_size: Some(tas_apps::kv::RESP_LEN),
            req_template: Some(template),
            server_app: ServerApp::Kv,
            bufs: Bufs::small(),
            ..RpcScenario::echo(kind, cores, conns)
        }
    }
}

/// Per-request cycle/instruction breakdown measured over a window
/// (Tables 1–2).
#[derive(Clone, Copy, Debug, Default)]
pub struct PerRequest {
    /// Cycles per module per request.
    pub cycles: [f64; MODULE_COUNT],
    /// Instructions per module per request.
    pub instr: [f64; MODULE_COUNT],
    /// Requests measured.
    pub requests: u64,
}

impl PerRequest {
    /// Total cycles per request.
    pub fn total_cycles(&self) -> f64 {
        self.cycles.iter().sum()
    }

    /// Total instructions per request.
    pub fn total_instr(&self) -> f64 {
        self.instr.iter().sum()
    }

    /// Stack cycles (everything but App).
    pub fn stack_cycles(&self) -> f64 {
        self.total_cycles() - self.cycles[Module::App as usize]
    }

    /// CPI over everything.
    pub fn cpi(&self) -> f64 {
        let i = self.total_instr();
        if i == 0.0 {
            0.0
        } else {
            self.total_cycles() / i
        }
    }
}

fn per_request(before: &CycleAccount, after: &CycleAccount, requests: u64) -> PerRequest {
    let mut out = PerRequest {
        requests,
        ..PerRequest::default()
    };
    if requests == 0 {
        return out;
    }
    for m in Module::ALL {
        let i = m as usize;
        out.cycles[i] = (after.cycles(m) - before.cycles(m)) as f64 / requests as f64;
        out.instr[i] = (after.instructions(m) - before.instructions(m)) as f64 / requests as f64;
    }
    out
}

/// Result of an RPC scenario run.
#[derive(Clone, Debug)]
pub struct RpcResult {
    /// Server-side completed messages per second (millions of ops/s).
    pub mops: f64,
    /// Client-observed RPC latency (ns histogram).
    pub latency: Histogram,
    /// Connections established.
    pub established: u64,
    /// Backlog drops at the server NIC.
    pub drops: u64,
    /// Per-request module breakdown over the measurement window.
    pub per_request: PerRequest,
    /// Busy cycles burned on *host-class* server cores over the window.
    /// For the off-path SmartNIC model this excludes the NIC cores that
    /// run the TCP stack; for every on-host stack it equals all server
    /// busy cycles, so `host_cycles / per_request.requests` is directly
    /// comparable across stacks (the paper's "host CPU per request").
    pub host_cycles: u64,
    /// Cycle-attribution capture (when [`RpcScenario::profile`] was set).
    #[cfg(feature = "telemetry")]
    pub profile: Option<ProfileCapture>,
}

/// A cycle-attribution profile of the server over the measurement window,
/// with the per-core busy-cycle deltas it must account for exactly.
#[cfg(feature = "telemetry")]
#[derive(Clone, Debug)]
pub struct ProfileCapture {
    /// The attribution tree collected between `t0` and the end of the
    /// measurement window.
    pub profile: tas_telemetry::profile::Profile,
    /// Requests the server completed inside the window.
    pub requests: u64,
    /// Packets (rx + tx segments) the server handled inside the window.
    pub packets: u64,
    /// Per-core busy-cycle deltas over the window, labelled like the
    /// profile's core labels (`fp0`, `sp0`, `app0`, … or `core0`, …).
    pub busy: Vec<(String, u64)>,
    /// Per-core utilization samples (1 ms cadence) inside the window.
    pub core_util: Vec<(String, Vec<f64>)>,
}

#[cfg(feature = "telemetry")]
impl ProfileCapture {
    /// Total busy cycles across cores over the window.
    pub fn busy_total(&self) -> u64 {
        self.busy.iter().map(|(_, c)| c).sum()
    }

    /// Cycles per request over the window.
    pub fn cycles_per_request(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.busy_total() as f64 / self.requests as f64
        }
    }

    /// Cycles per packet over the window.
    pub fn cycles_per_packet(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.busy_total() as f64 / self.packets as f64
        }
    }
}

/// Runs an RPC scenario and returns throughput/latency.
pub fn run_rpc(sc: &RpcScenario) -> RpcResult {
    let mut sim: Sim<NetMsg> = Sim::new(sc.seed);
    let server_ip = host_ip(0);
    let resp = sc.resp_size.unwrap_or(sc.req_size);
    let per_client = sc.conns / sc.client_hosts as u32;
    let remainder = sc.conns % sc.client_hosts as u32;
    let sc2 = sc.clone();
    let mut factory = move |sim: &mut Sim<NetMsg>, spec: HostSpec| -> AgentId {
        if spec.index == 0 {
            let app: Box<dyn App> = match sc2.server_app {
                ServerApp::Echo => Box::new(EchoServer::new(
                    7,
                    sc2.req_size,
                    ServerMode::Echo,
                    sc2.app_cycles,
                )),
                ServerApp::Kv => {
                    let mut kv = KvServer::new(7);
                    if sc2.kv_contention > 0 {
                        kv = kv.non_scalable(sc2.cores.1.max(1) as u32, sc2.kv_contention);
                    }
                    Box::new(kv)
                }
            };
            make_server_with(
                sim,
                spec,
                sc2.kind,
                sc2.cores,
                sc2.bufs,
                app,
                sc2.tas_overrides,
            )
        } else {
            let cfg = LoadGenConfig {
                server: server_ip,
                port: 7,
                conns: per_client + u32::from(spec.index <= remainder),
                req_size: sc2.req_size,
                resp_size: resp,
                connects_per_ms: 400,
                req_template: sc2.req_template.clone(),
                ..LoadGenConfig::default()
            };
            sim.add_agent(Box::new(LoadGenHost::new(
                spec.ip,
                spec.mac,
                spec.nic,
                spec.uplink,
                cfg,
            )))
        }
    };
    let topo = testbed_star(&mut sim, 1 + sc.client_hosts, &mut factory);
    start_all(&mut sim, &topo.hosts);
    let server = topo.hosts[0];
    let messages = |sim: &Sim<NetMsg>| match sc.server_app {
        ServerApp::Echo => app::<EchoServer>(sim, server).messages,
        ServerApp::Kv => {
            let kv = app::<KvServer>(sim, server);
            kv.gets + kv.sets
        }
    };
    // Ramp-up: connections plus warmup.
    let ramp = SimTime::from_ms((sc.conns as u64 / 400).max(1) + 2);
    let t0 = ramp + sc.warmup;
    sim.run_until(t0);
    // Snapshot counters, gate latency recording.
    let messages_t0 = messages(&sim);
    let srv = host(&sim, server);
    let established = srv.established();
    let acct0 = srv.account().clone();
    let host0 = srv.host_cycles();
    #[cfg(feature = "telemetry")]
    let prof_t0 = sc.profile.then(|| {
        host_mut(&mut sim, server).enable_profiling();
        tas_telemetry::profile::start();
        let srv = host(&sim, server);
        (srv.busy(), srv.packets())
    });
    for &h in &topo.hosts[1..] {
        sim.agent_mut::<LoadGenHost>(h).measure_from = t0;
    }
    sim.run_until(t0 + sc.measure);
    let requests = messages(&sim) - messages_t0;
    let srv = host(&sim, server);
    #[cfg(feature = "telemetry")]
    let profile = prof_t0.map(|(busy0, pkts0)| {
        let tree = tas_telemetry::profile::take();
        tas_telemetry::profile::stop();
        let busy = srv
            .busy()
            .into_iter()
            .zip(busy0)
            .map(|((label, b1), (_, b0))| (label, b1 - b0))
            .collect();
        ProfileCapture {
            profile: tree,
            requests,
            packets: srv.packets() - pkts0,
            busy,
            core_util: util_window(srv.registry(), t0),
        }
    });
    let mut latency = Histogram::new();
    for &h in &topo.hosts[1..] {
        latency.merge(&sim.agent::<LoadGenHost>(h).latency);
    }
    RpcResult {
        mops: requests as f64 / sc.measure.as_secs_f64() / 1e6,
        latency,
        established,
        drops: srv.drops(),
        per_request: per_request(&acct0, srv.account(), requests),
        host_cycles: srv.host_cycles() - host0,
        #[cfg(feature = "telemetry")]
        profile,
    }
}

/// Extracts per-core utilization samples at or after `from`, labelled
/// by the series name's first segment and the core (`fp0`, `core1`, …).
#[cfg(feature = "telemetry")]
fn util_window(reg: &tas_sim::Registry, from: SimTime) -> Vec<(String, Vec<f64>)> {
    reg.series_iter()
        .filter_map(|(key, ts)| {
            let tas_sim::Scope::Core(i) = key.scope else {
                return None;
            };
            let prefix = key.name.split('.').next().unwrap_or(key.name);
            let vals = ts
                .samples()
                .iter()
                .filter(|&&(t, _)| t >= from)
                .map(|&(_, v)| v)
                .collect();
            Some((format!("{prefix}{i}"), vals))
        })
        .collect()
}
