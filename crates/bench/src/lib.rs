//! The paper-reproduction experiments and their one driver.
//!
//! Every table and figure of the paper's evaluation is an entry of the
//! report catalogue ([`scenarios::catalogue`]): one module with one
//! `report()` that holds every cell the artefact measures. The
//! `bench-report` binary ([`gate`]) simulates, renders ([`report`]) and
//! gates them. Every simulation a cell runs is a [`testbed::Testbed`]
//! value — a seed, a fabric and one node per machine — that the one
//! builder [`testbed::build`] wires; the cell adds only its metric
//! extraction. This root holds the stack kinds, the buffer presets and
//! the RPC scenario shared by the throughput and cycle-accounting cells.
//!
//! Scale: by default every experiment runs a reduced-but-faithful
//! configuration sized to finish in seconds; setting `TAS_FULL=1` selects
//! the paper-scale parameters (more connections, longer windows).

use tas_apps::echo::{EchoServer, ServerMode};
use tas_apps::kv::{self, KvServer};
use tas_apps::loadgen::{LoadGenConfig, LoadGenHost};
use tas_cpusim::{CycleAccount, Module, MODULE_COUNT};
use tas_netsim::app::App;
use tas_netsim::topo::host_ip;
use tas_netsim::NetMsg;
use tas_sim::{Sim, SimTime};
use testbed::{build, Agent, Net, Testbed};

pub use tas_sim::Histogram;

pub mod gate;
mod host;
pub mod report;
pub mod scenario;
pub mod scenarios;
pub mod testbed;

pub use host::{app, app_mut, host, host_mut, Host};
pub use testbed::HostCfg;

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

/// Receive and transmit buffer bytes per connection for 64-byte echo at
/// huge connection counts.
pub const ECHO_BUF: usize = 1024;

/// Receive and transmit buffer bytes per connection for KV-sized messages.
pub const KV_BUF: usize = 4096;

/// Request and response bytes of [`ServerApp::Echo`].
const ECHO_SIZE: usize = 64;

/// Application cycles [`ServerApp::Echo`] spends per request.
const ECHO_APP_CYCLES: u64 = 300;

/// An RPC-echo throughput scenario: one server, a bank of load-generator
/// clients, closed loop with one request in flight per connection.
#[derive(Clone, Debug)]
pub struct RpcScenario {
    /// Server stack.
    pub server: HostCfg,
    /// Total client connections.
    pub conns: u32,
    /// Client machines to spread them over.
    pub client_hosts: usize,
    /// Warmup before measurement.
    pub warmup: SimTime,
    /// Measurement window.
    pub measure: SimTime,
    /// Which server application runs; it fixes the request and response
    /// the load generators exchange with it.
    pub server_app: ServerApp,
    /// Table 7's non-scalable KV workload: the server's app cores and the
    /// extra lock-contention cycles per op per extra app core; `None`
    /// normally.
    pub kv_contention: Option<(u32, u64)>,
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
    /// Byte echo of 64-byte requests.
    Echo,
    /// The key-value store, sent GETs of key 1.
    Kv,
}

impl RpcScenario {
    /// A default echo scenario.
    pub fn echo(kind: Kind, cores: (usize, usize), conns: u32) -> RpcScenario {
        RpcScenario {
            server: HostCfg::new(kind, cores, ECHO_BUF),
            conns,
            client_hosts: 6,
            warmup: SimTime::from_ms(30),
            measure: SimTime::from_ms(20),
            server_app: ServerApp::Echo,
            kv_contention: None,
            seed: 42,
            #[cfg(feature = "telemetry")]
            profile: false,
        }
    }

    /// A key-value store scenario: GET requests via the load generators.
    pub fn kv(kind: Kind, cores: (usize, usize), conns: u32) -> RpcScenario {
        RpcScenario {
            server_app: ServerApp::Kv,
            server: HostCfg::new(kind, cores, KV_BUF),
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

impl RpcScenario {
    /// The scenario's testbed: the server behind the 40G port, then
    /// `client_hosts` load generators sharing the connections, sending
    /// the server app's request and expecting its response.
    fn testbed(&self) -> Testbed {
        let (app, req_template, resp_size): (Box<dyn App>, _, _) = match self.server_app {
            ServerApp::Echo => {
                let echo = EchoServer::new(7, ECHO_SIZE, ServerMode::Echo, ECHO_APP_CYCLES);
                (Box::new(echo), None, ECHO_SIZE)
            }
            ServerApp::Kv => {
                let server = KvServer::new(7);
                let server: Box<dyn App> = match self.kv_contention {
                    Some((cores, cycles)) => Box::new(server.non_scalable(cores, cycles)),
                    None => Box::new(server),
                };
                (server, Some(kv::get_request(1)), kv::RESP_LEN)
            }
        };
        let req_size = req_template.as_ref().map_or(ECHO_SIZE, Vec::len);
        let hosts = self.client_hosts as u32;
        let (per_client, remainder) = (self.conns / hosts, self.conns % hosts);
        let client = |i: u32| {
            Agent::LoadGen(LoadGenConfig {
                server: host_ip(0),
                port: 7,
                conns: per_client + u32::from(i < remainder),
                req_size,
                resp_size,
                req_template: req_template.clone(),
                ..LoadGenConfig::default()
            })
        };
        let server = Agent::stack(self.server.clone(), app);
        Testbed::paper(self.seed, server, (0..hosts).map(client))
    }
}

/// Runs an RPC scenario and returns throughput/latency.
pub fn run_rpc(sc: &RpcScenario) -> RpcResult {
    let Net { mut sim, hosts, .. } = build(sc.testbed());
    let server = hosts[0];
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
    for &h in &hosts[1..] {
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
    for &h in &hosts[1..] {
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
