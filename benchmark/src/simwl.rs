//! The three whole-simulator workloads.
//!
//! Each builds a star of hosts through public constructors only, ramps
//! and warms it (set-up), then advances the simulation through
//! [`SLICES`] equal steps of simulated time under the host clock.

use tas::{ApiKind, CcAlgo, TasConfig, TasHost};
use tas_apps::bulk::{BulkReceiver, BulkSender};
use tas_apps::echo::{EchoServer, ServerMode};
use tas_apps::kv::{self, KvServer};
use tas_apps::loadgen::{LoadGenConfig, LoadGenHost};
use tas_baselines::{profiles, StackHost, StackHostConfig};
use tas_cpusim::{CycleAccount, Module};
use tas_netsim::app::App;
use tas_netsim::switch::TIMER_SAMPLE_QUEUE;
use tas_netsim::topo::{host_ip, host_mac, HostSpec};
use tas_netsim::{FaultSpec, NetMsg, NicConfig, PortConfig, Switch};
use tas_sim::{Agent, AgentId, Histogram, Rng, Scope, Sim, SimTime, Snapshot};

use crate::kvload::OpenKvClient;
use crate::measure::{counts_delta, fnv, time_slices, Checks, Counts, Outcome, FNV_INIT, SLICES};
use crate::trace::{Class, Timed, TracerRef};
use crate::Scale;

/// Which simulated workload to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimKind {
    Rpc64Tas,
    BulkLossTas,
    KvLinux,
}

// Pinned sizes. `*_SIM_US_PER_S` is the simulated time covered per
// requested second of measurement, calibrated once on a 2-core box so
// the timed part takes about `--seconds` of wall time; it is never
// adapted at run time, so every `model_*` value is a function of
// (`--seed`, `--seconds`) alone.
const RPC_CONNS: u32 = 2000;
const RPC_CLIENTS: u32 = 4;
const RPC_SIZE: usize = 64;
const RPC_APP_CYCLES: u64 = 300;
const RPC_CONNECTS_PER_MS: u32 = 400;
/// Each connection waits this long between a response and its next
/// request, which offers 3.5 M requests/s, two thirds of the 4.8-5.3 M/s
/// the server completes with no think time. At that saturated point the
/// closed loop is chaotic: moving five connections between client
/// machines changes goodput by 10 % and resident memory 2-3 fold, so no
/// bound could be put on it. Here ten seeds agree within 0.02 %.
const RPC_THINK: SimTime = SimTime::from_us(500);
const RPC_WARMUP: SimTime = SimTime::from_ms(30);
const RPC_SIM_US_PER_S: u64 = 80_000;

const BULK_FLOWS: u32 = 100;
const BULK_LOSS: f64 = 0.01;
const BULK_BUF: usize = 128 * 1024;
const BULK_WARMUP: SimTime = SimTime::from_ms(50);
const BULK_SIM_US_PER_S: u64 = 350_000;

const KV_CLIENTS: u32 = 4;
const KV_CONNS_PER_CLIENT: u32 = 64;
const KV_KEYS: usize = 100_000;
/// Socket buffers: a request or response is under 100 B, so 16 KiB holds
/// 160 of them; the default 128 KiB would make buffers 131 of 160 MB.
const KV_BUF: usize = 16 * 1024;
const KV_SERVER_CORES: usize = 4;
const KV_CLIENT_CORES: usize = 4;
/// Offered load, all clients together: two thirds of the 450 k/s that is
/// the highest of the rates tried at which this server keeps p99 under
/// 250 us (`baseline/kv_rate_ramp.txt`; at 475 k/s p50 jumps from 87 us
/// to 590 us as the kernel model starts batching).
const KV_RATE_PER_SEC: u64 = 300_000;
/// When the arrival schedule starts: every connection is up by then.
const KV_START: SimTime = SimTime::from_ms(5);
const KV_WARMUP: SimTime = SimTime::from_ms(20);
const KV_SIM_US_PER_S: u64 = 360_000;

/// Simulated time given to in-flight requests after load stops.
const DRAIN: SimTime = SimTime::from_ms(5);

/// A built, warmed simulation.
pub struct Net {
    pub sim: Sim<NetMsg>,
    switch: AgentId,
    hosts: Vec<AgentId>,
    /// Connections the workload configured.
    conns: u64,
}

fn add<A: Agent<NetMsg>>(
    sim: &mut Sim<NetMsg>,
    tracer: &Option<TracerRef>,
    class: Class,
    agent: A,
) -> AgentId {
    match tracer {
        Some(t) => sim.add_agent(Box::new(Timed::new(agent, class, t.clone()))),
        None => sim.add_agent(Box::new(agent)),
    }
}

/// `netsim::topo::build_star`, rebuilt here so the switch can be wrapped
/// like every host.
fn build_star(
    sim: &mut Sim<NetMsg>,
    tracer: &Option<TracerRef>,
    n: u32,
    port_for: impl Fn(u32) -> PortConfig,
    nic_for: impl Fn(u32) -> NicConfig,
    start_at: impl Fn(u32) -> SimTime,
    mut make_host: impl FnMut(&mut Sim<NetMsg>, HostSpec) -> AgentId,
) -> (AgentId, Vec<AgentId>) {
    let switch = add(sim, tracer, Class::Switch, Switch::new("star"));
    let mut hosts = Vec::with_capacity(n as usize);
    for i in 0..n {
        let ip = host_ip(i);
        let spec = HostSpec {
            index: i,
            ip,
            mac: host_mac(i),
            uplink: switch,
            nic: nic_for(i),
            tenant: 0,
        };
        let host = make_host(sim, spec);
        let sw = sim.agent_mut::<Switch>(switch);
        let port = sw.add_port(host, port_for(i));
        sw.set_route(ip, vec![port]);
        hosts.push(host);
    }
    // Port 0 faces host 0, the server/receiver: its queue is the one the
    // workloads congest.
    sim.agent_mut::<Switch>(switch)
        .monitor_port(0, SimTime::from_us(100));
    sim.inject_timer(SimTime::ZERO, switch, TIMER_SAMPLE_QUEUE, 0);
    for (i, &h) in hosts.iter().enumerate() {
        sim.inject_timer(start_at(i as u32), h, 0, 0);
    }
    (switch, hosts)
}

fn server_port(i: u32) -> PortConfig {
    if i == 0 {
        PortConfig::fortygig()
    } else {
        PortConfig::tengig()
    }
}

fn server_nic(i: u32) -> NicConfig {
    if i == 0 {
        NicConfig::server_40g(1)
    } else {
        NicConfig::client_10g(1)
    }
}

fn tas_host(spec: HostSpec, cfg: TasConfig, app: Box<dyn App>) -> TasHost {
    TasHost::new(spec.ip, spec.mac, spec.nic, cfg, spec.uplink, app)
}

fn linux_host(spec: HostSpec, cfg: StackHostConfig, app: Box<dyn App>) -> StackHost {
    StackHost::new(
        spec.ip,
        spec.mac,
        spec.nic,
        profiles::linux(),
        cfg,
        spec.uplink,
        app,
    )
}

/// The paper-testbed TAS server of the RPC figures: sockets API, DCTCP
/// rate control, small per-flow buffers.
fn rpc_server_cfg() -> TasConfig {
    TasConfig {
        api: ApiKind::Sockets,
        rx_buf: 1024,
        tx_buf: 1024,
        cc: CcAlgo::DctcpRate,
        initial_rate_bps: 1_000_000_000,
        control_interval: SimTime::from_us(200),
        ..TasConfig::rpc_bench(2, 2)
    }
}

fn bulk_cfg() -> TasConfig {
    TasConfig {
        rx_buf: BULK_BUF,
        tx_buf: BULK_BUF,
        ooo_rx: true,
        cc: CcAlgo::DctcpRate,
        initial_rate_bps: 500_000_000,
        control_interval: SimTime::from_us(200),
        ..TasConfig::rpc_bench(2, 2)
    }
}

fn kv_cfg(cores: usize) -> StackHostConfig {
    let mut cfg = StackHostConfig::linux(cores);
    cfg.tcp.recv_buf = KV_BUF;
    cfg.tcp.send_buf = KV_BUF;
    cfg
}

impl SimKind {
    fn sim_us_per_s(self) -> u64 {
        match self {
            SimKind::Rpc64Tas => RPC_SIM_US_PER_S,
            SimKind::BulkLossTas => BULK_SIM_US_PER_S,
            SimKind::KvLinux => KV_SIM_US_PER_S,
        }
    }

    /// Builds the topology, ramps connections and warms every flow.
    pub fn setup(self, seed: u64, scale: Scale, tracer: &Option<TracerRef>) -> Net {
        let mut sim: Sim<NetMsg> = Sim::new(seed);
        let server_ip = host_ip(0);
        match self {
            SimKind::Rpc64Tas => {
                // The seed decides how the connections are split over the
                // client machines and when each machine starts its ramp,
                // and with that the order in which they connect.
                let mut rng = Rng::new(seed);
                let total = scale.size(RPC_CONNS as u64) as u32;
                let base = total / RPC_CLIENTS;
                let mut per_client: Vec<u32> = (1..RPC_CLIENTS)
                    .map(|_| base - rng.below(base as u64 / 20 + 1) as u32)
                    .collect();
                per_client.insert(0, total - per_client.iter().sum::<u32>());
                let starts: Vec<SimTime> = (0..RPC_CLIENTS)
                    .map(|_| SimTime::from_ns(rng.below(1_000_000)))
                    .collect();
                let (switch, hosts) = build_star(
                    &mut sim,
                    tracer,
                    1 + RPC_CLIENTS,
                    server_port,
                    server_nic,
                    |i| match i {
                        0 => SimTime::ZERO,
                        _ => starts[i as usize - 1],
                    },
                    |sim, spec| {
                        if spec.index == 0 {
                            let app =
                                EchoServer::new(7, RPC_SIZE, ServerMode::Echo, RPC_APP_CYCLES);
                            let host = tas_host(spec, rpc_server_cfg(), Box::new(app));
                            add(sim, tracer, Class::TasHost, host)
                        } else {
                            let cfg = LoadGenConfig {
                                server: server_ip,
                                port: 7,
                                conns: per_client[spec.index as usize - 1],
                                req_size: RPC_SIZE,
                                resp_size: RPC_SIZE,
                                connects_per_ms: RPC_CONNECTS_PER_MS,
                                think: RPC_THINK,
                                ..LoadGenConfig::default()
                            };
                            let host =
                                LoadGenHost::new(spec.ip, spec.mac, spec.nic, spec.uplink, cfg);
                            add(sim, tracer, Class::Client, host)
                        }
                    },
                );
                let ramp = SimTime::from_ms((base / RPC_CONNECTS_PER_MS) as u64 + 3);
                sim.run_until(ramp + RPC_WARMUP);
                Net {
                    sim,
                    switch,
                    hosts,
                    conns: total as u64,
                }
            }
            SimKind::BulkLossTas => {
                let flows = scale.size(BULK_FLOWS as u64) as u32;
                let mut port = PortConfig::tengig();
                // A zero seed would fall back to the per-device stream.
                port.fault = FaultSpec::uniform_loss(BULK_LOSS, seed | 1);
                let (switch, hosts) = build_star(
                    &mut sim,
                    tracer,
                    2,
                    move |_| port,
                    |_| NicConfig::client_10g(1),
                    |_| SimTime::ZERO,
                    |sim, spec| {
                        let app: Box<dyn App> = if spec.index == 0 {
                            Box::new(BulkReceiver::new(9))
                        } else {
                            Box::new(BulkSender::new(server_ip, 9, flows))
                        };
                        add(sim, tracer, Class::TasHost, tas_host(spec, bulk_cfg(), app))
                    },
                );
                sim.run_until(BULK_WARMUP);
                Net {
                    sim,
                    switch,
                    hosts,
                    conns: flows as u64,
                }
            }
            SimKind::KvLinux => {
                let per_client = scale.size(KV_CONNS_PER_CLIENT as u64) as u32;
                let rate = scale.size(KV_RATE_PER_SEC) / KV_CLIENTS as u64;
                let (switch, hosts) = build_star(
                    &mut sim,
                    tracer,
                    1 + KV_CLIENTS,
                    server_port,
                    server_nic,
                    |_| SimTime::ZERO,
                    |sim, spec| {
                        if spec.index == 0 {
                            let host = linux_host(
                                spec,
                                kv_cfg(KV_SERVER_CORES),
                                Box::new(KvServer::new(7)),
                            );
                            add(sim, tracer, Class::StackHost, host)
                        } else {
                            let app = OpenKvClient::new(
                                server_ip,
                                7,
                                per_client,
                                KV_KEYS,
                                rate,
                                KV_START,
                                seed.wrapping_add(spec.index as u64),
                            );
                            let host = linux_host(spec, kv_cfg(KV_CLIENT_CORES), Box::new(app));
                            add(sim, tracer, Class::Client, host)
                        }
                    },
                );
                sim.run_until(KV_WARMUP);
                Net {
                    sim,
                    switch,
                    hosts,
                    conns: (per_client * KV_CLIENTS) as u64,
                }
            }
        }
    }

    fn clients(self, net: &Net) -> &[AgentId] {
        match self {
            SimKind::BulkLossTas => &[],
            _ => &net.hosts[1..],
        }
    }

    /// TAS hosts under test (both ends for the bulk workload).
    fn tas_hosts(self, net: &Net) -> &[AgentId] {
        match self {
            SimKind::Rpc64Tas => &net.hosts[..1],
            SimKind::BulkLossTas => &net.hosts[..],
            SimKind::KvLinux => &[],
        }
    }

    fn counts(self, net: &Net) -> Counts {
        let mut c = Counts::new();
        let sim = &net.sim;
        c.insert("sim.events", sim.events_processed());
        c.insert("pkts", self.pkts(net));
        let sw = sim.agent::<Switch>(net.switch);
        c.insert("switch.drops", sw.total_drops());
        c.insert("switch.marked", sw.total_marked());
        let (mut dropped, mut seen) = (0, 0);
        for p in 0..sw.port_count() {
            let snap = sw.port_fault_snapshot(p);
            dropped += snap.counter("fault.dropped", Scope::Global);
            seen += snap.counter("fault.seen", Scope::Global);
        }
        c.insert("fault.dropped", dropped);
        c.insert("fault.seen", seen);

        let mut acct = CycleAccount::new();
        let add_to = |c: &mut Counts, k: &'static str, v: u64| *c.entry(k).or_insert(0) += v;
        for &id in self.tas_hosts(net) {
            let h = sim.agent::<TasHost>(id);
            let (fp, sp) = (h.fp_stats(), h.sp_stats());
            add_to(&mut c, "fp.pkts_rx", fp.pkts_rx);
            add_to(&mut c, "fp.segs_tx", fp.segs_tx);
            add_to(&mut c, "fp.acks_tx", fp.acks_tx);
            add_to(&mut c, "fp.exceptions", fp.exceptions);
            add_to(&mut c, "fp.drop_ooo", fp.drop_ooo);
            add_to(&mut c, "fp.drop_buf_full", fp.drop_buf_full);
            add_to(&mut c, "fp.fast_rexmits", fp.fast_rexmits);
            add_to(&mut c, "fp.timers_armed", fp.timers_armed);
            add_to(&mut c, "sp.established", sp.established);
            add_to(&mut c, "sp.timeout_rexmits", sp.timeout_rexmits);
            add_to(&mut c, "sp.handshake_rexmits", sp.handshake_rexmits);
            add_to(&mut c, "sp.dropped", sp.dropped);
            let reg = h.registry();
            add_to(
                &mut c,
                "tas.drop_backlog",
                reg.counter_value("host.drop_backlog", Scope::Global),
            );
            add_to(
                &mut c,
                "tas.fp_wakes",
                reg.counter_value("host.fp_wakes", Scope::Global),
            );
            let busy = h.fp_busy_cycles().iter().sum::<u64>()
                + h.sp_busy_cycles()
                + h.app_busy_cycles().iter().sum::<u64>();
            add_to(&mut c, "busy_cycles", busy);
            acct.merge(h.account());
        }
        match self {
            SimKind::Rpc64Tas => {
                let h = sim.agent::<TasHost>(net.hosts[0]);
                let app = h.app_as::<EchoServer>();
                c.insert("requests", app.messages);
                c.insert("payload_bytes", app.bytes_in + app.bytes_out);
                c.insert(
                    "server.bytes_delivered",
                    h.registry()
                        .counter_value("app.bytes_delivered", Scope::Global),
                );
                c.insert("established", h.sp_stats().established);
            }
            SimKind::BulkLossTas => {
                let rx = sim.agent::<TasHost>(net.hosts[0]);
                c.insert("payload_bytes", rx.app_as::<BulkReceiver>().total);
                c.insert(
                    "server.bytes_delivered",
                    rx.registry()
                        .counter_value("app.bytes_delivered", Scope::Global),
                );
                c.insert("established", rx.sp_stats().established);
                let tx = sim.agent::<TasHost>(net.hosts[1]);
                c.insert("bulk.bytes_sent", tx.app_as::<BulkSender>().total_sent);
            }
            SimKind::KvLinux => {
                let h = sim.agent::<StackHost>(net.hosts[0]);
                let app = h.app_as::<KvServer>();
                let reqs = app.gets + app.sets;
                let req_len = (kv::REQ_HDR + kv::VAL_SIZE) as u64;
                let resp_len = (kv::RESP_HDR + kv::VAL_SIZE) as u64;
                c.insert("requests", reqs);
                c.insert("payload_bytes", reqs * (req_len + resp_len));
                let reg = h.registry();
                c.insert(
                    "server.bytes_delivered",
                    reg.counter_value("app.bytes_delivered", Scope::Global),
                );
                c.insert(
                    "established",
                    reg.counter_value("host.established", Scope::Global),
                );
                c.insert(
                    "baselines.drop_backlog",
                    reg.counter_value("host.drop_backlog", Scope::Global),
                );
                c.insert(
                    "baselines.batches",
                    reg.counter_value("host.batches", Scope::Global),
                );
                let t = h.tcp_stats();
                c.insert("tcp.segs_in", t.segs_in);
                c.insert("tcp.segs_out", t.segs_out);
                c.insert("tcp.retransmits", t.retransmits);
                c.insert("tcp.fast_retransmits", t.fast_retransmits);
                c.insert("tcp.timeouts", t.timeouts);
                c.insert("busy_cycles", h.busy_cycles().iter().sum());
                acct.merge(h.account());
            }
        }
        for m in Module::ALL {
            let key = match m {
                Module::Driver => "cyc.driver",
                Module::Ip => "cyc.ip",
                Module::Tcp => "cyc.tcp",
                Module::Api => "cyc.api",
                Module::Other => "cyc.other",
                Module::App => "cyc.app",
            };
            c.insert(key, acct.cycles(m));
        }
        let (mut sent, mut done) = (0, 0);
        for &id in self.clients(net) {
            let (s, d) = match self {
                SimKind::KvLinux => {
                    let k = sim.agent::<StackHost>(id).app_as::<OpenKvClient>();
                    *c.entry("client.unsent").or_insert(0) += k.unsent;
                    *c.entry("client.wrong").or_insert(0) += k.wrong;
                    (k.scheduled, k.done)
                }
                _ => {
                    let l = sim.agent::<LoadGenHost>(id);
                    (l.sent, l.done)
                }
            };
            sent += s;
            done += d;
        }
        c.insert("client.sent", sent);
        c.insert("client.done", done);
        c
    }

    /// Telemetry of every host under test, for the fingerprint.
    fn snapshots(self, net: &Net) -> Vec<Snapshot> {
        match self {
            SimKind::KvLinux => net
                .hosts
                .iter()
                .map(|&id| net.sim.agent::<StackHost>(id).telemetry_snapshot())
                .collect(),
            _ => self
                .tas_hosts(net)
                .iter()
                .map(|&id| net.sim.agent::<TasHost>(id).telemetry_snapshot())
                .collect(),
        }
    }

    /// Starts latency recording on the clients at `t`, discarding what
    /// the warm-up recorded.
    fn gate_latency(self, net: &mut Net, t: SimTime) {
        for id in self.clients(net).to_vec() {
            let (gate, hist) = match self {
                SimKind::KvLinux => {
                    let kc = net
                        .sim
                        .agent_mut::<StackHost>(id)
                        .app_as_mut::<OpenKvClient>();
                    kc.lateness = Histogram::new();
                    (&mut kc.measure_from, &mut kc.latency)
                }
                _ => {
                    let lg = net.sim.agent_mut::<LoadGenHost>(id);
                    (&mut lg.measure_from, &mut lg.latency)
                }
            };
            *gate = t;
            *hist = Histogram::new();
        }
    }

    /// Stops the clients from issuing and lets in-flight requests land.
    fn drain(self, net: &mut Net) {
        let now = net.sim.now();
        let clients = self.clients(net).to_vec();
        for &id in &clients {
            match self {
                SimKind::KvLinux => {
                    net.sim
                        .agent_mut::<StackHost>(id)
                        .app_as_mut::<OpenKvClient>()
                        .stop_at = now
                }
                _ => net.sim.agent_mut::<LoadGenHost>(id).set_stop_at(now),
            }
        }
        if !clients.is_empty() {
            net.sim.run_for(DRAIN);
        }
    }

    /// Request latency and, for the open-loop clients, how late each
    /// request left the generator; both merged over the clients.
    fn latency(self, net: &Net) -> (Histogram, Histogram) {
        let (mut lat, mut late) = (Histogram::new(), Histogram::new());
        for &id in self.clients(net) {
            match self {
                SimKind::KvLinux => {
                    let k = net.sim.agent::<StackHost>(id).app_as::<OpenKvClient>();
                    lat.merge(&k.latency);
                    late.merge(&k.lateness);
                }
                _ => lat.merge(&net.sim.agent::<LoadGenHost>(id).latency),
            }
        }
        (lat, late)
    }

    /// Runs the timed part on a warmed `net`, then drains and checks it.
    pub fn run(self, mut net: Net, scale: Scale, tracer: &Option<TracerRef>) -> Outcome {
        let slice = SimTime::from_ns(
            scale.size(self.sim_us_per_s() * scale.seconds) * 1000 / SLICES as u64,
        );
        let t0 = net.sim.now();
        self.gate_latency(&mut net, t0);
        let before = self.counts(&net);
        let mut pkts_seen = before["pkts"];
        let clocked = time_slices(|i| {
            if let Some(t) = tracer {
                t.borrow_mut().begin_slice(i);
            }
            net.sim
                .run_until(t0 + SimTime::from_ps(slice.as_ps() * (i as u64 + 1)));
            if let Some(t) = tracer {
                t.borrow_mut().end_slice();
            }
            // Only the segment counter is read between slices; the full
            // count set is taken once, after the last slice.
            let now = self.pkts(&net);
            let d = now - pkts_seen;
            pkts_seen = now;
            d
        });
        let window = net.sim.now() - t0;
        let total = self.counts(&net);
        let (latency, gen_lateness) = self.latency(&net);
        let qdepth_mean = net
            .sim
            .agent::<Switch>(net.switch)
            .queue_depth_series()
            .mean_between(t0, net.sim.now());
        let delta = counts_delta(&total, &before);

        self.drain(&mut net);
        let end = self.counts(&net);
        let mut fingerprint = FNV_INIT;
        for snap in self.snapshots(&net) {
            fingerprint = fnv(fingerprint, snap.render_text().as_bytes());
        }
        fingerprint = fnv(fingerprint, &net.sim.events_processed().to_le_bytes());
        // Exact to the nanosecond, so a shift in timing that moves no
        // counter still shows.
        for v in [latency.count(), latency.min(), latency.max()] {
            fingerprint = fnv(fingerprint, &v.to_le_bytes());
        }
        fingerprint = fnv(fingerprint, &latency.mean().to_bits().to_le_bytes());

        let mut checks = Checks::default();
        let est = end["established"];
        checks.fail(
            net.conns.abs_diff(est),
            format!("established {est} of {} configured connections", net.conns),
        );
        let backlog = end.get("tas.drop_backlog").copied().unwrap_or(0)
            + end.get("baselines.drop_backlog").copied().unwrap_or(0);
        checks.fail(
            backlog,
            format!("{backlog} packets dropped at a core backlog"),
        );
        let attempted = match self {
            SimKind::BulkLossTas => {
                let (got, sent) = (end["payload_bytes"], end["bulk.bytes_sent"]);
                checks.fail(
                    u64::from(got > sent || got == 0),
                    format!("receiver has {got} B of a {sent} B stream"),
                );
                let counted = end["server.bytes_delivered"];
                checks.fail(
                    u64::from(counted != got),
                    format!("stack delivered {counted} B, application read {got} B"),
                );
                net.conns + end["pkts"]
            }
            _ => {
                let (sent, done) = (end["client.sent"], end["client.done"]);
                checks.fail(
                    sent - done.min(sent),
                    format!(
                        "{} of {sent} requests incomplete after the drain",
                        sent - done
                    ),
                );
                let per_req = match self {
                    SimKind::Rpc64Tas => RPC_SIZE as u64,
                    _ => (kv::REQ_HDR + kv::VAL_SIZE) as u64,
                };
                let (got, want) = (end["server.bytes_delivered"], end["requests"] * per_req);
                checks.fail(
                    u64::from(got != want),
                    format!("server delivered {got} B, requests x size is {want} B"),
                );
                if self == SimKind::KvLinux {
                    self.check_open_loop(&delta, &end, window, scale, &mut checks);
                }
                net.conns + sent
            }
        };
        Outcome {
            clocked,
            delta,
            total,
            sim_window_s: window.as_secs_f64(),
            latency,
            gen_lateness,
            qdepth_mean,
            fp_rx_ns: 0.0,
            fp_rx_ns_p99: 0.0,
            fp_tx_ns: 0.0,
            fingerprint,
            attempted,
            checks,
        }
    }

    /// The open loop offered what was configured, whatever the server
    /// did: arrivals that came due in the timed part are within 1 % of
    /// rate x window (three standard deviations of a Poisson count is
    /// 0.3 % at the pinned size), none found its connection down, and
    /// every response matched its request.
    fn check_open_loop(
        self,
        delta: &Counts,
        end: &Counts,
        window: SimTime,
        scale: Scale,
        checks: &mut Checks,
    ) {
        let rate = scale.size(KV_RATE_PER_SEC) / KV_CLIENTS as u64 * KV_CLIENTS as u64;
        let want = (rate as f64 * window.as_secs_f64()) as u64;
        let due = delta["client.sent"];
        // Smoke-scale windows hold too few arrivals for 1 %.
        let slack = (want / 100).max(4 * (want as f64).sqrt() as u64);
        checks.fail(
            due.abs_diff(want).saturating_sub(slack),
            format!("{due} arrivals came due where rate x window is {want}"),
        );
        let (unsent, wrong) = (end["client.unsent"], end["client.wrong"]);
        checks.fail(unsent, format!("{unsent} arrivals found no connection"));
        checks.fail(
            wrong,
            format!("{wrong} responses did not match their request"),
        );
    }

    /// Segments the system under test has handled so far (rx + tx).
    fn pkts(self, net: &Net) -> u64 {
        match self {
            SimKind::KvLinux => {
                let t = net.sim.agent::<StackHost>(net.hosts[0]).tcp_stats();
                t.segs_in + t.segs_out
            }
            _ => self
                .tas_hosts(net)
                .iter()
                .map(|&id| {
                    let fp = net.sim.agent::<TasHost>(id).fp_stats();
                    fp.pkts_rx + fp.segs_tx + fp.acks_tx
                })
                .sum(),
        }
    }
}
