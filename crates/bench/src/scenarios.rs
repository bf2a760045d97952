//! The report catalogue: every paper figure and table, and every other
//! gated artefact, as one scenario module plus one [`catalogue`] entry.
//!
//! Each module owns its runner, parameters, seeds and `report()`; the
//! human-readable harness in `benches/` prints the module's outcome and
//! the `bench-report` driver ([`crate::gate`]) gates the same report
//! against its pin in `crates/bench/baselines/`, so a baseline pinned
//! from one stays valid for the other.

use crate::report::{Metric, MetricData, Report};
use crate::{
    add_host, app, app_mut, host, make_server, scaled, start_all, testbed_star, uniform_star, Bufs,
    HostCfg, Kind, RpcScenario,
};
use tas::{CcAlgo, TasConfig, TasHost};
use tas_apps::bulk::{BulkReceiver, BulkSender};
use tas_baselines::{profiles, StackHostConfig};
use tas_netsim::app::App;
use tas_netsim::topo::{host_ip, HostSpec};
use tas_netsim::{NetMsg, PortConfig};
use tas_sim::{AgentId, Histogram, Sim, SimTime};

/// TAS as the paper's testbed runs bulk transfers: DCTCP rate control at
/// τ = 200 µs over `buf`-byte socket buffers, 2 fast-path + 2 app cores.
fn bulk_tas(buf: usize, initial_rate_bps: u64) -> TasConfig {
    let mut cfg = TasConfig::rpc_bench(2, 2);
    cfg.rx_buf = buf;
    cfg.tx_buf = buf;
    cfg.cc = CcAlgo::DctcpRate;
    cfg.initial_rate_bps = initial_rate_bps;
    cfg.control_interval = SimTime::from_us(200);
    cfg.max_core_backlog = SimTime::from_ms(50);
    cfg
}

/// The 4-core Linux model with `buf`-byte socket buffers.
fn bulk_linux(buf: usize) -> StackHostConfig {
    let mut cfg = StackHostConfig::linux(4);
    cfg.tcp.recv_buf = buf;
    cfg.tcp.send_buf = buf;
    cfg.max_core_backlog = SimTime::from_ms(50);
    cfg
}

/// The stack a bulk-transfer host runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BulkStack {
    /// Linux model (full SACK-style out-of-order buffering).
    Linux,
    /// TAS; `ooo: false` selects simple go-back-N recovery.
    Tas {
        /// Whether the single out-of-order interval is enabled.
        ooo: bool,
    },
}

impl BulkStack {
    /// TAS as deployed (out-of-order interval on).
    pub const TAS: BulkStack = BulkStack::Tas { ooo: true };

    fn cfg(self, buf: usize, tas_initial_rate_bps: u64) -> HostCfg {
        match self {
            BulkStack::Linux => HostCfg::Model(profiles::linux(), bulk_linux(buf)),
            BulkStack::Tas { ooo } => {
                let mut cfg = bulk_tas(buf, tas_initial_rate_bps);
                cfg.ooo_rx = ooo;
                HostCfg::Tas(cfg)
            }
        }
    }
}

/// A 10G port whose fault injector drops a seeded uniform `loss`
/// fraction of packets (a clean port at 0).
fn lossy_tengig(loss: f64, seed: u64) -> PortConfig {
    let mut port = PortConfig::tengig();
    if loss > 0.0 {
        port.fault = tas_netsim::FaultSpec::uniform_loss(loss, seed);
    }
    port
}

/// The bulk-transfer application of host `index`: host 0 receives on
/// port 9, every other host sends `flows` flows at it.
fn bulk_app(index: u32, flows: u32) -> Box<dyn App> {
    if index == 0 {
        Box::new(BulkReceiver::new(9))
    } else {
        Box::new(BulkSender::new(host_ip(0), 9, flows))
    }
}

/// Bytes the bulk receiver on host `recv` takes in over `window` after
/// `warmup`.
fn bulk_bytes(sim: &mut Sim<NetMsg>, recv: AgentId, warmup: SimTime, window: SimTime) -> u64 {
    sim.run_until(warmup);
    let b0 = app::<BulkReceiver>(sim, recv).total;
    sim.run_until(warmup + window);
    app::<BulkReceiver>(sim, recv).total - b0
}

/// `bytes` delivered over `window` as goodput in bits/s.
fn bits_per_sec(bytes: u64, window: SimTime) -> f64 {
    bytes as f64 * 8.0 / window.as_secs_f64()
}

/// Goodput (bits/s) of the bulk receiver on host `recv` over `window`
/// after `warmup`.
fn bulk_goodput(sim: &mut Sim<NetMsg>, recv: AgentId, warmup: SimTime, window: SimTime) -> f64 {
    bits_per_sec(bulk_bytes(sim, recv, warmup, window), window)
}

/// Figure 6: pipelined RPC throughput for a single-threaded server.
pub mod fig6 {
    use super::*;
    use tas_apps::echo::{EchoServer, RpcClient, ServerMode, SinkClient};

    /// Data direction at the server.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum Dir {
        /// Clients stream requests at the server (receive-bound).
        Rx,
        /// The server streams responses at sink clients (transmit-bound).
        Tx,
    }

    /// Builds the fig6 star: one single-threaded server, 4 client hosts
    /// with 25 connections each.
    fn build(
        kind: Kind,
        dir: Dir,
        size: usize,
        delay_cycles: u64,
        seed: u64,
    ) -> (Sim<NetMsg>, Vec<AgentId>) {
        let mut sim: Sim<NetMsg> = Sim::new(seed);
        let server_ip = host_ip(0);
        let clients = 4usize;
        let conns_per_client = 25u32; // 100 connections total, as the paper.
        let bufs = Bufs {
            rx: (size * 16).max(8192),
            tx: (size * 16).max(8192),
        };
        let mut factory = move |sim: &mut Sim<NetMsg>, spec: HostSpec| -> AgentId {
            if spec.index == 0 {
                let mode = match dir {
                    Dir::Rx => ServerMode::Consume,
                    Dir::Tx => ServerMode::Stream { size },
                };
                let app: Box<dyn App> = Box::new(EchoServer::new(7, size, mode, delay_cycles));
                // Single-threaded server: exactly one application core. TAS
                // adds fast-path cores beside it; mTCP adds a dedicated stack
                // core (as the paper observes it must); Linux runs stack and
                // app on the single core.
                let cores = match kind {
                    Kind::TasSockets | Kind::TasLowLevel => (2, 1),
                    Kind::Mtcp => (1, 1), // 2 total: 1 stack + 1 app.
                    _ => (1, 0),          // 1 total.
                };
                make_server(sim, spec, kind, cores, bufs, app)
            } else {
                let app: Box<dyn App> = match dir {
                    Dir::Rx => {
                        let mut c = RpcClient::new(
                            server_ip,
                            7,
                            conns_per_client,
                            16,
                            size,
                            tas_apps::echo::Lifetime::Persistent,
                        );
                        c.expect_reply = false; // Stream requests at the server.
                        Box::new(c)
                    }
                    Dir::Tx => Box::new(SinkClient::new(server_ip, 7, conns_per_client)),
                };
                // Clients always run on TAS (never the bottleneck).
                make_server(sim, spec, Kind::TasSockets, (2, 2), bufs, app)
            }
        };
        let topo = testbed_star(&mut sim, 1 + clients, &mut factory);
        start_all(&mut sim, &topo.hosts);
        (sim, topo.hosts)
    }

    fn server_bytes(sim: &Sim<NetMsg>, id: AgentId, dir: Dir) -> u64 {
        let a = app::<EchoServer>(sim, id);
        if dir == Dir::Rx {
            a.bytes_in
        } else {
            a.bytes_out
        }
    }

    /// Runs the scenario; returns server-side goodput in Gbps.
    pub fn run(kind: Kind, dir: Dir, size: usize, delay_cycles: u64, seed: u64) -> f64 {
        let (mut sim, hosts) = build(kind, dir, size, delay_cycles, seed);
        let warmup = SimTime::from_ms(20);
        let window = scaled(SimTime::from_ms(15), SimTime::from_ms(60));
        sim.run_until(warmup);
        let b0 = server_bytes(&sim, hosts[0], dir);
        sim.run_until(warmup + window);
        let b1 = server_bytes(&sim, hosts[0], dir);
        (b1 - b0) as f64 * 8.0 / window.as_secs_f64() / 1e9
    }

    /// The gated report: TAS vs Linux goodput for the small- and
    /// large-message corners at 250 cycles/message.
    pub fn report() -> Report {
        let mut r = Report::new(
            "fig6",
            "Pipelined RPC throughput, single-threaded server",
            1,
        );
        r.param("clients", 4).param("conns", 100).param("delay_cycles", 250);
        for (dir, dname) in [(Dir::Rx, "rx"), (Dir::Tx, "tx")] {
            for size in [64usize, 2048] {
                let t = run(Kind::TasSockets, dir, size, 250, 1);
                let l = run(Kind::Linux, dir, size, 250, 3);
                r.push(Metric::value(&format!("{dname}_{size}b_tas"), "gbps", t));
                r.push(Metric::value(&format!("{dname}_{size}b_linux"), "gbps", l));
            }
        }
        r
    }

    /// The per-stage latency observatory on the canonical fig6 RX run
    /// (TAS server, 64 B messages, 250 cycles, seed 1): traces a 5 ms
    /// steady-state slice after warmup and assembles app-to-app spans.
    #[cfg(feature = "telemetry")]
    pub fn span_analysis(cap: usize) -> SpanAnalysis {
        let (mut sim, _hosts) = build(Kind::TasSockets, Dir::Rx, 64, 250, 1);
        sim.run_until(SimTime::from_ms(20));
        tas_telemetry::start(cap);
        sim.run_until(SimTime::from_ms(25));
        tas_telemetry::stop();
        let evicted = tas_telemetry::evicted();
        let records = tas_telemetry::take();
        let spans = tas_telemetry::spans::assemble(&records, evicted);
        let breakdown = tas_telemetry::spans::breakdown(&spans);
        SpanAnalysis { spans, breakdown }
    }

    /// The assembled span population for the canonical run.
    #[cfg(feature = "telemetry")]
    pub struct SpanAnalysis {
        /// The assembled spans.
        pub spans: Vec<tas_telemetry::spans::Span>,
        /// Per-stage histograms over the complete spans.
        pub breakdown: tas_telemetry::spans::Breakdown,
    }

    /// Span-profile report (telemetry builds only): e2e quantiles plus p50
    /// and p99 critical-path stage breakdowns with queueing/processing
    /// shares.
    #[cfg(feature = "telemetry")]
    pub fn spans_report() -> Report {
        let a = span_analysis(1 << 20);
        let b = &a.breakdown;
        let mut r = Report::new("fig6spans", "Per-stage latency spans, fig6 RX canonical run", 1);
        r.param("dir", "rx").param("size", 64).param("window_ms", 5);
        r.push(Metric::value("spans_complete", "count", b.complete as f64));
        r.push(Metric::value("spans_truncated", "count", b.truncated as f64));
        r.push(Metric::quantiles("e2e", "ns", &b.e2e));
        for q in [0.5f64, 0.99] {
            if let Some(cp) = tas_telemetry::spans::critical_path(&a.spans, q) {
                let tag = if q == 0.5 { "p50" } else { "p99" };
                let mut m = Metric::value(&format!("critical_path_{tag}"), "ns", cp.e2e_ns as f64);
                for d in &cp.stages {
                    m = m
                        .with_component(&format!("{}_queue", d.stage.name()), d.queue_ns as f64)
                        .with_component(&format!("{}_proc", d.stage.name()), d.proc_ns as f64);
                }
                m = m.with_component("queue_share", cp.queue_share());
                r.push(m);
            }
        }
        r
    }
}

/// Figure 7: throughput penalty under induced packet loss.
pub mod fig7 {
    use super::*;

    pub use super::BulkStack as Stack;

    fn window() -> SimTime {
        scaled(SimTime::from_ms(100), SimTime::from_ms(300))
    }

    /// Runs 100 bulk flows over a lossy 10G link; returns the bytes the
    /// receiver took in over the measurement window.
    pub fn delivered(stack: Stack, loss: f64, seed: u64) -> u64 {
        let mut sim: Sim<NetMsg> = Sim::new(seed);
        let flows = 100; // The paper's flow count (loss dynamics depend on it).
        let mut factory = move |sim: &mut Sim<NetMsg>, spec: HostSpec| -> AgentId {
            let mut cfg = stack.cfg(128 * 1024, 500_000_000);
            if let HostCfg::Model(_, linux) = &mut cfg {
                linux.tcp.rto_min = SimTime::from_ms(2);
            }
            let app = bulk_app(spec.index, flows);
            add_host(sim, spec, cfg, app)
        };
        let topo = uniform_star(&mut sim, 2, lossy_tengig(loss, seed), &mut factory);
        start_all(&mut sim, &topo.hosts);
        bulk_bytes(&mut sim, topo.hosts[0], SimTime::from_ms(50), window())
    }

    /// Receiver goodput of [`delivered`] in bits/s.
    pub fn goodput(stack: Stack, loss: f64, seed: u64) -> f64 {
        bits_per_sec(delivered(stack, loss, seed), window())
    }

    /// The gated report: lossless goodput plus the throughput penalty at
    /// 1% loss, for Linux and both TAS recovery modes, each after the
    /// exact byte counts it is derived from (Gbps to six decimals resolves
    /// 12.5 bytes over the quick window; the counts pin every byte).
    pub fn report() -> Report {
        let mut r = Report::new("fig7", "Throughput penalty under 1% packet loss", 100);
        r.param("flows", 100).param("loss", "0.01");
        let runs = [
            ("linux", Stack::Linux, 100u64),
            ("tas", Stack::Tas { ooo: true }, 101),
            ("tas_simple", Stack::Tas { ooo: false }, 102),
        ];
        for (name, stack, seed) in runs {
            let bytes = delivered(stack, 0.0, seed);
            let bytes_lossy = delivered(stack, 0.01, seed);
            r.push(Metric::value(
                &format!("bytes_{name}"),
                "bytes",
                bytes as f64,
            ));
            r.push(Metric::value(
                &format!("bytes_lossy_{name}"),
                "bytes",
                bytes_lossy as f64,
            ));
            let base = bits_per_sec(bytes, window());
            let lossy = bits_per_sec(bytes_lossy, window());
            let penalty = 100.0 * (1.0 - lossy / base).max(0.0);
            r.push(Metric::value(&format!("goodput_{name}"), "gbps", base / 1e9));
            r.push(
                Metric::value(&format!("penalty_{name}"), "percent_penalty", penalty)
                    // Loss penalties are small percentages; allow slack in
                    // absolute terms via a generous relative tolerance.
                    .with_tol(0.50),
            );
        }
        r
    }
}

/// Figure 9 + Table 5: key-value request latency distributions.
pub mod fig9 {
    use super::*;
    use tas_apps::kv::{KvClient, KvLoad, KvServer};

    /// Runs the KV latency scenario; returns the merged client latency
    /// histogram (ns).
    pub fn run(server: Kind, client: Kind, seed: u64) -> Histogram {
        run_on(
            |sim, spec, app| make_server(sim, spec, server, (1, 1), Bufs::small(), app),
            client,
            seed,
        )
    }

    /// [`run`] with the server host built by `add_server` (the
    /// design-space sweeps place hand-configured stacks there).
    pub fn run_on(
        mut add_server: impl FnMut(&mut Sim<NetMsg>, HostSpec, Box<dyn App>) -> AgentId,
        client: Kind,
        seed: u64,
    ) -> Histogram {
        let mut sim: Sim<NetMsg> = Sim::new(seed);
        let server_ip = host_ip(0);
        let clients = 2usize;
        // 15% of the ~1.5 mOps single-app-core capacity.
        let rate_per_client = scaled(60_000, 110_000);
        let conns_per_client = scaled(32, 128);
        let mut factory = move |sim: &mut Sim<NetMsg>, spec: HostSpec| -> AgentId {
            if spec.index == 0 {
                add_server(sim, spec, Box::new(KvServer::new(7)))
            } else {
                let app: Box<dyn App> = Box::new(KvClient::new(
                    server_ip,
                    7,
                    conns_per_client,
                    100_000,
                    KvLoad::OpenRate {
                        per_sec: rate_per_client,
                    },
                    seed + spec.index as u64,
                ));
                make_server(sim, spec, client, (2, 2), Bufs::small(), app)
            }
        };
        let topo = testbed_star(&mut sim, 1 + clients, &mut factory);
        start_all(&mut sim, &topo.hosts);
        let warmup = SimTime::from_ms(20);
        let window = scaled(SimTime::from_ms(60), SimTime::from_ms(300));
        sim.run_until(warmup);
        for &h in &topo.hosts[1..] {
            app_mut::<KvClient>(&mut sim, h).measure_from = warmup;
        }
        sim.run_until(warmup + window);
        let mut hist = Histogram::new();
        for &h in &topo.hosts[1..] {
            hist.merge(&app::<KvClient>(&sim, h).latency);
        }
        hist
    }

    /// The gated report: latency quantiles for TAS/TAS and Linux/TAS.
    pub fn report() -> Report {
        let mut r = Report::new("fig9", "KV request latency, 15% utilization", 1);
        r.param("clients", 2);
        let tas = run(Kind::TasSockets, Kind::TasSockets, 1);
        let linux = run(Kind::Linux, Kind::TasSockets, 3);
        r.push(Metric::quantiles("latency_tas_tas", "ns", &tas));
        r.push(Metric::quantiles("latency_linux_tas", "ns", &linux));
        r.push(Metric::value("requests_tas_tas", "count", tas.count() as f64));
        r
    }
}

/// Figure 14: workload proportionality under stepped load.
pub mod fig14 {
    use super::*;
    use tas::host::timers as tas_timers;
    use tas::ApiKind;
    use tas_apps::kv::KvServer;
    use tas_apps::loadgen::{timers as lg_timers, LoadGenConfig, LoadGenHost};

    /// Builds the proportionality scenario; returns (sim, server, clients).
    pub fn build(seed: u64, step: SimTime, clients: usize) -> (Sim<NetMsg>, AgentId, Vec<AgentId>) {
        let mut sim: Sim<NetMsg> = Sim::new(seed);
        let server_ip = host_ip(0);
        let mut factory = move |sim: &mut Sim<NetMsg>, spec: HostSpec| -> AgentId {
            if spec.index == 0 {
                // Reduced clock so modest load exercises many cores.
                let cfg = TasConfig {
                    freq_hz: 50_000_000,
                    max_fp_cores: 10,
                    initial_fp_cores: 1,
                    app_cores: 10,
                    api: ApiKind::Sockets,
                    cc: CcAlgo::None,
                    rx_buf: 4096,
                    tx_buf: 4096,
                    proportional: true,
                    max_core_backlog: SimTime::from_ms(50),
                    ..TasConfig::default()
                };
                add_host(sim, spec, HostCfg::Tas(cfg), Box::new(KvServer::new(7)))
            } else {
                let mut template = vec![0u8; tas_apps::kv::REQ_HDR + tas_apps::kv::VAL_SIZE];
                template[0] = tas_apps::kv::OP_GET;
                template[1..5].copy_from_slice(&1u32.to_be_bytes());
                let cfg = LoadGenConfig {
                    server: server_ip,
                    port: 7,
                    conns: 80,
                    think: SimTime::from_ms(1),
                    req_size: template.len(),
                    resp_size: tas_apps::kv::RESP_HDR + tas_apps::kv::VAL_SIZE,
                    req_template: Some(template),
                    // Each client stops issuing when its down-step arrives.
                    stop_at: SimTime::ZERO,
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
        let topo = testbed_star(&mut sim, 1 + clients, &mut factory);
        sim.inject_timer(SimTime::ZERO, topo.hosts[0], tas_timers::INIT, 0);
        // Staggered starts; mirrored stops.
        let total = step * (2 * clients as u64 + 1);
        for (i, &h) in topo.hosts[1..].iter().enumerate() {
            let start = step * i as u64;
            let stop = total - step * (i as u64 + 1);
            sim.inject_timer(start, h, lg_timers::INIT, 0);
            sim.agent_mut::<LoadGenHost>(h).set_stop_at(stop);
        }
        (sim, topo.hosts[0], topo.hosts[1..].to_vec())
    }

    /// One sampled row of the load staircase.
    pub struct Row {
        /// Sample time, ms.
        pub t_ms: u64,
        /// Active fast-path cores.
        pub cores: usize,
        /// Completed requests per second over the sample, in thousands.
        pub kops: f64,
        /// Clients currently issuing load.
        pub active_clients: usize,
    }

    /// The full staircase run's observables.
    pub struct Outcome {
        /// Per-sample rows.
        pub rows: Vec<Row>,
        /// Peak concurrent fast-path cores.
        pub max_cores: usize,
        /// Fast-path cores after the last down-step.
        pub final_cores: usize,
        /// Controller add/remove events.
        pub scale_events: u64,
        /// Mean of the controller's sampled per-core utilization series.
        pub mean_util: f64,
        /// Samples captured by the host's queue-depth recorder.
        pub series_samples: usize,
    }

    /// Runs the canonical staircase (seed 42, 5 clients) and samples
    /// cores/throughput each `sample` interval.
    pub fn run(seed: u64, step: SimTime, clients: usize, sample: SimTime) -> Outcome {
        let (mut sim, server, client_ids) = build(seed, step, clients);
        let total = step * (2 * clients as u64 + 1);
        let mut rows = Vec::new();
        let mut t = SimTime::ZERO;
        let mut prev_done = 0u64;
        let mut max_cores = 0usize;
        while t < total {
            t += sample;
            sim.run_until(t);
            let done: u64 = client_ids
                .iter()
                .map(|&c| sim.agent::<LoadGenHost>(c).done)
                .sum();
            let cores = sim.agent::<TasHost>(server).active_fp_cores();
            max_cores = max_cores.max(cores);
            let kops = (done - prev_done) as f64 / sample.as_secs_f64() / 1e3;
            let active_clients = client_ids
                .iter()
                .enumerate()
                .filter(|(i, _)| {
                    let start = step * *i as u64;
                    let stop = total - step * (*i as u64 + 1);
                    t > start && t < stop
                })
                .count();
            rows.push(Row {
                t_ms: t.as_millis(),
                cores,
                kops,
                active_clients,
            });
            prev_done = done;
        }
        let host = sim.agent::<TasHost>(server);
        let utils = host.util_series();
        let mean_util = if utils.is_empty() {
            0.0
        } else {
            utils.samples().iter().map(|&(_, v)| v).sum::<f64>() / utils.len() as f64
        };
        let series_samples = host
            .queue_series()
            .series("cores.active_fp")
            .map(|s| s.len())
            .unwrap_or(0);
        Outcome {
            rows,
            max_cores,
            final_cores: host.active_fp_cores(),
            scale_events: host
                .registry()
                .counter_value("host.scale_events", tas_sim::Scope::Global),
            mean_util,
            series_samples,
        }
    }

    /// The canonical staircase parameters: (step, sample interval).
    pub fn canonical_params() -> (SimTime, SimTime) {
        (
            scaled(SimTime::from_ms(400), SimTime::from_secs(2)),
            SimTime::from_ms(scaled(100, 500)),
        )
    }

    /// The gated report for the canonical staircase.
    pub fn report() -> Report {
        let (step, sample) = canonical_params();
        report_from(&run(42, step, 5, sample), step)
    }

    /// Builds the report from an already-computed canonical run.
    pub fn report_from(o: &Outcome, step: SimTime) -> Report {
        let peak_kops = o.rows.iter().map(|r| r.kops).fold(0.0f64, f64::max);
        let mut r = Report::new("fig14", "Workload proportionality: cores track stepped load", 42);
        r.param("clients", 5).param("step_ms", step.as_millis());
        r.push(Metric::value("peak_kops", "kops", peak_kops));
        r.push(Metric::value("peak_cores", "cores", o.max_cores as f64));
        r.push(Metric::value("final_cores", "cores", o.final_cores as f64));
        r.push(Metric::value("scale_events", "count", o.scale_events as f64));
        r.push(Metric::value("mean_core_util", "fraction", o.mean_util));
        r.push(Metric::value("series_samples", "count", o.series_samples as f64));
        r
    }
}

/// Figure 15: request latency across fast-path core additions.
pub mod fig15 {
    use super::*;
    use tas_apps::loadgen::LoadGenHost;

    /// One latency/core sample.
    pub struct Row {
        /// Sample time, ms.
        pub t_ms: u64,
        /// Active fast-path cores.
        pub cores: usize,
        /// Mean request latency over the sample window, µs (0 when idle).
        pub mean_lat_us: f64,
    }

    /// The scaling-latency run's observables.
    pub struct Outcome {
        /// Per-sample rows.
        pub rows: Vec<Row>,
        /// Transient spikes: samples whose mean latency jumped >25% over
        /// the previous non-idle sample.
        pub spikes: u32,
        /// Controller add/remove events.
        pub scale_events: u64,
        /// Steady-state latency (µs): mean over the pre-step samples.
        pub steady_lat_us: f64,
        /// Worst sampled mean latency (µs).
        pub peak_lat_us: f64,
    }

    /// Runs the canonical core-acquisition scenario (seed 7, 3 staggered
    /// clients) sampling windowed latency at fine granularity.
    pub fn run(seed: u64, clients: usize, step: SimTime, sample: SimTime) -> Outcome {
        // Same reduced-clock proportional server as fig14, but clients
        // only arrive (no down-steps): build with a large stop time.
        let (mut sim, server, client_ids) = super::fig14::build(seed, step, clients);
        // fig14::build staggers stops; clear them (ZERO = never stop) so
        // the load only steps up, as the paper's fig15 does.
        let total = step * (clients as u64 + 1);
        for &h in &client_ids {
            sim.agent_mut::<LoadGenHost>(h).set_stop_at(SimTime::ZERO);
        }
        let mut rows = Vec::new();
        let mut t = SimTime::ZERO;
        let mut spikes = 0u32;
        let mut prev_lat = 0.0f64;
        let mut peak = 0.0f64;
        while t < total {
            t += sample;
            sim.run_until(t);
            let mut lat = 0.0;
            let mut n = 0u64;
            for &c in &client_ids {
                let lg = sim.agent_mut::<LoadGenHost>(c);
                if lg.window_lat_us.count() > 0 {
                    lat += lg.window_lat_us.mean() * lg.window_lat_us.count() as f64;
                    n += lg.window_lat_us.count();
                }
                lg.reset_window();
            }
            let mean = if n > 0 { lat / n as f64 } else { 0.0 };
            let cores = sim.agent::<TasHost>(server).active_fp_cores();
            if prev_lat > 0.0 && mean > prev_lat * 1.25 {
                spikes += 1;
            }
            if mean > 0.0 {
                prev_lat = mean;
                peak = peak.max(mean);
            }
            rows.push(Row {
                t_ms: t.as_millis(),
                cores,
                mean_lat_us: mean,
            });
        }
        // Steady state: non-idle samples before the second client arrives.
        let pre: Vec<f64> = rows
            .iter()
            .filter(|r| r.t_ms < step.as_millis() && r.mean_lat_us > 0.0)
            .map(|r| r.mean_lat_us)
            .collect();
        let steady = if pre.is_empty() {
            0.0
        } else {
            pre.iter().sum::<f64>() / pre.len() as f64
        };
        let scale_events = host(&sim, server)
            .registry()
            .counter_value("host.scale_events", tas_sim::Scope::Global);
        Outcome {
            rows,
            spikes,
            scale_events,
            steady_lat_us: steady,
            peak_lat_us: peak,
        }
    }

    /// The canonical sampling interval.
    pub fn canonical_sample() -> SimTime {
        SimTime::from_ms(scaled(10, 5))
    }

    /// The gated report for the canonical core-acquisition run.
    pub fn report() -> Report {
        report_from(&run(7, 3, SimTime::from_ms(300), canonical_sample()))
    }

    /// Builds the report from an already-computed canonical run.
    pub fn report_from(o: &Outcome) -> Report {
        let mut r = Report::new("fig15", "Request latency across fast-path core additions", 7);
        r.param("clients", 3).param("step_ms", 300);
        r.push(Metric::value("steady_lat_us", "us", o.steady_lat_us).with_tol(0.25));
        // The transient peak is inherently spiky; report informationally.
        r.push(Metric::value("peak_lat_us", "us_info", o.peak_lat_us));
        r.push(Metric::value("spikes", "count", o.spikes as f64));
        r.push(Metric::value("scale_events", "count", o.scale_events as f64));
        r
    }
}

/// Figure 4: connection scalability on a 20-core server.
pub mod fig4 {
    use super::*;

    /// Runs the RPC echo scenario at `conns` connections; returns mOps.
    pub fn measure(kind: Kind, conns: u32) -> f64 {
        let mut sc = RpcScenario::echo(kind, (10, 10), conns);
        sc.warmup = scaled(SimTime::from_ms(15), SimTime::from_ms(50));
        sc.measure = scaled(SimTime::from_ms(10), SimTime::from_ms(50));
        sc.seed = 42 + conns as u64;
        crate::run_rpc(&sc).mops
    }

    /// The gated report: throughput at the low and high connection-count
    /// corners for each stack.
    pub fn report() -> Report {
        let mut r = Report::new("fig4", "RPC echo throughput vs. connection count", 42);
        r.param("cores", 20);
        for (kname, kind) in [
            ("tas", Kind::TasSockets),
            ("ix", Kind::Ix),
            ("linux", Kind::Linux),
        ] {
            for conns in [1_000u32, 16_000] {
                let mops = measure(kind, conns);
                r.push(Metric::value(&format!("{kname}_{conns}c"), "mops", mops));
            }
        }
        r
    }
}

/// Table 1: CPU cycles per request by stack module.
pub mod table1 {
    use super::*;
    use tas_cpusim::Module;

    /// The canonical cycle-accounting scenario for one stack. Table 1,
    /// Table 2, and the `cpuprof` observatory all run exactly this
    /// shape, so every cycles-per-request number traces to one source.
    pub fn scenario(kind: Kind) -> RpcScenario {
        let conns = scaled(2_000, 32_000);
        let mut sc = RpcScenario::kv(kind, (4, 4), conns);
        sc.warmup = scaled(SimTime::from_ms(20), SimTime::from_ms(100));
        sc.measure = scaled(SimTime::from_ms(15), SimTime::from_ms(100));
        sc
    }

    /// Runs the KV cycle-accounting scenario for one stack.
    pub fn measure(kind: Kind) -> crate::RpcResult {
        crate::run_rpc(&scenario(kind))
    }

    /// The gated report: total cycles/request per stack with the
    /// per-module breakdown.
    pub fn report() -> Report {
        let mut r = Report::new("table1", "Cycles per request by network stack module", 0);
        r.param("conns", scaled(2_000, 32_000)).param("cores", 8);
        for (kname, kind) in [
            ("linux", Kind::Linux),
            ("ix", Kind::Ix),
            ("tas", Kind::TasSockets),
        ] {
            let p = measure(kind).per_request;
            r.push(cycles_metric(&format!("cycles_{kname}"), &p));
        }
        r
    }

    /// Total cycles/request as a metric with the per-module breakdown.
    pub fn cycles_metric(name: &str, p: &crate::PerRequest) -> Metric {
        let total = Metric::value(name, "cycles", p.total_cycles());
        Module::ALL.iter().fold(total, |m, &module| {
            let component = format!("{module:?}").to_lowercase();
            m.with_component(&component, p.cycles[module as usize])
        })
    }
}

/// Figure 13: per-connection fairness under incast — N senders to one
/// receiver at line rate, sweeping total connections.
pub mod fig13 {
    use super::*;

    /// Sender hosts incasting the single receiver (the paper's 4 -> 1).
    pub const SENDERS: usize = 4;
    /// Canonical seed for the TAS runs (and the report).
    pub const TAS_SEED: u64 = 31;
    /// Canonical seed for the Linux runs.
    pub const LINUX_SEED: u64 = 32;

    /// Connection-count sweep (quick / paper scale).
    pub fn conn_counts() -> Vec<u32> {
        scaled(vec![50, 200, 1000], vec![50, 100, 200, 500, 1000, 2000])
    }

    /// One sweep point: (median, p99, fair share) of per-connection
    /// bytes received per sampling interval.
    pub fn run(stack: BulkStack, conns_total: u32, seed: u64) -> (f64, f64, f64) {
        let mut sim: Sim<NetMsg> = Sim::new(seed);
        let per_sender = conns_total / SENDERS as u32;
        let recv_ip = host_ip(0);
        let interval = SimTime::from_ms(scaled(20, 100));
        let warmup = SimTime::from_ms(40);
        let mut factory = move |sim: &mut Sim<NetMsg>, spec: HostSpec| -> AgentId {
            let app: Box<dyn App> = if spec.index == 0 {
                Box::new(BulkReceiver::new(9).sampling(interval, warmup))
            } else {
                Box::new(BulkSender::new(recv_ip, 9, per_sender))
            };
            add_host(sim, spec, stack.cfg(64 * 1024, 200_000_000), app)
        };
        let topo = uniform_star(&mut sim, 1 + SENDERS, PortConfig::tengig(), &mut factory);
        start_all(&mut sim, &topo.hosts);
        let window = scaled(SimTime::from_ms(200), SimTime::from_secs(1));
        sim.run_until(warmup + window);
        let mut samples = app::<BulkReceiver>(&sim, topo.hosts[0])
            .interval_samples
            .clone();
        samples.sort_unstable();
        if samples.is_empty() {
            return (0.0, 0.0, 0.0);
        }
        let median = samples[samples.len() / 2] as f64;
        let idx = ((samples.len() as f64 * 0.99) as usize).min(samples.len() - 1);
        let p99 = samples[idx] as f64;
        // Fair share: payload line rate over the interval / connections.
        let fair = 9.4e9 / 8.0 * interval.as_secs_f64() / conns_total as f64;
        (median, p99, fair)
    }

    /// One row of the sweep, for the harness table and the report.
    #[derive(Clone, Copy, Debug)]
    pub struct Row {
        /// Total connections across the senders.
        pub conns: u32,
        /// TAS median bytes per interval per connection.
        pub tas_median: f64,
        /// TAS p99 bytes per interval per connection.
        pub tas_p99: f64,
        /// Linux median bytes per interval per connection.
        pub linux_median: f64,
        /// Fair share bytes per interval per connection.
        pub fair: f64,
    }

    /// Runs the full sweep on both stacks.
    pub fn sweep() -> Vec<Row> {
        conn_counts()
            .into_iter()
            .map(|n| {
                let (tm, tp, fair) = run(BulkStack::TAS, n, TAS_SEED);
                let (lm, _, _) = run(BulkStack::Linux, n, LINUX_SEED);
                Row {
                    conns: n,
                    tas_median: tm,
                    tas_p99: tp,
                    linux_median: lm,
                    fair,
                }
            })
            .collect()
    }

    /// Builds the gated report from sweep rows.
    pub fn report_from(rows: &[Row]) -> Report {
        let mut r = Report::new(
            "fig13",
            "Incast per-connection fairness (4 -> 1)",
            TAS_SEED,
        );
        r.param("senders", SENDERS);
        for row in rows {
            let n = row.conns;
            // Components in key order so the written report round-trips
            // byte-identically through from_json (which sorts keys).
            r.push(
                Metric::value(&format!("tas_{n}c_median"), "bytes", row.tas_median)
                    .with_component("fair_share", row.fair)
                    .with_component("p99", row.tas_p99),
            );
            r.push(Metric::value(
                &format!("linux_{n}c_median"),
                "bytes",
                row.linux_median,
            ));
        }
        r
    }
}

/// Table 3: per-flow fast-path state.
pub mod table3 {
    use super::*;

    /// The (static) report: per-flow state bytes and 2 MB-cache capacity.
    pub fn report() -> Report {
        let mut r = Report::new("table3", "Per-flow fast-path state", 0);
        let bytes = tas::FLOW_STATE_BYTES;
        r.push(Metric::value("flow_state", "bytes", bytes as f64));
        r.push(Metric::value(
            "flows_per_2mb_cache",
            "count",
            ((2u64 << 20) / bytes) as f64,
        ));
        r
    }
}

/// The cycle observatory: attribution-exact per-core profiles of the
/// Table 1 KV scenario for TAS and the Linux model. Emits the gated
/// `BENCH_cpuprof.json` (cycles/request and cycles/packet with
/// per-module and top-of-stack breakdowns, p50/p99 per-core
/// utilization) plus the folded flamegraph export.
#[cfg(feature = "telemetry")]
pub mod cpuprof {
    use super::*;
    use crate::ProfileCapture;

    /// Stacks the observatory profiles. The two design-space models ride
    /// along so their `boundary/*` frames (WRPKRU activations, PCIe
    /// doorbells) show up in the flamegraphs next to the stacks they
    /// interpolate between.
    pub fn stacks() -> [(&'static str, Kind); 4] {
        [
            ("tas", Kind::TasSockets),
            ("linux", Kind::Linux),
            ("mpk", Kind::Mpk),
            ("pno", Kind::Pno),
        ]
    }

    /// Runs the Table 1 scenario for `kind` with attribution enabled.
    pub fn measure(kind: Kind) -> ProfileCapture {
        let mut sc = table1::scenario(kind);
        sc.profile = true;
        let cap = crate::run_rpc(&sc).profile.expect("profile capture");
        // Attribution exactness: the tree must account for every busy
        // cycle of the measurement window.
        assert_eq!(
            cap.profile.total_cycles(),
            cap.busy_total(),
            "{}: profile must conserve busy cycles",
            kind.label()
        );
        cap
    }

    /// Percentile of pre-sorted samples (nearest-rank, deterministic).
    fn pctl(sorted: &[f64], q: f64) -> f64 {
        if sorted.is_empty() {
            return 0.0;
        }
        let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
        sorted[idx.min(sorted.len() - 1)]
    }

    /// The report and the folded flamegraph export from one sweep. The
    /// folded lines are the per-stack [`tas_telemetry::profile::Profile::folded`]
    /// outputs with the stack name prefixed onto each core label.
    pub fn report_and_folded() -> (Report, String) {
        let mut r = Report::new(
            "cpuprof",
            "Cycle observatory: per-core attribution profile (KV store)",
            42,
        );
        r.param("conns", scaled(2_000, 32_000)).param("cores", 8);
        let mut folded = String::new();
        for (name, kind) in stacks() {
            let cap = measure(kind);
            let reqs = cap.requests.max(1) as f64;
            let mut per_req = Metric::value(
                &format!("cycles_per_req_{name}"),
                "cycles",
                cap.cycles_per_request(),
            )
            .with_tol(0.10);
            for (module, cycles) in cap.profile.rollup_depth1() {
                per_req = per_req.with_component(&module, cycles as f64 / reqs);
            }
            r.push(per_req);
            let mut per_pkt = Metric::value(
                &format!("cycles_per_pkt_{name}"),
                "cycles",
                cap.cycles_per_packet(),
            )
            .with_tol(0.10);
            let mut flat: Vec<(String, u64)> = cap.profile.flat_self().into_iter().collect();
            flat.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            for (frame, cycles) in flat.iter().take(6) {
                per_pkt =
                    per_pkt.with_component(frame, *cycles as f64 / cap.packets.max(1) as f64);
            }
            r.push(per_pkt);
            for (label, samples) in &cap.core_util {
                let mut s = samples.clone();
                s.sort_by(f64::total_cmp);
                r.push(
                    Metric::value(&format!("util_{name}_{label}_p50"), "ratio", pctl(&s, 0.50))
                        .with_component("p99", pctl(&s, 0.99)),
                );
            }
            for line in cap.profile.folded().lines() {
                folded.push_str(name);
                folded.push('.');
                folded.push_str(line);
                folded.push('\n');
            }
        }
        (r, folded)
    }
}

/// Table 4: sender/receiver compatibility — 100 bulk flows over a 10G
/// link for every Linux/TAS combination (paper: 9.4 Gbps in all four).
pub mod table4 {
    use super::*;

    /// The four sender/receiver cells with their pinned seeds.
    pub fn cells() -> [(&'static str, BulkStack, &'static str, BulkStack, u64); 4] {
        let (l, t) = (BulkStack::Linux, BulkStack::TAS);
        [
            ("linux", l, "linux", l, 1),
            ("linux", l, "tas", t, 2),
            ("tas", t, "linux", l, 3),
            ("tas", t, "tas", t, 4),
        ]
    }

    /// Goodput of the bulk-transfer scenario: `scaled(50,100)` flows from
    /// one sending machine to one receiving machine, both on 10G.
    pub fn goodput_gbps(sender: BulkStack, receiver: BulkStack, seed: u64) -> f64 {
        let mut sim: Sim<NetMsg> = Sim::new(seed);
        let flows = scaled(50, 100);
        let mut factory = move |sim: &mut Sim<NetMsg>, spec: HostSpec| -> AgentId {
            let stack = if spec.index == 0 { receiver } else { sender };
            // Both stacks run DCTCP, as the paper's testbed does.
            let cfg = stack.cfg(256 * 1024, 500_000_000);
            let app = bulk_app(spec.index, flows);
            add_host(sim, spec, cfg, app)
        };
        let topo = uniform_star(&mut sim, 2, PortConfig::tengig(), &mut factory);
        start_all(&mut sim, &topo.hosts);
        let window = scaled(SimTime::from_ms(30), SimTime::from_ms(100));
        bulk_goodput(&mut sim, topo.hosts[0], SimTime::from_ms(20), window)
    }

    /// The gated report: goodput for all four cells.
    pub fn report() -> Report {
        let mut r = Report::new("table4", "Linux/TAS sender-receiver compatibility", 1);
        r.param("flows", scaled(50, 100));
        for (sn, s, rn, rcv, seed) in cells() {
            r.push(Metric::value(
                &format!("{sn}_to_{rn}"),
                "gbps",
                goodput_gbps(s, rcv, seed) / 1e9,
            ));
        }
        r
    }
}

/// Design-space head-to-head (ROADMAP item 5): the five stack
/// architectures — in-kernel (Linux), protected kernel bypass (IX),
/// user-level split (mTCP), MPK-protected dataplane, and off-path
/// SmartNIC (PnO) — against TAS on identical latency and
/// cycle-accounting scenarios, plus sweeps over the two boundary costs
/// that define the new models (WRPKRU crossing cycles, PCIe one-way
/// latency).
pub mod designspace {
    use super::*;
    use tas_baselines::{StackProfile, ThreadModel};
    use tas_cpusim::{Crossing, CrossingKind};

    /// Seed shared by every per-stack run, so cross-stack differences
    /// come from the stack model alone.
    pub const SEED: u64 = 17;

    /// WRPKRU crossing-cost sweep points (cycles). 80 is the measured
    /// hardware cost; 1400 degrades the MPK dataplane back to a
    /// syscall-class boundary.
    pub const MPK_SWEEP: [u64; 4] = [40, 80, 400, 1400];

    /// PCIe one-way latency sweep points (ns). 900 is gen3 x8 class;
    /// 5000 models a congested or switch-attached fabric.
    pub const PNO_SWEEP: [u64; 4] = [300, 900, 2000, 5000];

    /// The head-to-head stacks, in report order.
    pub fn stacks() -> [(&'static str, Kind); 6] {
        [
            ("linux", Kind::Linux),
            ("ix", Kind::Ix),
            ("mtcp", Kind::Mtcp),
            ("mpk", Kind::Mpk),
            ("pno", Kind::Pno),
            ("tas", Kind::TasSockets),
        ]
    }

    /// Fig. 9-shape latency distribution for one stack (ns), same seed
    /// and same TAS clients for every server stack.
    pub fn latency(kind: Kind) -> Histogram {
        fig9::run(kind, Kind::TasSockets, SEED)
    }

    /// Table 1-shape cycle accounting for one stack.
    pub fn cycles(kind: Kind) -> crate::RpcResult {
        table1::measure(kind)
    }

    /// An MPK-dataplane server with an explicit crossing cost (sweep
    /// point). Cores match the Fig. 9 server shape.
    pub fn mpk_host(crossing_cycles: u64) -> (StackProfile, StackHostConfig) {
        let mut cfg = StackHostConfig::mpk(2);
        cfg.model = ThreadModel::MpkDataplane {
            crossing: Crossing::new(CrossingKind::Wrpkru, crossing_cycles),
        };
        (profiles::mpk(), cfg)
    }

    /// An off-path-NIC server with an explicit PCIe one-way latency
    /// (sweep point).
    pub fn pno_host(latency: SimTime) -> (StackProfile, StackHostConfig) {
        let mut cfg = StackHostConfig::pno(1, 1);
        if let ThreadModel::OffPathNic { pcie, .. } = &mut cfg.model {
            *pcie = pcie.with_latency(latency);
        }
        (profiles::pno(), cfg)
    }

    /// Runs the Fig. 9-shape KV latency scenario against a custom-built
    /// [`StackHost`] server. This is the sweep entry point and the
    /// determinism probe used by `tests/proptest_designspace.rs`.
    pub fn run_custom(profile: StackProfile, cfg: StackHostConfig, seed: u64) -> Histogram {
        fig9::run_on(
            |sim, spec, app| add_host(sim, spec, HostCfg::Model(profile, cfg.clone()), app),
            Kind::TasSockets,
            seed,
        )
    }

    /// The gated report: per-stack latency quantiles (Fig. 9 shape),
    /// per-stack cycles/request with module breakdown and the host-core
    /// share (Table 1 shape), and the two boundary-cost sweeps.
    pub fn report() -> Report {
        let mut r = Report::new(
            "designspace",
            "Design-space head-to-head: five stack architectures vs TAS",
            SEED,
        );
        r.param("conns", scaled(2_000, 32_000))
            .param("mpk_sweep", format!("{MPK_SWEEP:?}"))
            .param("pno_sweep_ns", format!("{PNO_SWEEP:?}"));
        for (name, kind) in stacks() {
            let hist = latency(kind);
            r.push(Metric::quantiles(&format!("lat_{name}"), "ns", &hist));
        }
        for (name, kind) in stacks() {
            let res = cycles(kind);
            let p = &res.per_request;
            r.push(
                table1::cycles_metric(&format!("cycles_{name}"), p).with_component(
                    "host_per_req",
                    res.host_cycles as f64 / p.requests.max(1) as f64,
                ),
            );
        }
        for c in MPK_SWEEP {
            let (p, cfg) = mpk_host(c);
            let h = run_custom(p, cfg, SEED);
            r.push(
                Metric::value(&format!("mpk_xcost_{c}"), "ns", h.quantile(0.5) as f64)
                    .with_component("p99", h.quantile(0.99) as f64),
            );
        }
        for l in PNO_SWEEP {
            let (p, cfg) = pno_host(SimTime::from_ns(l));
            let h = run_custom(p, cfg, SEED);
            r.push(
                Metric::value(&format!("pno_pcie_{l}ns"), "ns", h.quantile(0.5) as f64)
                    .with_component("p99", h.quantile(0.99) as f64),
            );
        }
        r
    }

    /// The paper-shaped invariants the head-to-head must reproduce:
    /// protection cost orders Linux > MPK dataplane > TAS at the tail, the
    /// off-path stack pays PCIe latency TAS does not, and in exchange its
    /// host-CPU cycles/request undercut Linux by a wide margin.
    pub fn orderings(r: &Report) -> Vec<Check> {
        let quantiles = |name: &str| match r.metric(name).map(|m| &m.data) {
            Some(MetricData::Quantiles(q)) => (q.p50, q.p99),
            _ => (0, 0),
        };
        let host_per_req = |name: &str| {
            r.metric(name)
                .and_then(|m| m.breakdown.iter().find(|(n, _)| n == "host_per_req"))
                .map_or(0.0, |&(_, v)| v)
        };
        let (linux, mpk, pno, tas) = (
            quantiles("lat_linux"),
            quantiles("lat_mpk"),
            quantiles("lat_pno"),
            quantiles("lat_tas"),
        );
        vec![
            ("p99 latency: linux > mpk".into(), linux.1 > mpk.1),
            ("p99 latency: mpk > tas".into(), mpk.1 > tas.1),
            (
                "median latency: pno > tas (PCIe boundary)".into(),
                pno.0 > tas.0,
            ),
            (
                "host cycles/req: pno < linux / 2".into(),
                host_per_req("cycles_pno") < host_per_req("cycles_linux") / 2.0,
            ),
        ]
    }
}

/// Figure 5: throughput with short-lived connections (messages per
/// connection swept), TAS vs. Linux.
pub mod fig5 {
    use super::*;
    use tas_apps::echo::{EchoServer, Lifetime, RpcClient, ServerMode};

    /// Runs short-lived echo with `msgs_per_conn` requests per connection
    /// (`u32::MAX` = persistent connections); returns server mOps.
    pub fn run(kind: Kind, msgs_per_conn: u32, conns: u32, measure: SimTime) -> f64 {
        let mut sim: Sim<NetMsg> = Sim::new(7 + msgs_per_conn as u64);
        let server_ip = host_ip(0);
        let client_hosts = 4usize;
        let per_client = conns / client_hosts as u32;
        let mut factory = move |sim: &mut Sim<NetMsg>, spec: HostSpec| -> AgentId {
            if spec.index == 0 {
                let app: Box<dyn App> = Box::new(EchoServer::new(7, 64, ServerMode::Echo, 300));
                make_server(sim, spec, kind, (2, 1), Bufs::tiny(), app)
            } else {
                let lifetime = if msgs_per_conn == u32::MAX {
                    Lifetime::Persistent
                } else {
                    Lifetime::ShortLived { msgs_per_conn }
                };
                let app: Box<dyn App> =
                    Box::new(RpcClient::new(server_ip, 7, per_client, 1, 64, lifetime));
                // Clients run on TAS so they are never the bottleneck.
                make_server(sim, spec, Kind::TasSockets, (2, 2), Bufs::tiny(), app)
            }
        };
        let topo = testbed_star(&mut sim, 1 + client_hosts, &mut factory);
        start_all(&mut sim, &topo.hosts);
        let warmup = SimTime::from_ms(30);
        sim.run_until(warmup);
        let m0 = app::<EchoServer>(&sim, topo.hosts[0]).messages;
        sim.run_until(warmup + measure);
        let m1 = app::<EchoServer>(&sim, topo.hosts[0]).messages;
        (m1 - m0) as f64 / measure.as_secs_f64() / 1e6
    }

    /// The msgs/conn sweep's observables.
    pub struct Outcome {
        /// Concurrent connections.
        pub conns: u32,
        /// (msgs/conn, TAS mOps, Linux mOps) per sweep point.
        pub rows: Vec<(u32, f64, f64)>,
        /// TAS mOps with persistent connections.
        pub tas_persistent: f64,
    }

    /// Runs the sweep on both stacks plus the persistent-connection
    /// reference.
    pub fn sweep() -> Outcome {
        let conns = scaled(128, 1_024);
        let measure = scaled(SimTime::from_ms(30), SimTime::from_ms(100));
        let points = scaled(
            vec![1, 4, 16, 64, 256],
            vec![1, 2, 4, 16, 64, 256, 1_024, 4_096],
        );
        let rows = points
            .into_iter()
            .map(|m| {
                let t = run(Kind::TasSockets, m, conns, measure);
                (m, t, run(Kind::Linux, m, conns, measure))
            })
            .collect();
        Outcome {
            conns,
            rows,
            tas_persistent: run(Kind::TasSockets, u32::MAX, conns, measure),
        }
    }

    /// Builds the gated report from a sweep.
    pub fn report_from(o: &Outcome) -> Report {
        let mut r = Report::new("fig5", "Short-lived connection throughput", 7);
        r.param("conns", o.conns);
        for &(m, t, l) in &o.rows {
            r.push(Metric::value(&format!("tas_{m}mpc"), "mops", t));
            r.push(Metric::value(&format!("linux_{m}mpc"), "mops", l));
        }
        r.push(Metric::value("tas_persistent", "mops", o.tas_persistent));
        r
    }
}

/// The four stacks of the KV core-count sweeps (Fig. 8, Table 7), in
/// column order, with their report metric names.
pub const KV_STACKS: [(&str, Kind); 4] = [
    ("tas_ll", Kind::TasLowLevel),
    ("tas_so", Kind::TasSockets),
    ("ix", Kind::Ix),
    ("linux", Kind::Linux),
];

/// One row per total core count: mOps per [`KV_STACKS`] column.
pub type CoreSweep = Vec<(usize, [f64; 4])>;

fn core_sweep(totals: &[usize], measure: impl Fn(Kind, usize) -> f64) -> CoreSweep {
    totals
        .iter()
        .map(|&total| (total, KV_STACKS.map(|(_, kind)| measure(kind, total))))
        .collect()
}

/// Pushes the sweep's last (max-cores) row, one metric per stack.
fn push_at_max_cores(r: &mut Report, rows: &CoreSweep) {
    if let Some((total, mops)) = rows.last() {
        r.param("cores", total);
        for ((name, _), &v) in KV_STACKS.iter().zip(mops) {
            r.push(Metric::value(name, "mops", v));
        }
    }
}

/// Figure 8 + Table 6: key-value store throughput scalability with
/// server cores, for TAS LL, TAS SO, IX, and Linux.
pub mod fig8 {
    use super::*;

    /// Table 6 core splits per total core count, as `(fast-path, app)`
    /// for TAS and as two halves of one pool for the baselines.
    pub fn split(kind: Kind, total: usize) -> (usize, usize) {
        // Paper Table 6: Sockets — app 1/2/5/7/9, TAS 1/2/3/5/7 at
        // 2/4/8/12/16. Lowlevel — even split.
        let so_app = [(2, 1), (4, 2), (8, 5), (12, 7), (16, 9)];
        let app = match kind {
            Kind::TasSockets => so_app
                .iter()
                .find(|(t, _)| *t == total)
                .map_or(total / 2, |(_, a)| *a),
            _ => total - total / 2,
        };
        (total - app, app)
    }

    /// Client connections.
    pub fn conns() -> u32 {
        scaled(4_000, 32_000)
    }

    /// Runs the sweep over core counts and stacks.
    pub fn sweep() -> CoreSweep {
        let totals = scaled(vec![2, 4, 8, 16], vec![2, 4, 8, 12, 16]);
        core_sweep(&totals, |kind, total| {
            let mut sc = RpcScenario::kv(kind, split(kind, total), conns());
            sc.warmup = scaled(SimTime::from_ms(15), SimTime::from_ms(60));
            sc.measure = scaled(SimTime::from_ms(10), SimTime::from_ms(50));
            sc.seed = 7 + total as u64;
            crate::run_rpc(&sc).mops
        })
    }

    /// Builds the gated report (throughput at max cores) from a sweep.
    pub fn report_from(rows: &CoreSweep) -> Report {
        let mut r = Report::new("fig8", "KV throughput scalability at max cores", 7);
        r.param("conns", conns());
        push_at_max_cores(&mut r, rows);
        r
    }
}

/// Table 7: throughput for the non-scalable key-value workload — a
/// single contended key whose updates serialize on a lock.
pub mod table7 {
    use super::*;

    /// Runs the contended-key workload on `total` server cores.
    pub fn run(kind: Kind, total: usize) -> f64 {
        // TAS keeps ONE app core and grows fast-path cores; baselines grow
        // the shared pool.
        let cores = match kind {
            Kind::TasSockets | Kind::TasLowLevel => (total.saturating_sub(1).max(1), 1),
            _ => (total / 2, total - total / 2),
        };
        let mut sc = RpcScenario::kv(kind, cores, 256);
        // Single hot key: every operation contends on the update lock. The
        // contention charge scales with the number of app cores.
        sc.kv_contention = 1_200;
        sc.warmup = SimTime::from_ms(15);
        sc.measure = scaled(SimTime::from_ms(10), SimTime::from_ms(50));
        sc.client_hosts = 4;
        sc.seed = 99 + total as u64;
        crate::run_rpc(&sc).mops
    }

    /// Runs 2, 3 and 4 total cores on every stack.
    pub fn sweep() -> CoreSweep {
        core_sweep(&[2, 3, 4], run)
    }

    /// Builds the gated report (throughput at 4 cores) from a sweep.
    pub fn report_from(rows: &CoreSweep) -> Report {
        let mut r = Report::new("table7", "Non-scalable KV workload at 4 cores", 99);
        r.param("conns", 256);
        push_at_max_cores(&mut r, rows);
        r
    }
}

/// Table 2: per-request app/stack overheads — cycles, instructions, CPI.
pub mod table2 {
    use super::*;
    use crate::PerRequest;
    use tas_cpusim::Module;

    /// Per-request accounting for Linux, IX and TAS on the Table 1
    /// scenario (one source of cycle truth with Table 1 and `cpuprof`).
    pub fn rows() -> Vec<(Kind, PerRequest)> {
        [Kind::Linux, Kind::Ix, Kind::TasSockets]
            .into_iter()
            .map(|kind| (kind, table1::measure(kind).per_request))
            .collect()
    }

    /// Application cycles per request.
    pub fn app_cycles(p: &PerRequest) -> f64 {
        p.cycles[Module::App as usize]
    }

    /// Builds the gated report from measured rows.
    pub fn report_from(rows: &[(Kind, PerRequest)]) -> Report {
        let mut r = Report::new("table2", "Per-request cycles, instructions, CPI", 0);
        r.param("conns", scaled(2_000, 32_000));
        for (kind, p) in rows {
            let tag = kind.label().to_lowercase().replace(' ', "_");
            r.push(
                Metric::value(&format!("stack_cycles_{tag}"), "cycles", p.stack_cycles())
                    .with_component("app_cycles", app_cycles(p))
                    .with_component("instr", p.total_instr())
                    .with_component("cpi", p.cpi()),
            );
        }
        r
    }
}

/// Figure 10 + Table 8: FlexStorm real-time analytics on Linux, mTCP,
/// TAS — three nodes in a processing chain streaming tuples over TCP.
pub mod fig10 {
    use super::*;
    use tas_apps::flexstorm::FlexStormNode;

    /// The middle node's mean per-tuple delays (Table 8).
    pub struct NodeStats {
        /// Input-queue delay, µs.
        pub input_us: f64,
        /// Processing time, µs.
        pub proc_us: f64,
        /// Output (batching mux) delay, ms.
        pub output_ms: f64,
    }

    /// Runs the chain on `kind`; returns (sink million tuples/s, middle
    /// node stats).
    pub fn run(kind: Kind, spout_rate: u64, seed: u64) -> (f64, NodeStats) {
        let mut sim: Sim<NetMsg> = Sim::new(seed);
        let nodes = 3usize;
        let workers = 2u16;
        let mut factory = move |sim: &mut Sim<NetMsg>, spec: HostSpec| -> AgentId {
            let next = if (spec.index as usize) < nodes - 1 {
                Some((host_ip(spec.index + 1), 7_000))
            } else {
                None
            };
            let mut node = FlexStormNode::new(7_000, workers, next);
            if spec.index == 0 {
                node.spout_rate = spout_rate;
            }
            // Cores: demux + workers + mux = 4 contexts.
            let bufs = Bufs {
                rx: 256 * 1024,
                tx: 256 * 1024,
            };
            make_server(sim, spec, kind, (2, 4), bufs, Box::new(node))
        };
        let topo = uniform_star(&mut sim, nodes, PortConfig::tengig(), &mut factory);
        start_all(&mut sim, &topo.hosts);
        let warmup = SimTime::from_ms(100);
        let window = scaled(SimTime::from_ms(300), SimTime::from_secs(2));
        sim.run_until(warmup);
        let p0 = app::<FlexStormNode>(&sim, topo.hosts[2])
            .stats
            .tuples_processed;
        for &h in &topo.hosts {
            app_mut::<FlexStormNode>(&mut sim, h).measure_from = warmup;
        }
        sim.run_until(warmup + window);
        let p1 = app::<FlexStormNode>(&sim, topo.hosts[2])
            .stats
            .tuples_processed;
        // Table 8 measures the middle node (fully loaded in and out).
        let mid = app::<FlexStormNode>(&sim, topo.hosts[1]);
        let stats = NodeStats {
            input_us: mid.input_delay_us.mean(),
            proc_us: mid.proc_us.mean(),
            output_ms: mid.output_delay_us.mean() / 1000.0,
        };
        ((p1 - p0) as f64 / window.as_secs_f64() / 1e6, stats)
    }

    /// Offered spout rate, tuples/s.
    pub fn spout_rate() -> u64 {
        scaled(1_500_000, 4_000_000)
    }

    /// Runs the three stacks: (metric tag, stack, mt/s, middle node).
    pub fn sweep() -> Vec<(&'static str, Kind, f64, NodeStats)> {
        [
            ("linux", Kind::Linux, 1u64),
            ("mtcp", Kind::Mtcp, 2),
            ("tas", Kind::TasSockets, 3),
        ]
        .into_iter()
        .map(|(tag, kind, seed)| {
            let (mtps, st) = run(kind, spout_rate(), seed);
            (tag, kind, mtps, st)
        })
        .collect()
    }

    /// Builds the gated report from a sweep.
    pub fn report_from(rows: &[(&'static str, Kind, f64, NodeStats)]) -> Report {
        let mut r = Report::new("fig10", "FlexStorm throughput and tuple latency", 1);
        r.param("spout_rate", spout_rate()).param("nodes", 3);
        for (tag, _, mtps, st) in rows {
            r.push(
                Metric::value(&format!("{tag}_mtps"), "mops", *mtps)
                    .with_component("input_us", st.input_us)
                    .with_component("proc_us", st.proc_us)
                    .with_component("output_ms", st.output_ms),
            );
        }
        r
    }
}

/// Figure 11: congestion-control fidelity on a single 10 Gbps link at
/// 75% load, sweeping TAS's slow-path control interval τ.
pub mod fig11 {
    use super::*;
    use tas_apps::flows::{FlowGen, FlowSink};
    use tas_netsim::switch::TIMER_SAMPLE_QUEUE;
    use tas_netsim::Switch;
    use tas_tcp::{CcKind, TcpConfig};

    /// The congestion-control variant every node runs.
    #[derive(Clone, Copy, PartialEq)]
    pub enum Cc {
        /// Window-based NewReno, no ECN.
        Tcp,
        /// Window-based DCTCP.
        Dctcp,
        /// TAS rate-based DCTCP with control interval τ.
        TasRate {
            /// Control interval τ, µs.
            tau_us: u64,
        },
        /// TAS running TIMELY (τ = 200 µs).
        TasTimely,
    }

    /// A protocol-focused node with `cores` + `cores` cores and
    /// `buf`-byte socket buffers running `cc`.
    pub fn node_cfg(cc: Cc, cores: usize, buf: usize) -> HostCfg {
        let (algo, tau_us) = match cc {
            Cc::TasRate { tau_us } => (CcAlgo::DctcpRate, tau_us),
            Cc::TasTimely => (CcAlgo::Timely, 200),
            Cc::Tcp | Cc::Dctcp => {
                // IX-like cheap stack so the CPU never interferes with
                // the CC comparison (the paper's ns-3 nodes have no CPU
                // model at all).
                let mut cfg = StackHostConfig::ix(2 * cores);
                cfg.tcp = TcpConfig {
                    cc: if cc == Cc::Tcp {
                        CcKind::NewReno
                    } else {
                        CcKind::Dctcp
                    },
                    ecn: cc != Cc::Tcp,
                    recv_buf: buf,
                    send_buf: buf,
                    rto_min: SimTime::from_ms(5),
                    ..TcpConfig::default()
                };
                cfg.max_core_backlog = SimTime::from_ms(50);
                return HostCfg::Model(profiles::ix(), cfg);
            }
        };
        HostCfg::Tas(TasConfig {
            max_fp_cores: cores,
            initial_fp_cores: cores,
            app_cores: cores,
            cc: algo,
            control_interval: SimTime::from_us(tau_us),
            ..bulk_tas(buf, 500_000_000)
        })
    }

    /// A generator of bounded-Pareto-sized flows toward `dests` offering
    /// `load_bps` (the analytic mean size makes the offered load exact).
    pub fn flow_gen(dests: Vec<(std::net::Ipv4Addr, u16)>, load_bps: f64, seed: u64) -> FlowGen {
        let alpha = 1.2;
        let mean = tas_sim::dist::BoundedPareto::new(2.0 * 1448.0, 500.0 * 1448.0, alpha).mean();
        let gap = SimTime::from_secs_f64(mean * 8.0 / load_bps);
        let mut g = FlowGen::new(dests, gap, seed);
        g.size_alpha = alpha;
        g
    }

    /// Runs the single-link experiment; returns (mean FCT ms, mean
    /// bottleneck queue pkts).
    pub fn run(cc: Cc, seed: u64) -> (f64, f64) {
        let mut sim: Sim<NetMsg> = Sim::new(seed);
        let senders = 8usize;
        let sink_ip = host_ip(0);
        // 75% of 10G split over the senders.
        let per_sender_bps = 0.75 * 10e9 / senders as f64;
        let mut factory = move |sim: &mut Sim<NetMsg>, spec: HostSpec| -> AgentId {
            let app: Box<dyn App> = if spec.index == 0 {
                Box::new(FlowSink::new(5001))
            } else {
                Box::new(flow_gen(
                    vec![(sink_ip, 5001)],
                    per_sender_bps,
                    seed + spec.index as u64,
                ))
            };
            add_host(sim, spec, node_cfg(cc, 2, 256 * 1024), app)
        };
        // RTT 100us: 25us one-way on every port.
        let port = PortConfig {
            prop_delay: SimTime::from_us(25),
            ..PortConfig::tengig()
        };
        let topo = uniform_star(&mut sim, 1 + senders, port, &mut factory);
        start_all(&mut sim, &topo.hosts);
        // Monitor the bottleneck (switch port 0 toward the sink).
        sim.agent_mut::<Switch>(topo.switch)
            .monitor_port(0, SimTime::from_us(20));
        let warmup = SimTime::from_ms(30);
        sim.inject_timer(warmup, topo.switch, TIMER_SAMPLE_QUEUE, 0);
        sim.run_until(warmup);
        app_mut::<FlowSink>(&mut sim, topo.hosts[0]).measure_from = warmup;
        let window = scaled(SimTime::from_ms(150), SimTime::from_ms(500));
        sim.run_until(warmup + window);
        let fct_ms = app::<FlowSink>(&sim, topo.hosts[0]).fct_all.mean() / 1e6;
        (fct_ms, sim.agent::<Switch>(topo.switch).mean_queue_depth())
    }

    /// The whole figure: reference lines, the τ sweep, and the TIMELY
    /// extension, each as (mean FCT ms, mean queue pkts).
    pub struct Outcome {
        /// Plain TCP (NewReno).
        pub tcp: (f64, f64),
        /// Window DCTCP.
        pub dctcp: (f64, f64),
        /// (τ µs, FCT ms, queue pkts) per sweep point.
        pub tas: Vec<(u64, f64, f64)>,
        /// TAS running TIMELY.
        pub timely: (f64, f64),
    }

    /// Runs every line of the figure.
    pub fn sweep() -> Outcome {
        let taus = scaled(
            vec![50, 100, 400, 1000],
            vec![25, 50, 100, 200, 400, 600, 800, 1000],
        );
        Outcome {
            tcp: run(Cc::Tcp, 11),
            dctcp: run(Cc::Dctcp, 12),
            tas: taus
                .into_iter()
                .map(|tau| {
                    let (fct, q) = run(Cc::TasRate { tau_us: tau }, 13 + tau);
                    (tau, fct, q)
                })
                .collect(),
            timely: run(Cc::TasTimely, 29),
        }
    }

    /// Builds the gated report from a sweep.
    pub fn report_from(o: &Outcome) -> Report {
        let mut r = Report::new(
            "fig11",
            "Single-link CC fidelity: FCT and bottleneck queue",
            11,
        );
        r.param("load", "0.75").param("senders", 8);
        let fct = |name: &str, ms: f64| Metric::value(name, "us", ms * 1000.0).with_tol(0.20);
        r.push(fct("tcp_fct", o.tcp.0));
        r.push(fct("dctcp_fct", o.dctcp.0));
        r.push(Metric::value("tcp_queue_pkts", "pkts", o.tcp.1));
        r.push(Metric::value("dctcp_queue_pkts", "pkts", o.dctcp.1));
        for &(tau, ms, q) in &o.tas {
            r.push(fct(&format!("tas_tau{tau}_fct"), ms));
            let queue = format!("tas_tau{tau}_queue_pkts");
            r.push(Metric::value(&queue, "pkts", q));
        }
        r
    }
}

/// Figure 12: flow completion times in a FatTree cluster at ~30% core
/// load, for TCP (NewReno), DCTCP, and TAS (rate-based DCTCP, τ =
/// 100 µs), on a scaled-down k = 4 (quick) / k = 8 (full) tree with the
/// paper's 1:4 core oversubscription.
pub mod fig12 {
    use super::fig11::{flow_gen, node_cfg, Cc};
    use super::*;
    use tas_apps::flows::FlowSink;
    use tas_netsim::topo::{build_fattree, FatTreeConfig};

    /// FatTree arity.
    pub fn k() -> usize {
        scaled(4, 8)
    }

    /// Returns (short-flow FCT histogram, long-flow FCT histogram) in ns.
    pub fn run(cc: Cc, seed: u64) -> (Histogram, Histogram) {
        let mut sim: Sim<NetMsg> = Sim::new(seed);
        let n_hosts = k() * k() * k() / 4;
        let all_dests: Vec<(std::net::Ipv4Addr, u16)> =
            (0..n_hosts as u32).map(|i| (host_ip(i), 5001)).collect();
        let mut factory = move |sim: &mut Sim<NetMsg>, spec: HostSpec| -> AgentId {
            // One app per host: even hosts generate toward the odd hosts,
            // which sink (documented scale-down). With the 1:4
            // oversubscribed core, ~0.5 of the host link loads the core
            // to ~30%+.
            let app: Box<dyn App> = if spec.index.is_multiple_of(2) {
                let dests = all_dests
                    .iter()
                    .copied()
                    .enumerate()
                    .filter(|(i, _)| i % 2 == 1 && *i as u32 != spec.index)
                    .map(|(_, d)| d)
                    .collect();
                Box::new(flow_gen(dests, 0.5 * 10e9, seed + spec.index as u64))
            } else {
                Box::new(FlowSink::new(5001))
            };
            add_host(sim, spec, node_cfg(cc, 1, 128 * 1024), app)
        };
        let cfg = FatTreeConfig {
            k: k(),
            ..FatTreeConfig::paper_scaled()
        };
        let topo = build_fattree(&mut sim, cfg, &mut factory);
        start_all(&mut sim, &topo.hosts);
        let sinks: Vec<AgentId> = topo.hosts.iter().copied().skip(1).step_by(2).collect();
        let warmup = SimTime::from_ms(30);
        sim.run_until(warmup);
        for &h in &sinks {
            app_mut::<FlowSink>(&mut sim, h).measure_from = warmup;
        }
        let window = scaled(SimTime::from_ms(120), SimTime::from_ms(400));
        sim.run_until(warmup + window);
        let mut short = Histogram::new();
        let mut long = Histogram::new();
        for &h in &sinks {
            let sink = app::<FlowSink>(&sim, h);
            short.merge(&sink.fct_short);
            long.merge(&sink.fct_long);
        }
        (short, long)
    }

    /// Runs the three variants: (name, short FCTs, long FCTs).
    pub fn sweep() -> Vec<(&'static str, Histogram, Histogram)> {
        [
            ("TCP", Cc::Tcp),
            ("DCTCP", Cc::Dctcp),
            ("TAS", Cc::TasRate { tau_us: 100 }),
        ]
        .into_iter()
        .map(|(name, cc)| {
            let (s, l) = run(cc, 21);
            (name, s, l)
        })
        .collect()
    }

    /// Builds the gated report from a sweep.
    pub fn report_from(rows: &[(&'static str, Histogram, Histogram)]) -> Report {
        let mut r = Report::new("fig12", "FatTree flow completion times", 21);
        r.param("k", k()).param("hosts", k() * k() * k() / 4);
        for (name, s, l) in rows {
            let tag = name.to_lowercase();
            r.push(Metric::quantiles(&format!("{tag}_short_fct"), "ns", s).with_tol(0.20));
            r.push(Metric::quantiles(&format!("{tag}_long_fct"), "ns", l).with_tol(0.20));
        }
        r
    }
}

/// Ablation studies for the TAS design choices DESIGN.md calls out (not
/// a paper figure): each removes or degrades one mechanism the paper
/// argues for and measures the cost of losing it.
pub mod ablations {
    use super::*;
    use crate::TasOverrides;

    /// Ablation A's per-flow state footprints: (table label, metric
    /// name, cache lines touched per request). 2 lines = TAS's 102 B; 8 =
    /// a 512 B state; 30 = a ~1.9 KB Linux `tcp_sock`-like state.
    pub const STATE_VARIANTS: [(&str, &str, u64); 3] = [
        ("102B (TAS)", "state_102b", 2),
        ("512B", "state_512b", 8),
        ("1.9KB", "state_1900b", 30),
    ];

    /// Ablation A: echo mOps per [`STATE_VARIANTS`] column at each
    /// connection count.
    pub fn state_footprint() -> Vec<(u32, [f64; 3])> {
        scaled(vec![16_000, 64_000], vec![16_000, 64_000, 96_000])
            .into_iter()
            .map(|conns| {
                let mops = STATE_VARIANTS.map(|(_, _, lines)| {
                    let mut sc = RpcScenario::echo(Kind::TasSockets, (10, 10), conns);
                    sc.warmup = scaled(SimTime::from_ms(15), SimTime::from_ms(50));
                    sc.measure = scaled(SimTime::from_ms(10), SimTime::from_ms(50));
                    sc.seed = 7_000 + conns as u64;
                    sc.tas_overrides = TasOverrides {
                        cache_lines_per_req: Some(lines),
                        ..TasOverrides::default()
                    };
                    crate::run_rpc(&sc).mops
                });
                (conns, mops)
            })
            .collect()
    }

    /// Outcome of one bulk fan-in run.
    pub struct BulkRun {
        /// Receiver goodput.
        pub gbps: f64,
        /// Fast retransmits across the senders.
        pub fast_rexmits: u64,
        /// Slow-path timeout retransmits across the senders.
        pub timeout_rexmits: u64,
    }

    /// Runs `senders` TAS bulk hosts with 25 connections each into one
    /// receiver over a shared 10G star.
    pub fn bulk_fan_in(
        cc: CcAlgo,
        stall_intervals: u32,
        loss: f64,
        senders: usize,
        seed: u64,
    ) -> BulkRun {
        let mut sim: Sim<NetMsg> = Sim::new(seed);
        let mut factory = move |sim: &mut Sim<NetMsg>, spec: HostSpec| -> AgentId {
            let cfg = TasConfig {
                cc,
                stall_intervals_for_rexmit: stall_intervals,
                ..bulk_tas(128 * 1024, 500_000_000)
            };
            let app = bulk_app(spec.index, 25);
            add_host(sim, spec, HostCfg::Tas(cfg), app)
        };
        let port = lossy_tengig(loss, seed);
        let topo = uniform_star(&mut sim, 1 + senders, port, &mut factory);
        start_all(&mut sim, &topo.hosts);
        let window = scaled(SimTime::from_ms(100), SimTime::from_ms(300));
        let bps = bulk_goodput(&mut sim, topo.hosts[0], SimTime::from_ms(50), window);
        let mut run = BulkRun {
            gbps: bps / 1e9,
            fast_rexmits: 0,
            timeout_rexmits: 0,
        };
        for &h in &topo.hosts[1..] {
            let sender = sim.agent::<TasHost>(h);
            run.fast_rexmits += sender.fp_stats().fast_rexmits;
            run.timeout_rexmits += sender.sp_stats().timeout_rexmits;
        }
        run
    }

    /// All three ablations.
    pub struct Outcome {
        /// A: per-flow state footprint.
        pub state: Vec<(u32, [f64; 3])>,
        /// B: 4x25 bulk flows with fast-path rate enforcement on.
        pub enforced: BulkRun,
        /// B: the same fan-in with congestion control disabled.
        pub unenforced: BulkRun,
        /// C: (stalled intervals before retransmit, run) under 1% loss.
        pub stall: Vec<(u32, BulkRun)>,
    }

    /// Runs all three ablations.
    pub fn run() -> Outcome {
        Outcome {
            state: state_footprint(),
            enforced: bulk_fan_in(CcAlgo::DctcpRate, 2, 0.0, 4, 300),
            unenforced: bulk_fan_in(CcAlgo::None, 2, 0.0, 4, 300),
            stall: [1u32, 2, 4]
                .into_iter()
                .map(|n| (n, bulk_fan_in(CcAlgo::DctcpRate, n, 0.01, 1, 400)))
                .collect(),
        }
    }

    /// Builds the gated report from an outcome.
    pub fn report_from(o: &Outcome) -> Report {
        let mut r = Report::new("ablations", "Design-choice ablations", 300);
        if let Some((_, at_max)) = o.state.last() {
            for ((_, name, _), &mops) in STATE_VARIANTS.iter().zip(at_max) {
                r.push(Metric::value(name, "mops", mops));
            }
        }
        let bulk = |name: String, b: &BulkRun| {
            Metric::value(&name, "gbps", b.gbps)
                .with_component("fast_rexmits", b.fast_rexmits as f64)
                .with_component("timeout_rexmits", b.timeout_rexmits as f64)
        };
        r.push(bulk("enforced_gbps".into(), &o.enforced));
        r.push(bulk("unenforced_gbps".into(), &o.unenforced));
        for (n, b) in &o.stall {
            r.push(bulk(format!("stall_{n}_gbps"), b));
        }
        r
    }
}

/// One named pass/fail statement about a report.
pub type Check = (String, bool);

/// How an entry's report is produced.
pub enum Build {
    /// Builds the report.
    Report(fn() -> Report),
    /// Builds the report plus a side artefact, written (and pinned)
    /// next to it as `BENCH_<name>.<ext>`.
    WithSide(&'static str, fn() -> (Report, String)),
    /// Only builds with `--features telemetry`, which this build lacks.
    NeedsTelemetry,
}

/// One gated artefact: everything the `bench-report` driver
/// ([`crate::gate`]) needs to generate, check, pin and self-test it.
/// Every report is modelled — a pure function of its seeds — and gated
/// byte-for-byte against its pin.
pub struct Entry {
    /// Report name: `BENCH_<name>.json`, and the prefix (up to the first
    /// `_`) of the bench target in `benches/` that prints it, if any.
    pub name: &'static str,
    /// The builder.
    pub build: Build,
    /// Invariants any instance of the report must satisfy.
    pub invariants: fn(&Report) -> Vec<Check>,
    /// Self-test: turns a fresh report into one the gate must reject.
    pub sabotage: Option<fn(&Report) -> Report>,
}

impl Entry {
    fn new(name: &'static str, build: Build) -> Entry {
        Entry {
            name,
            build,
            invariants: |_| Vec::new(),
            sabotage: None,
        }
    }

    fn report(name: &'static str, build: fn() -> Report) -> Entry {
        Entry::new(name, Build::Report(build))
    }
}

/// `r` with every scalar metric whose name starts with one of `prefixes`
/// scaled by `factor` (the injected regression of the self-tests).
pub fn inflate(r: &Report, prefixes: &[&str], factor: f64) -> Report {
    let mut out = r.clone();
    for m in &mut out.metrics {
        if prefixes.iter().any(|p| m.name.starts_with(p)) {
            if let MetricData::Value(v) = &mut m.data {
                *v *= factor;
            }
        }
    }
    out
}

/// Every gated artefact, in output order: the paper's figures and tables,
/// the ablations, and the cross-cutting reports.
pub fn catalogue() -> Vec<Entry> {
    #[cfg(feature = "telemetry")]
    let (fig6spans, cpuprof) = (
        Build::Report(fig6::spans_report),
        Build::WithSide("folded", cpuprof::report_and_folded),
    );
    #[cfg(not(feature = "telemetry"))]
    let (fig6spans, cpuprof) = (Build::NeedsTelemetry, Build::NeedsTelemetry);
    vec![
        Entry::report("fig4", fig4::report),
        Entry::report("fig5", || fig5::report_from(&fig5::sweep())),
        Entry::report("fig6", fig6::report),
        Entry::report("fig7", fig7::report),
        Entry::report("fig8", || fig8::report_from(&fig8::sweep())),
        Entry::report("fig9", fig9::report),
        Entry::report("fig10", || fig10::report_from(&fig10::sweep())),
        Entry::report("fig11", || fig11::report_from(&fig11::sweep())),
        Entry::report("fig12", || fig12::report_from(&fig12::sweep())),
        Entry::report("fig13", || fig13::report_from(&fig13::sweep())),
        Entry::report("fig14", fig14::report),
        Entry::report("fig15", fig15::report),
        Entry::report("table1", table1::report),
        Entry::report("table2", || table2::report_from(&table2::rows())),
        Entry::report("table3", table3::report),
        Entry::report("table4", table4::report),
        Entry::report("table7", || table7::report_from(&table7::sweep())),
        Entry::report("ablations", || ablations::report_from(&ablations::run())),
        Entry {
            invariants: designspace::orderings,
            // The regression an MPK/PCIe model bug would produce.
            sabotage: Some(|r| inflate(r, &["mpk_xcost_", "pno_pcie_"], 1.30)),
            ..Entry::report("designspace", designspace::report)
        },
        Entry {
            invariants: crate::scenario::isolation_checks,
            sabotage: Some(crate::scenario::with_unfair_incast),
            ..Entry::report("scenarios", crate::scenario::report)
        },
        Entry::new("fig6spans", fig6spans),
        Entry {
            // A CPU-efficiency regression no throughput metric would catch.
            sabotage: Some(|r| inflate(r, &["cycles_per_req_"], 1.25)),
            ..Entry::new("cpuprof", cpuprof)
        },
    ]
}
