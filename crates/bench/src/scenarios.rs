//! The report catalogue: every paper figure and table, and every other
//! gated artefact, as one scenario module plus one [`catalogue`] entry.
//!
//! Each module owns its runner, parameters, seeds and one `report()`
//! holding every cell the artefact measures — one metric per sweep
//! point, a sampled series as one [`Metric::series`]; ratios derived
//! from other cells are left to prose. The `bench-report` driver
//! ([`crate::gate`]) simulates each report once, prints it through the
//! one renderer ([`Report::to_markdown`]) and gates it against its pin
//! in `crates/bench/baselines/`, so the table a human reads and the
//! bytes CI compares come from the same sweep.

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
enum BulkStack {
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
    const TAS: BulkStack = BulkStack::Tas { ooo: true };

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

/// The sample key of a time series at `t`: zero-padded so keys sort in
/// time order.
fn t_key(t: SimTime) -> String {
    format!("t{:06}ms", t.as_millis())
}

/// The name of a sweep cell: the headline cell — the one pinned before
/// the whole sweep was — keeps the bare `base`, the rest are
/// `<base>_<point>`.
fn cell(base: &str, point: impl std::fmt::Display, headline: bool) -> String {
    if headline {
        base.to_string()
    } else {
        format!("{base}_{point}")
    }
}

/// Figure 6: pipelined RPC throughput for a single-threaded server.
pub mod fig6 {
    use super::*;
    use tas_apps::echo::{EchoServer, RpcClient, ServerMode, SinkClient};

    /// Data direction at the server.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Dir {
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
    fn run(kind: Kind, dir: Dir, size: usize, delay_cycles: u64, seed: u64) -> f64 {
        let (mut sim, hosts) = build(kind, dir, size, delay_cycles, seed);
        let warmup = SimTime::from_ms(20);
        let window = scaled(SimTime::from_ms(15), SimTime::from_ms(60));
        sim.run_until(warmup);
        let b0 = server_bytes(&sim, hosts[0], dir);
        sim.run_until(warmup + window);
        let b1 = server_bytes(&sim, hosts[0], dir);
        (b1 - b0) as f64 * 8.0 / window.as_secs_f64() / 1e9
    }

    /// The gated report: TAS, mTCP and Linux goodput per direction and
    /// message size at 250 cycles/message (bare names) and at 1000
    /// (`_1000cyc`).
    pub fn report() -> Report {
        let mut r = Report::new(
            "fig6",
            "Pipelined RPC throughput, single-threaded server",
            1,
        );
        r.param("clients", 4)
            .param("conns", 100)
            .param("delay_cycles", "250, 1000");
        let sizes = scaled(vec![64, 512, 2048], vec![32, 64, 128, 256, 512, 1024, 2048]);
        let stacks = [
            ("tas", Kind::TasSockets, 1),
            ("mtcp", Kind::Mtcp, 2),
            ("linux", Kind::Linux, 3),
        ];
        for (delay, suffix) in [(250, ""), (1000, "_1000cyc")] {
            for (dir, dname) in [(Dir::Rx, "rx"), (Dir::Tx, "tx")] {
                for &size in &sizes {
                    for (sname, kind, seed) in stacks {
                        let name = format!("{dname}_{size}b_{sname}{suffix}");
                        r.push(Metric::value(
                            &name,
                            "gbps",
                            run(kind, dir, size, delay, seed),
                        ));
                    }
                }
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
    use super::BulkStack as Stack;
    use super::*;

    fn window() -> SimTime {
        scaled(SimTime::from_ms(100), SimTime::from_ms(300))
    }

    /// Runs 100 bulk flows over a lossy 10G link; returns the bytes the
    /// receiver took in over the measurement window.
    fn delivered(stack: Stack, loss: f64, seed: u64) -> u64 {
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

    /// The gated report: per stack (Linux and both TAS recovery modes),
    /// the lossless goodput and the throughput penalty at each loss rate,
    /// each beside the exact byte count it is derived from (Gbps to six
    /// decimals resolves 12.5 bytes over the quick window; the counts pin
    /// every byte). The headline 1% cell keeps its bare names; the other
    /// rates follow as `penalty_<stack>_<n>permille`.
    pub fn report() -> Report {
        let mut r = Report::new("fig7", "Throughput penalty under induced packet loss", 100);
        r.param("flows", 100);
        let permille = scaled(vec![1, 10, 50], vec![1, 2, 5, 10, 20, 50]);
        let runs = [
            ("linux", Stack::Linux, 100u64),
            ("tas", Stack::Tas { ooo: true }, 101),
            ("tas_simple", Stack::Tas { ooo: false }, 102),
        ];
        let mut other_rates = Vec::new();
        for (name, stack, seed) in runs {
            let bytes = delivered(stack, 0.0, seed);
            let base = bits_per_sec(bytes, window());
            r.push(Metric::value(
                &format!("bytes_{name}"),
                "bytes",
                bytes as f64,
            ));
            r.push(Metric::value(
                &format!("goodput_{name}"),
                "gbps",
                base / 1e9,
            ));
            for &pm in &permille {
                let bytes_lossy = delivered(stack, pm as f64 / 1000.0, seed);
                let lossy = bits_per_sec(bytes_lossy, window());
                let penalty = |name: &str| {
                    Metric::value(
                        name,
                        "percent_penalty",
                        100.0 * (1.0 - lossy / base).max(0.0),
                    )
                };
                if pm == 10 {
                    let counted = format!("bytes_lossy_{name}");
                    r.push(Metric::value(&counted, "bytes", bytes_lossy as f64));
                    r.push(penalty(&format!("penalty_{name}")));
                } else {
                    let cell = penalty(&format!("penalty_{name}_{pm}permille"));
                    other_rates.push(cell.with_component("bytes_lossy", bytes_lossy as f64));
                }
            }
        }
        r.metrics.extend(other_rates);
        r
    }
}

/// Figure 9 + Table 5: key-value request latency distributions.
pub mod fig9 {
    use super::*;
    use tas_apps::kv::{KvClient, KvLoad, KvServer};

    /// Runs the KV latency scenario; returns the merged client latency
    /// histogram (ns).
    pub(super) fn run(server: Kind, client: Kind, seed: u64) -> Histogram {
        run_on(
            |sim, spec, app| make_server(sim, spec, server, (1, 1), Bufs::small(), app),
            client,
            seed,
        )
    }

    /// [`run`] with the server host built by `add_server` (the
    /// design-space sweeps place hand-configured stacks there).
    pub(super) fn run_on(
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

    /// The gated report: latency quantiles and request counts for every
    /// server/client pair (Table 5), and the figure's CDF points for the
    /// two TAS-client curves.
    pub fn report() -> Report {
        let mut r = Report::new("fig9", "KV request latency, 15% utilization", 1);
        r.param("clients", 2);
        let (tas, ix, linux) = (Kind::TasSockets, Kind::Ix, Kind::Linux);
        let pairs = [
            ("tas_tas", tas, tas, 1),
            ("ix_tas", ix, tas, 2),
            ("linux_tas", linux, tas, 3),
            ("tas_linux", tas, linux, 4),
            ("linux_linux", linux, linux, 5),
        ]
        .map(|(name, server, client, seed)| (name, run(server, client, seed)));
        for (name, h) in &pairs {
            r.push(Metric::quantiles(&format!("latency_{name}"), "ns", h));
        }
        for (name, h) in &pairs {
            r.push(Metric::value(
                &format!("requests_{name}"),
                "count",
                h.count() as f64,
            ));
        }
        let points = [5, 10, 15, 20, 30, 50, 75, 100, 150, 200, 400].map(|us| us * 1000);
        let plotted = ["tas_tas", "linux_tas"];
        for (name, h) in pairs.iter().filter(|p| plotted.contains(&p.0)) {
            let cdf = h.cdf_points(&points).into_iter();
            let samples = cdf
                .map(|(ns, f)| (format!("us{:03}", ns / 1000), f))
                .collect();
            r.push(Metric::series(&format!("cdf_{name}"), "fraction", samples));
        }
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
    pub(super) fn build(
        seed: u64,
        step: SimTime,
        clients: usize,
    ) -> (Sim<NetMsg>, AgentId, Vec<AgentId>) {
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

    /// The gated report for the canonical staircase (seed 42, 5 clients):
    /// the headline observables, then fast-path cores, throughput and
    /// issuing clients sampled each `sample` interval.
    pub fn report() -> Report {
        let step = scaled(SimTime::from_ms(400), SimTime::from_secs(2));
        let sample = SimTime::from_ms(scaled(100, 500));
        let clients = 5usize;
        let (mut sim, server, client_ids) = build(42, step, clients);
        let total = step * (2 * clients as u64 + 1);
        let (mut cores, mut kops, mut active) = (Vec::new(), Vec::new(), Vec::new());
        let mut t = SimTime::ZERO;
        let mut prev_done = 0u64;
        while t < total {
            t += sample;
            sim.run_until(t);
            let done: u64 = client_ids
                .iter()
                .map(|&c| sim.agent::<LoadGenHost>(c).done)
                .sum();
            let issuing = (0..clients as u64)
                .filter(|i| t > step * *i && t < total - step * (i + 1))
                .count();
            cores.push((
                t_key(t),
                sim.agent::<TasHost>(server).active_fp_cores() as f64,
            ));
            kops.push((
                t_key(t),
                (done - prev_done) as f64 / sample.as_secs_f64() / 1e3,
            ));
            active.push((t_key(t), issuing as f64));
            prev_done = done;
        }
        let tas = sim.agent::<TasHost>(server);
        let reg = tas.registry();
        let global = tas_sim::Scope::Global;
        let mean_util = reg.series("fp.util_mean", global).map_or(0.0, |utils| {
            utils.samples().iter().map(|&(_, v)| v).sum::<f64>() / utils.len() as f64
        });
        let series_samples = reg.series("cores.active_fp", global).map_or(0, |s| s.len());
        let scale_events = reg.counter_value("host.scale_events", global);
        let peak = |samples: &[(String, f64)]| samples.iter().map(|s| s.1).fold(0.0, f64::max);
        let mut r = Report::new(
            "fig14",
            "Workload proportionality: cores track stepped load",
            42,
        );
        r.param("clients", clients)
            .param("step_ms", step.as_millis());
        r.push(Metric::value("peak_kops", "kops", peak(&kops)));
        r.push(Metric::value("peak_cores", "cores", peak(&cores)));
        r.push(Metric::value(
            "final_cores",
            "cores",
            tas.active_fp_cores() as f64,
        ));
        r.push(Metric::value("scale_events", "count", scale_events as f64));
        r.push(Metric::value("mean_core_util", "fraction", mean_util));
        r.push(Metric::value(
            "series_samples",
            "count",
            series_samples as f64,
        ));
        r.push(Metric::series("cores", "cores", cores));
        r.push(Metric::series("throughput", "kops", kops));
        r.push(Metric::series("active_clients", "count", active));
        r
    }
}

/// Figure 15: request latency across fast-path core additions.
pub mod fig15 {
    use super::*;
    use tas_apps::loadgen::LoadGenHost;

    /// The gated report for the canonical core-acquisition run (seed 7, 3
    /// staggered clients): the headline observables, then fast-path cores
    /// and windowed mean latency at fine granularity.
    pub fn report() -> Report {
        let (clients, step) = (3usize, SimTime::from_ms(300));
        let sample = SimTime::from_ms(scaled(10, 5));
        // Same reduced-clock proportional server as fig14, but clients
        // only arrive (no down-steps): fig14::build staggers stops; clear
        // them (ZERO = never stop) so the load only steps up, as the
        // paper's fig15 does.
        let (mut sim, server, client_ids) = super::fig14::build(7, step, clients);
        let total = step * (clients as u64 + 1);
        for &h in &client_ids {
            sim.agent_mut::<LoadGenHost>(h).set_stop_at(SimTime::ZERO);
        }
        let (mut cores, mut lat_us) = (Vec::new(), Vec::new());
        let mut t = SimTime::ZERO;
        // Transient spikes: samples whose mean latency jumped >25% over
        // the previous non-idle sample.
        let mut spikes = 0u32;
        let mut prev_lat = 0.0f64;
        let mut peak = 0.0f64;
        // Steady state: non-idle samples before the second client arrives.
        let mut pre = Vec::new();
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
            if prev_lat > 0.0 && mean > prev_lat * 1.25 {
                spikes += 1;
            }
            if mean > 0.0 {
                prev_lat = mean;
                peak = peak.max(mean);
                if t.as_millis() < step.as_millis() {
                    pre.push(mean);
                }
            }
            cores.push((
                t_key(t),
                sim.agent::<TasHost>(server).active_fp_cores() as f64,
            ));
            lat_us.push((t_key(t), mean));
        }
        let steady = if pre.is_empty() {
            0.0
        } else {
            pre.iter().sum::<f64>() / pre.len() as f64
        };
        let scale_events = host(&sim, server)
            .registry()
            .counter_value("host.scale_events", tas_sim::Scope::Global);
        let mut r = Report::new(
            "fig15",
            "Request latency across fast-path core additions",
            7,
        );
        r.param("clients", clients)
            .param("step_ms", step.as_millis());
        r.push(Metric::value("steady_lat_us", "us", steady));
        // The transient peak is inherently spiky.
        r.push(Metric::value("peak_lat_us", "us_info", peak));
        r.push(Metric::value("spikes", "count", spikes as f64));
        r.push(Metric::value("scale_events", "count", scale_events as f64));
        r.push(Metric::series("cores", "cores", cores));
        r.push(Metric::series("mean_latency", "us", lat_us));
        r
    }
}

/// Figure 4: connection scalability on a 20-core server.
pub mod fig4 {
    use super::*;

    /// Runs the RPC echo scenario at `conns` connections; returns mOps.
    fn measure(kind: Kind, conns: u32) -> f64 {
        let mut sc = RpcScenario::echo(kind, (10, 10), conns);
        sc.warmup = scaled(SimTime::from_ms(15), SimTime::from_ms(50));
        sc.measure = scaled(SimTime::from_ms(10), SimTime::from_ms(50));
        sc.seed = 42 + conns as u64;
        crate::run_rpc(&sc).mops
    }

    /// The gated report: throughput of each stack at every connection
    /// count of the sweep.
    pub fn report() -> Report {
        let mut r = Report::new("fig4", "RPC echo throughput vs. connection count", 42);
        r.param("cores", 20);
        let conn_counts = scaled(
            vec![1_000, 16_000, 48_000, 96_000],
            vec![1_000, 16_000, 32_000, 48_000, 64_000, 80_000, 96_000],
        );
        for (kname, kind) in [
            ("tas", Kind::TasSockets),
            ("ix", Kind::Ix),
            ("linux", Kind::Linux),
        ] {
            for &conns in &conn_counts {
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
    pub(super) fn scenario(kind: Kind) -> RpcScenario {
        let conns = scaled(2_000, 32_000);
        let mut sc = RpcScenario::kv(kind, (4, 4), conns);
        sc.warmup = scaled(SimTime::from_ms(20), SimTime::from_ms(100));
        sc.measure = scaled(SimTime::from_ms(15), SimTime::from_ms(100));
        sc
    }

    /// Runs the KV cycle-accounting scenario for one stack.
    pub(super) fn measure(kind: Kind) -> crate::RpcResult {
        crate::run_rpc(&scenario(kind))
    }

    const STACKS: [(&str, Kind); 3] = [
        ("linux", Kind::Linux),
        ("ix", Kind::Ix),
        ("tas", Kind::TasSockets),
    ];

    /// The gated report: total cycles/request per stack with the
    /// per-module breakdown, then the requests each average is over.
    pub fn report() -> Report {
        let mut r = Report::new("table1", "Cycles per request by network stack module", 0);
        r.param("conns", scaled(2_000, 32_000)).param("cores", 8);
        let measured = STACKS.map(|(kname, kind)| (kname, measure(kind).per_request));
        for (kname, p) in &measured {
            r.push(cycles_metric(&format!("cycles_{kname}"), p));
        }
        for (kname, p) in &measured {
            r.push(Metric::value(
                &format!("requests_{kname}"),
                "count",
                p.requests as f64,
            ));
        }
        r
    }

    /// Every per-request average must be over a real sample.
    pub fn enough_requests(r: &Report) -> Vec<Check> {
        STACKS
            .iter()
            .map(|(kname, _)| {
                let n = r.value(&format!("requests_{kname}")).unwrap_or(0.0);
                (
                    format!("{kname}: more than 100 requests measured"),
                    n > 100.0,
                )
            })
            .collect()
    }

    /// Total cycles/request as a metric with the per-module breakdown.
    pub(super) fn cycles_metric(name: &str, p: &crate::PerRequest) -> Metric {
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
    const LINUX_SEED: u64 = 32;

    /// One sweep point: (median, p99, fair share) of per-connection
    /// bytes received per sampling interval.
    fn run(stack: BulkStack, conns_total: u32, seed: u64) -> (f64, f64, f64) {
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

    /// The gated report: per connection count, TAS's median with its p99
    /// and the fair share, then the Linux model's median.
    pub fn report() -> Report {
        let mut r = Report::new("fig13", "Incast per-connection fairness (4 -> 1)", TAS_SEED);
        r.param("senders", SENDERS);
        let conn_counts = scaled(vec![50, 200, 1000], vec![50, 100, 200, 500, 1000, 2000]);
        for &n in &conn_counts {
            let (median, p99, fair) = run(BulkStack::TAS, n, TAS_SEED);
            r.push(
                Metric::value(&format!("tas_{n}c_median"), "bytes", median)
                    .with_component("fair_share", fair)
                    .with_component("p99", p99),
            );
        }
        for &n in &conn_counts {
            let (median, _, _) = run(BulkStack::Linux, n, LINUX_SEED);
            r.push(Metric::value(
                &format!("linux_{n}c_median"),
                "bytes",
                median,
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

    /// The paper's two statements about the flow state.
    pub fn paper_claims(r: &Report) -> Vec<Check> {
        let at = |name| r.value(name).unwrap_or(0.0);
        vec![
            ("flow state is 102 bytes".into(), at("flow_state") == 102.0),
            (
                "more than 20,000 flows fit a 2 MB core cache".into(),
                at("flows_per_2mb_cache") > 20_000.0,
            ),
        ]
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
            );
            for (module, cycles) in cap.profile.rollup_depth1() {
                per_req = per_req.with_component(&module, cycles as f64 / reqs);
            }
            r.push(per_req);
            let mut per_pkt = Metric::value(
                &format!("cycles_per_pkt_{name}"),
                "cycles",
                cap.cycles_per_packet(),
            );
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
    fn cells() -> [(&'static str, BulkStack, &'static str, BulkStack, u64); 4] {
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
    fn goodput_gbps(sender: BulkStack, receiver: BulkStack, seed: u64) -> f64 {
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

    /// Payload goodput on a 10G wire with TCP/IP/Ethernet overhead tops
    /// out around 9.4 Gbps; every combination must get close.
    pub fn line_rate(r: &Report) -> Vec<Check> {
        cells()
            .iter()
            .map(|(sn, _, rn, _, _)| {
                let gbps = r.value(&format!("{sn}_to_{rn}")).unwrap_or(0.0);
                (format!("{sn} -> {rn} reaches 8.5 Gbps"), gbps >= 8.5)
            })
            .collect()
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
    /// determinism probe used by `tests/designspace.rs`.
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
    fn run(kind: Kind, msgs_per_conn: u32, conns: u32, measure: SimTime) -> f64 {
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

    /// The gated report: TAS and Linux throughput per messages/connection
    /// point, plus TAS's persistent-connection reference.
    pub fn report() -> Report {
        let conns = scaled(128, 1_024);
        let measure = scaled(SimTime::from_ms(30), SimTime::from_ms(100));
        let points = scaled(
            vec![1, 4, 16, 64, 256],
            vec![1, 2, 4, 16, 64, 256, 1_024, 4_096],
        );
        let mut r = Report::new("fig5", "Short-lived connection throughput", 7);
        r.param("conns", conns);
        for m in points {
            for (name, kind) in [("tas", Kind::TasSockets), ("linux", Kind::Linux)] {
                let mops = run(kind, m, conns, measure);
                r.push(Metric::value(&format!("{name}_{m}mpc"), "mops", mops));
            }
        }
        let persistent = run(Kind::TasSockets, u32::MAX, conns, measure);
        r.push(Metric::value("tas_persistent", "mops", persistent));
        r
    }
}

/// Pushes a KV core-count sweep (Fig. 8, Table 7): mOps per stack at
/// every total core count, the last (max-cores) row under the bare stack
/// names and the rows below it as `<stack>_<n>cores`.
fn push_core_sweep(r: &mut Report, totals: &[usize], measure: impl Fn(Kind, usize) -> f64) {
    let stacks = [
        ("tas_ll", Kind::TasLowLevel),
        ("tas_so", Kind::TasSockets),
        ("ix", Kind::Ix),
        ("linux", Kind::Linux),
    ];
    let max = totals.last().copied().unwrap_or(0);
    r.param("cores", max);
    for &total in totals {
        for (stack, kind) in stacks {
            let name = cell(stack, format_args!("{total}cores"), total == max);
            r.push(Metric::value(&name, "mops", measure(kind, total)));
        }
    }
}

/// Figure 8 + Table 6: key-value store throughput scalability with
/// server cores, for TAS LL, TAS SO, IX, and Linux.
pub mod fig8 {
    use super::*;

    /// Table 6 core splits per total core count, as `(fast-path, app)`
    /// for TAS and as two halves of one pool for the baselines.
    fn split(kind: Kind, total: usize) -> (usize, usize) {
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

    /// The gated report: throughput per stack and total core count, with
    /// the Table 6 splits used (`total:app/fast-path`) as parameters.
    pub fn report() -> Report {
        let conns = scaled(4_000, 32_000);
        let totals = scaled(vec![2, 4, 8, 16], vec![2, 4, 8, 12, 16]);
        let mut r = Report::new("fig8", "KV throughput scalability with server cores", 7);
        r.param("conns", conns);
        for (param, kind) in [
            ("split_so", Kind::TasSockets),
            ("split_ll", Kind::TasLowLevel),
        ] {
            let splits = totals.iter().map(|&total| {
                let (fp, app) = split(kind, total);
                format!("{total}:{app}/{fp}")
            });
            r.param(param, splits.collect::<Vec<_>>().join(" "));
        }
        push_core_sweep(&mut r, &totals, |kind, total| {
            let mut sc = RpcScenario::kv(kind, split(kind, total), conns);
            sc.warmup = scaled(SimTime::from_ms(15), SimTime::from_ms(60));
            sc.measure = scaled(SimTime::from_ms(10), SimTime::from_ms(50));
            sc.seed = 7 + total as u64;
            crate::run_rpc(&sc).mops
        });
        r
    }
}

/// Table 7: throughput for the non-scalable key-value workload — a
/// single contended key whose updates serialize on a lock.
pub mod table7 {
    use super::*;

    /// Runs the contended-key workload on `total` server cores.
    fn run(kind: Kind, total: usize) -> f64 {
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

    /// The gated report: throughput per stack at 2, 3 and 4 total cores.
    pub fn report() -> Report {
        let mut r = Report::new("table7", "Non-scalable KV workload, 2 to 4 cores", 99);
        r.param("conns", 256);
        push_core_sweep(&mut r, &[2, 3, 4], run);
        r
    }
}

/// Table 2: per-request app/stack overheads — cycles, instructions, CPI.
pub mod table2 {
    use super::*;
    use tas_cpusim::Module;

    /// The gated report: per-request accounting for Linux, IX and TAS on
    /// the Table 1 scenario (one source of cycle truth with Table 1 and
    /// `cpuprof`).
    pub fn report() -> Report {
        let mut r = Report::new("table2", "Per-request cycles, instructions, CPI", 0);
        r.param("conns", scaled(2_000, 32_000));
        for kind in [Kind::Linux, Kind::Ix, Kind::TasSockets] {
            let p = table1::measure(kind).per_request;
            let tag = kind.label().to_lowercase().replace(' ', "_");
            r.push(
                Metric::value(&format!("stack_cycles_{tag}"), "cycles", p.stack_cycles())
                    .with_component("app_cycles", p.cycles[Module::App as usize])
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

    /// Runs the chain on `kind`; returns the sink's million tuples/s with
    /// the middle node's mean per-tuple delays (Table 8) as components.
    fn run(name: &str, kind: Kind, spout_rate: u64, seed: u64) -> Metric {
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
        let mtps = (p1 - p0) as f64 / window.as_secs_f64() / 1e6;
        Metric::value(name, "mops", mtps)
            .with_component("input_us", mid.input_delay_us.mean())
            .with_component("proc_us", mid.proc_us.mean())
            .with_component("output_ms", mid.output_delay_us.mean() / 1000.0)
    }

    /// The gated report: throughput and tuple delays on the three stacks.
    pub fn report() -> Report {
        let spout_rate = scaled(1_500_000, 4_000_000);
        let mut r = Report::new("fig10", "FlexStorm throughput and tuple latency", 1);
        r.param("spout_rate", spout_rate).param("nodes", 3);
        for (name, kind, seed) in [
            ("linux_mtps", Kind::Linux, 1),
            ("mtcp_mtps", Kind::Mtcp, 2),
            ("tas_mtps", Kind::TasSockets, 3),
        ] {
            r.push(run(name, kind, spout_rate, seed));
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
    pub(super) enum Cc {
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
    pub(super) fn node_cfg(cc: Cc, cores: usize, buf: usize) -> HostCfg {
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
    pub(super) fn flow_gen(
        dests: Vec<(std::net::Ipv4Addr, u16)>,
        load_bps: f64,
        seed: u64,
    ) -> FlowGen {
        let alpha = 1.2;
        let mean = tas_sim::dist::BoundedPareto::new(2.0 * 1448.0, 500.0 * 1448.0, alpha).mean();
        let gap = SimTime::from_secs_f64(mean * 8.0 / load_bps);
        let mut g = FlowGen::new(dests, gap, seed);
        g.size_alpha = alpha;
        g
    }

    /// Runs the single-link experiment; returns (mean FCT ms, mean
    /// bottleneck queue pkts).
    fn run(cc: Cc, seed: u64) -> (f64, f64) {
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

    /// The gated report: mean FCT and bottleneck queue for the TCP and
    /// DCTCP reference lines, the τ sweep, and the TIMELY extension (the
    /// paper names TIMELY as a pluggable policy but does not evaluate it).
    pub fn report() -> Report {
        let mut r = Report::new(
            "fig11",
            "Single-link CC fidelity: FCT and bottleneck queue",
            11,
        );
        r.param("load", "0.75").param("senders", 8);
        let taus = scaled(
            vec![50, 100, 400, 1000],
            vec![25, 50, 100, 200, 400, 600, 800, 1000],
        );
        let mut lines = vec![
            ("tcp".to_string(), Cc::Tcp, 11),
            ("dctcp".to_string(), Cc::Dctcp, 12),
        ];
        lines.extend(taus.into_iter().map(|tau| {
            let cc = Cc::TasRate { tau_us: tau };
            (format!("tas_tau{tau}"), cc, 13 + tau)
        }));
        lines.push(("timely".to_string(), Cc::TasTimely, 29));
        for (name, cc, seed) in lines {
            let (fct_ms, queue) = run(cc, seed);
            r.push(Metric::value(&format!("{name}_fct"), "us", fct_ms * 1000.0));
            r.push(Metric::value(&format!("{name}_queue_pkts"), "pkts", queue));
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
    fn k() -> usize {
        scaled(4, 8)
    }

    /// Returns (short-flow FCT histogram, long-flow FCT histogram) in ns.
    fn run(cc: Cc, seed: u64) -> (Histogram, Histogram) {
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

    /// The gated report: short- and long-flow FCT quantiles per variant,
    /// then each distribution's mean with its flow count.
    pub fn report() -> Report {
        let mut r = Report::new("fig12", "FatTree flow completion times", 21);
        r.param("k", k()).param("hosts", k() * k() * k() / 4);
        let variants = [
            ("tcp", Cc::Tcp),
            ("dctcp", Cc::Dctcp),
            ("tas", Cc::TasRate { tau_us: 100 }),
        ]
        .map(|(tag, cc)| (tag, run(cc, 21)));
        let fcts = variants.iter().flat_map(|(tag, (s, l))| {
            [
                (format!("{tag}_short_fct"), s),
                (format!("{tag}_long_fct"), l),
            ]
        });
        for (name, h) in fcts.clone() {
            r.push(Metric::quantiles(&name, "ns", h));
        }
        for (name, h) in fcts {
            let mean = Metric::value(&format!("{name}_mean"), "ns", h.mean());
            r.push(mean.with_component("flows", h.count() as f64));
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

    /// Ablation A: echo mOps at each connection count for three per-flow
    /// state footprints, as cache lines touched per request: 2 = TAS's
    /// 102 B; 8 = a 512 B state; 30 = a ~1.9 KB Linux `tcp_sock`-like
    /// state. The largest count keeps the bare variant names.
    fn push_state_footprint(r: &mut Report) {
        let conn_counts = scaled(vec![16_000, 64_000], vec![16_000, 64_000, 96_000]);
        for &conns in &conn_counts {
            for (variant, lines) in [("state_102b", 2), ("state_512b", 8), ("state_1900b", 30)] {
                let mut sc = RpcScenario::echo(Kind::TasSockets, (10, 10), conns);
                sc.warmup = scaled(SimTime::from_ms(15), SimTime::from_ms(50));
                sc.measure = scaled(SimTime::from_ms(10), SimTime::from_ms(50));
                sc.seed = 7_000 + conns as u64;
                sc.tas_overrides = TasOverrides {
                    cache_lines_per_req: Some(lines),
                    ..TasOverrides::default()
                };
                let at_max = Some(&conns) == conn_counts.last();
                let name = cell(variant, format_args!("{conns}c"), at_max);
                r.push(Metric::value(&name, "mops", crate::run_rpc(&sc).mops));
            }
        }
    }

    /// Runs `senders` TAS bulk hosts with 25 connections each into one
    /// receiver over a shared 10G star; returns the receiver's goodput
    /// with the senders' fast and slow-path timeout retransmits.
    fn bulk_fan_in(
        name: &str,
        cc: CcAlgo,
        stall_intervals: u32,
        loss: f64,
        senders: usize,
        seed: u64,
    ) -> Metric {
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
        let hosts = || topo.hosts[1..].iter().map(|&h| sim.agent::<TasHost>(h));
        let fast: u64 = hosts().map(|s| s.fp_stats().fast_rexmits).sum();
        let timeout: u64 = hosts().map(|s| s.sp_stats().timeout_rexmits).sum();
        Metric::value(name, "gbps", bps / 1e9)
            .with_component("fast_rexmits", fast as f64)
            .with_component("timeout_rexmits", timeout as f64)
    }

    /// The gated report. A: per-flow state footprint. B: 4x25 bulk flows
    /// with fast-path rate enforcement on, then with congestion control
    /// disabled. C: stalled control intervals before a slow-path
    /// retransmit, under 1% loss.
    pub fn report() -> Report {
        let mut r = Report::new("ablations", "Design-choice ablations", 300);
        push_state_footprint(&mut r);
        r.push(bulk_fan_in(
            "enforced_gbps",
            CcAlgo::DctcpRate,
            2,
            0.0,
            4,
            300,
        ));
        r.push(bulk_fan_in("unenforced_gbps", CcAlgo::None, 2, 0.0, 4, 300));
        for n in [1u32, 2, 4] {
            let name = format!("stall_{n}_gbps");
            r.push(bulk_fan_in(&name, CcAlgo::DctcpRate, n, 0.01, 1, 400));
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
/// ([`crate::gate`]) needs to generate, check, pin and show it.
/// Every report is modelled — a pure function of its seeds — and gated
/// byte-for-byte against its pin.
pub struct Entry {
    /// Report name: `BENCH_<name>.json`, and what `bench-report` takes.
    pub name: &'static str,
    /// What the paper reports for this artefact (or the design choice an
    /// ablation tests): the reference line the rendered report is read
    /// against. Empty for artefacts the paper has no counterpart of.
    pub paper: &'static str,
    /// The builder.
    pub build: Build,
    /// Invariants any instance of the report must satisfy.
    pub invariants: fn(&Report) -> Vec<Check>,
}

impl Entry {
    fn new(name: &'static str, paper: &'static str, build: Build) -> Entry {
        Entry {
            name,
            paper,
            build,
            invariants: |_| Vec::new(),
        }
    }

    fn report(name: &'static str, paper: &'static str, build: fn() -> Report) -> Entry {
        Entry::new(name, paper, Build::Report(build))
    }
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
        Entry::report(
            "fig4",
            "TAS ~flat (-7% at 96k); IX peaks then -60%; Linux low and -40%",
            fig4::report,
        ),
        Entry::report(
            "fig5",
            "TAS beats Linux from ~4 RPCs/conn; 95% of persistent throughput at 256",
            fig5::report,
        ),
        Entry::report(
            "fig6",
            "RX: TAS 4.5x Linux small, 40G at 2KB; TX: TAS 12.4x Linux, 1.5x mTCP small; \
             gaps shrink at 1000 cycles",
            fig6::report,
        ),
        Entry::report(
            "fig7",
            "TAS <=1.5% penalty to 1% loss, 13% at 5%; ~2x Linux; go-back-N ~3x worse",
            fig7::report,
        ),
        Entry::report(
            "fig8",
            "at 16 cores TAS LL 9.6x Linux / 1.9x IX; TAS SO 7.0x / 1.3x (32k conns)",
            fig8::report,
        ),
        Entry::report(
            "fig9",
            "TAS clients, median/90th/99th/max us: Linux 97/129/177/1319, IX 20/27/30/280, \
             TAS 17/20/30/122",
            fig9::report,
        ),
        Entry::report(
            "fig10",
            "raw mt/s: Linux 1.3, mTCP 2.8, TAS 3.0; input/proc/output per tuple: \
             Linux 6.96us/0.37us/20ms, mTCP 4ms/0.33us/14ms, TAS 7.47us/0.36us/8ms",
            fig10::report,
        ),
        Entry::report(
            "fig11",
            "TAS FCT ~ DCTCP for tau >= RTT (100us); small tau converges slowly; queue grows \
             mildly with tau; TCP's queue much larger",
            fig11::report,
        ),
        Entry::report(
            "fig12",
            "TAS ~ DCTCP in both CDFs (short <=50 pkts, long); TCP worse in the tail",
            fig12::report,
        ),
        Entry::report(
            "fig13",
            "TAS p99 within 1.6-2.8x of median; median ~ fair share; Linux fluctuates",
            fig13::report,
        ),
        Entry::report(
            "fig14",
            "cores ramp 1 -> 9 -> 1 as clients come and go; throughput tracks",
            fig14::report,
        ),
        Entry::report(
            "fig15",
            "latency spikes ~30% (~15us) during each core adjustment, then recovers",
            fig15::report,
        ),
        Entry {
            invariants: table1::enough_requests,
            ..Entry::report(
                "table1",
                "kc/request driver/IP/TCP/sockets/other/app: Linux 0.73/1.53/3.92/8.00/1.50/1.07 \
                 = 16.75; IX 0.05/0.12/1.05/0.76/0/0.76 = 2.73; TAS 0.09/0/0.81/0.62/0/0.68 = 2.57",
                table1::report,
            )
        },
        Entry::report(
            "table2",
            "app/stack cycles, instr, CPI: Linux 1.1k/15.7k, 12.7ki, 1.32; IX 0.8k/1.9k, \
             3.3ki, 0.82; TAS 0.7k/1.9k, 3.9ki, 0.66",
            table2::report,
        ),
        Entry {
            invariants: table3::paper_claims,
            ..Entry::report(
                "table3",
                "field widths sum to 102 bytes; more than 20,000 flows fit 2 MB per core",
                table3::report,
            )
        },
        Entry {
            invariants: table4::line_rate,
            ..Entry::report(
                "table4",
                "9.4 Gbps goodput in all four sender/receiver combinations",
                table4::report,
            )
        },
        Entry::report(
            "table7",
            "mOps at 2/3/4 cores: TAS LL 2.4/3.8/4.6; TAS SO 2.4/3.1/3.1; IX 2.5/2.8/2.8; \
             Linux 0.4/0.6/0.8; in the limit TAS LL 1.6x IX, 5.7x Linux",
            table7::report,
        ),
        Entry::report(
            "ablations",
            "design choices: 102 B compact flow state (Table 3); slow-path CC enforced by \
             fast-path rate limiters; retransmit after 2 stalled control intervals (§3.2)",
            ablations::report,
        ),
        Entry {
            invariants: designspace::orderings,
            ..Entry::report("designspace", "", designspace::report)
        },
        Entry {
            invariants: crate::scenario::isolation_checks,
            ..Entry::report("scenarios", "", crate::scenario::report)
        },
        Entry::new(
            "fig6spans",
            "§5.2 tail analysis: queueing, not processing, makes the tail",
            fig6spans,
        ),
        Entry::new("cpuprof", "", cpuprof),
    ]
}
