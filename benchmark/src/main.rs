//! `tas-benchmark`: one workload per process, every metric of
//! `BENCHMARK.json` by name, output checks, and a JSON result line.
//!
//! Two clocks, named in every metric: `host_*` is wall time of this
//! repository's Rust; `model_*` is simulated time or modelled cycles and
//! must repeat exactly for a given `--seed` and `--seconds`.
//!
//! ```text
//! tas-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!               [--smoke] [--out DIR]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the
//! workload untraced and then traced in one process and reports the
//! per-layer metrics, the traced-over-untraced overhead among them.

mod fpwl;
mod kvload;
mod measure;
mod probes;
mod simwl;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use fpwl::{FpBed, FpKind};
use measure::{iqr_rel, median, peak_rss_mb, quantile, speed_factor_now, Counts, Outcome};
use simwl::{Net, SimKind};
use trace::{Class, Tracer, TracerRef};

#[global_allocator]
static GLOBAL: measure::CountingAlloc = measure::CountingAlloc;

/// Set-up samples per untraced run; `setup_s` is their median. A sample
/// is the mean of [`Workload::setups_per_sample`] set-ups, at reference
/// speed.
const SETUP_SAMPLES: usize = 5;

/// `--smoke` divides every size by this.
const SMOKE_DIV: u64 = 50;

/// How much work a run does: pinned sizes times `--seconds`, divided by
/// [`SMOKE_DIV`] under `--smoke`.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub seconds: u64,
    pub smoke: bool,
}

impl Scale {
    pub fn size(self, n: u64) -> u64 {
        if self.smoke {
            (n / SMOKE_DIV).max(1)
        } else {
            n
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    Sim(SimKind),
    Fp(FpKind),
}

const RPC: &str = "rpc64_tas_sim";
const BULK: &str = "bulk_loss_tas_sim";
const KV: &str = "kv_linux_sim";
const RX: &str = "fp_rx_256k";
const DUPLEX: &str = "fp_duplex_1k";

const WORKLOADS: [(&str, Workload); 5] = [
    (RPC, Workload::Sim(SimKind::Rpc64Tas)),
    (BULK, Workload::Sim(SimKind::BulkLossTas)),
    (KV, Workload::Sim(SimKind::KvLinux)),
    (RX, Workload::Fp(FpKind::Rx256k)),
    (DUPLEX, Workload::Fp(FpKind::Duplex1k)),
];

/// A warmed workload instance, ready for its timed part.
enum Bed {
    Sim(SimKind, Box<Net>),
    Fp(FpKind, Box<FpBed>),
}

impl Bed {
    fn run(self, a: &Args, tracer: &Option<TracerRef>) -> Outcome {
        match self {
            Bed::Sim(k, net) => k.run(*net, a.scale, tracer),
            Bed::Fp(k, bed) => k.run(*bed, a.seed, a.scale, tracer.is_some()),
        }
    }
}

struct Args {
    name: String,
    workload: Workload,
    seed: u64,
    scale: Scale,
    trace: bool,
    out: PathBuf,
}

type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
    format!(
        "usage: tas-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] \
         [--smoke] [--out DIR]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut name = None;
    let (mut seed, mut seconds, mut trace, mut smoke) = (1u64, 8u64, false, false);
    let mut out = PathBuf::from("benchmark/out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => name = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--smoke" => smoke = true,
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    let name = name.ok_or_else(usage)?;
    let workload = WORKLOADS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, w)| *w)
        .ok_or_else(|| format!("unknown workload {name}\n{}", usage()))?;
    if !(1..=60).contains(&seconds) {
        return Err("--seconds must be between 1 and 60".to_string());
    }
    Ok(Args {
        name,
        workload,
        seed,
        scale: Scale { seconds, smoke },
        trace,
        out,
    })
}

impl Workload {
    fn setup(self, a: &Args, tracer: &Option<TracerRef>) -> Bed {
        match self {
            Workload::Sim(k) => Bed::Sim(k, Box::new(k.setup(a.seed, a.scale, tracer))),
            Workload::Fp(k) => Bed::Fp(k, Box::new(k.setup(a.scale))),
        }
    }

    /// Set-ups timed one after the other for one sample of `setup_s`,
    /// pinned so a sample lasts 0.3-0.5 s on the calibration box: one
    /// set-up of `fp_duplex_1k` takes 0.55 ms, which on its own is timer
    /// and scheduler noise.
    fn setups_per_sample(self) -> usize {
        match self {
            Workload::Sim(SimKind::Rpc64Tas) => 1,
            Workload::Sim(SimKind::BulkLossTas) => 3,
            Workload::Sim(SimKind::KvLinux) => 8,
            Workload::Fp(FpKind::Rx256k) => 2,
            Workload::Fp(FpKind::Duplex1k) => 500,
        }
    }

    /// Times [`SETUP_SAMPLES`] samples of the set-up into `samples` and
    /// returns the last instance built. Each instance is dropped, outside
    /// the timing, before the next is built, so the peak resident set is
    /// that of one instance.
    fn setup_timed(self, a: &Args, samples: &mut Vec<f64>) -> Bed {
        let per_sample = self.setups_per_sample();
        let mut bed = None;
        for _ in 0..SETUP_SAMPLES {
            let mut secs = 0.0;
            for _ in 0..per_sample {
                drop(bed.take());
                let t0 = Instant::now();
                bed = Some(self.setup(a, &None));
                secs += t0.elapsed().as_secs_f64();
            }
            samples.push(secs / per_sample as f64 * speed_factor_now());
        }
        bed.expect("SETUP_SAMPLES and setups_per_sample are at least 1")
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The five end-to-end metrics of `BENCHMARK.json`, from an untraced run.
fn end_to_end(setups: &[f64], o: &Outcome) -> Metrics {
    let d = &o.delta;
    let bits = d["payload_bytes"] as f64 * 8.0;
    // Without a simulated clock the only model is the cycle model: report
    // what one fast-path core at the configured clock would sustain.
    let model_s = if o.sim_window_s > 0.0 {
        o.sim_window_s
    } else {
        d["busy_cycles"] as f64 / tas::TasConfig::default().freq_hz as f64
    };
    let mut m = Metrics::new();
    m.insert("setup_s", (median(setups), "s"));
    m.insert("host_ns_per_pkt", (o.clocked.host_ns_per_pkt(), "ns"));
    m.insert("peak_rss_mb", (peak_rss_mb(), "MB"));
    m.insert(
        "model_cycles_per_pkt",
        (ratio(d["busy_cycles"], d["pkts"]), "cycles"),
    );
    m.insert("model_goodput_gbps", (bits / model_s / 1e9, "Gbps"));
    m
}

/// Metrics under construction, with shorthands for their common shapes.
struct Ledger<'a> {
    m: Metrics,
    delta: &'a Counts,
    total: &'a Counts,
}

impl Ledger<'_> {
    fn put(&mut self, name: &'static str, v: f64, unit: &'static str) {
        self.m
            .insert(name, (if v.is_finite() { v } else { 0.0 }, unit));
    }

    fn ns(&mut self, name: &'static str, v: f64) {
        self.put(name, v, "ns");
    }

    fn share(&mut self, name: &'static str, v: f64) {
        self.put(name, v, "share");
    }

    fn delta(&self, key: &str) -> u64 {
        self.delta.get(key).copied().unwrap_or(0)
    }

    /// Runs `probe` if `a`'s workload is `on`, the one it explains; 0 on
    /// the others, so a probe costs its time once per traced set.
    fn probe(&mut self, a: &Args, on: &str, name: &'static str, probe: impl FnOnce(Scale) -> f64) {
        let v = if a.name == on { probe(a.scale) } else { 0.0 };
        self.ns(name, v);
    }

    /// Each `key` counted over the timed part.
    fn counts(&mut self, pairs: &[(&'static str, &str)]) {
        for (name, key) in pairs {
            self.put(name, self.delta(key) as f64, "count");
        }
    }

    /// Each `key` counted since the instance was built: connection
    /// life-cycle counts, whose events happen during set-up.
    fn totals(&mut self, pairs: &[(&'static str, &str)]) {
        for (name, key) in pairs {
            let v = self.total.get(*key).copied().unwrap_or(0);
            self.put(name, v as f64, "count");
        }
    }

    /// Host ns per event inside agents of `class`, and their share of
    /// the run spans.
    fn class(&mut self, tracer: &Tracer, class: Class, ns: &'static str, share: &'static str) {
        let (events, in_class) = tracer.class_total(class);
        self.ns(ns, ratio(in_class, events));
        self.share(share, ratio(in_class, tracer.run_ns()));
    }
}

/// Per-layer metrics: counts and allocations from the untraced run `o`,
/// host-time attribution from the traced run `t`, plus the probes.
fn per_layer(a: &Args, o: &Outcome, t: &Outcome, tracer: &Tracer, bytes_per_flow: f64) -> Metrics {
    let mut l = Ledger {
        m: Metrics::new(),
        delta: &o.delta,
        total: &o.total,
    };
    let pkts = l.delta("pkts");
    let clk = &o.clocked;

    // Modelled results that only some workloads define (0 elsewhere).
    l.put("model.mops", o.mops(), "Mops");
    l.put("model.lat_p50_us", o.lat_p50_us(), "us");
    l.put("model.lat_p99_us", o.lat_p99_us(), "us");
    l.put("model.lat_samples", o.latency.count() as f64, "count");

    // sim: the event engine. Its self time is the run spans minus the
    // agents' spans.
    let quiet = clk.quiet();
    let quiet_sim_ms = o.sim_window_s * 1e3 * quiet.slices as f64 / measure::SLICES as f64;
    l.put(
        "sim.ms_per_host_s",
        quiet_sim_ms / (quiet.wall_ns as f64 / 1e9),
        "ms/s",
    );
    l.put(
        "sim.events_per_pkt",
        ratio(l.delta("sim.events"), pkts),
        "count",
    );
    let run_ns = tracer.run_ns();
    let (events, child_ns) = tracer.children_total();
    let self_ns = run_ns.saturating_sub(child_ns);
    l.ns("sim.self_ns_per_event", ratio(self_ns, events));
    l.share("sim.self_share", ratio(self_ns, run_ns));
    l.probe(a, BULK, "sim.evq_ns_per_op", probes::evq_ns_per_op);

    // netsim: switch and fault injector.
    l.class(
        tracer,
        Class::Switch,
        "netsim.switch_ns_per_event",
        "netsim.switch_share",
    );
    l.put("netsim.switch_qdepth_mean", o.qdepth_mean, "pkts");
    l.counts(&[
        ("netsim.switch_drops", "switch.drops"),
        ("netsim.switch_ecn_marked", "switch.marked"),
        ("netsim.fault_dropped", "fault.dropped"),
        ("netsim.fault_seen", "fault.seen"),
    ]);

    // tas: host agent, fast path, slow path.
    l.class(
        tracer,
        Class::TasHost,
        "tas.host_ns_per_event",
        "tas.host_share",
    );
    l.ns("tas.fp_ns_per_rx", t.fp_rx_ns);
    l.ns("tas.fp_ns_per_rx_p99", t.fp_rx_ns_p99);
    l.ns("tas.fp_ns_per_tx", t.fp_tx_ns);
    let flowstate = std::mem::size_of::<tas::flow::FlowState>();
    l.put("tas.flowstate_bytes", flowstate as f64, "B");
    l.put("tas.bytes_per_flow", bytes_per_flow, "B");
    l.share(
        "tas.fp_exception_share",
        ratio(l.delta("fp.exceptions"), l.delta("fp.pkts_rx")),
    );
    l.counts(&[
        ("tas.fp_pkts_rx", "fp.pkts_rx"),
        ("tas.fp_segs_tx", "fp.segs_tx"),
        ("tas.fp_acks_tx", "fp.acks_tx"),
        ("tas.fp_drop_ooo", "fp.drop_ooo"),
        ("tas.fp_drop_buf_full", "fp.drop_buf_full"),
        ("tas.fp_fast_rexmits", "fp.fast_rexmits"),
        ("tas.fp_timers_armed", "fp.timers_armed"),
        ("tas.sp_timeout_rexmits", "sp.timeout_rexmits"),
        ("tas.sp_dropped", "sp.dropped"),
        ("tas.host_fp_wakes", "tas.fp_wakes"),
    ]);
    l.totals(&[
        ("tas.sp_established", "sp.established"),
        ("tas.sp_handshake_rexmits", "sp.handshake_rexmits"),
        ("tas.host_drop_backlog", "tas.drop_backlog"),
    ]);

    // shm, proto, tcp: probes and the reference engine's counters.
    l.probe(a, BULK, "shm.ring_ns_per_op_64", |s| {
        probes::ring_ns_per_op(s, 64)
    });
    l.probe(a, BULK, "shm.ring_ns_per_op_1448", |s| {
        probes::ring_ns_per_op(s, 1448)
    });
    l.probe(a, RPC, "shm.descq_ns_per_op", probes::descq_ns_per_op);
    l.probe(
        a,
        BULK,
        "proto.payload_ns_per_buf",
        probes::payload_ns_per_buf,
    );
    // The codec is off the live path (ROADMAP 4b), so no workload depends
    // on it; it rides with the shortest one.
    l.probe(a, DUPLEX, "proto.wire_ns_per_frame_64", |s| {
        probes::wire_ns_per_frame(s, 64)
    });
    l.probe(a, DUPLEX, "proto.wire_ns_per_frame_1448", |s| {
        probes::wire_ns_per_frame(s, 1448)
    });
    l.probe(a, KV, "tcp.conn_ns_per_seg", probes::conn_ns_per_seg);
    l.counts(&[
        ("tcp.segs_in", "tcp.segs_in"),
        ("tcp.segs_out", "tcp.segs_out"),
        ("tcp.retransmits", "tcp.retransmits"),
        ("tcp.fast_retransmits", "tcp.fast_retransmits"),
        ("tcp.timeouts", "tcp.timeouts"),
    ]);

    // baselines: the Linux-model host.
    l.class(
        tracer,
        Class::StackHost,
        "baselines.host_ns_per_event",
        "baselines.host_share",
    );
    l.counts(&[("baselines.batches", "baselines.batches")]);
    l.totals(&[("baselines.drop_backlog", "baselines.drop_backlog")]);

    // cpusim: modelled cycles per segment, by module.
    for (name, key) in [
        ("cpusim.cycles_driver", "cyc.driver"),
        ("cpusim.cycles_ip", "cyc.ip"),
        ("cpusim.cycles_tcp", "cyc.tcp"),
        ("cpusim.cycles_api", "cyc.api"),
        ("cpusim.cycles_app", "cyc.app"),
        ("cpusim.cycles_other", "cyc.other"),
    ] {
        l.put(name, ratio(l.delta(key), pkts), "cycles");
    }

    // apps: load generators and client hosts.
    l.class(
        tracer,
        Class::Client,
        "apps.client_ns_per_event",
        "apps.client_share",
    );
    l.counts(&[
        ("apps.requests", "client.done"),
        ("apps.bytes_delivered", "server.bytes_delivered"),
    ]);
    l.put("apps.gen_late_p99_us", o.gen_late_p99_us(), "us");

    // Allocator traffic and host noise over the untraced timed part.
    l.put(
        "alloc.allocs_per_pkt",
        ratio(clk.alloc.allocs, pkts),
        "count",
    );
    l.put("alloc.bytes_per_pkt", ratio(clk.alloc.bytes, pkts), "B");
    l.share("host.cpu_share", clk.cpu_share);
    l.share("host.slice_iqr_rel", iqr_rel(&clk.ns_per_pkt()));
    l.ns("host.raw_ns_per_pkt", quiet.ns_per_pkt());
    l.share("host.speed_factor", clk.speed_factor());
    l.put("host.timed_wall_s", clk.wall_ns as f64 / 1e9, "s");

    // Instrument health, both runs taken at reference speed. Self times
    // are parent minus children, so what can go missing is the part of
    // the traced timed part that lies outside every run span.
    let traced_wall = t.clocked.wall_ns as f64 * t.clocked.speed_factor();
    let plain_wall = clk.wall_ns.max(1) as f64 * clk.speed_factor();
    l.share("trace.overhead_share", traced_wall / plain_wall - 1.0);
    let missing = if run_ns > 0 {
        t.clocked.wall_ns.abs_diff(run_ns)
    } else {
        0
    };
    l.share("trace.conservation_err", ratio(missing, t.clocked.wall_ns));
    l.m
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_nums(xs: &[f64]) -> String {
    let parts: Vec<String> = xs.iter().map(|x| format!("{x}")).collect();
    format!("[{}]", parts.join(","))
}

fn json_metrics(m: &Metrics) -> String {
    let parts: Vec<String> = m
        .iter()
        .map(|(k, (v, u))| format!("{}:{{\"value\":{v},\"unit\":{}}}", json_str(k), json_str(u)))
        .collect();
    format!("{{{}}}", parts.join(","))
}

struct Report<'a> {
    args: &'a Args,
    metrics: Metrics,
    setups: Vec<f64>,
    outcome: &'a Outcome,
}

impl Report<'_> {
    fn correct(&self) -> bool {
        self.outcome.checks.failed == 0
    }

    /// The line the driver reads: exactly these four keys.
    fn result_line(&self) -> String {
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct(),
            self.outcome.attempted.max(1),
            self.outcome.checks.failed,
            json_metrics(&self.metrics)
        )
    }

    /// Everything `compare.py` and a reader of `results.json` need.
    fn detail(&self) -> String {
        let o = self.outcome;
        let failures: Vec<String> = o.checks.failures.iter().map(|f| json_str(f)).collect();
        format!(
            "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"smoke\":{},\
             \"correct\":{},\"attempted\":{},\"failed\":{},\"failures\":[{}],\
             \"model_fingerprint\":\"{:016x}\",\"setup_s\":{},\"slice_ns_per_pkt\":{},\
             \"speed_factor\":{},\"metrics\":{}}}",
            json_str(&self.args.name),
            self.args.seed,
            self.args.scale.seconds,
            u8::from(self.args.trace),
            self.args.scale.smoke,
            self.correct(),
            o.attempted.max(1),
            o.checks.failed,
            failures.join(","),
            o.fingerprint,
            json_nums(&self.setups),
            json_nums(&o.clocked.ns_per_pkt()),
            o.clocked.speed_factor(),
            json_metrics(&self.metrics)
        )
    }

    fn print_table(&self) {
        let o = self.outcome;
        let a = self.args;
        println!(
            "# {} seed={} seconds={} trace={}{}",
            a.name,
            a.seed,
            a.scale.seconds,
            u8::from(a.trace),
            if a.scale.smoke { " smoke" } else { "" }
        );
        for (name, (v, unit)) in &self.metrics {
            println!("{name:<32} {v:>18.6} {unit}");
        }
        let per_pkt = o.clocked.ns_per_pkt();
        println!(
            "# host ns per segment: {:.3} = quietest quarter {:.3} x speed factor {:.4}; all {} \
             slices, raw: q1 {:.3} median {:.3} q3 {:.3}; timed wall {:.3} s; {} segments",
            o.clocked.host_ns_per_pkt(),
            o.clocked.quiet().ns_per_pkt(),
            o.clocked.speed_factor(),
            per_pkt.len(),
            quantile(&per_pkt, 0.25),
            median(&per_pkt),
            quantile(&per_pkt, 0.75),
            o.clocked.wall_ns as f64 / 1e9,
            o.clocked.pkts()
        );
        if !self.setups.is_empty() {
            println!(
                "# set-up samples at reference speed (s), {} set-ups each: {:?}",
                a.workload.setups_per_sample(),
                self.setups
            );
        }
        if o.latency.count() > 0 {
            println!(
                "# requests: {:.4} Mops, latency p50 {:.2} us p99 {:.2} us over {} samples, \
                 generator late p99 {:.2} us",
                o.mops(),
                o.lat_p50_us(),
                o.lat_p99_us(),
                o.latency.count(),
                o.gen_late_p99_us()
            );
        }
        println!("# model_fingerprint {:016x}", o.fingerprint);
        println!(
            "# ops_attempted {} ops_failed {} fail_share {}",
            o.attempted,
            o.checks.failed,
            ratio(o.checks.failed, o.attempted)
        );
        for f in &o.checks.failures {
            println!("# FAILED CHECK: {f}");
        }
    }
}

fn write_file(path: &Path, body: &str) -> Result<(), String> {
    std::fs::write(path, body).map_err(|e| format!("write {}: {e}", path.display()))
}

fn run(a: &Args) -> Result<bool, String> {
    std::fs::create_dir_all(&a.out).map_err(|e| format!("create {}: {e}", a.out.display()))?;
    let mut setups = Vec::new();
    let bed = if a.trace {
        a.workload.setup(a, &None)
    } else {
        a.workload.setup_timed(a, &mut setups)
    };
    let bytes_per_flow = match &bed {
        Bed::Fp(_, b) => b.bytes_per_flow,
        Bed::Sim(..) => 0.0,
    };
    let mut outcome = bed.run(a, &None);
    let metrics = if a.trace {
        let tracer = Tracer::new_ref();
        let handle = Some(tracer.clone());
        let traced = a.workload.setup(a, &handle).run(a, &handle);
        // Tracing is observation only: the traced run must compute the
        // same thing as the untraced one.
        outcome.checks.fail(
            u64::from(traced.fingerprint != outcome.fingerprint),
            format!(
                "traced fingerprint {:016x} differs from untraced {:016x}",
                traced.fingerprint, outcome.fingerprint
            ),
        );
        let tracer = tracer.borrow();
        tracer
            .write_jsonl(&a.out.join(format!("trace_{}.jsonl", a.name)))
            .map_err(|e| format!("write trace: {e}"))?;
        per_layer(a, &outcome, &traced, &tracer, bytes_per_flow)
    } else {
        end_to_end(&setups, &outcome)
    };
    let report = Report {
        args: a,
        metrics,
        setups,
        outcome: &outcome,
    };
    report.print_table();
    let stem = format!("{}.trace{}", a.name, u8::from(a.trace));
    write_file(&a.out.join(format!("{stem}.json")), &report.detail())?;
    println!("{}", report.result_line());
    Ok(report.correct())
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("tas-benchmark: refusing to measure a debug build; use benchmark/run.sh");
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("tas-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
