//! Smoke-scale checks of the benchmark binary itself: the model clock
//! and every exact count repeat for a seed, differ across seeds, are
//! untouched by tracing, and the metric names match `BENCHMARK.json`.
//!
//! The binary refuses to measure a debug build, so under plain
//! `cargo test` these tests are reported as ignored; run
//! `cargo test --release`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: [&str; 5] = [
    "rpc64_tas_sim",
    "bulk_loss_tas_sim",
    "kv_linux_sim",
    "fp_rx_256k",
    "fp_duplex_1k",
];

/// Metric name -> (value as printed, unit).
type Metrics = BTreeMap<String, (String, String)>;

struct Run {
    metrics: Metrics,
    fingerprint: String,
}

fn between<'a>(s: &'a str, open: &str, close: &str) -> Option<(&'a str, &'a str)> {
    let start = s.find(open)? + open.len();
    let len = s[start..].find(close)?;
    Some((&s[start..start + len], &s[start + len + close.len()..]))
}

/// Parses the flat `"name":{"value":V,"unit":"U"}` object of a result line.
fn parse_metrics(line: &str) -> Metrics {
    let mut out = Metrics::new();
    let mut rest = &line[line.find("\"metrics\":{").expect("metrics key") + 10..];
    while let Some((name, after)) = between(rest, "\"", "\":{\"value\":") {
        let (value, after) = between(after, "", ",\"unit\":\"").expect("value");
        let (unit, after) = between(after, "", "\"}").expect("unit");
        out.insert(name.to_string(), (value.to_string(), unit.to_string()));
        rest = after;
    }
    out
}

fn run(workload: &str, seed: u64, trace: u8, tag: &str) -> Run {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{tag}-{workload}"));
    let output = Command::new(env!("CARGO_BIN_EXE_tas-benchmark"))
        .args(["--workload", workload, "--smoke", "--seconds", "8"])
        .args(["--seed", &seed.to_string(), "--trace", &trace.to_string()])
        .arg("--out")
        .arg(&out)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "{workload} seed {seed} trace {trace} failed its output checks:\n{stdout}"
    );
    let line = stdout.lines().last().expect("a result line");
    assert!(line.contains("\"correct\":true"), "{line}");
    let detail = std::fs::read_to_string(out.join(format!("{workload}.trace{trace}.json")))
        .expect("detail file");
    let (fingerprint, _) = between(&detail, "\"model_fingerprint\":\"", "\"").expect("fingerprint");
    Run {
        metrics: parse_metrics(line),
        fingerprint: fingerprint.to_string(),
    }
}

/// Host-clock and resident-set metrics; everything else must repeat.
fn is_noisy(name: &str, unit: &str) -> bool {
    name.starts_with("host")
        || name.starts_with("trace.")
        || name == "setup_s"
        || name == "peak_rss_mb"
        || name == "tas.bytes_per_flow"
        || (matches!(unit, "ns" | "s" | "share" | "ms/s") && name != "tas.fp_exception_share")
}

fn exact(m: &Metrics) -> Metrics {
    m.iter()
        .filter(|(k, (_, unit))| !is_noisy(k, unit))
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect()
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "the benchmark refuses a debug build: cargo test --release"
)]
fn same_seed_repeats_exactly_and_tracing_changes_nothing() {
    for w in WORKLOADS {
        // A traced run fails its own checks if the `Timed` wrapper moved
        // the fingerprint, so success here covers tracing on/off.
        let (a, b) = (run(w, 7, 1, "a"), run(w, 7, 1, "b"));
        assert_eq!(a.fingerprint, b.fingerprint, "{w}: fingerprint");
        let (ea, eb) = (exact(&a.metrics), exact(&b.metrics));
        assert_eq!(ea, eb, "{w}: exact per-layer metrics");
        for k in [
            "sim.events_per_pkt",
            "alloc.allocs_per_pkt",
            "alloc.bytes_per_pkt",
            "model.mops",
        ] {
            assert!(
                ea.contains_key(k),
                "{w}: {k} must be among the exact metrics"
            );
        }
        let (c, d) = (run(w, 7, 0, "c"), run(w, 7, 0, "d"));
        assert_eq!(c.fingerprint, a.fingerprint, "{w}: untraced fingerprint");
        assert_eq!(exact(&c.metrics), exact(&d.metrics), "{w}: model_* metrics");
        assert!(exact(&c.metrics).contains_key("model_cycles_per_pkt"));
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "the benchmark refuses a debug build: cargo test --release"
)]
fn another_seed_gives_another_fingerprint() {
    for w in WORKLOADS {
        let (a, b) = (run(w, 7, 0, "s7"), run(w, 8, 0, "s8"));
        assert_ne!(a.fingerprint, b.fingerprint, "{w}");
    }
}

/// `(name, unit)` of every object in the JSON array under `key`.
fn declared(spec: &str, key: &str) -> Vec<(String, String)> {
    let (array, _) = between(spec, &format!("\"{key}\": ["), "]").expect("array");
    let mut out = Vec::new();
    let mut rest = array;
    while let Some((name, after)) = between(rest, "\"name\": \"", "\"") {
        let (unit, after) = between(after, "\"unit\": \"", "\"").expect("unit");
        out.push((name.to_string(), unit.to_string()));
        rest = after;
    }
    out
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "the benchmark refuses a debug build: cargo test --release"
)]
fn printed_metrics_are_exactly_those_of_benchmark_json() {
    let spec = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
    )
    .expect("BENCHMARK.json");
    for (key, trace) in [("end_to_end", 0), ("per_layer", 1)] {
        let want: BTreeMap<String, String> = declared(&spec, key).into_iter().collect();
        assert!(!want.is_empty());
        for w in WORKLOADS {
            let got: BTreeMap<String, String> = run(w, 3, trace, "names")
                .metrics
                .into_iter()
                .map(|(k, (_, unit))| (k, unit))
                .collect();
            assert_eq!(got, want, "{w}: {key} names and units");
        }
    }
}
