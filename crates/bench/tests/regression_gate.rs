//! The CI regression gate end to end against the committed baselines:
//! the catalogue, the pins and the bench targets cover each other
//! exactly; every pin parses, schema-validates and passes its own gate;
//! a one-value drift in a unit the tolerance comparator ignores fails
//! `check`; an injected 20% p99 latency regression trips the comparator.

use std::collections::BTreeSet;
use tas_bench::gate;
use tas_bench::report::{self, MetricData, Report};
use tas_bench::scenarios::catalogue;

fn pin_text(name: &str) -> String {
    let path = report::baselines_dir().join(format!("BENCH_{name}.json"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn catalogue_pins_and_bench_targets_cover_each_other() {
    let entries: Vec<&str> = catalogue().iter().map(|e| e.name).collect();
    let unique: BTreeSet<&str> = entries.iter().copied().collect();
    assert_eq!(unique.len(), entries.len(), "duplicate entry: {entries:?}");

    let mut pins = BTreeSet::new();
    for entry in std::fs::read_dir(report::baselines_dir()).expect("baselines dir exists") {
        let file = entry.unwrap().file_name().into_string().unwrap();
        if let Some(name) = file
            .strip_prefix("BENCH_")
            .and_then(|f| f.strip_suffix(".json"))
        {
            pins.insert(name.to_string());
        }
    }
    let names: BTreeSet<String> = entries.iter().map(|n| n.to_string()).collect();
    assert_eq!(pins, names, "pins and entries must pair up one to one");

    // Every figure/table/ablation harness prints a catalogue report: its
    // target name up to the first `_` is the entry.
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml");
    let manifest = std::fs::read_to_string(manifest).unwrap();
    let mut printed = BTreeSet::new();
    for section in manifest.split("[[bench]]").skip(1) {
        let target = section.split('"').nth(1).expect("bench target name");
        let entry = target.split('_').next().unwrap();
        assert!(unique.contains(entry), "{target}: no entry {entry:?}");
        assert!(printed.insert(entry), "{entry}: printed by two targets");
    }
    assert_eq!(printed.len(), 18, "17 figures and tables + ablations");
}

#[test]
fn committed_pins_round_trip_and_pass_their_own_gate() {
    for e in catalogue() {
        let text = pin_text(e.name);
        let rep = Report::from_json(&text).unwrap_or_else(|err| panic!("{}: {err}", e.name));
        assert_eq!(rep.to_json(), text, "{}: pin must round-trip", e.name);
        gate::check_texts(&e, &text, &text).unwrap_or_else(|err| panic!("{}: {err}", e.name));
    }
}

/// The drift the tolerance comparator let through for a whole PR: fig13's
/// metrics are all in `bytes`, a unit it never gates.
#[test]
fn one_nudged_bytes_value_in_the_fig13_pin_fails_check() {
    let all = catalogue();
    let fig13 = all.iter().find(|e| e.name == "fig13").expect("fig13 entry");
    let pin = pin_text("fig13");
    let nudged = gate::perturbed(&pin).unwrap();
    let (a, b) = (Report::from_json(&pin), Report::from_json(&nudged));
    let drift = report::compare(&b.unwrap(), &a.unwrap());
    assert!(drift.is_empty(), "the tolerance comparator sees {drift:?}");
    let why = gate::check_texts(fig13, &nudged, &pin).expect_err("check must fail");
    assert!(why.contains("unit `bytes` never gates"), "{why}");
    assert_eq!(why.matches(" -> current ").count(), 1, "one metric: {why}");
}

#[test]
fn injected_p99_regression_trips_the_gate() {
    let baseline = Report::from_json(&pin_text("fig9")).unwrap();
    let mut current = baseline.clone();
    let mut bumped = 0;
    for m in &mut current.metrics {
        if let MetricData::Quantiles(q) = &mut m.data {
            q.p99 += q.p99 / 5 + 1; // +20%
            bumped += 1;
        }
    }
    assert!(bumped > 0, "fig9 baseline must contain latency quantiles");
    let regs = report::compare(&current, &baseline);
    assert!(
        regs.iter().any(|r| r.field == "p99"),
        "a 20% p99 bump must trip the gate, got: {regs:?}"
    );
}
