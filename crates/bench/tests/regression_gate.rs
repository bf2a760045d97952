//! The CI regression gate end to end against the committed baselines:
//! the catalogue and the pins cover each other exactly and every paper
//! artefact carries its reference line; every pin parses,
//! schema-validates and passes its own gate; the renderer names every
//! pinned metric exactly once; a one-value drift in a unit the tolerance
//! comparator ignores fails `check`; an injected 20% p99 latency
//! regression trips the comparator.

use std::collections::BTreeSet;
use tas_bench::gate;
use tas_bench::report::{self, MetricData, Report};
use tas_bench::scenarios::catalogue;

fn pin_text(name: &str) -> String {
    let path = report::baselines_dir().join(format!("BENCH_{name}.json"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn catalogue_and_pins_cover_each_other_and_paper_artefacts_carry_a_reference() {
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

    // Every figure, table and ablation is rendered under the paper's
    // numbers for it.
    let artefact = |name: &str| {
        (name.starts_with("fig") && name != "fig6spans")
            || name.starts_with("table")
            || name == "ablations"
    };
    let artefacts: Vec<_> = catalogue()
        .into_iter()
        .filter(|e| artefact(e.name))
        .collect();
    assert_eq!(artefacts.len(), 18, "17 figures and tables + ablations");
    for e in artefacts {
        assert!(!e.paper.is_empty(), "{}: no paper reference", e.name);
    }
}

/// The one renderer over every committed pin: deterministic, every
/// metric named exactly once, a series as one row per sample.
#[test]
fn renderer_names_every_pinned_metric_once_and_a_series_sample_per_row() {
    let mut series = 0;
    for e in catalogue() {
        let rep = Report::from_json(&pin_text(e.name)).unwrap();
        let text = rep.to_markdown(e.paper);
        assert_eq!(
            text,
            rep.to_markdown(e.paper),
            "{}: not deterministic",
            e.name
        );
        assert_eq!(
            e.paper.is_empty(),
            !text.contains("\npaper: "),
            "{}",
            e.name
        );
        // Rows by their first cell; a series is named in a header cell.
        let rows: Vec<Vec<&str>> = text
            .lines()
            .filter(|l| l.starts_with("| "))
            .map(|l| l.split('|').skip(1).map(str::trim).collect())
            .collect();
        let rows_starting = |cell: &str| rows.iter().filter(|r| r[0] == cell).count();
        for m in &rep.metrics {
            let Some(unit) = m.unit.strip_prefix("series_") else {
                assert_eq!(rows_starting(&m.name), 1, "{}: {}", e.name, m.name);
                continue;
            };
            series += 1;
            let head = format!("{} [{unit}]", m.name);
            let named = rows.iter().flatten().filter(|c| **c == head).count();
            assert_eq!(named, 1, "{}: {head} named {named} times", e.name);
            assert!(m.breakdown.len() > 10, "{head}: a series has samples");
            for (key, _) in &m.breakdown {
                assert_eq!(rows_starting(key), 1, "{}: sample {key}", e.name);
            }
        }
    }
    assert!(series >= 7, "fig9, fig14 and fig15 pin {series} series");
}

#[test]
fn show_of_an_unknown_name_exits_non_zero_with_the_usage_line() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_bench-report"))
        .args(["show", "fig99"])
        .output()
        .expect("run bench-report");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.starts_with("usage: bench-report "), "{err}");
    assert!(err.contains("unknown report \"fig99\""), "{err}");
    assert!(out.stdout.is_empty(), "nothing is shown");
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
