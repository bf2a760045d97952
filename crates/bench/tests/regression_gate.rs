//! The CI regression gate end to end against the committed baselines:
//! the catalogue and the pins cover each other exactly and every paper
//! artefact carries its reference line; every pin parses,
//! schema-validates, is quick-scale and passes its own gate; the
//! renderer names every pinned metric exactly once; and the gate trips —
//! every pin with one value nudged fails `check` on that metric, a
//! scale-flipped report fails it, and each entry's invariants fail on a
//! violation built from its own pin.

use std::collections::BTreeSet;
use std::io::BufRead;
use std::process::{Command, Stdio};
use tas_bench::gate;
use tas_bench::report::{self, MetricData, Report};
use tas_bench::scenarios::{catalogue, Entry};

fn pin_text(name: &str) -> String {
    let path = report::baselines_dir().join(format!("BENCH_{name}.json"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// `name`'s pin after `edit`, as report text.
fn edited(name: &str, edit: impl FnOnce(&mut Report)) -> String {
    let mut r = Report::from_json(&pin_text(name)).unwrap();
    edit(&mut r);
    r.to_json()
}

/// `pin` with its first metric's value (or median) raised by one.
fn nudged(pin: &str) -> String {
    let mut r = Report::from_json(pin).unwrap();
    match &mut r.metrics[0].data {
        MetricData::Value(v) => *v += 1.0,
        MetricData::Quantiles(q) => q.p50 += 1,
    }
    r.to_json()
}

fn set_value(r: &mut Report, name: &str, v: f64) {
    let m = r.metrics.iter_mut().find(|m| m.name == name);
    m.unwrap_or_else(|| panic!("no metric {name}")).data = MetricData::Value(v);
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
    let out = Command::new(env!("CARGO_BIN_EXE_bench-report"))
        .args(["show", "fig99"])
        .output()
        .expect("run bench-report");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.starts_with("usage: bench-report "), "{err}");
    assert!(err.contains("unknown report \"fig99\""), "{err}");
    assert!(out.stdout.is_empty(), "nothing is shown");
}

/// `bench-report show | head -1`: the reader leaves after one line and
/// the driver still exits 0 without a panic. Every pin is shown several
/// times so the output outgrows the pipe buffer and the driver is still
/// writing when the pipe closes.
#[test]
fn show_into_a_reader_that_leaves_early_exits_cleanly() {
    let names: Vec<&str> = catalogue().iter().map(|e| e.name).collect();
    let mut child = Command::new(env!("CARGO_BIN_EXE_bench-report"))
        .arg("show")
        .args(names.repeat(8))
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run bench-report");
    let mut first = String::new();
    let stdout = child.stdout.take().expect("piped stdout");
    std::io::BufReader::new(stdout)
        .read_line(&mut first)
        .unwrap();
    assert!(first.starts_with("## "), "{first}");
    let out = child.wait_with_output().expect("bench-report exits");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {err}", out.status);
    assert!(!err.contains("panicked"), "{err}");
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

/// Pins are quick-scale, the scale CI regenerates; `pin` refuses any
/// other and `check` fails a report whose scale differs from its pin's.
#[test]
fn every_committed_pin_is_quick_scale() {
    for e in catalogue() {
        let text = pin_text(e.name);
        assert_eq!(
            Report::from_json(&text).unwrap().scale,
            "quick",
            "{}",
            e.name
        );
        gate::pinnable(&text).unwrap_or_else(|err| panic!("{}: {err}", e.name));
    }
}

#[test]
fn check_of_a_pin_against_its_scale_flipped_copy_fails() {
    for e in catalogue() {
        let pin = pin_text(e.name);
        let full = edited(e.name, |r| r.scale = "full".into());
        let why = gate::check_texts(&e, &full, &pin).expect_err(e.name);
        assert!(why.contains("scale full against a quick pin"), "{why}");
        gate::check_texts(&e, &pin, &full).expect_err(e.name);
    }
}

#[test]
fn pin_refuses_a_full_scale_report() {
    let full = edited("fig13", |r| r.scale = "full".into());
    let why = gate::pinnable(&full).expect_err("a full-scale report is never pinned");
    assert!(why.contains("full-scale"), "{why}");
}

/// The trip direction over the whole catalogue: any one moved value is a
/// failed `check`, named on exactly one metric line.
#[test]
fn every_pin_with_one_value_nudged_fails_check_on_that_metric() {
    for e in catalogue() {
        let pin = pin_text(e.name);
        let why = gate::check_texts(&e, &nudged(&pin), &pin).expect_err(e.name);
        assert_eq!(why.matches(" -> current ").count(), 1, "{}: {why}", e.name);
        let first = &Report::from_json(&pin).unwrap().metrics[0].name;
        assert!(why.contains(&format!("\n  {first}: pinned ")), "{why}");
    }
}

/// Each entry's invariants, tripped by a violation built from its own
/// pin: the unmodified pin holds every invariant, the edited one fails
/// exactly the named check.
#[test]
fn a_violation_built_from_each_pin_fails_its_named_invariant() {
    type Edit = fn(&mut Report);
    let cases: [(&str, &str, Edit); 5] = [
        ("table1", "tas: more than 100 requests measured", |r| {
            set_value(r, "requests_tas", 100.0)
        }),
        ("table3", "flow state is 102 bytes", |r| {
            set_value(r, "flow_state", 103.0)
        }),
        ("table4", "tas -> tas reaches 8.5 Gbps", |r| {
            set_value(r, "tas_to_tas", 8.4)
        }),
        ("designspace", "p99 latency: linux > mpk", |r| {
            let at = |r: &Report, n: &str| r.metrics.iter().position(|m| m.name == n).unwrap();
            let (linux, mpk) = (at(r, "lat_linux"), at(r, "lat_mpk"));
            let data = r.metrics[linux].data.clone();
            r.metrics[linux].data = std::mem::replace(&mut r.metrics[mpk].data, data);
        }),
        ("scenarios", "churn_tas_victim_p99_ratio", |r| {
            let ratio = r.metric("churn_tas_victim_p99_ratio").unwrap();
            let bound = ratio
                .breakdown
                .iter()
                .find(|(k, _)| k == "bound")
                .unwrap()
                .1;
            set_value(r, "churn_tas_victim_p99_ratio", bound + 0.5);
        }),
    ];
    let all = catalogue();
    let with_invariants: Vec<&Entry> = all
        .iter()
        .filter(|e| !(e.invariants)(&Report::from_json(&pin_text(e.name)).unwrap()).is_empty())
        .collect();
    let names: Vec<&str> = with_invariants.iter().map(|e| e.name).collect();
    assert_eq!(
        names,
        cases.map(|c| c.0),
        "every entry with invariants has a case"
    );
    for (e, (name, check, edit)) in with_invariants.into_iter().zip(cases) {
        let pin = Report::from_json(&pin_text(name)).unwrap();
        for (what, pass) in (e.invariants)(&pin) {
            assert!(pass, "{name}: the pin violates {what}");
        }
        let bad = edited(name, edit);
        let why = gate::check_texts(e, &bad, &bad).expect_err(name);
        let violated: Vec<&str> = why.lines().filter(|l| l.contains("VIOLATED")).collect();
        assert_eq!(violated.len(), 1, "{name}: {why}");
        assert!(violated[0].contains(check), "{name}: {why}");
    }
}

/// fig13's metrics are all in `bytes`: a drift here once went unflagged
/// for a whole PR. A byte-exact check fails on it and names the metric.
#[test]
fn one_nudged_bytes_value_in_the_fig13_pin_fails_check() {
    let all = catalogue();
    let fig13 = all.iter().find(|e| e.name == "fig13").expect("fig13 entry");
    let pin = pin_text("fig13");
    let why = gate::check_texts(fig13, &nudged(&pin), &pin).expect_err("check must fail");
    assert_eq!(why.matches(" -> current ").count(), 1, "one metric: {why}");
}

#[test]
fn injected_p99_regression_trips_the_gate() {
    let all = catalogue();
    let fig9 = all.iter().find(|e| e.name == "fig9").expect("fig9 entry");
    let mut bumped = 0;
    let current = edited("fig9", |r| {
        for m in &mut r.metrics {
            if let MetricData::Quantiles(q) = &mut m.data {
                q.p99 += q.p99 / 5 + 1; // +20%
                bumped += 1;
            }
        }
    });
    assert!(bumped > 0, "fig9 baseline must contain latency quantiles");
    let why = gate::check_texts(fig9, &current, &pin_text("fig9")).expect_err("check must fail");
    assert_eq!(why.matches(" -> current ").count(), bumped, "{why}");
}
