//! The one gate over the report catalogue ([`crate::scenarios::catalogue`]):
//! the whole of the `bench-report` binary.
//!
//! ```text
//! bench-report [name…]            # generate, then check
//! bench-report generate [name…]   # run the builders, write BENCH_<name>.* at the repo root, print each report
//! bench-report check [name…]      # gate the files at the repo root against baselines/
//! bench-report pin [name…]        # copy the files at the repo root into baselines/
//! bench-report selftest [name…]   # prove the gate trips
//! bench-report show [name…]       # print the pinned reports, simulating nothing
//! ```
//!
//! Without names a mode covers every entry this build can produce
//! (`fig6spans` and `cpuprof` need `--features telemetry`; `show` reads
//! pins, so it covers them in any build). `generate` and `show` print
//! through the one renderer ([`Report::to_markdown`]), so the table a
//! human reads is the report the gate compares.
//!
//! Every report is modelled — a pure function of its seeds — so a pin is
//! a behavioural contract and there is one comparison mode: `check`
//! compares byte-for-byte, and on a mismatch prints the tolerance
//! comparator's per-metric classification as the explanation. Nothing
//! here reads a clock; host time is measured by `benchmark/` alone.
//! Every entry's invariants are checked on the current report either
//! way. `bench-report pin [name…]` after a `generate` re-pins
//! deliberately. Reports are compared only within one scale mode
//! (`TAS_FULL=1` selects paper scale), so a full-scale run never gates
//! against a quick pin.

use crate::report::{self, compare, MetricData, Report};
use crate::scenarios::{catalogue, Build, Entry};
use std::path::PathBuf;
use std::process::ExitCode;

/// `BENCH_<name>.<ext>` at the repo root, where generated files land.
fn current(name: &str, ext: &str) -> PathBuf {
    report::repo_root().join(format!("BENCH_{name}.{ext}"))
}

/// The pinned copy of [`current`].
fn pinned(name: &str, ext: &str) -> PathBuf {
    report::baselines_dir().join(format!("BENCH_{name}.{ext}"))
}

fn read(path: PathBuf, hint: &str) -> Result<String, String> {
    std::fs::read_to_string(&path).map_err(|_| format!("missing {} ({hint})", path.display()))
}

fn write(path: PathBuf, body: &str) -> Result<(), String> {
    std::fs::write(&path, body).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// The files an entry produces: its report, then any side artefact.
fn exts(e: &Entry) -> Vec<&'static str> {
    match e.build {
        Build::WithSide(ext, _) => vec!["json", ext],
        _ => vec!["json"],
    }
}

/// Runs the builder: the report and its side artefact, if it has one.
fn build(e: &Entry) -> Result<(Report, Option<String>), String> {
    eprintln!("bench-report: running {} ...", e.name);
    match e.build {
        Build::Report(f) => Ok((f(), None)),
        Build::WithSide(_, f) => {
            let (r, side) = f();
            Ok((r, Some(side)))
        }
        Build::NeedsTelemetry => Err("rebuild with --features telemetry".into()),
    }
}

fn generate(e: &Entry) -> Result<(), String> {
    let (r, side) = build(e)?;
    let body = r.to_json();
    // Round-trip through the schema so a generator bug fails here, not
    // at the next check; print what was parsed, as `show` will.
    render(e, &body)?;
    let bodies = [Some(body), side];
    let mut files = exts(e).into_iter().zip(bodies.iter().flatten());
    files.try_for_each(|(ext, body)| write(current(e.name, ext), body))
}

/// The entry's invariants that `cur` violates.
fn violated(e: &Entry, cur: &Report) -> Vec<String> {
    (e.invariants)(cur)
        .into_iter()
        .filter(|(_, pass)| !pass)
        .map(|(what, _)| format!("invariant VIOLATED: {what}"))
        .collect()
}

/// What the self-test's sabotage must provoke: violated invariants, and
/// every regression beyond tolerance relative to `base`.
fn objections(e: &Entry, cur: &Report, base: &Report) -> Vec<String> {
    let mut out = violated(e, cur);
    out.extend(compare(cur, base).iter().map(|r| format!("REGRESSION {r}")));
    out
}

/// Gates one entry's current report text against its pin's: `Ok` carries
/// the one-line verdict, `Err` the objections.
pub fn check_texts(e: &Entry, cur_text: &str, pin_text: &str) -> Result<String, String> {
    let cur = Report::from_json(cur_text)?;
    let pin = Report::from_json(pin_text).map_err(|err| format!("bad pin: {err}"))?;
    let same_scale = cur.scale == pin.scale;
    let mut problems = violated(e, &cur);
    if same_scale && cur_text != pin_text {
        problems.push("differs from its pin; per metric:".into());
        problems.extend(report::explain(&cur, &pin));
    }
    if !problems.is_empty() {
        return Err(problems.join("\n  "));
    }
    let held = match (e.invariants)(&cur).len() {
        0 => String::new(),
        n => format!(", {n} invariants hold"),
    };
    Ok(if !same_scale {
        format!(
            "scale mismatch (current {}, pin {}): pin not compared{held}",
            cur.scale, pin.scale
        )
    } else {
        format!(
            "OK ({} metrics byte-identical to the pin{held})",
            pin.metrics.len()
        )
    })
}

fn check(e: &Entry) -> Result<(), String> {
    let texts = |ext| -> Result<(String, String), String> {
        Ok((
            read(current(e.name, ext), "run `bench-report generate`")?,
            read(pinned(e.name, ext), "run `bench-report pin`")?,
        ))
    };
    let (cur, pin) = texts("json")?;
    println!("{}: {}", e.name, check_texts(e, &cur, &pin)?);
    for ext in exts(e).into_iter().skip(1) {
        let (cur, pin) = texts(ext)?;
        if cur != pin {
            return Err(format!("BENCH_{}.{ext} differs from its pin", e.name));
        }
    }
    Ok(())
}

fn pin(e: &Entry) -> Result<(), String> {
    for ext in exts(e) {
        let body = read(current(e.name, ext), "run `bench-report generate`")?;
        write(pinned(e.name, ext), &body)?;
    }
    Ok(())
}

/// `pin_text` with one value nudged: the first metric the tolerance
/// comparator never gates if there is one (a drift only a byte-exact
/// gate can see), else the first metric.
pub fn perturbed(pin_text: &str) -> Result<String, String> {
    let mut r = Report::from_json(pin_text)?;
    let ungated = |m: &report::Metric| report::higher_is_worse(&m.unit).is_none();
    let i = r.metrics.iter().position(ungated).unwrap_or(0);
    match &mut r.metrics[i].data {
        MetricData::Value(v) => *v += 1.0,
        MetricData::Quantiles(q) => q.p50 += 1,
    }
    Ok(r.to_json())
}

/// Prints a report's JSON text as the table a human reads.
fn render(e: &Entry, json: &str) -> Result<(), String> {
    println!("{}", Report::from_json(json)?.to_markdown(e.paper));
    Ok(())
}

fn show(e: &Entry) -> Result<(), String> {
    render(e, &read(pinned(e.name, "json"), "run `bench-report pin`")?)
}

/// Proves the gate gates. For every entry, its own pin with one value
/// nudged must fail `check`. For entries with a sabotage, a fresh report
/// must raise no objection against itself and its sabotaged twin must.
fn selftest(e: &Entry) -> Result<(), String> {
    let pin = read(pinned(e.name, "json"), "run `bench-report pin`")?;
    if check_texts(e, &pin, &perturbed(&pin)?).is_ok() {
        return Err("a pin with one value nudged still passes check".into());
    }
    println!("{} selftest: nudged pin rejected", e.name);
    let Some(sabotage) = e.sabotage else {
        return Ok(());
    };
    let (fresh, _) = build(e)?;
    let clean = objections(e, &fresh, &fresh);
    if !clean.is_empty() {
        return Err(format!("fresh report must pass: {}", clean.join("; ")));
    }
    let caught = objections(e, &sabotage(&fresh), &fresh);
    if caught.is_empty() {
        return Err("sabotaged report NOT caught".into());
    }
    println!(
        "{} selftest: sabotage caught ({} objections, first: {})",
        e.name,
        caught.len(),
        caught[0]
    );
    Ok(())
}

/// One mode's action on one entry.
type Step = fn(&Entry) -> Result<(), String>;

const USAGE: &str = "usage: bench-report [generate|check|pin|selftest|show] [name…]";

/// The `bench-report` entry point.
pub fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, names) = match args.split_first() {
        Some((m, rest))
            if ["generate", "check", "pin", "selftest", "show"].contains(&m.as_str()) =>
        {
            (m.as_str(), rest)
        }
        _ => ("", &args[..]),
    };
    let steps: &[Step] = match mode {
        "" => &[generate, check],
        "generate" => &[generate],
        "check" => &[check],
        "pin" => &[pin],
        "show" => &[show],
        _ => &[selftest],
    };
    let all = catalogue();
    let mut selected: Vec<&Entry> = Vec::new();
    for name in names {
        match all.iter().find(|e| e.name == name) {
            Some(e) => selected.push(e),
            None => {
                let known: Vec<&str> = all.iter().map(|e| e.name).collect();
                eprintln!(
                    "{USAGE}\nunknown report {name:?}; known: {}",
                    known.join(" ")
                );
                return ExitCode::FAILURE;
            }
        }
    }
    if names.is_empty() {
        for e in &all {
            match e.build {
                Build::NeedsTelemetry if mode != "show" => {
                    println!("{}: skipped (needs --features telemetry)", e.name);
                }
                _ => selected.push(e),
            }
        }
    }
    let mut failed = 0;
    for e in &selected {
        if let Err(why) = steps.iter().try_for_each(|step| step(e)) {
            eprintln!("{}: FAILED: {why}", e.name);
            failed += 1;
        }
    }
    if failed > 0 {
        eprintln!(
            "bench-report: {failed} of {} reports failed",
            selected.len()
        );
        return ExitCode::FAILURE;
    }
    println!("bench-report: {} reports passed", selected.len());
    ExitCode::SUCCESS
}
