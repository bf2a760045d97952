//! The one gate over the report catalogue ([`crate::scenarios::catalogue`]):
//! the whole of the `bench-report` binary.
//!
//! ```text
//! bench-report [name…]            # generate, then check
//! bench-report generate [name…]   # run the builders, write BENCH_<name>.* at the repo root, print each report
//! bench-report check [name…]      # gate the files at the repo root against baselines/
//! bench-report pin [name…]        # copy the files at the repo root into baselines/
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
//! compares byte-for-byte, and on a mismatch lists the metrics that
//! moved ([`report::explain`]). Nothing here reads a clock; host time is
//! measured by `benchmark/` alone. Every entry's invariants are checked
//! on the current report either way. `bench-report pin [name…]` after a
//! `generate` re-pins deliberately. Pins are quick-scale: `pin` refuses
//! a `TAS_FULL=1` (paper-scale) report and `check` fails one.
//!
//! All standard output goes through [`say`], so `bench-report show |
//! head` ends quietly; the exit status comes from the verdicts alone.

use crate::report::{self, Report};
use crate::scenarios::{catalogue, Build, Entry};
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

/// Prints one line to stdout. Once a write fails (a reader that went
/// away, as `head` does), every later line is dropped instead of
/// panicking.
fn say(line: &str) {
    static CLOSED: AtomicBool = AtomicBool::new(false);
    if CLOSED.load(Ordering::Relaxed) {
        return;
    }
    if let Err(e) = writeln!(std::io::stdout(), "{line}") {
        CLOSED.store(true, Ordering::Relaxed);
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            eprintln!("bench-report: stdout: {e}");
        }
    }
}

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
    say(&format!("wrote {}", path.display()));
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

/// Gates one entry's current report text against its pin's: `Ok` carries
/// the one-line verdict, `Err` the objections.
pub fn check_texts(e: &Entry, cur_text: &str, pin_text: &str) -> Result<String, String> {
    let cur = Report::from_json(cur_text)?;
    let pin = Report::from_json(pin_text).map_err(|err| format!("bad pin: {err}"))?;
    let mut problems = violated(e, &cur);
    if cur.scale != pin.scale {
        problems.push(format!(
            "scale {} against a {} pin: pins and checks are quick-scale (no TAS_FULL)",
            cur.scale, pin.scale
        ));
    } else if cur_text != pin_text {
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
    Ok(format!(
        "OK ({} metrics byte-identical to the pin{held})",
        pin.metrics.len()
    ))
}

fn check(e: &Entry) -> Result<(), String> {
    let texts = |ext| -> Result<(String, String), String> {
        Ok((
            read(current(e.name, ext), "run `bench-report generate`")?,
            read(pinned(e.name, ext), "run `bench-report pin`")?,
        ))
    };
    let (cur, pin) = texts("json")?;
    say(&format!("{}: {}", e.name, check_texts(e, &cur, &pin)?));
    for ext in exts(e).into_iter().skip(1) {
        let (cur, pin) = texts(ext)?;
        if cur != pin {
            return Err(format!("BENCH_{}.{ext} differs from its pin", e.name));
        }
    }
    Ok(())
}

/// Whether a report's text may become a pin: it parses and is
/// quick-scale, the scale CI regenerates and checks.
pub fn pinnable(text: &str) -> Result<(), String> {
    let r = Report::from_json(text)?;
    if r.scale != "quick" {
        return Err(format!(
            "a {}-scale report is never pinned: regenerate without TAS_FULL",
            r.scale
        ));
    }
    Ok(())
}

fn pin(e: &Entry) -> Result<(), String> {
    let hint = "run `bench-report generate`";
    let bodies: Vec<String> = exts(e)
        .into_iter()
        .map(|ext| read(current(e.name, ext), hint))
        .collect::<Result<_, _>>()?;
    pinnable(&bodies[0])?;
    for (ext, body) in exts(e).into_iter().zip(&bodies) {
        write(pinned(e.name, ext), body)?;
    }
    Ok(())
}

/// Prints a report's JSON text as the table a human reads.
fn render(e: &Entry, json: &str) -> Result<(), String> {
    say(&Report::from_json(json)?.to_markdown(e.paper));
    Ok(())
}

fn show(e: &Entry) -> Result<(), String> {
    render(e, &read(pinned(e.name, "json"), "run `bench-report pin`")?)
}

/// One mode's action on one entry.
type Step = fn(&Entry) -> Result<(), String>;

const USAGE: &str = "usage: bench-report [generate|check|pin|show] [name…]";

/// The `bench-report` entry point.
pub fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, names) = match args.split_first() {
        Some((m, rest)) if ["generate", "check", "pin", "show"].contains(&m.as_str()) => {
            (m.as_str(), rest)
        }
        _ => ("", &args[..]),
    };
    let steps: &[Step] = match mode {
        "" => &[generate, check],
        "generate" => &[generate],
        "check" => &[check],
        "pin" => &[pin],
        _ => &[show],
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
                    say(&format!("{}: skipped (needs --features telemetry)", e.name));
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
    say(&format!("bench-report: {} reports passed", selected.len()));
    ExitCode::SUCCESS
}
