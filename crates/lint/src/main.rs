//! The `tas-lint` CLI.
//!
//! ```text
//! tas-lint [--root DIR] [--config FILE] [--json]
//! ```
//!
//! Exit codes: 0 = clean, 1 = deny-level findings, 2 = IO/config error.
//! Output is byte-deterministic for a fixed tree + config — CI runs the
//! binary twice and diffs.

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> &'static str {
    "usage: tas-lint [--root DIR] [--config FILE] [--json]\n\
     \n\
     Scans every .rs file under DIR (default: the workspace root found by\n\
     walking up from the current directory to the nearest lint.toml or\n\
     Cargo.toml) against the determinism rule catalog (R1-R4).\n\
     \n\
     exit codes: 0 clean, 1 deny findings, 2 error"
}

fn find_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if dir.join("lint.toml").exists() || dir.join("Cargo.toml").exists() {
            return dir;
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
}

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut config: Option<PathBuf> = None;
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
            "--config" => config = args.next().map(PathBuf::from),
            "--json" => json = true,
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("tas-lint: unknown argument `{other}`\n{}", usage());
                return ExitCode::from(2);
            }
        }
    }
    let root = root.unwrap_or_else(find_root);
    let cfg_path = config.unwrap_or_else(|| root.join("lint.toml"));
    let cfg = if cfg_path.exists() {
        let text = match std::fs::read_to_string(&cfg_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("tas-lint: reading {}: {e}", cfg_path.display());
                return ExitCode::from(2);
            }
        };
        match tas_lint::config::parse(&text) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("tas-lint: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        tas_lint::Config::default()
    };
    let report = match tas_lint::scan_workspace(&root, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("tas-lint: scanning {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    if json {
        print!("{}", tas_lint::render_json(&report));
    } else {
        print!("{}", tas_lint::render_text(&report));
    }
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
