//! tas-lint: determinism static analysis for the TAS workspace.
//!
//! The simulator's headline claim — byte-identical traces, goodput
//! figures, and bench reports across runs and machines — only holds if
//! no code path consults ambient nondeterminism. The Rust compiler
//! cannot see that contract; this crate can. It is a token-level
//! analyzer (hand-rolled lexer, no external deps: the build environment
//! is offline) with a small rule catalog targeting exactly the bug
//! classes this repo has already paid for:
//!
//! | rule | name | bug class |
//! |------|------|-----------|
//! | R1 | hash-iteration-nondeterminism | the PR-1 slowpath retry-batch bug |
//! | R2 | ambient-nondeterminism | wall-clock time / OS rng / unordered maps in sim code |
//! | R3 | seq-space-arithmetic | u32 sequence-number wraparound |
//! | R4 | fastpath-panic-freedom | packet-path panics |
//!
//! What the compiler can see is left to it: component write scopes are
//! module privacy (DESIGN.md §16), and an ungated trace or profile site
//! fails the default build because `tas-telemetry` is an optional
//! dependency.
//!
//! Three consumers share this one core: the `tas-lint` binary, the
//! root `tests/lint_workspace.rs` tier-1 test, and the CI `lint` job.
//! Output is byte-deterministic (sorted file walk, sorted findings,
//! repo-relative paths, BTree maps throughout).

pub mod config;
pub mod engine;
pub mod lexer;
pub mod rules;

pub use config::{Config, Severity};
pub use engine::{render_json, render_text, scan_source, scan_workspace, Finding, Report};

use std::path::Path;

/// Convenience entry point: load `lint.toml` from `root` (falling back
/// to defaults when absent) and scan the tree.
pub fn run(root: &Path) -> Result<Report, String> {
    let cfg_path = root.join("lint.toml");
    let cfg = if cfg_path.exists() {
        let text = std::fs::read_to_string(&cfg_path)
            .map_err(|e| format!("reading {}: {e}", cfg_path.display()))?;
        config::parse(&text).map_err(|e| e.to_string())?
    } else {
        Config::default()
    };
    scan_workspace(root, &cfg).map_err(|e| format!("scanning {}: {e}", root.display()))
}
