//! Tier-1 gate: the workspace must be clean under the determinism lint
//! (`tas-lint`, rules R1–R4, configured by the repo's `lint.toml`).
//!
//! This is the same scan CI's `lint` job runs via the binary; keeping
//! it in the default test suite means a plain `cargo test` catches a
//! reintroduced HashMap iteration or fast-path unwrap before review.

use std::path::Path;

#[test]
fn workspace_is_lint_clean_at_deny() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = tas_lint::run(root).expect("lint scan runs");
    assert!(
        report.files_scanned > 50,
        "scan saw only {} files — exclusion globs are eating the tree",
        report.files_scanned
    );
    assert!(
        report.clean(),
        "deny-level lint findings:\n{}",
        tas_lint::render_text(&report)
    );
}

#[test]
fn workspace_report_is_deterministic_in_process() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let a = tas_lint::run(root).expect("first scan");
    let b = tas_lint::run(root).expect("second scan");
    assert_eq!(
        tas_lint::render_json(&a),
        tas_lint::render_json(&b),
        "same tree, same config — the report must be byte-identical"
    );
}

#[test]
fn every_crate_source_file_is_scoped_or_explicitly_unscoped() {
    // Catalog-coverage self-check: each `.rs` file under `crates/*/src`
    // must fall inside at least one rule's path scope, an `exclude`
    // prefix, or the explicit allowlist below — so a new crate cannot
    // silently dodge the rule catalog. (A rule without a path scope is
    // whole-workspace and would make the check vacuous, so only rules
    // with a non-empty scope count.)
    const ALLOWED_UNSCOPED: &[&str] = &[
        // The linter itself names every banned identifier in its rule
        // tables; scoping any ident rule over it would be self-defeating.
        "crates/lint/src/",
        // Observes the simulation but never feeds it; only its per-charge
        // path (`profile.rs`, under R4) is held to a rule.
        "crates/telemetry/src/",
    ];
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let toml = std::fs::read_to_string(root.join("lint.toml")).expect("lint.toml");
    let cfg = tas_lint::config::parse(&toml).expect("lint.toml parses");
    let scopes: Vec<&str> = cfg
        .rules
        .values()
        .flat_map(|r| r.paths.iter())
        .map(String::as_str)
        .collect();
    assert!(!scopes.is_empty(), "rules lost their path scopes");

    let mut unscoped = Vec::new();
    let mut stack = vec![root.join("crates")];
    while let Some(dir) = stack.pop() {
        let entries = std::fs::read_dir(&dir).expect("readable tree");
        for entry in entries {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                stack.push(path);
                continue;
            }
            let rel = path
                .strip_prefix(root)
                .expect("under root")
                .to_str()
                .expect("utf-8 path")
                .replace('\\', "/");
            // Only library sources: no rule runs over a crate's tests,
            // fixtures or benches.
            let in_src = rel
                .split('/')
                .nth(2)
                .map(|seg| seg == "src")
                .unwrap_or(false);
            if !in_src || !rel.ends_with(".rs") {
                continue;
            }
            let covered = scopes.iter().any(|s| rel.starts_with(s))
                || cfg.exclude.iter().any(|e| rel.starts_with(e.as_str()))
                || ALLOWED_UNSCOPED.iter().any(|a| rel.starts_with(a));
            if !covered {
                unscoped.push(rel);
            }
        }
    }
    unscoped.sort();
    assert!(
        unscoped.is_empty(),
        "source files outside every rule scope — add them to lint.toml \
         or to ALLOWED_UNSCOPED with a reason:\n{}",
        unscoped.join("\n")
    );
}
