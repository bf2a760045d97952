//! Proves every rule live against committed fixtures, using the real
//! repo `lint.toml` for scoping and severities. Each rule has a bad
//! fixture that must fire and a fixed fixture that must stay silent;
//! R1's pair reconstructs the PR-1 slowpath retry-batch bug and its
//! BTreeMap fix, plus a pragma-suppressed variant.

use tas_lint::{scan_source, Config, Finding};

fn repo_config() -> Config {
    tas_lint::config::parse(include_str!("../../../lint.toml")).expect("repo lint.toml parses")
}

/// Scans a fixture as if it lived at `rel` inside the workspace.
fn scan(rel: &str, src: &str) -> Vec<Finding> {
    scan_source(rel, src, &repo_config())
}

fn rules_of(findings: &[Finding]) -> Vec<&str> {
    findings.iter().map(|f| f.rule.as_str()).collect()
}

#[test]
fn r1_fires_on_the_pr1_retry_batch_bug() {
    let f = scan(
        "crates/tas/src/slowpath.rs",
        include_str!("fixtures/r1_retry_batch_bad.rs"),
    );
    assert!(
        f.iter().any(|f| f.rule == "R1"),
        "R1 must fire on HashMap retry iteration: {f:?}"
    );
    let r1 = f.iter().find(|f| f.rule == "R1").expect("checked");
    assert!(
        r1.message.contains("iteration-order"),
        "message names the failure mode: {}",
        r1.message
    );
}

#[test]
fn r1_silent_on_the_btreemap_fix() {
    let f = scan(
        "crates/tas/src/slowpath.rs",
        include_str!("fixtures/r1_retry_batch_fixed.rs"),
    );
    assert!(f.is_empty(), "BTreeMap version must be clean: {f:?}");
}

#[test]
fn r1_pragma_suppresses_with_justification() {
    let f = scan(
        "crates/tas/src/slowpath.rs",
        include_str!("fixtures/r1_retry_batch_allowed.rs"),
    );
    assert!(
        f.is_empty(),
        "justified pragmas must suppress R1+R2 and leave no allow-syntax residue: {f:?}"
    );
}

#[test]
fn r2_fires_on_ambient_sources_and_accepts_sim_clock() {
    let bad = scan(
        "crates/sim/src/backoff.rs",
        include_str!("fixtures/r2_ambient_bad.rs"),
    );
    assert_eq!(
        rules_of(&bad),
        vec!["R2", "R2", "R2"],
        "Instant, SystemTime, thread_rng each fire: {bad:?}"
    );
    let good = scan(
        "crates/sim/src/backoff.rs",
        include_str!("fixtures/r2_ambient_fixed.rs"),
    );
    assert!(good.is_empty(), "{good:?}");
}

#[test]
fn r3_fires_on_bare_seq_arithmetic_and_accepts_wrapping() {
    let bad = scan(
        "crates/tcp/src/conn.rs",
        include_str!("fixtures/r3_seq_bad.rs"),
    );
    assert_eq!(
        rules_of(&bad),
        vec!["R3", "R3"],
        "the `<` and the `+` each fire: {bad:?}"
    );
    let good = scan(
        "crates/tcp/src/conn.rs",
        include_str!("fixtures/r3_seq_fixed.rs"),
    );
    assert!(good.is_empty(), "{good:?}");
}

#[test]
fn r4_fires_on_fastpath_panics_and_accepts_let_else() {
    let bad = scan(
        "crates/tas/src/fastpath.rs",
        include_str!("fixtures/r4_fastpath_bad.rs"),
    );
    assert_eq!(
        rules_of(&bad),
        vec!["R4", "R4", "R4"],
        "unwrap, expect, panic! each fire: {bad:?}"
    );
    let good = scan(
        "crates/tas/src/fastpath.rs",
        include_str!("fixtures/r4_fastpath_fixed.rs"),
    );
    assert!(good.is_empty(), "debug_assert! is sanctioned: {good:?}");
}

#[test]
fn findings_carry_deny_severity_from_repo_config() {
    let f = scan(
        "crates/tas/src/fastpath.rs",
        include_str!("fixtures/r4_fastpath_bad.rs"),
    );
    assert!(
        f.iter().all(|f| f.severity == tas_lint::Severity::Deny),
        "repo config gates every rule at deny: {f:?}"
    );
}

#[test]
fn out_of_scope_paths_do_not_fire() {
    // R4 is scoped to the fast path and the shm rings; the same panicky
    // code in a benchmark crate is legal.
    let f = scan(
        "crates/bench/src/report.rs",
        include_str!("fixtures/r4_fastpath_bad.rs"),
    );
    assert!(
        f.iter().all(|f| f.rule != "R4"),
        "bench code is outside R4's scope: {f:?}"
    );
}

#[test]
fn unused_pragma_is_reported_not_ignored() {
    let src = "// lint:allow(R4): nothing here actually panics today\nfn f() {}\n";
    let f = scan("crates/tas/src/fastpath.rs", src);
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, "allow-syntax");
    assert!(f[0].message.contains("unused"), "{}", f[0].message);
}
