//! Cross-process determinism of the `tas-lint` binary: two fresh
//! processes scanning the same tree must emit byte-identical JSON, and
//! the exit code must encode the verdict (0 clean / 1 deny findings).

use std::path::PathBuf;
use std::process::{Command, Output};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

fn run_lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tas-lint"))
        .args(args)
        .output()
        .expect("spawn tas-lint")
}

#[test]
fn two_processes_emit_identical_json() {
    let root = repo_root();
    let root = root.to_str().expect("utf-8 path");
    let a = run_lint(&["--root", root, "--json"]);
    let b = run_lint(&["--root", root, "--json"]);
    assert_eq!(
        a.stdout, b.stdout,
        "hash-seed or walk-order nondeterminism leaked into the report"
    );
    assert_eq!(a.status.code(), b.status.code());
    let text = String::from_utf8(a.stdout).expect("json is utf-8");
    assert!(
        text.starts_with("{\"tool\":\"tas-lint\",\"version\":1,"),
        "stable schema prefix: {}",
        &text[..text.len().min(80)]
    );
    assert!(text.contains("\"summary\":{"));
}

#[test]
fn workspace_is_clean_and_exits_zero() {
    let root = repo_root();
    let out = run_lint(&["--root", root.to_str().expect("utf-8 path")]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "workspace must be lint-clean at deny:\n{text}"
    );
    assert!(text.contains("0 deny"), "{text}");
}

#[test]
fn deny_findings_exit_one() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("lint-exit-one");
    let src_dir = dir.join("crates/tas/src");
    std::fs::create_dir_all(&src_dir).expect("mkdir");
    // Minimal tree: the repo's own config plus one R4 violation in scope.
    std::fs::copy(repo_root().join("lint.toml"), dir.join("lint.toml")).expect("copy config");
    std::fs::write(
        src_dir.join("fastpath.rs"),
        "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
    )
    .expect("write violation");
    let out = run_lint(&["--root", dir.to_str().expect("utf-8 path"), "--json"]);
    assert_eq!(out.status.code(), Some(1), "deny findings must gate");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"rule\":\"R4\""), "{text}");
}

#[test]
fn unknown_flag_exits_two() {
    let out = run_lint(&["--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
}
