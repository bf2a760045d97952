//! R4 (DESIGN.md §11): no `assert!`, `assert_eq!` or `assert_ne!` in a fast-path scope (a
//! file with the clippy deny list, or a directory: its module tree) outside its trailing
//! `#[cfg(test)]` module. Clippy has no lint for `assert!` that spares `debug_assert!`.
//! A `const` item's `assert!` is evaluated by the compiler, so it is no release panic.

use std::path::{Path, PathBuf};

const SCOPES: &str = "crates/cc/src crates/shm/src crates/tas/src/fastpath.rs \
    crates/tas/src/slowpath.rs crates/tas/src/flow crates/proto/src/slab.rs crates/proto/src/payload.rs \
    crates/proto/src/flow_index.rs crates/bench/src/scenario crates/bench/src/testbed.rs \
    crates/apps/src/adversary.rs \
    crates/apps/src/raw.rs crates/telemetry/src/profile.rs crates/cpusim/src/boundary.rs";

fn sources(path: &Path) -> Vec<PathBuf> {
    match std::fs::read_dir(path) {
        Ok(dir) => dir.flat_map(|e| sources(&e.unwrap().path())).collect(),
        Err(_) => vec![path.into()],
    }
}

#[test]
fn r4_scopes_have_no_release_asserts() {
    for scope in SCOPES.split_whitespace() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join(scope);
        assert!(root.exists(), "R4 scope {scope} is gone: update SCOPES");
        for file in sources(&root) {
            let src = std::fs::read_to_string(&file).expect("readable source");
            let (name, tests) = (file.display(), src.matches("#[cfg(test)]").count());
            assert!(tests <= 1, "{name}: one test module");
            let code = src.split("#[cfg(test)]").next().unwrap_or_default();
            for (n, line) in code.lines().enumerate() {
                let line = line.split("//").next().unwrap_or_default().trim();
                if line.starts_with("const _: () = assert!(") {
                    continue;
                }
                let release = |(at, _): (usize, &str)| !line[..at].ends_with("debug_");
                let mut calls = ["assert!(", "assert_eq!(", "assert_ne!("].into_iter();
                let hit = calls.any(|m| line.match_indices(m).any(release));
                assert!(!hit, "{name}:{}: {line}", n + 1);
            }
        }
    }
}
