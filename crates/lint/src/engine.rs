//! The scan engine: walks the workspace, runs the rule catalog, applies
//! inline and config-file allows, and renders findings.
//!
//! Determinism contract: for a fixed tree + config, two independent
//! processes produce byte-identical output. Files are scanned in sorted
//! relative-path order, findings are sorted by (path, line, col, rule),
//! all internal maps are BTree-ordered, and paths are rendered
//! repo-relative with `/` separators so the absolute root never leaks
//! into the report.

use crate::config::{Config, Severity, MIN_REASON_LEN};
use crate::lexer::lex;
use crate::rules::{regions, run_rule, RawFinding, RULES};
use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// A resolved finding, ready to render.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Repo-relative path, `/`-separated.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Rule id.
    pub rule: String,
    /// Effective severity.
    pub severity: Severity,
    /// Description.
    pub message: String,
}

/// One engine run's output.
#[derive(Debug, Default)]
pub struct Report {
    /// All surviving findings, sorted.
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Inline allows that matched a finding (rule, path, line).
    pub allows_used: usize,
}

impl Report {
    /// Count at a given severity.
    pub fn count(&self, sev: Severity) -> usize {
        self.findings.iter().filter(|f| f.severity == sev).count()
    }

    /// True when nothing gates: no deny findings.
    pub fn clean(&self) -> bool {
        self.count(Severity::Deny) == 0
    }
}

/// An inline `lint:allow` pragma parsed from a comment.
#[derive(Debug)]
struct InlineAllow {
    /// Rules the pragma covers.
    rules: Vec<String>,
    /// The source line the pragma suppresses (the comment's own line for
    /// trailing pragmas, the next code line for standalone ones).
    line: u32,
    /// True once a finding consumed it (unused allows are reported).
    used: bool,
}

/// Parses `lint:allow(R1, R2): reason` pragmas out of one file's
/// comments. Returns (allows, malformed) where malformed entries become
/// `allow-syntax` deny findings — a silent typo must not silently
/// un-suppress or over-suppress.
fn parse_inline_allows(
    comments: &[crate::lexer::Comment],
    code_lines: &BTreeSet<u32>,
) -> (Vec<InlineAllow>, Vec<RawFinding>) {
    let mut allows = Vec::new();
    let mut bad = Vec::new();
    for c in comments {
        // The pragma must LEAD the comment (after the `//`/`/*` sigils):
        // prose that merely mentions lint:allow mid-sentence — like this
        // module's own docs — is not a pragma.
        let body = c
            .text
            .trim_start_matches(['/', '*', '!'])
            .trim_start();
        if !body.starts_with("lint:allow") {
            continue;
        }
        let rest = &body["lint:allow".len()..];
        let mut fail = |msg: &str| {
            bad.push(RawFinding {
                line: c.line,
                col: 1,
                rule: "allow-syntax",
                message: format!("malformed lint:allow pragma: {msg}"),
            });
        };
        let Some(open) = rest.find('(') else {
            fail("expected `lint:allow(RULE[, RULE…]): reason`");
            continue;
        };
        let Some(close) = rest.find(')') else {
            fail("missing `)` after rule list");
            continue;
        };
        if open != 0 || close < open {
            fail("expected `(` immediately after lint:allow");
            continue;
        }
        let rules: Vec<String> = rest[open + 1..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        if rules.is_empty() {
            fail("empty rule list");
            continue;
        }
        if let Some(unknown) = rules
            .iter()
            .find(|r| !RULES.iter().any(|(id, _, _)| id == &r.as_str()))
        {
            fail(&format!("unknown rule `{unknown}`"));
            continue;
        }
        let after = rest[close + 1..].trim_start();
        let Some(reason) = after.strip_prefix(':') else {
            fail("missing `: reason` after rule list");
            continue;
        };
        if reason.trim().len() < MIN_REASON_LEN {
            fail(&format!(
                "reason must justify the exemption (≥ {MIN_REASON_LEN} chars)"
            ));
            continue;
        }
        // Standalone comment lines cover the next code line; trailing
        // comments cover their own line.
        let target = if code_lines.contains(&c.line) {
            c.line
        } else {
            code_lines
                .range(c.line + 1..)
                .next()
                .copied()
                .unwrap_or(c.line)
        };
        allows.push(InlineAllow {
            rules,
            line: target,
            used: false,
        });
    }
    (allows, bad)
}

/// Scans one file's source text. `rel` is the repo-relative path used
/// for rule scoping and allowlists.
pub fn scan_source(rel: &str, src: &str, cfg: &Config) -> Vec<Finding> {
    let lexed = lex(src);
    let flags = regions(&lexed);
    let code_lines: BTreeSet<u32> = lexed.toks.iter().map(|t| t.line).collect();
    let (mut inline, malformed) = parse_inline_allows(&lexed.comments, &code_lines);

    let mut raw: Vec<RawFinding> = malformed;
    let rules = if is_test_target(rel) { &[][..] } else { RULES };
    for (id, _, _) in rules {
        if !cfg.in_scope(id, rel) || cfg.allowed(id, rel) {
            continue;
        }
        let rc = cfg.rule(id);
        raw.extend(run_rule(id, &lexed, &flags, &rc));
    }

    let mut out = Vec::new();
    for f in raw {
        let suppressed = inline
            .iter_mut()
            .find(|a| a.line == f.line && a.rules.iter().any(|r| r == f.rule));
        if let Some(a) = suppressed {
            a.used = true;
            continue;
        }
        let severity = if f.rule == "allow-syntax" {
            Severity::Deny
        } else {
            cfg.rule(f.rule).severity
        };
        out.push(Finding {
            path: rel.to_string(),
            line: f.line,
            col: f.col,
            rule: f.rule.to_string(),
            severity,
            message: f.message,
        });
    }
    // Unused inline allows are themselves findings: a pragma that no
    // longer suppresses anything is stale documentation.
    for a in inline.iter().filter(|a| !a.used) {
        out.push(Finding {
            path: rel.to_string(),
            line: a.line,
            col: 1,
            rule: "allow-syntax".to_string(),
            severity: Severity::Deny,
            message: format!(
                "unused lint:allow({}) pragma; the violation it suppressed is gone — remove it",
                a.rules.join(", ")
            ),
        });
    }
    out
}

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", ".github"];

/// Collects every `.rs` file under `root`, sorted by relative path.
fn collect_rs_files(root: &Path, cfg: &Config) -> std::io::Result<Vec<(String, PathBuf)>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for p in entries {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            let rel = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .to_string_lossy()
                .replace('\\', "/");
            if cfg.exclude.iter().any(|e| rel.starts_with(e.as_str())) {
                continue;
            }
            if p.is_dir() {
                if !SKIP_DIRS.contains(&name) && !name.starts_with('.') {
                    stack.push(p);
                }
            } else if name.ends_with(".rs") {
                out.push((rel, p));
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Runs the full workspace scan rooted at `root`.
pub fn scan_workspace(root: &Path, cfg: &Config) -> std::io::Result<Report> {
    let files = collect_rs_files(root, cfg)?;
    let mut report = Report::default();
    for (rel, path) in &files {
        let src = fs::read_to_string(path)?;
        let findings = scan_source(rel, &src, cfg);
        report.findings.extend(findings);
        report.files_scanned += 1;
    }
    report.findings.sort();
    Ok(report)
}

/// True for files that are test-only compilation targets: integration
/// tests, benches, examples, and build scripts. No rule runs over them
/// (R1–R4 police shipped simulation code); their pragmas are still
/// checked, so a stale `lint:allow` there is reported.
fn is_test_target(rel: &str) -> bool {
    rel.contains("/tests/")
        || rel.starts_with("tests/")
        || rel.contains("/benches/")
        || rel.contains("/examples/")
        || rel.ends_with("build.rs")
}

/// Renders the human-readable report.
pub fn render_text(report: &Report) -> String {
    let mut s = String::new();
    for f in &report.findings {
        s.push_str(&format!(
            "{}: {}:{}:{}: [{}] {}\n",
            f.severity.as_str(),
            f.path,
            f.line,
            f.col,
            f.rule,
            f.message
        ));
    }
    s.push_str(&format!(
        "tas-lint: {} files scanned, {} deny, {} warn, {} note\n",
        report.files_scanned,
        report.count(Severity::Deny),
        report.count(Severity::Warn),
        report.count(Severity::Note),
    ));
    s
}

/// Escapes a string for JSON output.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the machine-readable report. Hand-rolled and byte-stable:
/// key order is fixed, no floats, no timestamps, no absolute paths.
pub fn render_json(report: &Report) -> String {
    let mut s = String::from("{\"tool\":\"tas-lint\",\"version\":1,\"findings\":[");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"rule\":\"{}\",\"severity\":\"{}\",\"path\":\"{}\",\"line\":{},\"col\":{},\"message\":\"{}\"}}",
            json_escape(&f.rule),
            f.severity.as_str(),
            json_escape(&f.path),
            f.line,
            f.col,
            json_escape(&f.message)
        ));
    }
    s.push_str(&format!(
        "],\"summary\":{{\"files_scanned\":{},\"deny\":{},\"warn\":{},\"note\":{}}}}}\n",
        report.files_scanned,
        report.count(Severity::Deny),
        report.count(Severity::Warn),
        report.count(Severity::Note),
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config;

    fn cfg() -> Config {
        Config::default()
    }

    #[test]
    fn inline_allow_suppresses_same_line() {
        let src = "fn f(m: &HashMap<u32, u32>) { let t = Instant::now(); } // lint:allow(R2): sim clock unavailable in this harness\n";
        let f = scan_source("crates/sim/src/x.rs", src, &cfg());
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn inline_allow_standalone_covers_next_code_line() {
        let src = "// lint:allow(R2): point-lookup table, never iterated (R1 guards iteration)\nstruct S { m: HashMap<u32, u32> }\n";
        let f = scan_source("crates/sim/src/x.rs", src, &cfg());
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unused_allow_is_a_deny_finding() {
        let src = "// lint:allow(R2): left behind after a refactor removed it\nfn f() {}\n";
        let f = scan_source("x.rs", src, &cfg());
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "allow-syntax");
    }

    #[test]
    fn malformed_allow_is_a_deny_finding() {
        let src = "let t = Instant::now(); // lint:allow(R2) no colon reason\n";
        let f = scan_source("x.rs", src, &cfg());
        assert!(f.iter().any(|f| f.rule == "allow-syntax"), "{f:?}");
        let thin = "let t = Instant::now(); // lint:allow(R2): ok\n";
        let f2 = scan_source("x.rs", thin, &cfg());
        assert!(f2.iter().any(|f| f.rule == "allow-syntax"), "thin reason: {f2:?}");
    }

    #[test]
    fn prose_mentioning_the_pragma_is_not_a_pragma() {
        let src = "// docs can say lint:allow(R1) freely in prose\nfn f() {}\n";
        assert!(scan_source("x.rs", src, &cfg()).is_empty());
    }

    #[test]
    fn config_allowlist_suppresses_by_path_prefix() {
        let toml = "[[allow]]\nrule = \"R2\"\npath = \"crates/sim/src/x.rs\"\nreason = \"fixture exercised by the engine tests\"\n";
        let cfg = config::parse(toml).unwrap();
        let src = "let t = Instant::now();\n";
        assert!(scan_source("crates/sim/src/x.rs", src, &cfg).is_empty());
        assert_eq!(scan_source("crates/sim/src/y.rs", src, &cfg).len(), 1);
    }

    #[test]
    fn findings_sort_by_path_line_col() {
        let src = "let a = Instant::now();\nlet b = SystemTime::now();\n";
        let f = scan_source("x.rs", src, &cfg());
        assert_eq!(f.len(), 2);
        assert!(f[0].line < f[1].line);
    }

    #[test]
    fn json_is_valid_shape_and_escapes() {
        let mut r = Report::default();
        r.findings.push(Finding {
            path: "a \"b\".rs".into(),
            line: 1,
            col: 2,
            rule: "R1".into(),
            severity: Severity::Deny,
            message: "quote \" and backslash \\".into(),
        });
        r.files_scanned = 1;
        let j = render_json(&r);
        assert!(j.contains("\\\""));
        assert!(j.ends_with("}\n"));
        assert!(j.starts_with("{\"tool\":\"tas-lint\""));
    }
}
