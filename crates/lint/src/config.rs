//! `lint.toml` parsing.
//!
//! The build environment is offline, so the engine parses its own config
//! with a minimal hand-rolled TOML-subset reader. The supported grammar
//! is exactly what the committed `lint.toml` uses:
//!
//! ```toml
//! exclude = ["vendor/", "crates/lint/tests/fixtures/"]
//!
//! [rules.R1]
//! severity = "deny"
//! paths = ["crates/tas/src/"]
//! idents = ["extra_banned_name"]        # rule-specific string lists
//!
//! [[allow]]
//! rule = "R1"
//! path = "crates/tas/src/flow.rs"
//! reason = "point-lookup table; never iterated"
//! ```
//!
//! Tables (`[rules.RN]`), arrays of tables (`[[allow]]`), string values,
//! and string arrays. No nested inline tables, no multi-line strings —
//! the parser rejects what it does not understand so a config typo fails
//! loudly instead of silently disabling a rule.

use std::collections::BTreeMap;

/// How hard a rule's findings gate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational; never fails a run.
    Note,
    /// Reported; fails only `--deny-warnings` runs.
    Warn,
    /// Fails the run (exit code 1, tier-1 test failure).
    Deny,
}

impl Severity {
    /// Stable lower-case name (JSON output).
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
    }

    fn parse(s: &str) -> Option<Severity> {
        match s {
            "note" => Some(Severity::Note),
            "warn" => Some(Severity::Warn),
            "deny" => Some(Severity::Deny),
            _ => None,
        }
    }
}

/// Per-rule configuration.
#[derive(Clone, Debug)]
pub struct RuleConfig {
    /// Gate level.
    pub severity: Severity,
    /// Repo-relative path prefixes the rule applies to. Empty = whole
    /// workspace.
    pub paths: Vec<String>,
    /// Extra rule-specific identifier lists (R3 seq names, R4 index
    /// receivers).
    pub idents: Vec<String>,
}

impl Default for RuleConfig {
    fn default() -> Self {
        RuleConfig {
            severity: Severity::Deny,
            paths: Vec::new(),
            idents: Vec::new(),
        }
    }
}

/// A path-scoped allow entry from `lint.toml`.
#[derive(Clone, Debug)]
pub struct AllowEntry {
    /// Rule id (`R1`..`R4`) or `*`.
    pub rule: String,
    /// Repo-relative path prefix the allow covers.
    pub path: String,
    /// Required human justification.
    pub reason: String,
}

/// The parsed configuration.
#[derive(Clone, Debug, Default)]
pub struct Config {
    /// Repo-relative path prefixes excluded from scanning entirely.
    pub exclude: Vec<String>,
    /// Per-rule settings, keyed by rule id.
    pub rules: BTreeMap<String, RuleConfig>,
    /// Path-scoped allows.
    pub allows: Vec<AllowEntry>,
}

impl Config {
    /// Effective config for `rule`: the parsed entry or the default.
    pub fn rule(&self, id: &str) -> RuleConfig {
        self.rules.get(id).cloned().unwrap_or_default()
    }

    /// True when `rel_path` is scoped in for `rule` (path prefix match;
    /// empty scope = everywhere).
    pub fn in_scope(&self, id: &str, rel_path: &str) -> bool {
        let rc = self.rule(id);
        rc.paths.is_empty() || rc.paths.iter().any(|p| rel_path.starts_with(p.as_str()))
    }

    /// True when a `[[allow]]` entry covers `rule` at `rel_path`.
    pub fn allowed(&self, rule: &str, rel_path: &str) -> bool {
        self.allows
            .iter()
            .any(|a| (a.rule == rule || a.rule == "*") && rel_path.starts_with(a.path.as_str()))
    }
}

/// A parse failure, with its 1-based line.
#[derive(Debug)]
pub struct ConfigError {
    /// Line number.
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lint.toml:{}: {}", self.line, self.msg)
    }
}

enum Section {
    Top,
    Rule(String),
    Allow,
}

/// Parses the `lint.toml` text.
pub fn parse(text: &str) -> Result<Config, ConfigError> {
    let mut cfg = Config::default();
    let mut section = Section::Top;
    let lines: Vec<&str> = text.lines().collect();
    let mut i = 0;
    while i < lines.len() {
        let lineno = i + 1;
        let mut line = strip_comment(lines[i]).trim().to_string();
        i += 1;
        // Multi-line array: join until the `]` closes (quote-aware
        // bracket counting is unnecessary — paths never contain `]`).
        if line.contains('[')
            && line.contains('=')
            && line.matches('[').count() > line.matches(']').count()
        {
            while i < lines.len() && line.matches('[').count() > line.matches(']').count() {
                line.push(' ');
                line.push_str(strip_comment(lines[i]).trim());
                i += 1;
            }
        }
        if line.is_empty() {
            continue;
        }
        let err = |msg: String| ConfigError { line: lineno, msg };
        if let Some(name) = line.strip_prefix("[[").and_then(|s| s.strip_suffix("]]")) {
            if name.trim() != "allow" {
                return Err(err(format!("unknown array-of-tables [[{}]]", name.trim())));
            }
            cfg.allows.push(AllowEntry {
                rule: String::new(),
                path: String::new(),
                reason: String::new(),
            });
            section = Section::Allow;
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            let name = name.trim();
            if let Some(rule) = name.strip_prefix("rules.") {
                cfg.rules.entry(rule.to_string()).or_default();
                section = Section::Rule(rule.to_string());
                continue;
            }
            return Err(err(format!("unknown table [{name}]")));
        }
        let Some(eq) = line.find('=') else {
            return Err(err(format!("expected `key = value`, got `{line}`")));
        };
        let key = line[..eq].trim();
        let val = line[eq + 1..].trim();
        match &mut section {
            Section::Top => match key {
                "exclude" => cfg.exclude = parse_string_array(val).map_err(err)?,
                _ => return Err(err(format!("unknown top-level key `{key}`"))),
            },
            Section::Rule(id) => {
                let rc = cfg.rules.get_mut(id.as_str()).unwrap_or_else(|| {
                    unreachable!("section entry inserted when the header was parsed")
                });
                match key {
                    "severity" => {
                        let s = parse_string(val).map_err(err)?;
                        rc.severity = Severity::parse(&s)
                            .ok_or_else(|| err(format!("unknown severity `{s}`")))?;
                    }
                    "paths" => rc.paths = parse_string_array(val).map_err(err)?,
                    "idents" => rc.idents = parse_string_array(val).map_err(err)?,
                    _ => return Err(err(format!("unknown rule key `{key}`"))),
                }
            }
            Section::Allow => {
                let entry = cfg
                    .allows
                    .last_mut()
                    .unwrap_or_else(|| unreachable!("[[allow]] pushes before keys parse"));
                let s = parse_string(val).map_err(err)?;
                match key {
                    "rule" => entry.rule = s,
                    "path" => entry.path = s,
                    "reason" => entry.reason = s,
                    _ => return Err(err(format!("unknown allow key `{key}`"))),
                }
            }
        }
    }
    // Validate allows: every entry needs rule, path, and a real reason.
    for (idx, a) in cfg.allows.iter().enumerate() {
        if a.rule.is_empty() || a.path.is_empty() {
            return Err(ConfigError {
                line: 0,
                msg: format!("[[allow]] #{} is missing `rule` or `path`", idx + 1),
            });
        }
        if a.reason.trim().len() < MIN_REASON_LEN {
            return Err(ConfigError {
                line: 0,
                msg: format!(
                    "[[allow]] #{} ({} at {}): `reason` must justify the exemption \
                     (≥ {MIN_REASON_LEN} chars)",
                    idx + 1,
                    a.rule,
                    a.path
                ),
            });
        }
    }
    Ok(cfg)
}

/// Minimum length of an allow justification, config-file and inline both.
/// Short enough not to pad, long enough that `"ok"` does not pass review.
pub const MIN_REASON_LEN: usize = 10;

/// Strips a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut prev_backslash = false;
    for (i, ch) in line.char_indices() {
        match ch {
            '"' if !prev_backslash => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
        prev_backslash = ch == '\\' && !prev_backslash;
    }
    line
}

fn parse_string(val: &str) -> Result<String, String> {
    let v = val.trim();
    if v.len() >= 2 && v.starts_with('"') && v.ends_with('"') {
        Ok(v[1..v.len() - 1].to_string())
    } else {
        Err(format!("expected a double-quoted string, got `{v}`"))
    }
}

fn parse_string_array(val: &str) -> Result<Vec<String>, String> {
    let v = val.trim();
    let inner = v
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| format!("expected a [\"…\", …] array, got `{v}`"))?;
    let mut out = Vec::new();
    for part in split_top_level(inner) {
        let p = part.trim();
        if p.is_empty() {
            continue;
        }
        out.push(parse_string(p)?);
    }
    Ok(out)
}

/// Splits on commas outside quotes.
fn split_top_level(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    for ch in s.chars() {
        match ch {
            '"' => {
                in_str = !in_str;
                cur.push(ch);
            }
            ',' if !in_str => {
                out.push(std::mem::take(&mut cur));
            }
            _ => cur.push(ch),
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_schema() {
        let cfg = parse(
            r#"
# top comment
exclude = ["vendor/", "target/"]

[rules.R1]
severity = "deny"
paths = ["crates/tas/src/", "crates/tcp/src/"]

[rules.R3]
severity = "warn"
idents = ["seq", "ack"]

[[allow]]
rule = "R1"
path = "crates/tas/src/flow.rs"
reason = "point-lookup only, never iterated"
"#,
        )
        .unwrap();
        assert_eq!(cfg.exclude, vec!["vendor/", "target/"]);
        assert_eq!(cfg.rule("R1").severity, Severity::Deny);
        assert_eq!(cfg.rule("R3").severity, Severity::Warn);
        assert_eq!(cfg.rule("R3").idents, vec!["seq", "ack"]);
        assert!(cfg.in_scope("R1", "crates/tcp/src/conn.rs"));
        assert!(!cfg.in_scope("R1", "crates/apps/src/kv.rs"));
        assert!(cfg.in_scope("R2", "anything/at/all.rs"), "no entry = everywhere");
        assert!(cfg.allowed("R1", "crates/tas/src/flow.rs"));
        assert!(!cfg.allowed("R2", "crates/tas/src/flow.rs"));
    }

    #[test]
    fn rejects_unknown_keys_and_thin_reasons() {
        assert!(parse("nonsense = true").is_err());
        assert!(parse("[rules.R1]\nseverity = \"fatal\"").is_err());
        let thin = "[[allow]]\nrule = \"R1\"\npath = \"x.rs\"\nreason = \"ok\"";
        assert!(parse(thin).is_err(), "two-char reason must not pass");
    }

    #[test]
    fn comments_inside_strings_survive() {
        let cfg = parse("exclude = [\"a#b/\"] # trailing").unwrap();
        assert_eq!(cfg.exclude, vec!["a#b/"]);
    }
}
