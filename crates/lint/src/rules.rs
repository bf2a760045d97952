//! The rule catalog.
//!
//! Every rule is a pure function over one file's token stream plus the
//! precomputed region map (test-cfg, use-statement, attribute flags).
//! Rules return raw findings; the engine applies severities, inline
//! allows, and config-file allowlists.

use crate::config::RuleConfig;
use crate::lexer::{Lexed, Tok, TokKind};
use std::collections::BTreeSet;

/// A raw finding (before severity / allow resolution).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct RawFinding {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Rule id (`R1`..`R4`, or `allow-syntax`).
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
}

/// Per-token context flags.
#[derive(Clone, Copy, Debug, Default)]
pub struct TokFlags {
    /// Inside an item/statement gated by `#[cfg(… test …)]` (not negated).
    pub test_cfg: bool,
    /// Inside a `use …;` declaration.
    pub in_use: bool,
    /// Inside attribute brackets (`#[…]` / `#![…]`).
    pub in_attr: bool,
}

/// The rule registry: (id, slug, short description). Order is the
/// canonical reporting order.
pub const RULES: &[(&str, &str, &str)] = &[
    (
        "R1",
        "hash-iteration-nondeterminism",
        "iteration over HashMap/HashSet in packet-ordering-sensitive code",
    ),
    (
        "R2",
        "ambient-nondeterminism",
        "ambient time, OS randomness, or unordered containers in sim code",
    ),
    (
        "R3",
        "seq-space-arithmetic",
        "bare arithmetic/comparison on sequence-space values",
    ),
    (
        "R4",
        "fastpath-panic-freedom",
        "panicking construct on the fast path",
    ),
];

/// Methods whose call on a hash container leaks iteration order.
const ITERATING_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "into_iter",
    "into_keys",
    "into_values",
    "extend",
];

/// Computes the per-token region flags.
///
/// Attributes `#[…]`/`#![…]` are classified by content: a `cfg` whose
/// token list contains `test` (not directly under `not(…)`) marks the
/// following item as test code. Inner attributes (`#![…]`) cover the
/// rest of the file. Item extent is bracket-balanced: the first `;` or `,` at the
/// attribute's nesting depth, or the close of the first `{…}` block.
pub fn regions(lexed: &Lexed) -> Vec<TokFlags> {
    let toks = &lexed.toks;
    let mut flags = vec![TokFlags::default(); toks.len()];
    // Pass 1: attribute contents + classification.
    let mut i = 0;
    while i < toks.len() {
        if toks[i].text != "#" || toks[i].kind != TokKind::Punct {
            i += 1;
            continue;
        }
        let inner = i + 1 < toks.len() && toks[i + 1].text == "!";
        let br = i + if inner { 2 } else { 1 };
        if br >= toks.len() || toks[br].text != "[" {
            i += 1;
            continue;
        }
        // Find the matching `]`.
        let mut depth = 0i32;
        let mut end = br;
        for (j, t) in toks.iter().enumerate().skip(br) {
            match t.text.as_str() {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        end = j;
                        break;
                    }
                }
                _ => {}
            }
        }
        let content = &toks[br + 1..end];
        for f in flags.iter_mut().take(end + 1).skip(i) {
            f.in_attr = true;
        }
        let is_cfg = content.first().map(|t| t.text == "cfg").unwrap_or(false);
        let test_gate = is_cfg && cfg_mentions_test(content);
        if test_gate {
            let (from, to) = if inner {
                // Inner attribute: rest of file.
                (end + 1, toks.len())
            } else {
                (end + 1, item_extent(toks, end + 1))
            };
            for f in flags.iter_mut().take(to).skip(from) {
                f.test_cfg = true;
            }
        }
        i = end + 1;
    }
    // Pass 2: `use` statements.
    let mut in_use = false;
    for (j, t) in toks.iter().enumerate() {
        if !in_use && t.kind == TokKind::Ident && t.text == "use" && !flags[j].in_attr {
            in_use = true;
        }
        if in_use {
            flags[j].in_use = true;
            if t.text == ";" {
                in_use = false;
            }
        }
    }
    flags
}

/// True when a `cfg(...)` token list mentions `test` outside `not(…)`.
fn cfg_mentions_test(content: &[Tok]) -> bool {
    for (j, t) in content.iter().enumerate() {
        if t.kind == TokKind::Ident && t.text == "test" {
            let negated = j >= 2 && content[j - 1].text == "(" && content[j - 2].text == "not";
            if !negated {
                return true;
            }
        }
    }
    false
}

/// Extent of the item/statement starting at `start` (skipping any
/// further attributes): exclusive end index.
fn item_extent(toks: &[Tok], mut start: usize) -> usize {
    // Skip stacked attributes.
    while start + 1 < toks.len() && toks[start].text == "#" && toks[start + 1].text == "[" {
        let mut depth = 0i32;
        let mut j = start + 1;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        start = j + 1;
    }
    let mut depth = 0i32;
    let mut j = start;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" => {
                // First block at base depth closes the item.
                if depth == 0 {
                    let mut bd = 0i32;
                    while j < toks.len() {
                        match toks[j].text.as_str() {
                            "{" => bd += 1,
                            "}" => {
                                bd -= 1;
                                if bd == 0 {
                                    return j + 1;
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    return toks.len();
                }
                depth += 1;
            }
            "}" => depth -= 1,
            ";" | "," if depth <= 0 => return j + 1,
            _ => {}
        }
        j += 1;
    }
    toks.len()
}

fn finding(t: &Tok, rule: &'static str, message: String) -> RawFinding {
    RawFinding {
        line: t.line,
        col: t.col,
        rule,
        message,
    }
}

/// Tokens no rule looks at: test code and attribute contents.
fn skip(flags: &TokFlags) -> bool {
    flags.test_cfg || flags.in_attr
}

// ---------------------------------------------------------------------
// R1: hash-iteration-nondeterminism.

/// Collects identifiers declared (or assigned) as `HashMap`/`HashSet` in
/// this file: `name: HashMap<…>`, `name: &mut HashSet<…>`,
/// `name = HashMap::new()`, `let mut name = HashMap::with_capacity(…)`.
fn hash_container_names(toks: &[Tok]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || (t.text != "HashMap" && t.text != "HashSet") {
            continue;
        }
        // Walk back over a path prefix (`std :: collections ::`).
        let mut j = i;
        while j >= 2 && toks[j - 1].text == "::" {
            j -= 2;
        }
        // Walk back over reference sigils.
        while j >= 1 && (toks[j - 1].text == "&" || toks[j - 1].text == "mut") {
            j -= 1;
        }
        if j >= 2 && toks[j - 1].text == ":" && toks[j - 2].kind == TokKind::Ident {
            names.insert(toks[j - 2].text.clone());
            continue;
        }
        // Assignment form: `name = HashMap::…` / `let mut name = …`.
        if j >= 2 && toks[j - 1].text == "=" && toks[j - 2].kind == TokKind::Ident {
            names.insert(toks[j - 2].text.clone());
        }
    }
    names
}

/// R1: flags order-leaking operations on hash containers.
pub fn r1(lexed: &Lexed, flags: &[TokFlags], rc: &RuleConfig) -> Vec<RawFinding> {
    let toks = &lexed.toks;
    let mut names = hash_container_names(toks);
    for extra in &rc.idents {
        names.insert(extra.clone());
    }
    if names.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    // Method form: `name . iter (`.
    for i in 0..toks.len() {
        if skip(&flags[i]) || flags[i].in_use {
            continue;
        }
        let t = &toks[i];
        if t.kind == TokKind::Ident
            && names.contains(&t.text)
            && i + 3 < toks.len()
            && toks[i + 1].text == "."
            && toks[i + 2].kind == TokKind::Ident
            && ITERATING_METHODS.contains(&toks[i + 2].text.as_str())
            && toks[i + 3].text == "("
        {
            out.push(finding(
                &toks[i + 2],
                "R1",
                format!(
                    "iteration-order-dependent `.{}()` on hash container `{}`; \
                     use BTreeMap/BTreeSet or collect-and-sort",
                    toks[i + 2].text, t.text
                ),
            ));
        }
    }
    // Loop form: scan `for` … `in` … `{` windows.
    let mut i = 0;
    while i < toks.len() {
        if toks[i].kind != TokKind::Ident || toks[i].text != "for" || skip(&flags[i]) {
            i += 1;
            continue;
        }
        // `for<'a>` HRTB is not a loop.
        if i + 1 < toks.len() && toks[i + 1].text == "<" {
            i += 1;
            continue;
        }
        // Find `in` at depth 0, then the loop-body `{` at depth 0.
        let mut depth = 0i32;
        let mut in_at = None;
        let mut body_at = None;
        for (j, t) in toks.iter().enumerate().skip(i + 1) {
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => {
                    body_at = Some(j);
                    break;
                }
                "{" => depth += 1,
                "}" => depth -= 1,
                ";" if depth == 0 => break,
                "in" if depth == 0 && t.kind == TokKind::Ident && in_at.is_none() => {
                    in_at = Some(j)
                }
                _ => {}
            }
        }
        if let (Some(inn), Some(body)) = (in_at, body_at) {
            for t in &toks[inn + 1..body] {
                if t.kind == TokKind::Ident && names.contains(&t.text) {
                    // Method-form findings already cover `map.keys()` etc.
                    let method_follows = toks[inn + 1..body].windows(3).any(|w| {
                        w[0].text == t.text
                            && w[1].text == "."
                            && ITERATING_METHODS.contains(&w[2].text.as_str())
                    });
                    if !method_follows {
                        out.push(finding(
                            t,
                            "R1",
                            format!(
                                "`for … in` over hash container `{}` leaks hash-seed \
                                 iteration order; use BTreeMap/BTreeSet or sort first",
                                t.text
                            ),
                        ));
                    }
                    break;
                }
            }
        }
        i += 1;
    }
    out
}

// ---------------------------------------------------------------------
// R2: ambient-nondeterminism.

/// R2: ambient time sources, OS randomness, unordered containers.
pub fn r2(lexed: &Lexed, flags: &[TokFlags]) -> Vec<RawFinding> {
    let toks = &lexed.toks;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || skip(&flags[i]) || flags[i].in_use {
            continue;
        }
        let msg = match t.text.as_str() {
            "Instant" | "SystemTime" => Some(format!(
                "ambient wall-clock `{}` in sim code; use the sim clock (`SimTime`, `ctx.now()`)",
                t.text
            )),
            "thread_rng" | "OsRng" | "random" if t.text != "random" || is_call(toks, i) => {
                Some(format!(
                    "OS randomness `{}` in sim code; use the seeded `tas_sim::Rng` stream",
                    t.text
                ))
            }
            "HashMap" | "HashSet" => Some(format!(
                "unordered `{}` in sim code; use BTreeMap/BTreeSet, or justify a \
                 point-lookup-only table with `lint:allow(R2)`",
                t.text
            )),
            _ => None,
        };
        if let Some(m) = msg {
            out.push(finding(t, "R2", m));
        }
    }
    out
}

fn is_call(toks: &[Tok], i: usize) -> bool {
    toks.get(i + 1).map(|t| t.text == "(").unwrap_or(false)
}

// ---------------------------------------------------------------------
// R3: seq-space-arithmetic.

/// Default sequence-space identifier shapes; `idents` in `lint.toml`
/// appends exact names. A name matches when it equals an exact entry or
/// carries a listed suffix, and is not excluded (window/buffer sizes
/// share the `snd_`/`rcv_` prefixes but are lengths, not positions).
const R3_EXACT: &[&str] = &[
    "seq", "ack", "iss", "irs", "seq_no", "snd_una", "snd_nxt", "rcv_nxt", "snd_max",
];
const R3_SUFFIX: &[&str] = &["_seq", "_ack", "_frontier", "_cursor"];
const R3_EXCLUDE: &[&str] = &["snd_wnd", "rcv_wnd", "snd_buf", "rcv_buf"];

fn is_seq_ident(name: &str, rc: &RuleConfig) -> bool {
    if R3_EXCLUDE.contains(&name) {
        return false;
    }
    R3_EXACT.contains(&name)
        || R3_SUFFIX.iter().any(|s| name.ends_with(s))
        || rc.idents.iter().any(|s| s == name)
}

/// Operators that are wrap-hazardous on u32 sequence numbers. Equality
/// is wrap-safe and stays legal; shifts and masks are not arithmetic.
const R3_OPS: &[&str] = &["+", "-", "<", "<=", ">", ">=", "+=", "-="];

/// R3: bare arithmetic/relational operators on seq-space identifiers.
/// The fix is `wrapping_add`/`wrapping_sub` or the `seq::{lt,le,gt,ge}`
/// helpers from `tas_proto::tcp`.
pub fn r3(lexed: &Lexed, flags: &[TokFlags], rc: &RuleConfig) -> Vec<RawFinding> {
    let toks = &lexed.toks;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Punct || !R3_OPS.contains(&t.text.as_str()) || skip(&flags[i]) {
            continue;
        }
        // Left operand: the identifier directly before the operator
        // (fields arrive as `path . name`, so the last path segment).
        let left_seq = i >= 1
            && toks[i - 1].kind == TokKind::Ident
            && is_seq_ident(&toks[i - 1].text, rc);
        // Right operand, for `+`/`-` only (`x + seq`); relational ops
        // with a seq on the right are already caught via the left rule
        // on the mirrored comparison sites. An ident followed by `::` is
        // a path segment (`x + seq::sub(a, b)` — the sanctioned helper
        // module), not a value.
        let right_seq = (t.text == "+" || t.text == "-")
            && toks
                .get(i + 1)
                .map(|r| r.kind == TokKind::Ident && is_seq_ident(&r.text, rc))
                .unwrap_or(false)
            && toks.get(i + 2).map(|n| n.text != "::").unwrap_or(true);
        if left_seq || right_seq {
            let name = if left_seq {
                &toks[i - 1].text
            } else {
                &toks[i + 1].text
            };
            out.push(finding(
                t,
                "R3",
                format!(
                    "bare `{}` on sequence-space value `{}`; use wrapping_add/wrapping_sub \
                     or the `seq::` compare helpers (u32 seq space wraps)",
                    t.text, name
                ),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------
// R4: fastpath-panic-freedom.

/// Panicking macros banned on the fast path. `debug_assert!` stays
/// legal: it compiles out of release fast-path builds.
const R4_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// R4: unwrap/expect/panicking macros/queue-state indexing in fast-path
/// files, outside `#[cfg(test)]`.
pub fn r4(lexed: &Lexed, flags: &[TokFlags], rc: &RuleConfig) -> Vec<RawFinding> {
    let toks = &lexed.toks;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || skip(&flags[i]) {
            continue;
        }
        match t.text.as_str() {
            "unwrap" | "expect" | "unwrap_unchecked"
                if i >= 1 && toks[i - 1].text == "." && is_call(toks, i) =>
            {
                out.push(finding(
                    t,
                    "R4",
                    format!(
                        "`.{}()` can panic on the fast path; use let-else with a \
                         graceful drop (debug_assert! preserves the invariant check)",
                        t.text
                    ),
                ));
            }
            m if R4_MACROS.contains(&m)
                && toks.get(i + 1).map(|n| n.text == "!").unwrap_or(false) =>
            {
                out.push(finding(
                    t,
                    "R4",
                    format!(
                        "`{m}!` panics on the fast path; degrade gracefully \
                         (debug_assert! is the sanctioned invariant check)"
                    ),
                ));
            }
            name if rc.idents.contains(&t.text)
                && toks.get(i + 1).map(|n| n.text == "[").unwrap_or(false) =>
            {
                out.push(finding(
                    t,
                    "R4",
                    format!(
                        "indexing `{name}[…]` on queue state can panic; use `.get()` \
                         with a graceful fallback"
                    ),
                ));
            }
            _ => {}
        }
    }
    out
}

/// Runs one rule by id.
pub fn run_rule(id: &str, lexed: &Lexed, flags: &[TokFlags], rc: &RuleConfig) -> Vec<RawFinding> {
    match id {
        "R1" => r1(lexed, flags, rc),
        "R2" => r2(lexed, flags),
        "R3" => r3(lexed, flags, rc),
        "R4" => r4(lexed, flags, rc),
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(id: &str, src: &str) -> Vec<RawFinding> {
        let lexed = lex(src);
        let flags = regions(&lexed);
        run_rule(id, &lexed, &flags, &RuleConfig::default())
    }

    #[test]
    fn r1_fires_on_iter_and_for_over_hashmap() {
        let src = "struct S { m: HashMap<K, V> }\nfn f(s: &mut S) { for (k, v) in s.m.iter_mut() {} }";
        let f = run("R1", src);
        assert_eq!(f.len(), 1, "{f:?}");
        let src2 = "struct S { m: HashMap<K, V> }\nfn f(s: &S) { for x in &s.m {} }";
        assert_eq!(run("R1", src2).len(), 1);
    }

    #[test]
    fn r1_silent_on_btreemap_and_point_lookups() {
        let src = "struct S { m: BTreeMap<K, V> }\nfn f(s: &S) { for x in &s.m {} }";
        assert!(run("R1", src).is_empty());
        let src2 = "struct S { m: HashMap<K, V> }\nfn f(s: &S) { s.m.get(&k); s.m.contains_key(&k); }";
        assert!(run("R1", src2).is_empty());
    }

    #[test]
    fn r1_skips_cfg_test_modules() {
        let src = "struct S { m: HashMap<K, V> }\n#[cfg(test)]\nmod tests { fn f(s: &S) { for x in &s.m {} } }";
        assert!(run("R1", src).is_empty());
    }

    #[test]
    fn r2_flags_ambient_sources() {
        assert_eq!(run("R2", "let t = Instant::now();").len(), 1);
        assert_eq!(run("R2", "let m = HashMap::new();").len(), 1);
        assert!(run("R2", "use std::collections::HashMap;").is_empty(), "use lines exempt");
        assert!(run("R2", "let t = SimTime::ZERO;").is_empty());
    }

    #[test]
    fn r3_flags_bare_seq_arithmetic() {
        assert_eq!(run("R3", "let x = hs.iss + 1;").len(), 1);
        assert_eq!(run("R3", "if seg.tcp.seq < expected {}").len(), 1);
        assert!(run("R3", "let x = hs.iss.wrapping_add(1);").is_empty());
        assert!(run("R3", "if seq::gt(a, b) {}").is_empty());
        assert!(
            run("R3", "let off = base + seq::sub(a, b) as u64;").is_empty(),
            "the seq helper module is a path, not a value"
        );
        assert!(run("R3", "if flow.snd_wnd < mss {}").is_empty(), "windows are lengths");
        assert!(run("R3", "if a.seq == b {}").is_empty(), "equality is wrap-safe");
    }

    #[test]
    fn r4_flags_panics_and_exempts_debug_assert() {
        assert_eq!(run("R4", "let x = q.pop().unwrap();").len(), 1);
        assert_eq!(run("R4", "let x = q.pop().expect(\"full\");").len(), 1);
        assert_eq!(run("R4", "panic!(\"boom\");").len(), 1);
        assert_eq!(run("R4", "assert!(ok);").len(), 1);
        assert!(run("R4", "debug_assert!(ok);").is_empty());
        assert!(run("R4", "#[cfg(test)]\nfn t() { x.unwrap(); }").is_empty());
    }

    #[test]
    fn cfg_not_test_is_not_test_code() {
        let src = "#[cfg(not(test))]\nfn f() { x.unwrap(); }";
        assert_eq!(run("R4", src).len(), 1);
    }

    #[test]
    fn cfg_any_with_test_is_test_code() {
        let src = "#[cfg(any(test, feature = \"audit\"))]\nfn f() { x.unwrap(); }";
        assert!(run("R4", src).is_empty());
    }
}
