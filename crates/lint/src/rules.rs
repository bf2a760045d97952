//! The rule catalog.
//!
//! Every rule is a pure function over one file's token stream plus the
//! precomputed region map (test-cfg, trace-cfg, use-statement flags).
//! Rules return raw findings; the engine applies severities, inline
//! allows, and config-file allowlists.

use crate::config::{ComponentGroup, Config, RuleConfig};
use crate::lexer::{Lexed, Tok, TokKind};
use std::collections::BTreeSet;

/// A raw finding (before severity / allow resolution).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct RawFinding {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Rule id (`R1`..`R8`, or `allow-syntax`).
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
}

/// Per-token context flags.
#[derive(Clone, Copy, Debug, Default)]
pub struct TokFlags {
    /// Inside an item/statement gated by `#[cfg(… test …)]` (not negated).
    pub test_cfg: bool,
    /// Inside an item/statement gated by `#[cfg(… feature = "trace" …)]`.
    pub trace_cfg: bool,
    /// Inside an item/statement gated by `#[cfg(… feature = "profile" …)]`.
    pub profile_cfg: bool,
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
    (
        "R5",
        "trace-gate-hygiene",
        "trace emit site outside the per-crate `trace` feature gate",
    ),
    (
        "R7",
        "profile-site-hygiene",
        "profiler call site outside the per-crate `profile` feature gate",
    ),
    (
        "R8",
        "write-scope-boundary",
        "cross-component write to owned connection state",
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
/// following item as test code; one containing `feature = "trace"` marks
/// it trace-gated. Inner attributes (`#![…]`) cover the rest of the
/// file. Item extent is bracket-balanced: the first `;` or `,` at the
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
        let trace_gate = is_cfg && cfg_mentions_feature(content, "trace");
        let profile_gate = is_cfg && cfg_mentions_feature(content, "profile");
        if test_gate || trace_gate || profile_gate {
            let (from, to) = if inner {
                // Inner attribute: rest of file.
                (end + 1, toks.len())
            } else {
                (end + 1, item_extent(toks, end + 1))
            };
            for f in flags.iter_mut().take(to).skip(from) {
                f.test_cfg |= test_gate;
                f.trace_cfg |= trace_gate;
                f.profile_cfg |= profile_gate;
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

/// True when a `cfg(...)` token list contains `feature = "<name>"`.
fn cfg_mentions_feature(content: &[Tok], name: &str) -> bool {
    let needle = format!("\"{name}\"");
    content.windows(3).any(|w| {
        w[0].kind == TokKind::Ident
            && w[0].text == "feature"
            && w[1].text == "="
            && w[2].kind == TokKind::Str
            && w[2].text.contains(&needle)
    })
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

/// Skip helper shared by rules that exempt test code.
fn skip(flags: &TokFlags, rc: &RuleConfig) -> bool {
    (!rc.include_test_code && flags.test_cfg) || flags.in_attr
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
        if skip(&flags[i], rc) || flags[i].in_use {
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
        if toks[i].kind != TokKind::Ident || toks[i].text != "for" || skip(&flags[i], rc) {
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
pub fn r2(lexed: &Lexed, flags: &[TokFlags], rc: &RuleConfig) -> Vec<RawFinding> {
    let toks = &lexed.toks;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || skip(&flags[i], rc) || flags[i].in_use {
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
        if t.kind != TokKind::Punct || !R3_OPS.contains(&t.text.as_str()) || skip(&flags[i], rc) {
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
        if t.kind != TokKind::Ident || skip(&flags[i], rc) {
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

// ---------------------------------------------------------------------
// R5: trace-gate-hygiene.

/// Identifiers that mark a flight-recorder emit site.
const R5_SITES: &[&str] = &["emit", "TraceEvent", "TraceRecord"];

/// R5: every emit site must sit inside a `feature = "trace"` cfg region.
pub fn r5(lexed: &Lexed, flags: &[TokFlags], rc: &RuleConfig) -> Vec<RawFinding> {
    let toks = &lexed.toks;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || !R5_SITES.contains(&t.text.as_str()) {
            continue;
        }
        if flags[i].trace_cfg || flags[i].in_use || flags[i].in_attr {
            continue;
        }
        if !rc.include_test_code && flags[i].test_cfg {
            continue;
        }
        // `emit` must be a call or a path segment ending in a call
        // (`tas_telemetry::emit(…)`) — a local method named `emit` on a
        // non-telemetry type would false-positive otherwise. TraceEvent/
        // TraceRecord are unambiguous.
        if t.text == "emit" && !is_call(toks, i) {
            continue;
        }
        out.push(finding(
            t,
            "R5",
            format!(
                "trace site `{}` outside a `#[cfg(feature = \"trace\")]` gate; \
                 ungated sites break the trace-off zero-overhead proof",
                t.text
            ),
        ));
    }
    out
}

// ---------------------------------------------------------------------
// R7: profile-site-hygiene.

/// R7: every profiler call site (`profile::guard`, `profile::charge`,
/// `profile::set_core`, …) must sit inside a `feature = "profile"` cfg
/// region. Only the path form `profile::…` marks a site — fields and
/// locals named `profile` are unrelated.
pub fn r7(lexed: &Lexed, flags: &[TokFlags], rc: &RuleConfig) -> Vec<RawFinding> {
    let toks = &lexed.toks;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || t.text != "profile" {
            continue;
        }
        if toks.get(i + 1).map(|n| n.text != "::").unwrap_or(true) {
            continue;
        }
        if flags[i].profile_cfg || flags[i].in_use || flags[i].in_attr {
            continue;
        }
        if !rc.include_test_code && flags[i].test_cfg {
            continue;
        }
        out.push(finding(
            t,
            "R7",
            "profiler site `profile::…` outside a `#[cfg(feature = \"profile\")]` gate; \
             ungated sites break the profile-off zero-overhead proof"
                .to_string(),
        ));
    }
    out
}

// ---------------------------------------------------------------------
// R8: write-scope-boundary.

/// Compound assignment operators plus plain `=` — the token shapes that
/// mutate a place. The lexer munches each as a single token, so `==`,
/// `<=`, `>=`, `!=`, and `=>` can never alias into this set.
const R8_ASSIGN_OPS: &[&str] = &[
    "=", "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=", "<<=", ">>=",
];

/// An `impl` block's token extent and target type name.
struct ImplBlock {
    /// First body token (after `{`).
    start: usize,
    /// Exclusive end (the closing `}`).
    end: usize,
    /// The implemented type's name (`impl X`, `impl Tr for X` → `X`).
    name: String,
}

/// Finds every `impl` block: `(body_start, body_end, type_name)`.
/// Generics are skipped by angle-depth counting (`<<`/`>>` count
/// double); the type is the last angle-depth-0 identifier before the
/// body brace, reset at `for` so `impl Trait for Type` attributes to
/// `Type` and not the trait.
fn impl_blocks(toks: &[Tok], flags: &[TokFlags]) -> Vec<ImplBlock> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].kind != TokKind::Ident || toks[i].text != "impl" || flags[i].in_attr {
            i += 1;
            continue;
        }
        let mut adepth = 0i32;
        let mut name = String::new();
        let mut j = i + 1;
        let mut body = None;
        while j < toks.len() {
            let t = &toks[j];
            match t.text.as_str() {
                "<" => adepth += 1,
                ">" => adepth -= 1,
                "<<" => adepth += 2,
                ">>" => adepth -= 2,
                "->" | "=>" => {}
                "for" | "where" if t.kind == TokKind::Ident && adepth == 0 => name.clear(),
                "{" if adepth <= 0 => {
                    body = Some(j);
                    break;
                }
                ";" if adepth <= 0 => break, // `impl Trait for Type;` — no body
                _ if t.kind == TokKind::Ident && adepth == 0 => name = t.text.clone(),
                _ => {}
            }
            j += 1;
        }
        let Some(open) = body else {
            i = j + 1;
            continue;
        };
        // Match the body braces.
        let mut depth = 0i32;
        let mut end = toks.len();
        for (k, t) in toks.iter().enumerate().skip(open) {
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        end = k;
                        break;
                    }
                }
                _ => {}
            }
        }
        out.push(ImplBlock {
            start: open + 1,
            end,
            name,
        });
        // Continue scanning inside the body so nested impls attribute to
        // their own (innermost) block.
        i = open + 1;
    }
    out
}

/// The innermost impl block containing token `idx`, if any.
fn enclosing_impl(blocks: &[ImplBlock], idx: usize) -> Option<&ImplBlock> {
    blocks
        .iter()
        .filter(|b| b.start <= idx && idx < b.end)
        .max_by_key(|b| b.start)
}

/// A field-access chain ending at a written-to place: the `.`-separated
/// identifier segments, plus whether the chain's root is an opaque
/// expression (call/index result) rather than a plain identifier.
struct Chain {
    /// Segments left to right; the last one is the written field.
    segs: Vec<String>,
    /// True when the receiver continues left of the collected segments
    /// through `)`/`]` — `f(x).field`, `xs[i].field`.
    opaque_root: bool,
}

/// Walks a place expression backwards from `end` (the token before an
/// assignment operator). Returns `None` unless the place ends in an
/// identifier.
fn chain_back(toks: &[Tok], end: usize) -> Option<Chain> {
    if toks[end].kind != TokKind::Ident {
        return None;
    }
    let mut segs = vec![toks[end].text.clone()];
    let mut j = end;
    let mut opaque_root = false;
    while j >= 2 && toks[j - 1].text == "." {
        if toks[j - 2].kind == TokKind::Ident {
            segs.push(toks[j - 2].text.clone());
            j -= 2;
        } else {
            opaque_root = true;
            break;
        }
    }
    segs.reverse();
    Some(Chain { segs, opaque_root })
}

/// Walks a place expression forward from `start` (the token after
/// `&mut`). Stops at the first non-`ident.ident` shape; a trailing
/// segment that opens a call is a method name, not a field, and is
/// dropped.
fn chain_fwd(toks: &[Tok], start: usize) -> Option<Chain> {
    if toks.get(start).map(|t| t.kind) != Some(TokKind::Ident) {
        return None;
    }
    let mut segs = vec![toks[start].text.clone()];
    let mut j = start;
    while j + 2 < toks.len() && toks[j + 1].text == "." && toks[j + 2].kind == TokKind::Ident {
        segs.push(toks[j + 2].text.clone());
        j += 2;
    }
    if toks.get(j + 1).map(|t| t.text == "(").unwrap_or(false) {
        segs.pop();
    }
    if segs.len() < 2 {
        return None; // `&mut local` borrows a whole value, not a field.
    }
    Some(Chain { segs, opaque_root: false })
}

/// Checks one written-to place against one ownership map. Returns the
/// violated component's (name, struct) when the write crosses the
/// boundary.
fn r8_violation<'a>(
    chain: &Chain,
    group: &'a ComponentGroup,
    impl_name: Option<&str>,
) -> Option<(&'a str, String)> {
    let last = chain.segs.len() - 1;
    // Write *through* a component accessor (`flow.snd.tx_sent = …`,
    // `x.cc.bucket.tokens = …`): only the owning component's impl may.
    // The root segment counts too — a reborrowed alias named after the
    // accessor (`let snd = &mut flow.snd; snd.iss = …`) is still a
    // cross-component write when it happens outside the owner.
    for (pos, seg) in chain.segs.iter().enumerate() {
        if pos == last {
            break;
        }
        if group.shared.iter().any(|s| s == seg) {
            return None; // Shared aggregate field: writable anywhere.
        }
        if let Some((cname, comp)) = group.by_accessor(seg) {
            if impl_name != Some(comp.strukt.as_str()) {
                return Some((cname, comp.strukt.clone()));
            }
            return None;
        }
    }
    // Direct write to an owned leaf field through `self`
    // (`self.tx_sent = …`): legal only inside the owning struct's impl.
    // Non-`self` roots are skipped — an unrelated local whose field
    // happens to share an owned field's name must not false-positive.
    if chain.segs[0] == "self" && !chain.opaque_root {
        if let Some(field) = chain.segs.get(1) {
            if let Some((cname, comp)) = group.by_field(field) {
                if impl_name != Some(comp.strukt.as_str()) {
                    return Some((cname, comp.strukt.clone()));
                }
            }
        }
    }
    None
}

/// Parses the field names of `struct <name> { … }` declarations in this
/// file, keyed by struct name. Tuple and unit structs have no named
/// fields and are skipped.
fn struct_fields(toks: &[Tok], flags: &[TokFlags]) -> Vec<(String, u32, BTreeSet<String>)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i + 1 < toks.len() {
        if toks[i].kind != TokKind::Ident
            || toks[i].text != "struct"
            || flags[i].in_attr
            || toks[i + 1].kind != TokKind::Ident
        {
            i += 1;
            continue;
        }
        let name = toks[i + 1].text.clone();
        let line = toks[i + 1].line;
        // Find the body `{` (skipping generics); `;` or `(` first means
        // unit/tuple struct.
        let mut adepth = 0i32;
        let mut j = i + 2;
        let mut open = None;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "<" => adepth += 1,
                ">" => adepth -= 1,
                "<<" => adepth += 2,
                ">>" => adepth -= 2,
                "{" if adepth <= 0 => {
                    open = Some(j);
                    break;
                }
                ";" | "(" if adepth <= 0 => break,
                _ => {}
            }
            j += 1;
        }
        let Some(open) = open else {
            i = j + 1;
            continue;
        };
        let mut fields = BTreeSet::new();
        let mut depth = 0i32;
        let mut k = open;
        while k < toks.len() {
            match toks[k].text.as_str() {
                "{" | "(" | "[" => depth += 1,
                "}" | ")" | "]" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                // The identifier before a depth-1 `:` is a field
                // name (`pub(crate) name: Type` — the paren group
                // sits at depth 2, types keep colons behind `::`).
                ":" if depth == 1
                    && k >= 1
                    && toks[k - 1].kind == TokKind::Ident
                    && !flags[k - 1].in_attr =>
                {
                    fields.insert(toks[k - 1].text.clone());
                }
                _ => {}
            }
            k += 1;
        }
        out.push((name, line, fields));
        i = k + 1;
    }
    out
}

/// R8: decomposed connection state may only be mutated by its owning
/// component's methods. Two checks per [`ComponentGroup`] scoped to this
/// file:
///
/// 1. **Write-scope**: an assignment or `&mut` borrow that reaches a
///    component's state — through its aggregate accessor from any impl
///    but the owner's, or through `self.<owned field>` in a foreign
///    impl — is a finding. Reads, method calls (`flow.snd.note_sent(n)`
///    dispatches to the owner), and struct-literal construction stay
///    legal.
/// 2. **Ownership-map drift**: where the aggregate or a component struct
///    is declared, its field list must match the map — every aggregate
///    field an accessor or shared, every component field list exact —
///    so the map cannot silently rot as the structs evolve.
pub fn r8(
    lexed: &Lexed,
    flags: &[TokFlags],
    rc: &RuleConfig,
    rel: &str,
    cfg: &Config,
) -> Vec<RawFinding> {
    let groups: Vec<(&String, &ComponentGroup)> = cfg
        .components
        .iter()
        .filter(|(_, g)| g.in_scope(rel))
        .collect();
    if groups.is_empty() {
        return Vec::new();
    }
    let toks = &lexed.toks;
    let blocks = impl_blocks(toks, flags);
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if skip(&flags[i], rc) {
            continue;
        }
        // Assignment: `<place> <op> …`, place walked backwards.
        let chain = if t.kind == TokKind::Punct && R8_ASSIGN_OPS.contains(&t.text.as_str()) {
            if i == 0 {
                continue;
            }
            chain_back(toks, i - 1)
        // Exclusive borrow: `&mut <place>`, place walked forwards.
        } else if t.text == "&"
            && toks.get(i + 1).map(|n| n.text == "mut").unwrap_or(false)
        {
            chain_fwd(toks, i + 2)
        } else {
            None
        };
        let Some(chain) = chain else { continue };
        if chain.segs.len() < 2 && chain.segs[0] != "self" {
            continue;
        }
        let impl_name = enclosing_impl(&blocks, i).map(|b| b.name.as_str());
        for (gname, g) in &groups {
            if let Some((cname, strukt)) = r8_violation(&chain, g, impl_name) {
                let place = chain.segs.join(".");
                let kind = if t.text == "&" { "exclusive borrow of" } else { "write to" };
                out.push(finding(
                    t,
                    "R8",
                    format!(
                        "{kind} `{place}` crosses the `{gname}` write-scope boundary: \
                         component `{cname}` state is only mutated by `{strukt}` methods \
                         (DESIGN.md §16)"
                    ),
                ));
                break;
            }
        }
    }
    // Drift: struct declarations in this file vs the ownership map.
    for (name, line, fields) in struct_fields(toks, flags) {
        for (gname, g) in &groups {
            if name == g.strukt {
                for f in &fields {
                    if !g.shared.iter().any(|s| s == f) && g.by_accessor(f).is_none() {
                        out.push(RawFinding {
                            line,
                            col: 1,
                            rule: "R8",
                            message: format!(
                                "field `{f}` of `{name}` is neither a component accessor \
                                 nor shared in [components.{gname}]; assign it an owner"
                            ),
                        });
                    }
                }
                for (cname, c) in &g.components {
                    if !fields.contains(&c.accessor) {
                        out.push(RawFinding {
                            line,
                            col: 1,
                            rule: "R8",
                            message: format!(
                                "[components.{gname}.{cname}] claims accessor \
                                 `{}` but `{name}` has no such field",
                                c.accessor
                            ),
                        });
                    }
                }
                for s in &g.shared {
                    if !fields.contains(s) {
                        out.push(RawFinding {
                            line,
                            col: 1,
                            rule: "R8",
                            message: format!(
                                "[components.{gname}] lists shared field `{s}` but \
                                 `{name}` has no such field"
                            ),
                        });
                    }
                }
            } else if let Some((cname, c)) = g.by_struct(&name) {
                for f in &fields {
                    if !c.fields.iter().any(|cf| cf == f) {
                        out.push(RawFinding {
                            line,
                            col: 1,
                            rule: "R8",
                            message: format!(
                                "field `{f}` of `{name}` is missing from \
                                 [components.{gname}.{cname}].fields; the ownership map drifted"
                            ),
                        });
                    }
                }
                for f in &c.fields {
                    if !fields.contains(f) {
                        out.push(RawFinding {
                            line,
                            col: 1,
                            rule: "R8",
                            message: format!(
                                "[components.{gname}.{cname}] lists field `{f}` but \
                                 `{name}` has no such field; the ownership map drifted"
                            ),
                        });
                    }
                }
            }
        }
    }
    out
}

/// Runs one rule by id.
pub fn run_rule(
    id: &str,
    lexed: &Lexed,
    flags: &[TokFlags],
    rc: &RuleConfig,
    rel: &str,
    cfg: &Config,
) -> Vec<RawFinding> {
    match id {
        "R1" => r1(lexed, flags, rc),
        "R2" => r2(lexed, flags, rc),
        "R3" => r3(lexed, flags, rc),
        "R4" => r4(lexed, flags, rc),
        "R5" => r5(lexed, flags, rc),
        "R7" => r7(lexed, flags, rc),
        "R8" => r8(lexed, flags, rc, rel, cfg),
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
        run_rule(id, &lexed, &flags, &RuleConfig::default(), "x.rs", &Config::default())
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
    fn r5_requires_trace_gate() {
        let bad = "fn f() { tas_telemetry::emit(|| rec); }";
        assert_eq!(run("R5", bad).len(), 1);
        let good = "#[cfg(feature = \"trace\")]\nfn f() { tas_telemetry::emit(|| rec); }";
        assert!(run("R5", good).is_empty());
        let inner = "#![cfg(feature = \"trace\")]\nfn f() { tas_telemetry::emit(|| rec); }";
        assert!(run("R5", inner).is_empty());
        let stmt = "fn f() {\n#[cfg(feature = \"trace\")]\ntrace_sp(now, TraceEvent::State { f });\n}";
        assert!(run("R5", stmt).is_empty());
    }

    #[test]
    fn r7_requires_profile_gate() {
        let bad = "fn f() { let _g = tas_telemetry::profile::guard(\"rx\"); }";
        assert_eq!(run("R7", bad).len(), 1);
        let good = "fn f() {\n#[cfg(feature = \"profile\")]\nlet _g = tas_telemetry::profile::guard(\"rx\");\n}";
        assert!(run("R7", good).is_empty());
        let inner = "#![cfg(feature = \"profile\")]\nfn f() { tas_telemetry::profile::charge(12); }";
        assert!(run("R7", inner).is_empty());
        let any = "#[cfg(any(feature = \"trace\", feature = \"profile\"))]\nfn f() { tas_telemetry::profile::start(); }";
        assert!(run("R7", any).is_empty());
        let field = "fn f(inner: &Inner) { inner.profile.record(1); sc.profile = true; }";
        assert!(run("R7", field).is_empty(), "fields named `profile` are unrelated");
    }

    fn r8_cfg() -> Config {
        crate::config::parse(
            r#"
[components.g]
struct = "Agg"
paths = ["crates/x/src/"]
shared = ["stats"]

[components.g.alpha]
struct = "Alpha"
accessor = "al"
fields = ["count", "limit"]

[components.g.beta]
struct = "Beta"
accessor = "be"
fields = ["cursor"]
"#,
        )
        .unwrap()
    }

    fn run_r8(src: &str) -> Vec<RawFinding> {
        let lexed = lex(src);
        let flags = regions(&lexed);
        r8(
            &lexed,
            &flags,
            &RuleConfig::default(),
            "crates/x/src/a.rs",
            &r8_cfg(),
        )
    }

    #[test]
    fn r8_flags_cross_component_writes_only() {
        // Foreign impl writing through an accessor: violation.
        assert_eq!(run_r8("impl Agg { fn f(&mut self) { self.al.count = 0; } }").len(), 1);
        assert_eq!(run_r8("fn free(a: &mut Agg) { a.al.count += 1; }").len(), 1);
        // The owner's impl writing its own state: legal.
        assert!(run_r8("impl Alpha { fn f(&mut self) { self.count = 0; } }").is_empty());
        // Trait impls attribute to the implementing type.
        assert!(run_r8("impl Reset for Alpha { fn f(&mut self) { self.count = 0; } }").is_empty());
        assert_eq!(
            run_r8("impl Reset for Agg { fn f(&mut self) { self.be.cursor = 0; } }").len(),
            1
        );
    }

    #[test]
    fn r8_allows_shared_fields_reads_and_literals() {
        assert!(run_r8("fn f(a: &mut Agg) { a.stats.writes += 1; }").is_empty());
        assert!(run_r8("fn f(a: &Agg) { let n = a.al.count; let _ = n; }").is_empty());
        // Struct-literal construction is not a write.
        assert!(run_r8("fn f() -> Alpha { Alpha { count: 0, limit: 9 } }").is_empty());
        // Method calls dispatch to the owner.
        assert!(run_r8("fn f(a: &mut Agg) { a.al.bump(3); }").is_empty());
    }

    #[test]
    fn r8_flags_mut_borrows_and_nested_paths() {
        assert_eq!(run_r8("fn f(a: &mut Agg) { let c = &mut a.al.count; *c = 1; }").len(), 1);
        // A write through the accessor to a nested, unmapped leaf still
        // crosses the boundary.
        assert_eq!(run_r8("fn f(a: &mut Agg) { a.be.cursor.pos = 4; }").len(), 1);
        // Borrowing a whole local is not a field borrow.
        assert!(run_r8("fn f(mut a: Agg) { let r = &mut a; r.touch(); }").is_empty());
    }

    #[test]
    fn r8_drift_checks_both_directions() {
        // Aggregate field with no owner.
        let f = run_r8("pub struct Agg { al: Alpha, be: Beta, stats: S, rogue: u32 }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("rogue"));
        // Component struct out of sync with the map, both ways.
        let f2 = run_r8("pub struct Alpha { count: u64 }");
        assert_eq!(f2.len(), 1, "missing `limit`: {f2:?}");
        let f3 = run_r8("pub struct Alpha { count: u64, limit: u64, extra: u8 }");
        assert_eq!(f3.len(), 1, "unmapped `extra`: {f3:?}");
        // In-sync declarations are silent; cfg-attrs between fields are
        // tolerated.
        let ok = "pub struct Agg { al: Alpha, be: Beta,\n#[cfg(feature = \"trace\")]\nstats: S }";
        assert!(run_r8(ok).is_empty());
    }

    #[test]
    fn r8_out_of_scope_files_are_exempt() {
        let lexed = lex("fn f(a: &mut Agg) { a.al.count = 0; }");
        let flags = regions(&lexed);
        let f = r8(&lexed, &flags, &RuleConfig::default(), "crates/y/src/a.rs", &r8_cfg());
        assert!(f.is_empty(), "group paths bound enforcement: {f:?}");
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
