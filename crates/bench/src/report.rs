//! Machine-readable bench reports.
//!
//! The `bench-report` binary writes every catalogue entry — each cell
//! its figure or table measures — as `BENCH_<fig>.json` at the repo root
//! using the shared schema below, and prints the same report as Markdown
//! ([`Report::to_markdown`]), so what a human reads and what the gate
//! compares are the same numbers:
//!
//! ```json
//! {
//!   "schema": "tas-bench-report-v1",
//!   "fig": "fig9",
//!   "title": "...",
//!   "seed": 1,
//!   "scale": "quick",
//!   "params": {"conns": "64"},
//!   "metrics": [
//!     {"name": "latency_tas_tas", "unit": "ns",
//!      "p50": 17000, "p90": 20000, "p99": 30000, "max": 122000},
//!     {"name": "goodput_tas", "unit": "gbps", "value": 12.340000},
//!     {"name": "cycles_tas", "unit": "cycles", "value": 2570.000000,
//!      "breakdown": {"tcp": 810.000000, "api": 620.000000}}
//!   ]
//! }
//! ```
//!
//! A sweep cell is one metric; a sampled series (time series, CDF) is
//! one metric of unit `series_<unit>` whose value is the sample count
//! and whose `breakdown` holds the samples under zero-padded keys
//! ([`Metric::series`]).
//!
//! Rendering is deterministic: fixed key order, fixed float formatting
//! (`{:.6}`), no timestamps — two same-seed runs produce byte-identical
//! files, which `tests/determinism.rs` pins.
//!
//! Reports are gated byte-for-byte against their pin in
//! `crates/bench/baselines/` (see [`crate::gate`]); on a mismatch
//! [`explain`] lists what moved.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Schema identifier written into (and required from) every report.
pub const SCHEMA: &str = "tas-bench-report-v1";

/// Unit prefix of a [`Metric::series`].
const SERIES: &str = "series_";

/// Latency/throughput distribution digest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Quantiles {
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Largest observed sample.
    pub max: u64,
}

impl Quantiles {
    /// Digests a histogram (zeros when empty).
    pub fn of(h: &tas_sim::Histogram) -> Quantiles {
        Quantiles {
            p50: h.p50(),
            p90: h.p90(),
            p99: h.p99(),
            max: h.max(),
        }
    }
}

/// The value payload of one metric.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricData {
    /// A distribution (latency CDF digest).
    Quantiles(Quantiles),
    /// A scalar (throughput, cycle count, event count).
    Value(f64),
}

/// One named, unit-tagged measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Stable metric name (snake_case; part of the baseline contract).
    pub name: String,
    /// Unit tag.
    pub unit: String,
    /// The measurement.
    pub data: MetricData,
    /// Optional named components (per-module cycles, per-stage latency).
    pub breakdown: Vec<(String, f64)>,
}

impl Metric {
    /// A scalar metric.
    pub fn value(name: &str, unit: &str, v: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            data: MetricData::Value(v),
            breakdown: Vec::new(),
        }
    }

    /// A distribution metric from a histogram.
    pub fn quantiles(name: &str, unit: &str, h: &tas_sim::Histogram) -> Metric {
        Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            data: MetricData::Quantiles(Quantiles::of(h)),
            breakdown: Vec::new(),
        }
    }

    /// A sampled series (time series, CDF): one metric whose value is the
    /// sample count and whose breakdown is the `(key, value)` samples in
    /// `unit`. Keys must be zero-padded so they sort in sample order.
    pub fn series(name: &str, unit: &str, samples: Vec<(String, f64)>) -> Metric {
        Metric {
            data: MetricData::Value(samples.len() as f64),
            breakdown: samples,
            ..Metric::value(name, &format!("{SERIES}{unit}"), 0.0)
        }
    }

    /// The sample unit, if this is a [`Metric::series`].
    fn series_unit(&self) -> Option<&str> {
        self.unit.strip_prefix(SERIES)
    }

    /// The breakdown in the canonical (key) order of the written report,
    /// so a fresh report and its [`Report::from_json`] round trip (which
    /// parses objects into a `BTreeMap`) serialize and render alike.
    fn components(&self) -> Vec<&(String, f64)> {
        let mut parts: Vec<&(String, f64)> = self.breakdown.iter().collect();
        parts.sort_by(|a, b| a.0.cmp(&b.0));
        parts
    }

    /// Attaches a breakdown component (builder style).
    pub fn with_component(mut self, name: &str, v: f64) -> Metric {
        self.breakdown.push((name.to_string(), v));
        self
    }
}

/// A full per-figure report.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// Figure/table tag (`fig9`, `table1`); names the output file.
    pub fig: String,
    /// Human title.
    pub title: String,
    /// RNG seed the run used.
    pub seed: u64,
    /// `quick` or `full`; pins are `quick`, the scale CI regenerates.
    pub scale: String,
    /// Scenario parameters, for provenance.
    pub params: Vec<(String, String)>,
    /// The measurements.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Starts a report for `fig` under the current scale mode.
    pub fn new(fig: &str, title: &str, seed: u64) -> Report {
        Report {
            fig: fig.to_string(),
            title: title.to_string(),
            seed,
            scale: if crate::full_scale() { "full" } else { "quick" }.to_string(),
            params: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Records a scenario parameter.
    pub fn param(&mut self, k: &str, v: impl ToString) -> &mut Self {
        self.params.push((k.to_string(), v.to_string()));
        self
    }

    /// Adds a metric.
    pub fn push(&mut self, m: Metric) -> &mut Self {
        self.metrics.push(m);
        self
    }

    /// The metric called `name`.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The scalar value of the metric called `name`.
    pub fn value(&self, name: &str) -> Option<f64> {
        match self.metric(name)?.data {
            MetricData::Value(v) => Some(v),
            MetricData::Quantiles(_) => None,
        }
    }

    /// The params in canonical (key) order, like [`Metric::components`].
    fn sorted_params(&self) -> Vec<&(String, String)> {
        let mut params: Vec<&(String, String)> = self.params.iter().collect();
        params.sort_by(|a, b| a.0.cmp(&b.0));
        params
    }

    /// Renders the canonical JSON (fixed key order, `{:.6}` floats).
    pub fn to_json(&self) -> String {
        let mut o = String::with_capacity(1024);
        o.push_str("{\n");
        let _ = writeln!(o, "  \"schema\": {},", json_str(SCHEMA));
        let _ = writeln!(o, "  \"fig\": {},", json_str(&self.fig));
        let _ = writeln!(o, "  \"title\": {},", json_str(&self.title));
        let _ = writeln!(o, "  \"seed\": {},", self.seed);
        let _ = writeln!(o, "  \"scale\": {},", json_str(&self.scale));
        o.push_str("  \"params\": {");
        for (i, (k, v)) in self.sorted_params().into_iter().enumerate() {
            if i > 0 {
                o.push_str(", ");
            }
            let _ = write!(o, "{}: {}", json_str(k), json_str(v));
        }
        o.push_str("},\n");
        o.push_str("  \"metrics\": [\n");
        for (i, m) in self.metrics.iter().enumerate() {
            let _ = write!(
                o,
                "    {{\"name\": {}, \"unit\": {}",
                json_str(&m.name),
                json_str(&m.unit)
            );
            match &m.data {
                MetricData::Quantiles(q) => {
                    let _ = write!(
                        o,
                        ", \"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}",
                        q.p50, q.p90, q.p99, q.max
                    );
                }
                MetricData::Value(v) => {
                    let _ = write!(o, ", \"value\": {}", json_f64(*v));
                }
            }
            if !m.breakdown.is_empty() {
                o.push_str(", \"breakdown\": {");
                for (j, (k, v)) in m.components().into_iter().enumerate() {
                    if j > 0 {
                        o.push_str(", ");
                    }
                    let _ = write!(o, "{}: {}", json_str(k), json_f64(*v));
                }
                o.push('}');
            }
            o.push('}');
            if i + 1 < self.metrics.len() {
                o.push(',');
            }
            o.push('\n');
        }
        o.push_str("  ]\n}\n");
        o
    }

    /// Renders the report for a human, under the `paper` reference line
    /// it is read against: the one printer of every figure and table.
    /// Consecutive metrics of one shape share a table — a row per metric,
    /// a column per breakdown component — and consecutive series over
    /// the same sample keys share a table with a row per sample. Values
    /// print as the pin stores them (`{:.6}`, trailing zeros dropped).
    pub fn to_markdown(&self, paper: &str) -> String {
        let mut o = format!("## {} — {}\n\n", self.fig, self.title);
        if !paper.is_empty() {
            let _ = writeln!(o, "paper: {paper}");
        }
        let _ = write!(o, "seed {}, scale {}", self.seed, self.scale);
        for (k, v) in self.sorted_params() {
            let _ = write!(o, ", {k}={v}");
        }
        o.push('\n');
        let mut rest = &self.metrics[..];
        while let Some(first) = rest.first() {
            let same = shape(first);
            let n = rest.iter().take_while(|m| shape(m) == same).count();
            let (group, tail) = rest.split_at(n);
            rest = tail;
            let rows = if first.series_unit().is_some() {
                series_rows(group)
            } else {
                metric_rows(group)
            };
            o.push('\n');
            for (i, row) in rows.iter().enumerate() {
                let _ = writeln!(o, "| {} |", row.join(" | "));
                if i == 0 {
                    let _ = writeln!(o, "|---|{}", "---:|".repeat(row.len() - 1));
                }
            }
        }
        o
    }

    /// Parses a report back from its canonical (or any equivalent) JSON.
    pub fn from_json(s: &str) -> Result<Report, String> {
        let v = Json::parse(s)?;
        let obj = v.as_obj().ok_or("report: not an object")?;
        let schema = get_str(obj, "schema")?;
        if schema != SCHEMA {
            return Err(format!("unknown schema {schema:?} (want {SCHEMA:?})"));
        }
        let mut r = Report {
            fig: get_str(obj, "fig")?.to_string(),
            title: get_str(obj, "title")?.to_string(),
            seed: get_num(obj, "seed")? as u64,
            scale: get_str(obj, "scale")?.to_string(),
            params: Vec::new(),
            metrics: Vec::new(),
        };
        if let Some(Json::Obj(p)) = obj.get("params") {
            for (k, v) in p {
                r.params.push((
                    k.clone(),
                    v.as_str()
                        .ok_or("param value must be a string")?
                        .to_string(),
                ));
            }
        }
        let metrics = match obj.get("metrics") {
            Some(Json::Arr(a)) => a,
            _ => return Err("report: missing metrics array".into()),
        };
        for m in metrics {
            let mo = m.as_obj().ok_or("metric: not an object")?;
            let data = if mo.contains_key("value") {
                MetricData::Value(get_num(mo, "value")?)
            } else {
                MetricData::Quantiles(Quantiles {
                    p50: get_num(mo, "p50")? as u64,
                    p90: get_num(mo, "p90")? as u64,
                    p99: get_num(mo, "p99")? as u64,
                    max: get_num(mo, "max")? as u64,
                })
            };
            let mut breakdown = Vec::new();
            if let Some(Json::Obj(b)) = mo.get("breakdown") {
                for (k, v) in b {
                    breakdown.push((k.clone(), v.as_num().ok_or("breakdown value")?));
                }
            }
            r.metrics.push(Metric {
                name: get_str(mo, "name")?.to_string(),
                unit: get_str(mo, "unit")?.to_string(),
                data,
                breakdown,
            });
        }
        if r.metrics.is_empty() {
            return Err(format!("report {}: no metrics", r.fig));
        }
        Ok(r)
    }
}

/// Repo root (two levels above this crate's manifest).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."))
}

/// Directory of checked-in baseline reports.
pub fn baselines_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("baselines")
}

fn json_str(s: &str) -> String {
    let mut o = String::with_capacity(s.len() + 2);
    o.push('"');
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            '\n' => o.push_str("\\n"),
            '\t' => o.push_str("\\t"),
            '\r' => o.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(o, "\\u{:04x}", c as u32);
            }
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

fn json_f64(v: f64) -> String {
    if !v.is_finite() {
        return "0.000000".into();
    }
    format!("{v:.6}")
}

/// A value as a table cell: the pinned digits without trailing zeros.
fn num(v: f64) -> String {
    let s = json_f64(v);
    s.trim_end_matches('0').trim_end_matches('.').to_string()
}

/// What two metrics must share to share a table: series or not, scalar
/// or quantiles, and the breakdown keys.
fn shape(m: &Metric) -> (bool, bool, Vec<&str>) {
    let keys = m.components().iter().map(|c| c.0.as_str()).collect();
    let quantiles = matches!(m.data, MetricData::Quantiles(_));
    (m.series_unit().is_some(), quantiles, keys)
}

/// Table of same-keyed series: a row per sample, a column per series.
fn series_rows(group: &[Metric]) -> Vec<Vec<String>> {
    let cols: Vec<Vec<&(String, f64)>> = group.iter().map(Metric::components).collect();
    let mut head = vec!["sample".to_string()];
    let unit = |m: &Metric| m.series_unit().unwrap_or_default().to_string();
    head.extend(group.iter().map(|m| format!("{} [{}]", m.name, unit(m))));
    let mut rows = vec![head];
    for (i, (key, _)) in cols[0].iter().enumerate() {
        let mut row = vec![key.clone()];
        row.extend(cols.iter().map(|c| num(c[i].1)));
        rows.push(row);
    }
    rows
}

/// Table of same-shaped metrics: a row per metric, a column per datum
/// and per breakdown component.
fn metric_rows(group: &[Metric]) -> Vec<Vec<String>> {
    let mut head = vec!["metric".to_string(), "unit".to_string()];
    let data: &[&str] = match group[0].data {
        MetricData::Quantiles(_) => &["p50", "p90", "p99", "max"],
        MetricData::Value(_) => &["value"],
    };
    head.extend(data.iter().map(|s| s.to_string()));
    head.extend(group[0].components().iter().map(|c| c.0.clone()));
    let mut rows = vec![head];
    for m in group {
        let mut row = vec![m.name.clone(), m.unit.clone()];
        match &m.data {
            MetricData::Value(v) => row.push(num(*v)),
            MetricData::Quantiles(q) => {
                row.extend([q.p50, q.p90, q.p99, q.max].map(|v| v.to_string()));
            }
        }
        row.extend(m.components().iter().map(|c| num(c.1)));
        rows.push(row);
    }
    rows
}

// ----------------------------------------------------------------------
// Minimal JSON reader (only what the report schema needs; no external
// dependencies permitted in this tree).

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true`/`false`.
    Bool(bool),
    /// Any number (as f64 — report fields all fit exactly).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (sorted keys; duplicate keys keep the last value).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parses a complete JSON document.
    pub fn parse(s: &str) -> Result<Json, String> {
        let mut p = Parser {
            b: s.as_bytes(),
            i: 0,
        };
        p.ws();
        let v = p.value()?;
        p.ws();
        if p.i != p.b.len() {
            return Err(format!("trailing garbage at byte {}", p.i));
        }
        Ok(v)
    }

    /// The object map, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

fn get_str<'a>(o: &'a BTreeMap<String, Json>, k: &str) -> Result<&'a str, String> {
    o.get(k)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing string field {k:?}"))
}

fn get_num(o: &BTreeMap<String, Json>, k: &str) -> Result<f64, String> {
    o.get(k)
        .and_then(Json::as_num)
        .ok_or_else(|| format!("missing numeric field {k:?}"))
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.b.get(self.i) {
            Some(b'{') => self.obj(),
            Some(b'[') => self.arr(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(_) => self.num(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn num(&mut self) -> Result<Json, String> {
        let start = self.i;
        while self
            .b
            .get(self.i)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        debug_assert_eq!(self.b[self.i], b'"');
        self.i += 1;
        let mut out = String::new();
        loop {
            match self.b.get(self.i) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    let c = *self.b.get(self.i).ok_or("bad escape")?;
                    self.i += 1;
                    match c {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .b
                                .get(self.i..self.i + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            self.i += 4;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape \\{}", c as char)),
                    }
                }
                Some(&c) => {
                    // Multi-byte UTF-8: copy the whole scalar.
                    let s = std::str::from_utf8(&self.b[self.i..]).map_err(|_| "invalid utf-8")?;
                    let ch = s.chars().next().ok_or("unterminated string")?;
                    let _ = c;
                    out.push(ch);
                    self.i += ch.len_utf8();
                }
            }
        }
    }

    fn obj(&mut self) -> Result<Json, String> {
        self.i += 1; // '{'
        let mut m = BTreeMap::new();
        self.ws();
        if self.b.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(Json::Obj(m));
        }
        loop {
            self.ws();
            let k = self.string()?;
            self.ws();
            if self.b.get(self.i) != Some(&b':') {
                return Err(format!("expected ':' at byte {}", self.i));
            }
            self.i += 1;
            self.ws();
            let v = self.value()?;
            m.insert(k, v);
            self.ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(m));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
            }
        }
    }

    fn arr(&mut self) -> Result<Json, String> {
        self.i += 1; // '['
        let mut a = Vec::new();
        self.ws();
        if self.b.get(self.i) == Some(&b']') {
            self.i += 1;
            return Ok(Json::Arr(a));
        }
        loop {
            self.ws();
            a.push(self.value()?);
            self.ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(a));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
            }
        }
    }
}

/// Explains a byte mismatch between `current` and `baseline`: one line
/// per header field or metric that differs.
pub fn explain(current: &Report, baseline: &Report) -> Vec<String> {
    let mut out = Vec::new();
    let header = |r: &Report| (r.fig.clone(), r.title.clone(), r.seed, r.params.clone());
    if header(current) != header(baseline) {
        out.push("header (fig/title/seed/params) differs".to_string());
    }
    let show = |m: &Metric| match &m.data {
        MetricData::Value(v) => format!("{v:.6}"),
        MetricData::Quantiles(q) => {
            format!("p50 {} p90 {} p99 {} max {}", q.p50, q.p90, q.p99, q.max)
        }
    };
    for bm in &baseline.metrics {
        let Some(cm) = current.metric(&bm.name) else {
            out.push(format!("{}: missing from the current report", bm.name));
            continue;
        };
        if cm.data != bm.data {
            out.push(format!(
                "{}: pinned {} -> current {}",
                bm.name,
                show(bm),
                show(cm)
            ));
        } else if cm != bm {
            out.push(format!("{}: unit or breakdown differs", bm.name));
        }
    }
    for cm in &current.metrics {
        if baseline.metric(&cm.name).is_none() {
            out.push(format!("{}: not in the pin", cm.name));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report::new("figx", "sample \"quoted\" title", 42);
        r.param("conns", 64).param("window_ms", 20);
        r.push(Metric {
            name: "latency".into(),
            unit: "ns".into(),
            data: MetricData::Quantiles(Quantiles {
                p50: 17_000,
                p90: 20_000,
                p99: 30_000,
                max: 122_000,
            }),
            breakdown: vec![("fp_rx".into(), 1200.0)],
        });
        r.push(Metric::value("mops", "mops", 1.234567));
        r
    }

    #[test]
    fn json_round_trips() {
        let r = sample();
        let j = r.to_json();
        let back = Report::from_json(&j).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn rendering_is_deterministic() {
        assert_eq!(sample().to_json(), sample().to_json());
    }

    #[test]
    fn explain_lists_one_line_per_difference() {
        let pin = sample();
        assert!(explain(&pin, &pin).is_empty());
        let mut cur = sample();
        cur.seed += 1;
        cur.metrics[0].breakdown[0].1 += 1.0;
        cur.metrics[1] = Metric::value("kops", "kops", 1.0);
        assert_eq!(
            explain(&cur, &pin),
            [
                "header (fig/title/seed/params) differs",
                "latency: unit or breakdown differs",
                "mops: missing from the current report",
                "kops: not in the pin",
            ]
        );
        cur = sample();
        cur.metrics[1].data = MetricData::Value(2.0);
        assert_eq!(
            explain(&cur, &pin),
            ["mops: pinned 1.234567 -> current 2.000000"]
        );
    }
}
