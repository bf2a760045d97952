//! Metric recorders used by the experiment harnesses.
//!
//! The paper reports medians, high percentiles (90th/99th/max), means, and
//! time series (e.g. cores and throughput over time in Fig. 14). This module
//! provides an HDR-style log-linear histogram with bounded relative error,
//! a Welford running-mean accumulator, a sampled time series, and a
//! registry of scoped counters with a deterministic snapshot that is also
//! each host's fixed-cadence series sampler.

use crate::time::SimTime;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Log-linear histogram over `u64` values with ~1.5% relative error.
///
/// Values are bucketed by (exponent, 64 linear sub-buckets), like
/// HdrHistogram with 6 significant bits. Memory is a flat `Vec<u64>`.
///
/// # Examples
///
/// ```
/// use tas_sim::Histogram;
/// let mut h = Histogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// let p50 = h.quantile(0.5);
/// assert!((490..=510).contains(&p50));
/// ```
#[derive(Clone, Debug)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    min: u64,
    max: u64,
    sum: u128,
}

const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;

fn bucket_of(v: u64) -> usize {
    // Values below SUB map to their own buckets; above, log-linear.
    if v < SUB {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros(); // >= SUB_BITS
    let sub = (v >> (exp - SUB_BITS)) - SUB; // in [0, SUB)
    ((exp - SUB_BITS + 1) as u64 * SUB + sub) as usize
}

fn bucket_high(i: usize) -> u64 {
    // Upper bound (inclusive) of bucket i; inverse of bucket_of.
    let i = i as u64;
    if i < SUB {
        return i;
    }
    let exp = (i / SUB - 1) + SUB_BITS as u64;
    let sub = i % SUB;
    ((SUB + sub + 1) << (exp - SUB_BITS as u64)) - 1
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: Vec::new(),
            total: 0,
            min: u64::MAX,
            max: 0,
            sum: 0,
        }
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        let b = bucket_of(v);
        if b >= self.counts.len() {
            self.counts.resize(b + 1, 0);
        }
        self.counts[b] += 1;
        self.total += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Records a [`SimTime`] in nanoseconds (the latency unit the paper
    /// tables use is microseconds; harnesses convert on output).
    pub fn record_time(&mut self, t: SimTime) {
        self.record(t.as_nanos());
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Smallest recorded value, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Value at quantile `q` in `[0, 1]` (bucket upper bound, so error is
    /// bounded by the bucket width). Returns 0 when empty; with a single
    /// sample every quantile is that sample exactly (the bucket bound is
    /// clamped to the observed `[min, max]`).
    pub fn quantile(&self, q: f64) -> u64 {
        self.try_quantile(q).unwrap_or(0)
    }

    /// Like [`Histogram::quantile`] but distinguishes "no samples" from a
    /// recorded zero — report writers must not print a latency of 0 for a
    /// distribution that never saw a sample.
    pub fn try_quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_high(i).min(self.max).max(self.min));
            }
        }
        Some(self.max)
    }

    /// Median (0 when empty).
    pub fn p50(&self) -> u64 {
        self.quantile(0.5)
    }

    /// 90th percentile (0 when empty).
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile (0 when empty).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        if other.total > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Evaluates the CDF at a list of points, returning `(point, fraction)`
    /// pairs — convenient for printing figure series.
    pub fn cdf_points(&self, points: &[u64]) -> Vec<(u64, f64)> {
        points
            .iter()
            .map(|&p| {
                let mut below = 0u64;
                for (i, &c) in self.counts.iter().enumerate() {
                    if bucket_high(i) <= p {
                        below += c;
                    } else {
                        break;
                    }
                }
                (p, below as f64 / self.total.max(1) as f64)
            })
            .collect()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Welford online mean accumulator.
#[derive(Clone, Copy, Debug, Default)]
pub struct MeanVar {
    n: u64,
    mean: f64,
}

impl MeanVar {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a sample.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }
}

/// A time series of `(time, value)` samples.
#[derive(Clone, Debug, Default)]
pub struct TimeSeries {
    samples: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a sample.
    pub fn push(&mut self, t: SimTime, v: f64) {
        self.samples.push((t, v));
    }

    /// All samples in insertion order.
    pub fn samples(&self) -> &[(SimTime, f64)] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mean value over samples in `[from, to)`.
    pub fn mean_between(&self, from: SimTime, to: SimTime) -> f64 {
        let mut mv = MeanVar::new();
        for &(t, v) in &self.samples {
            if t >= from && t < to {
                mv.add(v);
            }
        }
        mv.mean()
    }
}

// ----------------------------------------------------------------------
// Metric registry.

/// Scope of a registered metric: machine-wide, per-core, or per-tenant.
///
/// Scopes order after their name in the registry's deterministic dump, so
/// `fp.pkts_rx`, `fp.pkts_rx{core=0}`, `fp.pkts_rx{core=1}` always render
/// adjacent and in the same order regardless of registration order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Scope {
    /// One value for the whole host/device.
    Global,
    /// One value per core index.
    Core(u32),
    /// One value per tenant: a harness-assigned application/workload
    /// identity sharing the host's stack (the multi-tenant scenario
    /// suite's isolation accounting).
    Tenant(u32),
}

impl std::fmt::Display for Scope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Scope::Global => Ok(()),
            Scope::Core(c) => write!(f, "{{core={c}}}"),
            Scope::Tenant(t) => write!(f, "{{tenant={t}}}"),
        }
    }
}

/// Identity of a registered metric: static name plus scope.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Static metric name, dotted by convention (`fp.pkts_rx`).
    pub name: &'static str,
    /// Metric scope.
    pub scope: Scope,
}

impl std::fmt::Display for MetricKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}{}", self.name, self.scope)
    }
}

/// A metric value as captured by [`Registry::snapshot`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricValue {
    /// Monotone counter.
    Counter(u64),
    /// Current level (may go down).
    Gauge(i64),
}

/// Handle to a registered counter (O(1) increments after registration).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterId(usize);

/// Simulated time between two ticks of the [`Registry`] sampling grid.
pub const SAMPLE_INTERVAL: SimTime = SimTime::from_ms(1);

/// A registry of named counters with per-core and per-tenant scoping and a
/// deterministic, ordered [`Registry::snapshot`]. (Current levels
/// are not registered: a host inserts them into the [`Snapshot`] from
/// live state with [`Snapshot::insert_gauge`].)
///
/// Registration is get-or-create and returns a stable handle; updates
/// through a handle are an array index, so hot paths pay no map lookup.
/// The snapshot iterates a `BTreeMap`, never a hash map, so two same-seed
/// runs render byte-identical dumps (the determinism the flight-recorder
/// tests pin).
///
/// The registry is also the host's fixed-cadence sampler: time series
/// keyed by the same `(name, scope)` identity, stamped on a grid of
/// [`SAMPLE_INTERVAL`] multiples of simulated time (see
/// [`Registry::begin_sample`]). Series never enter the snapshot.
///
/// # Examples
///
/// ```
/// use tas_sim::metrics::{Registry, Scope};
/// let mut r = Registry::new();
/// let c = r.counter("fp.pkts_rx", Scope::Core(0));
/// r.inc(c);
/// r.add(c, 2);
/// assert_eq!(r.counter_value("fp.pkts_rx", Scope::Core(0)), 3);
/// let dump = r.snapshot().render_text();
/// assert_eq!(dump, "fp.pkts_rx{core=0} 3\n");
/// ```
#[derive(Clone, Debug, Default)]
pub struct Registry {
    index: BTreeMap<MetricKey, usize>,
    counters: Vec<u64>,
    /// Sampled series, in deterministic key order.
    series: BTreeMap<MetricKey, TimeSeries>,
    /// Grid stamp of the current sample tick (zero before the first).
    tick: SimTime,
    /// Per utilisation series name: the tick of its last sample and each
    /// core's cumulative busy time then.
    util_last: BTreeMap<&'static str, (SimTime, Vec<SimTime>)>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Registers (or finds) a counter, returning its handle.
    pub fn counter(&mut self, name: &'static str, scope: Scope) -> CounterId {
        let counters = &mut self.counters;
        let slot = self
            .index
            .entry(MetricKey { name, scope })
            .or_insert_with(|| {
                counters.push(0);
                counters.len() - 1
            });
        CounterId(*slot)
    }

    /// Increments a counter by one.
    pub fn inc(&mut self, id: CounterId) {
        self.counters[id.0] += 1;
    }

    /// Increments a counter by `n`.
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.counters[id.0] += n;
    }

    /// Current value of a counter handle.
    pub fn get(&self, id: CounterId) -> u64 {
        self.counters[id.0]
    }

    /// Value of a counter by key (0 when absent — asserts read naturally).
    pub fn counter_value(&self, name: &'static str, scope: Scope) -> u64 {
        match self.index.get(&MetricKey { name, scope }) {
            Some(i) => self.counters[*i],
            None => 0,
        }
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Captures a deterministic, ordered dump of every metric.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        for (key, i) in &self.index {
            let v = MetricValue::Counter(self.counters[*i]);
            snap.entries.insert(*key, v);
        }
        snap
    }

    /// True when the next grid tick has been reached.
    fn due(&self, now: SimTime) -> bool {
        now >= self.tick + SAMPLE_INTERVAL
    }

    /// Starts a sample tick if one is due: aligns the tick stamp to the
    /// largest grid point at or before `now` (ticks the driving event
    /// slept through are skipped, not back-filled) and returns true;
    /// otherwise returns false. The first tick is at [`SAMPLE_INTERVAL`],
    /// not time zero, where every gauge is trivially empty. Hosts call
    /// this from any frequent hook and, when it returns true,
    /// [`Registry::record`] each gauge, so two same-seed runs sample the
    /// same instants however jittered the hook is.
    ///
    /// # Examples
    ///
    /// ```
    /// use tas_sim::metrics::{Registry, Scope};
    /// use tas_sim::SimTime;
    /// let mut reg = Registry::new();
    /// // The driving timer fires late; the sample still lands on the grid.
    /// if reg.begin_sample(SimTime::from_us(1050)) {
    ///     reg.record("cores.active", Scope::Global, 2.0);
    /// }
    /// let ts = reg.series("cores.active", Scope::Global).unwrap();
    /// assert_eq!(ts.samples()[0].0, SimTime::from_ms(1));
    /// ```
    pub fn begin_sample(&mut self, now: SimTime) -> bool {
        if !self.due(now) {
            return false;
        }
        let n = now.as_ps() / SAMPLE_INTERVAL.as_ps();
        self.tick = SimTime::from_ps(n * SAMPLE_INTERVAL.as_ps());
        true
    }

    /// Records `v` for `(name, scope)` at the tick started by the last
    /// [`Registry::begin_sample`].
    pub fn record(&mut self, name: &'static str, scope: Scope, v: f64) {
        let t = self.tick;
        self.series
            .entry(MetricKey { name, scope })
            .or_default()
            .push(t, v);
    }

    /// Records one utilisation sample per core, as `name{core=i}`, at the
    /// current tick: the delta of core `i`'s cumulative busy time (`busy`
    /// yields `Core::busy_total` in core order) over the time since this
    /// name's last sample. A tick that is not after that sample is
    /// skipped. A sample can exceed 1.0: work is charged to a core's
    /// timeline when submitted, so a burst scheduled ahead of the
    /// sampling instant books its cycles into the interval that
    /// submitted it. The window is the registry's own, so sampling never
    /// perturbs `CorePool::sample_utilization`'s controller window.
    pub fn record_util<I>(&mut self, name: &'static str, busy: I)
    where
        I: IntoIterator<Item = SimTime>,
    {
        let now = self.tick;
        let (last_at, last_busy) = self.util_last.entry(name).or_default();
        if now <= *last_at {
            return;
        }
        let dt = now.saturating_sub(*last_at).as_nanos() as f64;
        for (i, b) in busy.into_iter().enumerate() {
            if i == last_busy.len() {
                last_busy.push(SimTime::ZERO);
            }
            let db = b.saturating_sub(last_busy[i]).as_nanos() as f64;
            let scope = Scope::Core(i as u32);
            self.series
                .entry(MetricKey { name, scope })
                .or_default()
                .push(now, db / dt);
            last_busy[i] = b;
        }
        *last_at = now;
    }

    /// The sampled series for `(name, scope)`, if any sample exists.
    pub fn series(&self, name: &'static str, scope: Scope) -> Option<&TimeSeries> {
        self.series.get(&MetricKey { name, scope })
    }

    /// Iterates every sampled series in deterministic key order.
    pub fn series_iter(&self) -> impl Iterator<Item = (&MetricKey, &TimeSeries)> {
        self.series.iter()
    }

    /// Renders every sampled series as text — `key t_ns value` lines,
    /// series in key order, samples in time order — byte-identical
    /// across same-seed runs.
    pub fn render_series(&self) -> String {
        let mut out = String::new();
        for (key, ts) in &self.series {
            for &(t, v) in ts.samples() {
                writeln!(out, "{key} {} {}", t.as_nanos(), v).expect("string write");
            }
        }
        out
    }
}

/// An ordered, immutable dump of a [`Registry`] (plus any derived entries
/// the owner inserts), comparable across runs byte-for-byte.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    entries: BTreeMap<MetricKey, MetricValue>,
}

impl Snapshot {
    /// Inserts (or overwrites) an entry — used by hosts to fold legacy
    /// stats structs and derived values into one ordered dump.
    pub fn insert(&mut self, name: &'static str, scope: Scope, v: MetricValue) {
        self.entries.insert(MetricKey { name, scope }, v);
    }

    /// Shorthand for inserting a counter entry.
    pub fn insert_counter(&mut self, name: &'static str, scope: Scope, v: u64) {
        self.insert(name, scope, MetricValue::Counter(v));
    }

    /// Shorthand for inserting a gauge entry.
    pub fn insert_gauge(&mut self, name: &'static str, scope: Scope, v: i64) {
        self.insert(name, scope, MetricValue::Gauge(v));
    }

    /// Looks up an entry.
    pub fn get(&self, name: &'static str, scope: Scope) -> Option<MetricValue> {
        self.entries.get(&MetricKey { name, scope }).copied()
    }

    /// Counter value by key (0 when absent).
    pub fn counter(&self, name: &'static str, scope: Scope) -> u64 {
        match self.get(name, scope) {
            Some(MetricValue::Counter(v)) => v,
            _ => 0,
        }
    }

    /// Gauge value by key (0 when absent).
    pub fn gauge(&self, name: &'static str, scope: Scope) -> i64 {
        match self.get(name, scope) {
            Some(MetricValue::Gauge(v)) => v,
            _ => 0,
        }
    }

    /// Iterates entries in deterministic (name, scope) order.
    pub fn iter(&self) -> impl Iterator<Item = (&MetricKey, &MetricValue)> {
        self.entries.iter()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when every counter in `earlier` exists here with a value that
    /// has not decreased — the monotonicity the property tests pin.
    pub fn counters_monotone_since(&self, earlier: &Snapshot) -> bool {
        earlier.iter().all(|(k, v)| match v {
            MetricValue::Counter(old) => {
                matches!(self.entries.get(k), Some(MetricValue::Counter(new)) if new >= old)
            }
            _ => true,
        })
    }

    /// Renders the dump as text, one `key value` line per metric, in
    /// deterministic order.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (key, v) in &self.entries {
            match v {
                MetricValue::Counter(c) => writeln!(out, "{key} {c}").expect("string write"),
                MetricValue::Gauge(g) => writeln!(out, "{key} {g}").expect("string write"),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucketing_is_monotone_and_bounded() {
        let mut prev = 0;
        for v in [0u64, 1, 63, 64, 65, 127, 128, 1000, 65_536, u64::MAX / 2] {
            let b = bucket_of(v);
            assert!(b >= prev || v < 64, "buckets must not decrease");
            prev = b;
            assert!(bucket_high(b) >= v, "bucket_high({b}) must cover {v}");
            // Relative error of the bucket bound is < 1/32.
            if v >= 64 {
                let err = (bucket_high(b) - v) as f64 / v as f64;
                assert!(err < 0.04, "err {err} for v {v}");
            }
        }
    }

    #[test]
    fn histogram_quantiles_accurate() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 10_000);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 10_000);
        for (q, want) in [(0.5, 5_000.0), (0.9, 9_000.0), (0.99, 9_900.0)] {
            let got = h.quantile(q) as f64;
            assert!(
                (got - want).abs() / want < 0.04,
                "q{q}: got {got}, want {want}"
            );
        }
        assert!((h.mean() - 5000.5).abs() < 1.0);
    }

    #[test]
    fn histogram_empty() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert!(h.is_empty());
        // An empty distribution has no quantiles, and the named accessors
        // all agree on the 0 fallback.
        assert_eq!(h.try_quantile(0.5), None);
        assert_eq!((h.p50(), h.p90(), h.p99(), h.quantile(0.999)), (0, 0, 0, 0));
    }

    #[test]
    fn histogram_single_sample_is_exact_at_every_quantile() {
        for v in [0u64, 1, 63, 64, 1000, 123_456_789] {
            let mut h = Histogram::new();
            h.record(v);
            for q in [0.0, 0.001, 0.5, 0.9, 0.99, 0.999, 1.0] {
                assert_eq!(h.quantile(q), v, "q={q} v={v}");
            }
            assert_eq!(h.try_quantile(0.5), Some(v));
            assert_eq!((h.p50(), h.p90(), h.p99(), h.quantile(0.999)), (v, v, v, v));
        }
    }

    #[test]
    fn histogram_p90_p999_accurate() {
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for (got, want) in [
            (h.p90() as f64, 90_000.0),
            (h.quantile(0.999) as f64, 99_900.0),
        ] {
            assert!((got - want).abs() / want < 0.04, "got {got}, want {want}");
        }
        // Two samples: p50 hits the first, high quantiles the second.
        let mut h2 = Histogram::new();
        h2.record(10);
        h2.record(1_000_000);
        assert_eq!(h2.p50(), 10);
        assert_eq!(h2.quantile(0.999), 1_000_000);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in 1..=500 {
            a.record(v);
        }
        for v in 501..=1000 {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 1000);
        let p50 = a.quantile(0.5) as f64;
        assert!((p50 - 500.0).abs() / 500.0 < 0.05);
    }

    #[test]
    fn histogram_cdf_points() {
        let mut h = Histogram::new();
        for v in 1..=100 {
            h.record(v);
        }
        let pts = h.cdf_points(&[50, 200]);
        assert!((pts[0].1 - 0.5).abs() < 0.05);
        assert!((pts[1].1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn meanvar_matches_closed_form() {
        let mut mv = MeanVar::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            mv.add(x);
        }
        assert!((mv.mean() - 5.0).abs() < 1e-12);
        assert_eq!(mv.count(), 8);
    }

    #[test]
    fn timeseries_window_mean() {
        let mut ts = TimeSeries::new();
        for i in 0..10 {
            ts.push(SimTime::from_us(i), i as f64);
        }
        let m = ts.mean_between(SimTime::from_us(2), SimTime::from_us(5));
        assert!((m - 3.0).abs() < 1e-12);
    }

    #[test]
    fn series_recorder_samples_on_the_fixed_grid() {
        let mut rec = Registry::new();
        // Jittered driving timer: fires late, sometimes skipping ticks.
        for (fire_us, v) in [(1_100u64, 1.0), (2_050, 2.0), (5_500, 3.0)] {
            let now = SimTime::from_us(fire_us);
            assert!(rec.begin_sample(now));
            rec.record("q.depth", Scope::Global, v);
        }
        let ts = rec.series("q.depth", Scope::Global).unwrap();
        let stamps: Vec<u64> = ts.samples().iter().map(|&(t, _)| t.as_nanos()).collect();
        // Stamps land on cadence ticks: 1ms, 2ms, then (after skipping
        // 3–4ms, which the driver slept through) 5ms.
        assert_eq!(stamps, vec![1_000_000, 2_000_000, 5_000_000]);
        assert!(!rec.begin_sample(SimTime::from_us(5_900)));
        assert!(rec.due(SimTime::from_ms(6)));
        // Deterministic render.
        assert_eq!(rec.render_series(), rec.render_series());
        assert!(rec.render_series().starts_with("q.depth 1000000 1\n"));
    }

    #[test]
    fn core_util_series_tracks_busy_deltas() {
        let mut u = Registry::new();
        // Interval 1: core 0 busy 50% of 1 ms, core 1 idle.
        assert!(u.begin_sample(SimTime::from_ms(1)));
        u.record_util("fp.util", [SimTime::from_us(500), SimTime::ZERO]);
        // Interval 2: core 0 fully busy, core 1 over-committed (work
        // scheduled ahead books > 1.0).
        assert!(u.begin_sample(SimTime::from_ms(2)));
        u.record_util("fp.util", [SimTime::from_us(1500), SimTime::from_us(1500)]);
        // Stale re-sample at the same instant is skipped.
        assert!(!u.begin_sample(SimTime::from_ms(2)));
        u.record_util("fp.util", [SimTime::from_us(9999), SimTime::from_us(9999)]);
        let vals = |c: u32| -> Vec<f64> {
            let ts = u.series("fp.util", Scope::Core(c)).unwrap();
            ts.samples().iter().map(|&(_, v)| v).collect()
        };
        assert_eq!(vals(0), vec![0.5, 1.0]);
        assert_eq!(vals(1), vec![0.0, 1.5]);
        assert_eq!(u.series_iter().count(), 2);
    }

    #[test]
    fn sampled_series_stay_out_of_the_snapshot() {
        let mut r = Registry::new();
        let c = r.counter("fp.pkts_rx", Scope::Global);
        r.inc(c);
        let before = r.snapshot().render_text();
        assert!(r.begin_sample(SimTime::from_ms(3)));
        r.record("fp.util_mean", Scope::Global, 0.25);
        r.record_util("fp.util", [SimTime::from_us(100)]);
        assert_eq!(r.series_iter().count(), 2);
        assert_eq!(r.snapshot().render_text(), before);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn tenant_scope_renders_and_orders_deterministically() {
        assert_eq!(format!("{}", Scope::Tenant(3)), "{tenant=3}");
        let mut r = Registry::new();
        let t1 = r.counter("tenant.ops", Scope::Tenant(1));
        r.counter("tenant.ops", Scope::Tenant(0));
        r.inc(t1);
        // Distinct tenants are distinct metrics; dump order is by key.
        assert_eq!(r.counter_value("tenant.ops", Scope::Tenant(0)), 0);
        assert_eq!(r.counter_value("tenant.ops", Scope::Tenant(1)), 1);
        let snap = r.snapshot();
        let names: Vec<String> = snap.iter().map(|(k, _)| k.to_string()).collect();
        assert_eq!(names, vec!["tenant.ops{tenant=0}", "tenant.ops{tenant=1}"]);
    }

    #[test]
    fn registry_get_or_create_returns_same_handle() {
        let mut r = Registry::new();
        let a = r.counter("x", Scope::Global);
        let b = r.counter("x", Scope::Global);
        assert_eq!(a, b);
        r.inc(a);
        r.inc(b);
        assert_eq!(r.get(a), 2);
        // Distinct scopes are distinct metrics.
        let c = r.counter("x", Scope::Core(1));
        assert_ne!(a, c);
        assert_eq!(r.counter_value("x", Scope::Core(1)), 0);
    }

    #[test]
    fn registry_snapshot_order_is_registration_independent() {
        let mut a = Registry::new();
        a.counter("b.second", Scope::Global);
        let ca = a.counter("a.first", Scope::Core(1));
        a.counter("a.first", Scope::Core(0));
        a.inc(ca);
        let mut b = Registry::new();
        let cb = b.counter("a.first", Scope::Core(1));
        b.counter("a.first", Scope::Core(0));
        b.counter("b.second", Scope::Global);
        b.inc(cb);
        assert_eq!(a.snapshot(), b.snapshot());
        assert_eq!(
            a.snapshot().render_text(),
            "a.first{core=0} 0\na.first{core=1} 1\nb.second 0\n"
        );
    }

    #[test]
    fn snapshot_monotonicity_check() {
        let mut r = Registry::new();
        let c = r.counter("n", Scope::Global);
        r.inc(c);
        let early = r.snapshot();
        r.inc(c);
        let late = r.snapshot();
        assert!(late.counters_monotone_since(&early));
        assert!(!early.counters_monotone_since(&late));
        // Gauges may move either way without violating monotonicity.
        let (mut e2, mut l2) = (Snapshot::default(), Snapshot::default());
        e2.insert_gauge("lvl", Scope::Global, 5);
        l2.insert_gauge("lvl", Scope::Global, 1);
        assert!(l2.counters_monotone_since(&e2));
    }

    #[test]
    fn snapshot_insert_and_render() {
        let mut s = Snapshot::default();
        s.insert_counter("z", Scope::Global, 9);
        s.insert_gauge("a", Scope::Core(2), -3);
        assert_eq!(s.render_text(), "a{core=2} -3\nz 9\n");
        assert_eq!(s.counter("z", Scope::Global), 9);
        assert_eq!(s.len(), 2);
    }
}
