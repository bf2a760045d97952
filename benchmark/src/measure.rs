//! Host-side measurement primitives: the slice clock, order statistics,
//! process counters read from `/proc`, and the counting allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use tas_sim::Histogram;

/// The timed part of every workload is cut into this many equal slices
/// (equal simulated time for `*_sim`, equal packet count for `fp_*`).
pub const SLICES: usize = 200;

/// `host_*` values are taken over the quietest `1 / QUIET_DIV` of the
/// slices: interference on a shared box only ever adds time, in bursts
/// of seconds, so the quiet slices are the ones that timed this code
/// alone. `baseline/raw_vs_scaled.txt` has the study: in a disturbed
/// period the median slice, even at reference speed, moved 25 % between
/// two sets of ten runs on `bulk_loss_tas_sim`; the quietest quarter
/// moved 10 %.
const QUIET_DIV: usize = 4;

/// Counts heap traffic while armed. Installed as the global allocator of
/// the benchmark binary; `Relaxed` is enough because the counters publish
/// no other data and the load generator is single-threaded.
pub struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    if ARMED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr`/`layout` describe a live `System` block.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation calls and bytes requested over one armed window.
#[derive(Clone, Copy, Debug, Default)]
pub struct AllocCount {
    pub allocs: u64,
    pub bytes: u64,
}

/// Arms the allocation counter from zero.
pub fn alloc_arm() {
    ALLOCS.store(0, Ordering::Relaxed);
    BYTES.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
}

/// Disarms the counter and returns what the armed window saw.
pub fn alloc_disarm() -> AllocCount {
    ARMED.store(false, Ordering::Relaxed);
    AllocCount {
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    }
}

/// Wall time and segment count of one slice, and the time the
/// reference kernel took right after it.
#[derive(Clone, Copy, Debug, Default)]
pub struct Slice {
    pub wall_ns: u64,
    pub pkts: u64,
    pub ref_ns: u64,
}

impl Slice {
    pub fn ns_per_pkt(&self) -> f64 {
        self.wall_ns as f64 / self.pkts.max(1) as f64
    }
}

/// What the timed part of one run measured on the host clock.
#[derive(Clone, Debug, Default)]
pub struct Clocked {
    pub slices: Vec<Slice>,
    /// First slice start to last slice end, bookkeeping between slices
    /// included, reference kernel excluded.
    pub wall_ns: u64,
    /// On-CPU time of the process over that interval as a share of it.
    pub cpu_share: f64,
    pub alloc: AllocCount,
}

/// Wall time and segments summed over the quietest slices of a run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Quiet {
    pub wall_ns: u64,
    pub pkts: u64,
    /// Slices summed.
    pub slices: usize,
}

/// How many of `n` samples count as its quietest share.
fn quiet_len(n: usize) -> usize {
    (n / QUIET_DIV).max(1).min(n)
}

impl Quiet {
    pub fn ns_per_pkt(&self) -> f64 {
        self.wall_ns as f64 / self.pkts.max(1) as f64
    }
}

impl Clocked {
    pub fn pkts(&self) -> u64 {
        self.slices.iter().map(|s| s.pkts).sum()
    }

    /// The quietest quarter of all slices.
    pub fn quiet(&self) -> Quiet {
        let mut v: Vec<&Slice> = self.slices.iter().collect();
        v.sort_by(|a, b| a.ns_per_pkt().total_cmp(&b.ns_per_pkt()));
        v[..quiet_len(v.len())]
            .iter()
            .fold(Quiet::default(), |q, s| Quiet {
                wall_ns: q.wall_ns + s.wall_ns,
                pkts: q.pkts + s.pkts,
                slices: q.slices + 1,
            })
    }

    pub fn ns_per_pkt(&self) -> Vec<f64> {
        self.slices.iter().map(Slice::ns_per_pkt).collect()
    }

    /// The run's [`speed_factor`], from the samples taken after each
    /// slice.
    pub fn speed_factor(&self) -> f64 {
        speed_factor(quiet_mean(self.slices.iter().map(|s| s.ref_ns).collect()))
    }

    /// `host_ns_per_pkt`: quietest-quarter wall ns per segment at
    /// reference speed.
    pub fn host_ns_per_pkt(&self) -> f64 {
        self.quiet().ns_per_pkt() * self.speed_factor()
    }
}

/// Host times are reported at the speed at which [`reference_kernel`]
/// takes exactly this long. It is a unit, not a claim about any box:
/// while the baseline was recorded the kernel took 0.78-1.00 ms
/// (`host.speed_factor` 1.00-1.27), so reported times are that much
/// above raw ones there.
pub const REF_NOMINAL_NS: f64 = 1_000_000.0;

/// Reference-kernel calls timed after each set-up.
const SETUP_REF_CALLS: usize = 8;

/// Mean of the quietest quarter of `samples`; 0 if empty.
fn quiet_mean(mut samples: Vec<u64>) -> f64 {
    samples.sort_unstable();
    let keep = quiet_len(samples.len());
    samples[..keep].iter().sum::<u64>() as f64 / keep.max(1) as f64
}

/// What a host time is multiplied by to express it at reference speed,
/// given how long the reference kernel took beside it. This shared VM's
/// speed drifts with its neighbours (frequency, a busy sibling thread)
/// and the cache-resident kernel drifts with it. In
/// `baseline/raw_vs_scaled.txt` the raw quietest quarter spreads 2-17 %
/// across ten runs and moves up to 14 % between two sets; divided by the
/// kernel's time it spreads 1-12 % and moves up to 10 %. The kernel does
/// not see a neighbour that loads only the memory system. Memory-bound
/// reference loops (a 64 MiB pointer chase, a 4 MiB copy) were tried
/// beside it and only added noise.
fn speed_factor(ref_kernel_ns: f64) -> f64 {
    if ref_kernel_ns > 0.0 {
        REF_NOMINAL_NS / ref_kernel_ns
    } else {
        1.0
    }
}

/// Times the reference kernel a few times right now and returns the
/// [`speed_factor`]; for work measured outside [`time_slices`].
pub fn speed_factor_now() -> f64 {
    let samples = (0..SETUP_REF_CALLS)
        .map(|_| {
            let t0 = Instant::now();
            black_box(reference_kernel());
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    speed_factor(quiet_mean(samples))
}

/// A fixed, cache-resident, serially dependent loop (a 64 KiB pointer
/// chase feeding a multiply-add chain) that does the same work on every
/// call. It is timed after every slice: how fast it runs tells how fast
/// the machine was going while the slices ran.
fn reference_kernel() -> u64 {
    static TABLE: OnceLock<Vec<u32>> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        // One seeded cycle through all 16384 slots (Sattolo's shuffle).
        let mut v: Vec<u32> = (0..16_384).collect();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in (1..v.len()).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            v.swap(i, (x % i as u64) as usize);
        }
        v
    });
    let mut i = 0u32;
    let mut acc = 0u64;
    for k in 0..300_000u64 {
        i = table[i as usize];
        acc = acc
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(i as u64 ^ k);
    }
    acc
}

/// Runs `slice(i)` [`SLICES`] times under the wall clock, the CPU clock
/// and the allocation counter, timing the reference kernel after each;
/// `slice` returns the segments it handled.
pub fn time_slices(mut slice: impl FnMut(usize) -> u64) -> Clocked {
    let mut slices = Vec::with_capacity(SLICES);
    // Builds the kernel's table outside the counted window.
    black_box(reference_kernel());
    let cpu0 = on_cpu_ns();
    alloc_arm();
    let start = Instant::now();
    for i in 0..SLICES {
        let t0 = Instant::now();
        let pkts = slice(i);
        let t1 = Instant::now();
        black_box(reference_kernel());
        slices.push(Slice {
            wall_ns: t1.duration_since(t0).as_nanos() as u64,
            pkts,
            ref_ns: t1.elapsed().as_nanos() as u64,
        });
    }
    let elapsed_ns = start.elapsed().as_nanos() as u64;
    let alloc = alloc_disarm();
    let cpu_ns = on_cpu_ns().saturating_sub(cpu0);
    let ref_ns: u64 = slices.iter().map(|s| s.ref_ns).sum();
    Clocked {
        slices,
        wall_ns: elapsed_ns - ref_ns,
        cpu_share: cpu_ns as f64 / elapsed_ns.max(1) as f64,
        alloc,
    }
}

/// Named exact counts read from public accessors.
pub type Counts = BTreeMap<&'static str, u64>;

/// `after - before`, key by key; keys absent from `before` count from 0.
pub fn counts_delta(after: &Counts, before: &Counts) -> Counts {
    after
        .iter()
        .map(|(k, v)| (*k, v - before.get(k).copied().unwrap_or(0)))
        .collect()
}

/// Collects failed output checks: how many operations each one covers
/// and a line saying what was wrong.
#[derive(Debug, Default)]
pub struct Checks {
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Records `n` failed operations described by `what`, if `n > 0`.
    pub fn fail(&mut self, n: u64, what: String) {
        if n > 0 {
            self.failed += n;
            self.failures.push(what);
        }
    }
}

/// Everything the timed part of one run produced, whichever workload.
pub struct Outcome {
    pub clocked: Clocked,
    /// Counts at the end of the timed part minus counts at its start.
    pub delta: Counts,
    /// Counts at the end of the timed part, set-up included.
    pub total: Counts,
    /// Simulated seconds the timed part covered; 0 without a simulator.
    pub sim_window_s: f64,
    /// Client-observed request latency over the timed part (ns).
    pub latency: Histogram,
    /// Due time to issue time of open-loop requests over the timed part
    /// (ns); empty for closed-loop and direct-drive workloads.
    pub gen_lateness: Histogram,
    /// Mean sampled depth of the switch queue facing host 0, in packets.
    pub qdepth_mean: f64,
    /// Mean and p99 (over 256-call batches) host ns per `rx_segment` and
    /// mean host ns per `tx_command`; measured in traced `fp_*` runs.
    pub fp_rx_ns: f64,
    pub fp_rx_ns_p99: f64,
    pub fp_tx_ns: f64,
    /// FNV of every deterministic output of the run.
    pub fingerprint: u64,
    pub attempted: u64,
    pub checks: Checks,
}

impl Outcome {
    /// Requests completed per simulated second, in millions; 0 where the
    /// workload has no requests or no simulated clock.
    pub fn mops(&self) -> f64 {
        let requests = self.delta.get("requests").copied().unwrap_or(0);
        requests as f64 / self.sim_window_s.max(1e-12) / 1e6
    }

    pub fn lat_p50_us(&self) -> f64 {
        self.latency.quantile(0.5) as f64 / 1e3
    }

    /// 0 unless at least ten samples lie beyond the 99th percentile.
    pub fn lat_p99_us(&self) -> f64 {
        if self.latency.count() >= 1000 {
            self.latency.quantile(0.99) as f64 / 1e3
        } else {
            0.0
        }
    }

    pub fn gen_late_p99_us(&self) -> f64 {
        self.gen_lateness.quantile(0.99) as f64 / 1e3
    }
}

/// Median of `xs` (mean of the middle pair for even counts); 0 if empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile of `xs`; 0 if empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Interquartile range of `xs` as a share of its median.
pub fn iqr_rel(xs: &[f64]) -> f64 {
    let m = median(xs);
    if m == 0.0 {
        return 0.0;
    }
    (quantile(xs, 0.75) - quantile(xs, 0.25)) / m
}

fn proc_status_kb(field: &str) -> u64 {
    let Ok(s) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    s.lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:") as f64 / 1024.0
}

/// Current resident set of this process in bytes (`VmRSS`).
pub fn rss_bytes() -> u64 {
    proc_status_kb("VmRSS:") * 1024
}

/// Nanoseconds this process has spent on a CPU (first field of
/// `/proc/self/schedstat`); 0 where the file is missing.
pub fn on_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|f| f.parse().ok()))
        .unwrap_or(0)
}

/// FNV-1a over `bytes`, continuing from `hash`.
pub fn fnv(mut hash: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        hash ^= *b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a offset basis.
pub const FNV_INIT: u64 = 0xcbf2_9ce4_8422_2325;
