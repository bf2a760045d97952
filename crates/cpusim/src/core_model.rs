//! Processor cores as busy-until timelines.

use tas_sim::time::mul_div;
use tas_sim::{probe, SimTime};

/// The class of silicon a core belongs to.
///
/// Off-path SmartNIC stacks (PnO-style) split work between fast host
/// cores and the NIC's slower wimpy cores; accounting and reports need
/// to tell the two apart (host-CPU cycles/request is the paper's
/// efficiency currency — cycles burned on the NIC are "free" host CPU).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CoreClass {
    /// A server-class host core (the default everywhere).
    Host,
    /// A wimpy NIC-resident core (ARM-class, slower clock).
    Nic,
}

impl CoreClass {
    /// Stable lower-case label used in telemetry and reports.
    pub fn label(&self) -> &'static str {
        match self {
            CoreClass::Host => "host",
            CoreClass::Nic => "nic",
        }
    }
}

/// A simulated processor core.
///
/// Work items serialize on the core: an item submitted at `now` with cost
/// `c` cycles starts at `max(now, busy_until)` and finishes `c / freq`
/// later. Throughput saturation and queueing delay fall out of this
/// accounting; nothing else in the system enforces capacity.
///
/// # Examples
///
/// ```
/// use tas_cpusim::Core;
/// use tas_sim::SimTime;
/// let mut core = Core::new(2_100_000_000); // 2.1 GHz, as the paper's server.
/// let (_start, end) = core.run(SimTime::ZERO, 2_100);
/// assert_eq!(end, SimTime::from_us(1)); // 2100 cycles at 2.1 GHz = 1us.
/// ```
#[derive(Clone, Debug)]
pub struct Core {
    freq_hz: u64,
    class: CoreClass,
    busy_until: SimTime,
    busy_total: SimTime,
    busy_cycles: u64,
}

impl Core {
    /// Creates a host-class core with the given clock frequency.
    ///
    /// # Panics
    ///
    /// Panics if `freq_hz` is zero.
    pub fn new(freq_hz: u64) -> Self {
        Core::with_class(freq_hz, CoreClass::Host)
    }

    /// Creates a core of an explicit class (NIC cores for off-path
    /// stacks).
    ///
    /// # Panics
    ///
    /// Panics if `freq_hz` is zero.
    pub fn with_class(freq_hz: u64, class: CoreClass) -> Self {
        assert!(freq_hz > 0, "core frequency must be positive");
        Core {
            freq_hz,
            class,
            busy_until: SimTime::ZERO,
            busy_total: SimTime::ZERO,
            busy_cycles: 0,
        }
    }

    /// Clock frequency in Hz.
    pub fn freq_hz(&self) -> u64 {
        self.freq_hz
    }

    /// The silicon class of this core.
    pub fn class(&self) -> CoreClass {
        self.class
    }

    /// Converts a cycle count to wall time on this core.
    pub fn cycles_to_time(&self, cycles: u64) -> SimTime {
        // ps = cycles * 1e12 / freq.
        SimTime::from_ps(mul_div(cycles, 1_000_000_000_000, self.freq_hz))
    }

    /// Schedules `cycles` of work arriving at `now`; returns the start and
    /// completion instants.
    pub fn run(&mut self, now: SimTime, cycles: u64) -> (SimTime, SimTime) {
        let start = now.max(self.busy_until);
        let dur = self.cycles_to_time(cycles);
        let end = start + dur;
        self.busy_until = end;
        self.busy_total += dur;
        self.busy_cycles += cycles;
        probe! { tas_telemetry::profile::on_core_run(cycles); }
        (start, end)
    }

    /// The instant this core next becomes free: the completion time of
    /// its most recent work item (the idle clock of the fast-path
    /// blocking and app-sleep policies).
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Total busy time accumulated since creation.
    pub fn busy_total(&self) -> SimTime {
        self.busy_total
    }

    /// Exact cycle count submitted since creation (the integer ground
    /// truth the attribution profiler's conservation property checks
    /// against; `busy_total` rounds through the time conversion).
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }
}

/// A set of cores with utilization sampling, as the slow path's workload-
/// proportionality monitor sees them (§3.4).
#[derive(Clone, Debug)]
pub struct CorePool {
    cores: Vec<Core>,
    last_sample_busy: Vec<SimTime>,
    last_sample_at: SimTime,
}

impl CorePool {
    /// Creates `n` host-class cores at `freq_hz`.
    pub fn new(n: usize, freq_hz: u64) -> Self {
        CorePool::heterogeneous(&[(CoreClass::Host, n, freq_hz)])
    }

    /// Creates a pool from `(class, count, freq_hz)` groups in order —
    /// e.g. NIC cores 0..k followed by host cores k..n for an off-path
    /// SmartNIC stack.
    pub fn heterogeneous(groups: &[(CoreClass, usize, u64)]) -> Self {
        let cores: Vec<Core> = groups
            .iter()
            .flat_map(|&(class, n, freq)| (0..n).map(move |_| Core::with_class(freq, class)))
            .collect();
        let n = cores.len();
        CorePool {
            cores,
            last_sample_busy: vec![SimTime::ZERO; n],
            last_sample_at: SimTime::ZERO,
        }
    }

    /// The silicon class of core `i`.
    pub fn class(&self, i: usize) -> CoreClass {
        self.cores[i].class()
    }

    /// Total cycles submitted to cores of `class` since creation.
    pub fn busy_cycles_by_class(&self, class: CoreClass) -> u64 {
        self.cores
            .iter()
            .filter(|c| c.class() == class)
            .map(|c| c.busy_cycles())
            .sum()
    }

    /// Number of cores.
    pub fn len(&self) -> usize {
        self.cores.len()
    }

    /// True when the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.cores.is_empty()
    }

    /// The cores, in index order.
    pub fn iter(&self) -> impl Iterator<Item = &Core> {
        self.cores.iter()
    }

    /// Access a core.
    pub fn core(&mut self, i: usize) -> &mut Core {
        &mut self.cores[i]
    }

    /// Immutable access to a core.
    pub fn core_ref(&self, i: usize) -> &Core {
        &self.cores[i]
    }

    /// Per-core utilization (fraction of wall time busy) since the previous
    /// sample, then resets the sampling window. Utilization can slightly
    /// exceed 1.0 when queued work extends past the sample instant.
    pub fn sample_utilization(&mut self, now: SimTime) -> Vec<f64> {
        let window = now.saturating_sub(self.last_sample_at);
        let out = if window == SimTime::ZERO {
            vec![0.0; self.cores.len()]
        } else {
            self.cores
                .iter()
                .zip(&self.last_sample_busy)
                .map(|(c, &prev)| {
                    c.busy_total().saturating_sub(prev).as_ps() as f64 / window.as_ps() as f64
                })
                .collect()
        };
        for (slot, c) in self.last_sample_busy.iter_mut().zip(&self.cores) {
            *slot = c.busy_total();
        }
        self.last_sample_at = now;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_serializes_on_core() {
        let mut c = Core::new(1_000_000_000); // 1 GHz: 1 cycle = 1 ns.
        let (s1, e1) = c.run(SimTime::ZERO, 100);
        assert_eq!(s1, SimTime::ZERO);
        assert_eq!(e1, SimTime::from_ns(100));
        // Arrives while busy: queues behind.
        let (s2, e2) = c.run(SimTime::from_ns(50), 100);
        assert_eq!(s2, SimTime::from_ns(100));
        assert_eq!(e2, SimTime::from_ns(200));
        // Arrives after idle gap: starts immediately.
        let (s3, _) = c.run(SimTime::from_ns(500), 10);
        assert_eq!(s3, SimTime::from_ns(500));
    }

    #[test]
    fn idle_detection() {
        let mut c = Core::new(1_000_000_000);
        assert_eq!(c.busy_until(), SimTime::ZERO);
        c.run(SimTime::ZERO, 1000);
        assert!(c.busy_until() > SimTime::from_ns(500));
        assert_eq!(c.busy_until(), SimTime::from_us(1));
    }

    #[test]
    fn utilization_sampling() {
        let mut p = CorePool::new(2, 1_000_000_000);
        // Core 0 busy 600ns of a 1000ns window; core 1 idle.
        p.core(0).run(SimTime::ZERO, 600);
        let u = p.sample_utilization(SimTime::from_ns(1000));
        assert!((u[0] - 0.6).abs() < 1e-9, "{u:?}");
        assert_eq!(u[1], 0.0);
        // Next window: nothing happened.
        let u2 = p.sample_utilization(SimTime::from_ns(2000));
        assert_eq!(u2, vec![0.0, 0.0]);
    }

    #[test]
    fn zero_window_sample_is_zero() {
        let mut p = CorePool::new(1, 1_000_000_000);
        assert_eq!(p.sample_utilization(SimTime::ZERO), vec![0.0]);
    }
}
