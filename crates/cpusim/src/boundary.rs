//! Domain-crossing primitives as first-class cycle costs.
//!
//! TAS's evaluation (and the design space around it) is largely a story
//! about *where protection boundaries sit and what each crossing costs*:
//! Linux pays a context switch per socket call, an MPK-protected
//! dataplane pays two WRPKRU writes, and an off-path SmartNIC stack pays
//! a DMA/PCIe round-trip for every app↔NIC interaction. This module
//! models those primitives so baseline stacks can charge them as
//! explicit, sweepable costs rather than folding them into opaque
//! per-call constants.
//!
//! Everything here is pure arithmetic on explicit inputs — no ambient
//! time, no randomness, no panics — so the models stay deterministic and
//! safe on the per-packet path.
#![cfg_attr(
    not(test),
    deny(
        unsafe_code,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

use tas_sim::SimTime;

/// The kind of protection/offload boundary a [`Crossing`] models.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CrossingKind {
    /// Syscall-class kernel entry/exit: mode switch, register save and
    /// restore, speculation barriers, and the cache/TLB pollution the
    /// paper's Table 1 attributes to the sockets layer.
    ContextSwitch,
    /// A WRPKRU protection-key update pair (enter + leave the protected
    /// domain) plus the register scrubbing a safe trampoline performs.
    Wrpkru,
    /// An MMIO doorbell ring toward a PCIe device (posted write; the
    /// DMA transfer itself is modeled by [`PcieModel`]).
    Doorbell,
}

impl CrossingKind {
    /// Stable lower-case label used in telemetry frames and reports.
    pub fn label(&self) -> &'static str {
        match self {
            CrossingKind::ContextSwitch => "ctxsw",
            CrossingKind::Wrpkru => "wrpkru",
            CrossingKind::Doorbell => "doorbell",
        }
    }
}

/// A domain crossing charged in cycles on the core that initiates it.
///
/// # Examples
///
/// ```
/// use tas_cpusim::{Crossing, CrossingKind};
/// let mpk = Crossing::wrpkru();
/// let sys = Crossing::context_switch();
/// assert!(mpk.cycles * 10 < sys.cycles, "WRPKRU is an order cheaper");
/// assert_eq!(mpk.kind, CrossingKind::Wrpkru);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Crossing {
    /// Which boundary primitive this is.
    pub kind: CrossingKind,
    /// Cost of one crossing (enter + leave), in initiating-core cycles.
    pub cycles: u64,
}

impl Crossing {
    /// A crossing with an explicit cycle cost (sweep harnesses use this).
    pub const fn new(kind: CrossingKind, cycles: u64) -> Self {
        Crossing { kind, cycles }
    }

    /// Syscall-class context switch: mode transition + register state +
    /// mitigation barriers. Calibrated to the kernel-entry share of the
    /// paper's Linux sockets cost (order 10^3 cycles).
    pub const fn context_switch() -> Self {
        Crossing::new(CrossingKind::ContextSwitch, 1400)
    }

    /// MPK lightweight activation: two WRPKRU instructions (~25 cycles
    /// each on Skylake-class parts) plus trampoline register scrubbing.
    pub const fn wrpkru() -> Self {
        Crossing::new(CrossingKind::Wrpkru, 80)
    }

    /// Posted MMIO doorbell write (uncached store crossing the PCIe
    /// root complex; order 10^2 cycles on the initiating core).
    pub const fn doorbell() -> Self {
        Crossing::new(CrossingKind::Doorbell, 300)
    }
}

/// A PCIe/DMA boundary between host cores and an off-path SmartNIC.
///
/// Three costs compose per interaction:
/// * a one-way DMA **latency** for the descriptor/payload to land on the
///   other side (pure delay, no core is held busy),
/// * payload **serialization** at the modeled link bandwidth, and
/// * an MMIO **doorbell** on the initiating core, amortized over
///   `doorbell_batch` queued messages (descriptor-ring batching).
///
/// # Examples
///
/// ```
/// use tas_cpusim::PcieModel;
/// use tas_sim::SimTime;
/// let pcie = PcieModel::gen3_x8();
/// assert_eq!(pcie.one_way(0), pcie.latency);
/// assert!(pcie.one_way(4096) > pcie.latency, "payload adds wire time");
/// assert!(pcie.doorbell_amortized() <= pcie.doorbell.cycles);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PcieModel {
    /// One-way descriptor latency across the fabric (host↔NIC).
    pub latency: SimTime,
    /// Link payload bandwidth in bits per second.
    pub bandwidth_bps: u64,
    /// Messages a single doorbell ring covers (ring-buffer batching).
    pub doorbell_batch: u32,
    /// The doorbell crossing paid by the initiating core.
    pub doorbell: Crossing,
}

impl PcieModel {
    /// A PCIe Gen3 x8 link as found on PnO-class SmartNICs: ~900 ns
    /// one-way DMA latency, ~62 Gbps effective payload bandwidth,
    /// doorbells amortized over 8-deep descriptor bursts.
    pub const fn gen3_x8() -> Self {
        PcieModel {
            latency: SimTime::from_ns(900),
            bandwidth_bps: 62_000_000_000,
            doorbell_batch: 8,
            doorbell: Crossing::doorbell(),
        }
    }

    /// Same link with an explicit one-way latency (sweep harnesses).
    pub const fn with_latency(mut self, latency: SimTime) -> Self {
        self.latency = latency;
        self
    }

    /// Time for `bytes` of payload to serialize onto the link.
    pub fn wire_time(&self, bytes: u64) -> SimTime {
        let bps = self.bandwidth_bps.max(1);
        // ps = bits * 1e12 / bps, in u128 to avoid overflow.
        SimTime::from_ps(((bytes as u128 * 8 * 1_000_000_000_000) / bps as u128) as u64)
    }

    /// One-way transfer delay for a descriptor carrying `bytes` of
    /// payload: DMA latency plus serialization.
    pub fn one_way(&self, bytes: u64) -> SimTime {
        self.latency + self.wire_time(bytes)
    }

    /// Full round trip (request descriptor over, response descriptor
    /// back) for symmetric `bytes` payloads.
    pub fn round_trip(&self, bytes: u64) -> SimTime {
        self.one_way(bytes) + self.one_way(bytes)
    }

    /// Initiating-core cycles per message for the doorbell ring,
    /// amortized over the descriptor batch (rounded up so a batch of 1
    /// pays the full crossing).
    pub fn doorbell_amortized(&self) -> u64 {
        let batch = self.doorbell_batch.max(1) as u64;
        self.doorbell.cycles.div_ceil(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossing_cost_ordering() {
        // The design-space premise: WRPKRU << doorbell < context switch.
        assert!(Crossing::wrpkru().cycles < Crossing::doorbell().cycles);
        assert!(Crossing::doorbell().cycles < Crossing::context_switch().cycles);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(CrossingKind::ContextSwitch.label(), "ctxsw");
        assert_eq!(CrossingKind::Wrpkru.label(), "wrpkru");
        assert_eq!(CrossingKind::Doorbell.label(), "doorbell");
    }

    #[test]
    fn wire_time_scales_with_bytes() {
        let p = PcieModel::gen3_x8();
        assert_eq!(p.wire_time(0), SimTime::ZERO);
        // 62 Gbps: 7750 bytes = 62000 bits = exactly 1 us.
        assert_eq!(p.wire_time(7750), SimTime::from_us(1));
        let small = p.wire_time(64);
        let big = p.wire_time(1448);
        assert!(big > small);
    }

    #[test]
    fn one_way_is_latency_plus_wire() {
        let p = PcieModel::gen3_x8().with_latency(SimTime::from_ns(500));
        assert_eq!(p.one_way(0), SimTime::from_ns(500));
        assert_eq!(p.one_way(7750), SimTime::from_ns(500) + SimTime::from_us(1));
        assert_eq!(p.round_trip(0), SimTime::from_us(1));
    }

    #[test]
    fn doorbell_amortization_rounds_up() {
        let mut p = PcieModel::gen3_x8();
        p.doorbell = Crossing::new(CrossingKind::Doorbell, 300);
        p.doorbell_batch = 8;
        assert_eq!(p.doorbell_amortized(), 38); // ceil(300/8)
        p.doorbell_batch = 1;
        assert_eq!(p.doorbell_amortized(), 300);
        p.doorbell_batch = 0; // degenerate config degrades to batch=1
        assert_eq!(p.doorbell_amortized(), 300);
    }

    #[test]
    fn zero_bandwidth_does_not_divide_by_zero() {
        let mut p = PcieModel::gen3_x8();
        p.bandwidth_bps = 0;
        let _ = p.wire_time(1000); // must not panic
    }

    #[test]
    fn latency_sweep_is_monotone() {
        let mut prev = SimTime::ZERO;
        for ns in [200u64, 600, 900, 2000, 5000] {
            let p = PcieModel::gen3_x8().with_latency(SimTime::from_ns(ns));
            let rt = p.round_trip(64);
            assert!(rt > prev);
            prev = rt;
        }
    }
}
