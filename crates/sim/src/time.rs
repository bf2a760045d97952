//! Simulated time.
//!
//! Time is a `u64` count of picoseconds. Picosecond resolution lets the CPU
//! cost model express single cycles at multi-GHz clock rates exactly
//! (1 cycle at 2.1 GHz ≈ 476 ps) while still covering ~213 days of simulated
//! time, far beyond any experiment in the paper.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant or duration in simulated time, in picoseconds.
///
/// The same type serves as both instant and duration; experiment code reads
/// naturally either way (`now + SimTime::from_us(100)`).
///
/// # Examples
///
/// ```
/// use tas_sim::SimTime;
/// let rtt = SimTime::from_us(100);
/// assert_eq!(rtt.as_nanos(), 100_000);
/// assert_eq!(rtt * 2, SimTime::from_us(200));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The zero instant (simulation start).
    pub const ZERO: SimTime = SimTime(0);
    /// The maximum representable instant; used as "never".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Creates a time from nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * 1_000)
    }

    /// Creates a time from microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000_000)
    }

    /// Creates a time from milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000_000)
    }

    /// Creates a time from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000_000)
    }

    /// Creates a time from a floating-point second count (e.g. `1.5e-6`).
    ///
    /// Negative inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        SimTime((s.max(0.0) * 1e12).round() as u64)
    }

    /// Raw picosecond count.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Time in whole nanoseconds (truncating).
    pub const fn as_nanos(self) -> u64 {
        self.0 / 1_000
    }

    /// Time in whole microseconds (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Time in whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000_000
    }

    /// Time as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Time as fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Time as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction; returns zero instead of wrapping.
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition; `None` on overflow (relevant around [`SimTime::MAX`]).
    pub fn checked_add(self, rhs: SimTime) -> Option<SimTime> {
        self.0.checked_add(rhs.0).map(SimTime)
    }

    /// The later of two instants.
    pub fn max(self, rhs: SimTime) -> SimTime {
        if self >= rhs {
            self
        } else {
            rhs
        }
    }

    /// The earlier of two instants.
    pub fn min(self, rhs: SimTime) -> SimTime {
        if self <= rhs {
            self
        } else {
            rhs
        }
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    fn sub_assign(&mut self, rhs: SimTime) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps == u64::MAX {
            write!(f, "never")
        } else if ps >= 1_000_000_000_000 {
            write!(f, "{:.6}s", self.as_secs_f64())
        } else if ps >= 1_000_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if ps >= 1_000_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{}ns", self.0 as f64 / 1e3)
        }
    }
}

/// `a * b / c`, truncated to `u64`: the per-packet unit conversions
/// (cycles ↔ time, token-bucket bytes ↔ time). Divides in `u64` when the
/// product fits — it does for every per-packet operand — and in `u128`
/// otherwise, so the result is the `u128` expression's for all inputs.
/// Link serialization (bytes → time at a link rate) is a multiply instead,
/// through [`LinkRate`]; there this is only the fallback.
///
/// # Panics
///
/// Panics if `c` is zero.
#[inline]
pub fn mul_div(a: u64, b: u64, c: u64) -> u64 {
    match a.checked_mul(b) {
        Some(p) => p / c,
        None => (a as u128 * b as u128 / c as u128) as u64,
    }
}

/// Converts a transfer size and link rate into serialization time.
///
/// # Examples
///
/// ```
/// use tas_sim::time::{transmission_time, SimTime};
/// // 1250 bytes at 10 Gbps = 1 microsecond.
/// assert_eq!(transmission_time(1250, 10_000_000_000), SimTime::from_us(1));
/// ```
pub fn transmission_time(bytes: u64, bits_per_sec: u64) -> SimTime {
    debug_assert!(bits_per_sec > 0, "link rate must be positive");
    // ps = bits * 1e12 / bps.
    SimTime(mul_div(bytes, BIT_PS_PER_BYTE, bits_per_sec))
}

/// Bits per byte times picoseconds per second: `bytes * BIT_PS_PER_BYTE /
/// bits_per_sec` is a serialization time in ps.
const BIT_PS_PER_BYTE: u64 = 8 * 1_000_000_000_000;

/// A link rate with its serialization time per byte worked out once, when
/// the link is built.
///
/// Every rate the simulated networks configure divides 8·10¹² bit-ps per
/// byte exactly (10 Gbps is 800 ps per byte, 40 Gbps 200, 2.5 Gbps 3200),
/// so a packet's serialization time is one multiply. A rate that does not,
/// and a product past `u64::MAX`, take [`transmission_time`]'s divide
/// instead; both paths return its value for every size.
///
/// # Examples
///
/// ```
/// use tas_sim::time::{transmission_time, LinkRate};
/// let link = LinkRate::new(40_000_000_000);
/// assert_eq!(link.tx_time(1500), transmission_time(1500, 40_000_000_000));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct LinkRate {
    bits_per_sec: u64,
    /// Exact ps per byte, when `bits_per_sec` divides 8·10¹².
    ps_per_byte: Option<u64>,
}

impl LinkRate {
    /// The serializer of a link running at `bits_per_sec`.
    pub fn new(bits_per_sec: u64) -> Self {
        // False for a zero rate, which keeps the divide and its panic.
        let exact = BIT_PS_PER_BYTE.is_multiple_of(bits_per_sec);
        LinkRate {
            bits_per_sec,
            ps_per_byte: exact.then(|| BIT_PS_PER_BYTE / bits_per_sec),
        }
    }

    /// Serialization time of `bytes` on this link:
    /// `transmission_time(bytes, bits_per_sec)`.
    #[inline]
    pub fn tx_time(self, bytes: u64) -> SimTime {
        match self.ps_per_byte.and_then(|p| bytes.checked_mul(p)) {
            Some(ps) => SimTime(ps),
            None => transmission_time(bytes, self.bits_per_sec),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_ns(5).as_ps(), 5_000);
        assert_eq!(SimTime::from_us(5).as_nanos(), 5_000);
        assert_eq!(SimTime::from_ms(5).as_micros(), 5_000);
        assert_eq!(SimTime::from_secs(5).as_millis(), 5_000);
        assert!((SimTime::from_secs_f64(1.5).as_secs_f64() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_us(10);
        let b = SimTime::from_us(4);
        assert_eq!(a + b, SimTime::from_us(14));
        assert_eq!(a - b, SimTime::from_us(6));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(a * 3, SimTime::from_us(30));
        assert_eq!(a / 2, SimTime::from_us(5));
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn transmission_times() {
        // 64B at 40 Gbps = 12.8 ns.
        assert_eq!(transmission_time(64, 40_000_000_000).as_ps(), 12_800);
        // 1500B at 10 Gbps = 1.2 us.
        assert_eq!(transmission_time(1500, 10_000_000_000).as_nanos(), 1_200);
    }

    #[test]
    fn link_rate_multiply_equals_the_divide() {
        // The rates the topologies configure, and 100 Gbps: every size up
        // to a 9000 B jumbo frame's wire length, and the products either
        // side of `u64::MAX`, where the multiply hands over to the divide.
        for (rate, ps) in [
            (10_000_000_000, 800),
            (40_000_000_000, 200),
            (2_500_000_000, 3_200),
            (100_000_000_000, 80),
        ] {
            let link = LinkRate::new(rate);
            assert_eq!(link.ps_per_byte, Some(ps), "{rate} bps");
            for bytes in (0..=9018).chain([u64::MAX / ps, u64::MAX / ps + 1, u64::MAX]) {
                let want = mul_div(bytes, 8 * 1_000_000_000_000, rate);
                assert_eq!(link.tx_time(bytes).as_ps(), want, "{bytes} B at {rate} bps");
            }
        }
        // 3 Gbps does not divide 8·10¹² bit-ps: every size takes the divide.
        let link = LinkRate::new(3_000_000_000);
        assert_eq!(link.ps_per_byte, None);
        for bytes in 0..=9018 {
            let want = mul_div(bytes, 8 * 1_000_000_000_000, 3_000_000_000);
            assert_eq!(link.tx_time(bytes).as_ps(), want, "{bytes} B at 3 Gbps");
        }
    }

    #[test]
    fn mul_div_equals_the_u128_formula() {
        let wide = |a: u64, b: u64, c: u64| (a as u128 * b as u128 / c as u128) as u64;
        let mut rng = crate::rng::Rng::new(0xd1f);
        for _ in 0..200_000 {
            // Operand widths drawn independently, so products land on both
            // sides of 2^64 and quotients on both sides of the truncation.
            let mut draw = || rng.next_u64() >> (rng.next_u64() % 64);
            let (a, b, c) = (draw(), draw(), draw().max(1));
            assert_eq!(mul_div(a, b, c), wide(a, b, c), "{a} * {b} / {c}");
        }
        // The overflow boundary itself: the last product that fits and the
        // first that does not, for a power-of-two and an odd factor pair.
        for (a, b) in [
            (1u64 << 32, 1u64 << 32),
            (u64::MAX / 3 + 1, 3),
            (u64::MAX, 1),
        ] {
            for c in [1, 3, 1_000_000_000_000, u64::MAX] {
                for (a, b) in [(a - 1, b), (a, b), (a, b + 1)] {
                    assert_eq!(mul_div(a, b, c), wide(a, b, c), "{a} * {b} / {c}");
                }
            }
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(format!("{}", SimTime::from_ns(12)), "12ns");
        assert_eq!(format!("{}", SimTime::from_us(3)), "3.000us");
        assert_eq!(format!("{}", SimTime::MAX), "never");
    }

    #[test]
    fn checked_add_overflow() {
        assert_eq!(SimTime::MAX.checked_add(SimTime(1)), None);
        assert_eq!(SimTime(1).checked_add(SimTime(2)), Some(SimTime(3)));
    }
}
