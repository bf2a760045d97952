//! `FpCongCtrl`: the rate bucket and the feedback counters the fast path
//! accumulates for the slow path — plus [`RateBucket`] itself. The
//! control law and its per-flow state live in the slow path. The
//! component's fields are private to this module: writes go through the
//! `&mut self` methods here, reads through getters (`bucket()` hands out
//! a `&` view).

use tas_cc::RateFeedback;
use tas_sim::time::mul_div;
use tas_sim::SimTime;

/// Congestion-control component: the rate bucket and the feedback
/// counters the fast path accumulates for the slow path.
#[derive(Debug)]
pub struct FpCongCtrl {
    /// Rate bucket (inlined; the paper stores an index into a bucket table).
    bucket: RateBucket,
    /// Acknowledged bytes since the last slow-path control iteration
    /// (cnt_ackb).
    cnt_ackb: u64,
    /// ECN-echoed bytes since the last control iteration (cnt_ecnb).
    cnt_ecnb: u64,
    /// Fast retransmits since the last control iteration (cnt_frexmits).
    cnt_frexmits: u8,
    /// The last data segment received was CE-marked (drives the DCTCP
    /// per-packet ECN echo).
    last_seg_ce: bool,
}

impl FpCongCtrl {
    /// Component state at flow installation.
    pub fn new(bucket: RateBucket) -> FpCongCtrl {
        FpCongCtrl {
            bucket,
            cnt_ackb: 0,
            cnt_ecnb: 0,
            cnt_frexmits: 0,
            last_seg_ce: false,
        }
    }

    /// Read view of the rate bucket.
    #[inline]
    pub fn bucket(&self) -> &RateBucket {
        &self.bucket
    }

    /// Acknowledged bytes since the last control iteration (cnt_ackb).
    #[inline]
    pub fn cnt_ackb(&self) -> u64 {
        self.cnt_ackb
    }

    /// ECN-echoed bytes since the last control iteration (cnt_ecnb).
    #[inline]
    pub fn cnt_ecnb(&self) -> u64 {
        self.cnt_ecnb
    }

    /// Fast retransmits since the last control iteration (cnt_frexmits).
    #[inline]
    pub fn cnt_frexmits(&self) -> u8 {
        self.cnt_frexmits
    }

    /// The last data segment received was CE-marked.
    #[inline]
    pub fn last_seg_ce(&self) -> bool {
        self.last_seg_ce
    }

    /// Accrues bucket credit for the time elapsed up to `now`.
    #[inline]
    pub fn refill_bucket(&mut self, now: SimTime) {
        self.bucket.refill(now);
    }

    /// Spends `n` bytes of bucket credit on a transmitted segment.
    #[inline]
    pub fn consume_credit(&mut self, n: u64) {
        self.bucket.consume(n);
    }

    /// Records the CE mark state of the data segment just received.
    pub fn note_ce(&mut self, ce: bool) {
        self.last_seg_ce = ce;
    }

    /// Counts cumulatively acknowledged bytes (and their ECN echo) for
    /// the next control iteration.
    pub fn count_acked(&mut self, newly: u64, ece: bool) {
        self.cnt_ackb += newly;
        if ece {
            self.cnt_ecnb += newly;
        }
    }

    /// A duplicate ACK carried ECE: count a nominal MSS of marked bytes
    /// so the slow path sees congestion feedback even without progress.
    pub fn count_nominal_mark(&mut self, mss: u64) {
        self.cnt_ecnb += mss;
        self.cnt_ackb += mss;
    }

    /// Counts one fast retransmission (loss signal for the control loop).
    pub fn count_fast_rexmit(&mut self) {
        self.cnt_frexmits = self.cnt_frexmits.saturating_add(1);
    }

    /// Slow-path rate update: converts an unlimited bucket or retunes the
    /// existing one (preserving accrued credit).
    pub fn apply_rate(&mut self, bits_per_sec: u64, burst: u64, now: SimTime) {
        if self.bucket.is_unlimited() {
            self.bucket = RateBucket::limited(bits_per_sec, burst, now);
        } else {
            self.bucket.burst = burst;
            self.bucket.set_rate_bps(bits_per_sec, now);
        }
    }

    /// Drains the accumulated feedback counters into a rate-law input.
    pub fn take_feedback(&mut self, rtt_est_us: u32) -> RateFeedback {
        let fb = RateFeedback {
            ackb: self.cnt_ackb,
            ecnb: self.cnt_ecnb,
            frexmits: self.cnt_frexmits,
            rtt_est_us,
        };
        self.cnt_ackb = 0;
        self.cnt_ecnb = 0;
        self.cnt_frexmits = 0;
        fb
    }
}

/// Token-bucket rate limiter enforced by the fast path, configured by the
/// slow path (Figure 2's per-flow `bucket`).
#[derive(Clone, Copy, Debug)]
pub struct RateBucket {
    /// Allowed rate in bytes/second; `u64::MAX` disables pacing.
    pub rate_bps: u64,
    /// Accumulated send credit in bytes.
    pub tokens: u64,
    /// Last refill instant.
    pub last_refill: SimTime,
    /// Burst cap in bytes.
    pub burst: u64,
}

impl RateBucket {
    /// An unlimited bucket (window-mode or disabled CC).
    pub fn unlimited() -> RateBucket {
        RateBucket {
            rate_bps: u64::MAX,
            tokens: u64::MAX,
            last_refill: SimTime::ZERO,
            burst: u64::MAX,
        }
    }

    /// A bucket limited to `bits_per_sec`, with a burst of `burst` bytes.
    pub fn limited(bits_per_sec: u64, burst: u64, now: SimTime) -> RateBucket {
        RateBucket {
            rate_bps: bits_per_sec / 8,
            tokens: burst.min(bits_per_sec / 8),
            last_refill: now,
            burst,
        }
    }

    /// True when pacing is disabled.
    pub fn is_unlimited(&self) -> bool {
        self.rate_bps == u64::MAX
    }

    /// Refills credit for elapsed time. Fractional credit is never
    /// discarded: `last_refill` only advances by the time actually
    /// converted into whole bytes, so frequent polls at low rates cannot
    /// starve the bucket.
    pub fn refill(&mut self, now: SimTime) {
        if self.is_unlimited() {
            return;
        }
        if now <= self.last_refill {
            return;
        }
        let dt = now - self.last_refill;
        let add = mul_div(self.rate_bps, dt.as_ps(), 1_000_000_000_000);
        if self.tokens.saturating_add(add) >= self.burst {
            self.tokens = self.burst;
            self.last_refill = now;
            return;
        }
        if add > 0 {
            self.tokens += add;
            // Advance only by the time consumed for `add` whole bytes.
            let used_ps = mul_div(add, 1_000_000_000_000, self.rate_bps);
            self.last_refill += SimTime::from_ps(used_ps);
        }
        // add == 0: keep last_refill so the fraction keeps accruing.
    }

    /// Consumes `n` bytes of credit.
    pub fn consume(&mut self, n: u64) {
        if !self.is_unlimited() {
            self.tokens = self.tokens.saturating_sub(n);
        }
    }

    /// Updates the rate, preserving accumulated credit (clamped to burst).
    ///
    /// The sub-byte time remainder still accruing at the old rate is
    /// rescaled so its byte value carries over unchanged; leaving it at
    /// the old timestamp would re-price it at the new rate (free credit
    /// on every rate increase, lost credit on every decrease — and the
    /// control loop changes rates thousands of times per second).
    pub fn set_rate_bps(&mut self, bits_per_sec: u64, now: SimTime) {
        self.refill(now);
        let new_rate = bits_per_sec / 8;
        if !self.is_unlimited() && new_rate > 0 && now > self.last_refill {
            let leftover_ps = (now - self.last_refill).as_ps() as u128;
            let scaled = leftover_ps * self.rate_bps as u128 / new_rate as u128;
            let back = SimTime::from_ps(scaled.min(now.as_ps() as u128) as u64);
            self.last_refill = now - back;
        } else {
            self.last_refill = now;
        }
        self.rate_bps = new_rate;
        self.tokens = self.tokens.min(self.burst);
    }

    /// Time until `n` bytes of credit are available (zero if ready now).
    pub fn time_until(&self, n: u64, now: SimTime) -> SimTime {
        if self.is_unlimited() {
            return SimTime::ZERO;
        }
        let mut b = *self;
        b.refill(now);
        if b.tokens >= n {
            return SimTime::ZERO;
        }
        let missing = n - b.tokens;
        if b.rate_bps == 0 {
            return SimTime::MAX;
        }
        // Round up so the credit is guaranteed present at the deadline.
        let ps = (missing as u128 * 1_000_000_000_000).div_ceil(b.rate_bps as u128);
        SimTime::from_ps(ps as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_bucket_refills_at_rate() {
        let t0 = SimTime::ZERO;
        let mut b = RateBucket::limited(8_000_000, 1_000_000, t0); // 1 MB/s.
        b.tokens = 0;
        b.refill(t0 + SimTime::from_ms(10)); // 10 ms at 1 MB/s = 10 KB.
        assert_eq!(b.tokens, 10_000);
        b.consume(4_000);
        assert_eq!(b.tokens, 6_000);
    }

    #[test]
    fn rate_bucket_burst_cap() {
        let mut b = RateBucket::limited(8_000_000_000, 10_000, SimTime::ZERO);
        b.refill(SimTime::from_secs(1));
        assert_eq!(b.tokens, 10_000, "capped at burst");
    }

    #[test]
    fn rate_bucket_time_until() {
        let t0 = SimTime::ZERO;
        let mut b = RateBucket::limited(8_000_000, 1_000_000, t0);
        b.tokens = 0;
        b.last_refill = t0;
        // Need 1000 bytes at 1 MB/s -> 1 ms.
        assert_eq!(b.time_until(1_000, t0), SimTime::from_ms(1));
        assert_eq!(
            RateBucket::unlimited().time_until(1 << 30, t0),
            SimTime::ZERO
        );
    }

    #[test]
    fn rate_bucket_set_rate_preserves_credit() {
        let t0 = SimTime::ZERO;
        let mut b = RateBucket::limited(8_000_000, 1 << 20, t0);
        b.tokens = 500;
        b.set_rate_bps(16_000_000, t0);
        assert_eq!(b.rate_bps, 2_000_000);
        assert_eq!(b.tokens, 500);
    }
}
