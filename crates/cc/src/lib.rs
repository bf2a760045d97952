//! Unified congestion control for both stacks.
//!
//! One trait and two rate laws, split along the paper's line (§3.2):
//!
//! * [`CongCtrl`] is the **window algorithm** (`on_ack` / `on_timeout` /
//!   `on_fast_retransmit` / `cwnd`) the reference TCP engine (`tas-tcp`)
//!   and the baseline stacks run per connection; its state lives inside
//!   the boxed object. [`NewReno`] and [`Dctcp`] implement it.
//! * [`dctcp_rate`] and [`timely_rate`] are the **rate laws** the TAS slow
//!   path runs once per flow per control interval. They are plain
//!   functions over a [`CcState`] the slow path keeps per flow, fed the
//!   [`RateFeedback`] the fast path's counters accumulated, so one law
//!   polices thousands of flows.
//!
//! `tests/cc_bitidentity.rs` pins trajectories captured before the two
//! stacks shared this crate bit-for-bit, proving no arithmetic changed.
// Fast-path panic freedom (R4, DESIGN.md §11): the window algorithms run
// per ACK inside both fast paths, so production code here may not unwrap or
// panic; tests are exempt, and `debug_assert!` is the invariant check.
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

mod dctcp;
mod newreno;
mod timely;

pub use dctcp::{dctcp_rate, Dctcp};
pub use newreno::NewReno;
pub use timely::timely_rate;

/// Rate floor of both rate laws, bits/second.
const MIN_RATE_BPS: u64 = 1_000_000;
/// Rate ceiling of both rate laws, bits/second.
const MAX_RATE_BPS: u64 = 10_000_000_000;

/// Which congestion-control algorithm a connection runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CcKind {
    /// Loss-based NewReno (the "TCP" lines in the paper's figures).
    NewReno,
    /// DCTCP (ECN-proportional backoff; window- or rate-mode).
    Dctcp,
}

/// Feedback for one ACK arrival (window algorithm).
#[derive(Clone, Copy, Debug)]
pub struct AckInfo {
    /// Newly acknowledged bytes.
    pub acked: u32,
    /// The ACK carried an ECN echo.
    pub ece: bool,
    /// Arrival time.
    pub now: SimTime,
    /// RTT estimate at this point, if known.
    pub srtt: Option<SimTime>,
}

/// Per-flow state of a rate law, kept by the TAS slow path and mutated
/// only by [`dctcp_rate`] / [`timely_rate`].
#[derive(Clone, Copy, Debug)]
pub struct CcState {
    /// EWMA of the ECN-marked byte fraction (DCTCP alpha).
    pub alpha: f64,
    /// EWMA of the measured send rate in bits/second.
    pub rate_ewma: f64,
    /// Still in slow start (no congestion seen yet).
    pub slow_start: bool,
    /// Previous control-interval RTT sample in µs (TIMELY gradient).
    pub prev_rtt_us: u32,
}

impl CcState {
    /// Fresh-flow state: conservative alpha = 1.0, slow start on.
    pub fn new() -> Self {
        CcState {
            alpha: 1.0,
            rate_ewma: 0.0,
            slow_start: true,
            prev_rtt_us: 0,
        }
    }
}

impl Default for CcState {
    fn default() -> Self {
        CcState::new()
    }
}

/// One control interval's accumulated fast-path feedback, the rate laws'
/// input: the fast path drains its per-flow counters into this.
#[derive(Clone, Copy, Debug)]
pub struct RateFeedback {
    /// Bytes newly acknowledged this interval.
    pub ackb: u64,
    /// Of those, bytes whose ACKs carried ECN echoes.
    pub ecnb: u64,
    /// Fast retransmits triggered this interval.
    pub frexmits: u8,
    /// Current smoothed RTT estimate in µs (0 = no sample yet).
    pub rtt_est_us: u32,
}

/// A window congestion-control algorithm for the per-connection engines.
pub trait CongCtrl: std::fmt::Debug {
    /// Processes one (possibly ECN-echoing) ACK.
    fn on_ack(&mut self, info: AckInfo);
    /// Reacts to a retransmission timeout.
    fn on_timeout(&mut self);
    /// Reacts to entering fast recovery (triple duplicate ACK).
    fn on_fast_retransmit(&mut self);
    /// Current congestion window in bytes.
    fn cwnd(&self) -> u32;
    /// Slow-start threshold in bytes (for inspection/tests).
    fn ssthresh(&self) -> u32;
    /// Algorithm name for experiment output.
    fn name(&self) -> &'static str;
}

/// Initial window: 10 segments (RFC 6928, what Linux uses).
pub(crate) const INIT_WINDOW_SEGS: u32 = 10;

/// Creates the window algorithm for `kind` with the given MSS.
pub fn make_cc(kind: CcKind, mss: u32) -> Box<dyn CongCtrl> {
    match kind {
        CcKind::NewReno => Box::new(NewReno::new(mss)),
        CcKind::Dctcp => Box::new(Dctcp::new(mss)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: u32 = 1448;

    fn ack(acked: u32, ece: bool, t_us: u64) -> AckInfo {
        AckInfo {
            acked,
            ece,
            now: SimTime::from_us(t_us),
            srtt: Some(SimTime::from_us(100)),
        }
    }

    #[test]
    fn newreno_slow_start_doubles_per_rtt() {
        let mut cc = NewReno::new(MSS);
        let start = cc.cwnd();
        // Ack a full window: cwnd should double in slow start.
        let mut acked = 0;
        while acked < start {
            cc.on_ack(ack(MSS, false, 1));
            acked += MSS;
        }
        assert!(
            cc.cwnd() >= 2 * start - MSS,
            "cwnd {} vs {}",
            cc.cwnd(),
            start
        );
    }

    #[test]
    fn newreno_congestion_avoidance_linear() {
        let mut cc = NewReno::new(MSS);
        cc.on_timeout();
        // ssthresh is now low; grow past it into CA.
        while cc.cwnd() < cc.ssthresh() {
            cc.on_ack(ack(MSS, false, 1));
        }
        let w = cc.cwnd();
        // One full window of ACKs adds exactly one MSS.
        let mut acked = 0;
        while acked < w {
            cc.on_ack(ack(MSS, false, 2));
            acked += MSS;
        }
        assert_eq!(cc.cwnd(), w + MSS);
    }

    #[test]
    fn newreno_loss_responses() {
        let mut cc = NewReno::new(MSS);
        let w0 = cc.cwnd();
        cc.on_fast_retransmit();
        assert_eq!(cc.cwnd(), w0 / 2);
        cc.on_timeout();
        assert_eq!(cc.cwnd(), MSS);
        assert_eq!(cc.ssthresh(), (w0 / 2 / 2).max(2 * MSS));
    }

    #[test]
    fn newreno_ece_acts_like_loss() {
        let mut cc = NewReno::new(MSS);
        let w0 = cc.cwnd();
        cc.on_ack(ack(MSS, true, 1));
        assert_eq!(cc.cwnd(), w0 / 2);
    }

    // The slow-path rate laws over an external `CcState`.

    const INTERVAL: f64 = 200e-6;
    /// Bytes acknowledged in one interval when sending flat out at 1 Gbps.
    const GBPS_ACKB: u64 = (1e9 * INTERVAL / 8.0) as u64;

    fn fb(ackb: u64, ecnb: u64, frexmits: u8, rtt_est_us: u32) -> RateFeedback {
        RateFeedback {
            ackb,
            ecnb,
            frexmits,
            rtt_est_us,
        }
    }

    fn past_slow_start() -> CcState {
        CcState {
            slow_start: false,
            ..CcState::new()
        }
    }

    fn dctcp(st: &mut CcState, f: RateFeedback, current_bps: u64) -> u64 {
        dctcp_rate(st, f, current_bps, INTERVAL)
    }

    fn timely(st: &mut CcState, rtt_est_us: u32, current_bps: u64) -> u64 {
        let f = fb(1000, 0, 0, rtt_est_us);
        timely_rate(st, f, current_bps)
    }

    #[test]
    fn dctcp_rate_slow_start_doubles() {
        let mut st = CcState::new();
        // Sending flat out: measured rate matches current.
        let r = dctcp(&mut st, fb(GBPS_ACKB, 0, 0, 100), 1_000_000_000);
        assert_eq!(r, 2_000_000_000);
        assert!(st.slow_start);
    }

    #[test]
    fn dctcp_rate_congestion_exits_slow_start_and_reduces() {
        let mut st = CcState::new();
        // Fully marked: alpha stays 1.0 -> rate halves.
        let r = dctcp(&mut st, fb(GBPS_ACKB, GBPS_ACKB, 0, 100), 1_000_000_000);
        assert!(!st.slow_start);
        assert!((r as f64 - 0.5e9).abs() / 0.5e9 < 0.01, "rate {r}");
    }

    #[test]
    fn dctcp_rate_reduction_proportional_to_alpha() {
        let mut st = CcState {
            alpha: 0.0,
            ..past_slow_start()
        };
        // 10% of bytes marked: alpha moves to g*0.1, reduction tiny.
        let r = dctcp(&mut st, fb(1_000_000, 100_000, 0, 100), 1_000_000_000);
        // Measured = 1e6*8/200us = 40 Gbps, no cap. Reduction by alpha/2
        // where alpha = 0.1/16.
        let want = 1e9 * (1.0 - 0.1 / 16.0 / 2.0);
        assert!(
            (r as f64 - want).abs() / want < 0.01,
            "rate {r} want {want}"
        );
    }

    #[test]
    fn dctcp_rate_additive_increase_when_clean() {
        let r = dctcp(
            &mut past_slow_start(),
            fb(GBPS_ACKB, 0, 0, 100),
            1_000_000_000,
        );
        assert_eq!(r, 1_000_000_000 + 10_000_000);
    }

    #[test]
    fn dctcp_rate_caps_at_measured_rate() {
        // Flow only achieved 100 Mbps although the rate allows 1 Gbps.
        let ackb = (100e6 * INTERVAL / 8.0) as u64;
        let r = dctcp(&mut past_slow_start(), fb(ackb, 0, 0, 100), 1_000_000_000);
        // Capped to 1.2 * 100 Mbps, then additive increase.
        assert!(r <= 130_000_000, "rate {r} must be capped near 120 Mbps");
    }

    #[test]
    fn dctcp_rate_loss_halves() {
        let r = dctcp(
            &mut past_slow_start(),
            fb(GBPS_ACKB, 0, 2, 100),
            1_000_000_000,
        );
        assert_eq!(r, 500_000_000);
    }

    #[test]
    fn dctcp_rate_idle_flow_holds_rate_via_clamp() {
        // No feedback at all: no measured rate, no increase.
        let r = dctcp(&mut past_slow_start(), fb(0, 0, 0, 100), 500_000_000);
        assert_eq!(r, 500_000_000);
    }

    #[test]
    fn timely_rate_low_rtt_additive_increase() {
        // Below t_low.
        let r = timely(&mut past_slow_start(), 30, 1_000_000_000);
        assert_eq!(r, 1_010_000_000);
    }

    #[test]
    fn timely_rate_high_rtt_multiplicative_decrease() {
        // Above t_high.
        let r = timely(&mut past_slow_start(), 1000, 1_000_000_000);
        let want = 1e9 * (1.0 - 0.8 * (1.0 - 0.5));
        assert!((r as f64 - want).abs() / want < 0.01, "rate {r}");
    }

    #[test]
    fn timely_rate_gradient_response() {
        let mut st = CcState {
            prev_rtt_us: 100,
            ..past_slow_start()
        };
        // Rising RTT between thresholds.
        let r = timely(&mut st, 120, 1_000_000_000);
        assert!(r < 1_000_000_000, "rising gradient must decrease: {r}");
        // Falling RTT: increase.
        st.prev_rtt_us = 120;
        let r2 = timely(&mut st, 100, r);
        assert!(r2 > r);
    }

    #[test]
    fn timely_rate_slow_start_until_rtt_rises() {
        let mut st = CcState::new();
        let r = timely(&mut st, 30, 100_000_000);
        assert_eq!(r, 200_000_000);
        assert!(st.slow_start);
        // Above t_low: exit slow start.
        timely(&mut st, 80, r);
        assert!(!st.slow_start);
    }

    #[test]
    fn dctcp_alpha_tracks_mark_fraction() {
        let mut cc = Dctcp::new(MSS);
        // Feed many windows with ~50% marked bytes.
        let mut t = 0;
        for _ in 0..300 {
            t += 200; // 2 windows of 100us RTT.
            cc.on_ack(AckInfo {
                acked: MSS,
                ece: t % 400 == 0,
                now: SimTime::from_us(t),
                srtt: Some(SimTime::from_us(100)),
            });
        }
        assert!(
            (cc.alpha() - 0.5).abs() < 0.15,
            "alpha {} should approach 0.5",
            cc.alpha()
        );
    }

    #[test]
    fn dctcp_gentle_reduction_scales_with_alpha() {
        let mut cc = Dctcp::new(MSS);
        // Converge alpha near zero first (no marks).
        for i in 0..2000 {
            cc.on_ack(ack(MSS, false, 1 + i * 10));
        }
        let w = cc.cwnd();
        let alpha = cc.alpha();
        assert!(alpha < 0.05, "alpha {alpha}");
        // A single mark now barely dents the window.
        cc.on_ack(ack(MSS, true, 1_000_000));
        let reduce = w - cc.cwnd();
        assert!(
            (reduce as f64) <= w as f64 * 0.05,
            "gentle: reduced {reduce} of {w}"
        );
    }

    #[test]
    fn dctcp_reduces_once_per_window() {
        let mut cc = Dctcp::new(MSS);
        let w0 = cc.cwnd();
        cc.on_ack(ack(MSS, true, 100));
        let w1 = cc.cwnd();
        assert!(w1 < w0);
        // Same observation window: second mark must not reduce again.
        cc.on_ack(ack(MSS, true, 110));
        assert!(cc.cwnd() >= w1, "no double reduction within a window");
    }

    #[test]
    fn dctcp_timeout_collapses_window() {
        let mut cc = Dctcp::new(MSS);
        cc.on_timeout();
        assert_eq!(cc.cwnd(), MSS);
    }

    #[test]
    fn factory_dispatches() {
        assert_eq!(make_cc(CcKind::NewReno, MSS).name(), "newreno");
        assert_eq!(make_cc(CcKind::Dctcp, MSS).name(), "dctcp");
    }
}
