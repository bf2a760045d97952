//! TIMELY (Mittal et al., SIGCOMM 2015): RTT-gradient congestion control,
//! adapted for TCP by adding slow start. [`timely_rate`] is the TAS
//! slow-path rate law.

use crate::{CcState, RateFeedback, MAX_RATE_BPS, MIN_RATE_BPS};

/// Low RTT threshold in µs: below it, increase additively.
const T_LOW_US: u32 = 50;
/// High RTT threshold in µs: above it, decrease multiplicatively.
const T_HIGH_US: u32 = 500;
/// Multiplicative decrease factor β.
const BETA: f64 = 0.8;
/// Additive increase step in bits/second.
const DELTA_BPS: u64 = 10_000_000;
/// Minimum RTT in µs, the gradient's normalizer.
const MIN_RTT_US: u32 = 20;

/// One TIMELY rate-law iteration over the flow's `st`; returns the new
/// rate in bits/second. Interval-free: the gradient normalizes by RTT.
pub fn timely_rate(st: &mut CcState, fb: RateFeedback, current_bps: u64) -> u64 {
    if fb.ackb == 0 {
        // No feedback this interval: hold.
        return current_bps;
    }
    let rtt = fb.rtt_est_us.max(1);
    let prev = if st.prev_rtt_us == 0 {
        rtt
    } else {
        st.prev_rtt_us
    };
    st.prev_rtt_us = rtt;
    let mut rate = current_bps as f64;
    if st.slow_start {
        if rtt > T_LOW_US {
            st.slow_start = false;
        } else {
            return ((rate * 2.0) as u64).clamp(MIN_RATE_BPS, MAX_RATE_BPS);
        }
    }
    if rtt < T_LOW_US {
        rate += DELTA_BPS as f64;
    } else if rtt > T_HIGH_US {
        rate *= 1.0 - BETA * (1.0 - T_HIGH_US as f64 / rtt as f64);
    } else {
        let gradient = (rtt as f64 - prev as f64) / MIN_RTT_US as f64;
        if gradient <= 0.0 {
            rate += DELTA_BPS as f64;
        } else {
            rate *= 1.0 - BETA * gradient.min(1.0);
        }
    }
    (rate as u64).clamp(MIN_RATE_BPS, MAX_RATE_BPS)
}
