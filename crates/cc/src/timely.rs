//! TIMELY (Mittal et al., SIGCOMM 2015): RTT-gradient congestion control,
//! adapted for TCP by adding slow start. [`timely_rate`] is the TAS
//! slow-path rate law.

use crate::{CcState, RateFeedback};

/// Parameters of the TIMELY rate law.
#[derive(Clone, Copy, Debug)]
pub struct TimelyParams {
    /// Low RTT threshold: below it, increase additively.
    pub t_low_us: u32,
    /// High RTT threshold: above it, decrease multiplicatively.
    pub t_high_us: u32,
    /// Multiplicative decrease factor β.
    pub beta: f64,
    /// Additive increase step in bits/second.
    pub delta_bps: u64,
    /// Minimum RTT for gradient normalization.
    pub min_rtt_us: u32,
    /// Rate floor.
    pub min_bps: u64,
    /// Rate ceiling.
    pub max_bps: u64,
}

impl Default for TimelyParams {
    fn default() -> Self {
        TimelyParams {
            t_low_us: 50,
            t_high_us: 500,
            beta: 0.8,
            delta_bps: 10_000_000,
            min_rtt_us: 20,
            min_bps: 1_000_000,
            max_bps: 10_000_000_000,
        }
    }
}

/// One TIMELY rate-law iteration over the flow's `st`; returns the new
/// rate in bits/second. Interval-free: the gradient normalizes by RTT.
pub fn timely_rate(st: &mut CcState, fb: RateFeedback, current_bps: u64, p: &TimelyParams) -> u64 {
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
        if rtt > p.t_low_us {
            st.slow_start = false;
        } else {
            return ((rate * 2.0) as u64).clamp(p.min_bps, p.max_bps);
        }
    }
    if rtt < p.t_low_us {
        rate += p.delta_bps as f64;
    } else if rtt > p.t_high_us {
        rate *= 1.0 - p.beta * (1.0 - p.t_high_us as f64 / rtt as f64);
    } else {
        let gradient = (rtt as f64 - prev as f64) / p.min_rtt_us as f64;
        if gradient <= 0.0 {
            rate += p.delta_bps as f64;
        } else {
            rate *= 1.0 - p.beta * gradient.min(1.0);
        }
    }
    (rate as u64).clamp(p.min_bps, p.max_bps)
}
