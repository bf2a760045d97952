//! TIMELY (Mittal et al., SIGCOMM 2015): RTT-gradient congestion control,
//! adapted for TCP by adding slow start. [`timely_rate`] is the TAS
//! slow-path rate law; the window algorithm applies the same
//! thresholds/gradient rules to a congestion window.

use crate::{AckInfo, CcState, CongCtrl, RateFeedback, INIT_WINDOW_SEGS};

/// Parameters for TIMELY, shared by the window algorithm and the rate law.
#[derive(Clone, Copy, Debug)]
pub struct TimelyParams {
    /// Low RTT threshold: below it, increase additively.
    pub t_low_us: u32,
    /// High RTT threshold: above it, decrease multiplicatively.
    pub t_high_us: u32,
    /// Multiplicative decrease factor β.
    pub beta: f64,
    /// Additive increase step in bits/second (rate mode).
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

/// Delay-gradient congestion control. The window facet mirrors the rate
/// law: slow-start doubling while the RTT stays under `t_low`, additive
/// increase below `t_low`, multiplicative decrease above `t_high`, and
/// the normalized-gradient rule in between. ECN echoes are ignored —
/// TIMELY is purely delay-based.
#[derive(Debug)]
pub struct Timely {
    mss: u32,
    cwnd: u32,
    ssthresh: u32,
    slow_start: bool,
    /// Previous RTT sample in µs for the gradient (0 = none yet).
    prev_rtt_us: u32,
    params: TimelyParams,
}

impl Timely {
    pub fn new(mss: u32) -> Self {
        Timely::with_params(mss, TimelyParams::default())
    }

    /// Creates TIMELY with custom thresholds.
    pub fn with_params(mss: u32, params: TimelyParams) -> Self {
        Timely {
            mss,
            cwnd: INIT_WINDOW_SEGS * mss,
            ssthresh: u32::MAX,
            slow_start: true,
            prev_rtt_us: 0,
            params,
        }
    }

    fn floor(&self) -> u32 {
        2 * self.mss
    }
}

impl CongCtrl for Timely {
    fn on_ack(&mut self, info: AckInfo) {
        let p = self.params;
        // No RTT sample yet: grow like slow start / CA would.
        let rtt = match info.srtt {
            Some(s) => (s.as_micros().max(1)) as u32,
            None => {
                self.cwnd = self.cwnd.saturating_add(info.acked.min(self.mss));
                return;
            }
        };
        let prev = if self.prev_rtt_us == 0 { rtt } else { self.prev_rtt_us };
        self.prev_rtt_us = rtt;
        if self.slow_start {
            if rtt > p.t_low_us {
                self.slow_start = false;
                self.ssthresh = self.cwnd;
            } else {
                self.cwnd = self.cwnd.saturating_add(info.acked.min(self.mss));
                return;
            }
        }
        if rtt < p.t_low_us {
            self.cwnd = self.cwnd.saturating_add(self.mss);
        } else if rtt > p.t_high_us {
            let factor = 1.0 - p.beta * (1.0 - p.t_high_us as f64 / rtt as f64);
            self.cwnd = ((self.cwnd as f64 * factor) as u32).max(self.floor());
        } else {
            let gradient = (rtt as f64 - prev as f64) / p.min_rtt_us as f64;
            if gradient <= 0.0 {
                self.cwnd = self.cwnd.saturating_add(self.mss);
            } else {
                let factor = 1.0 - p.beta * gradient.min(1.0);
                self.cwnd = ((self.cwnd as f64 * factor) as u32).max(self.floor());
            }
        }
    }

    fn on_timeout(&mut self) {
        self.ssthresh = (self.cwnd / 2).max(self.floor());
        self.cwnd = self.mss;
        self.slow_start = false;
    }

    fn on_fast_retransmit(&mut self) {
        self.ssthresh = (self.cwnd / 2).max(self.floor());
        self.cwnd = self.ssthresh;
        self.slow_start = false;
    }

    fn cwnd(&self) -> u32 {
        self.cwnd
    }

    fn ssthresh(&self) -> u32 {
        self.ssthresh
    }

    fn name(&self) -> &'static str {
        "timely"
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
    let prev = if st.prev_rtt_us == 0 { rtt } else { st.prev_rtt_us };
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
