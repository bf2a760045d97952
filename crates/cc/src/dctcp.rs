//! DCTCP (Alizadeh et al., SIGCOMM 2010): ECN-mark-fraction-proportional
//! backoff, as a window algorithm (per-connection) and as the rate law
//! [`dctcp_rate`] (TAS slow path, paper §3.2 "DCTCP-style rate control").

use tas_sim::SimTime;

use crate::{
    AckInfo, CcState, CongCtrl, RateFeedback, INIT_WINDOW_SEGS, MAX_RATE_BPS, MIN_RATE_BPS,
};

/// EWMA gain g of the alpha estimate, in both modes.
const GAIN: f64 = 1.0 / 16.0;
/// Rate mode: additive increase per control interval, bits/second.
const RATE_AI_BPS: u64 = 10_000_000;
/// Rate mode: the rate may not exceed the measured achieved rate times
/// this.
const RATE_CAP_FACTOR: f64 = 1.2;

/// Window-mode DCTCP with per-RTT mark-fraction estimation.
#[derive(Debug)]
pub struct Dctcp {
    mss: u32,
    cwnd: u32,
    ssthresh: u32,
    acked_accum: u32,
    /// EWMA of the fraction of marked bytes.
    alpha: f64,
    /// Bytes acked in the current observation window.
    bytes_acked_win: u64,
    /// Of those, bytes whose ACKs carried ECE.
    bytes_marked_win: u64,
    /// End of the current observation window (~1 RTT).
    window_end: Option<SimTime>,
    /// Whether we already reduced cwnd in this window.
    reduced_this_window: bool,
}

impl Dctcp {
    pub fn new(mss: u32) -> Self {
        Dctcp {
            mss,
            cwnd: INIT_WINDOW_SEGS * mss,
            ssthresh: u32::MAX,
            acked_accum: 0,
            // Start at 1.0: react strongly to early marks (standard).
            alpha: 1.0,
            bytes_acked_win: 0,
            bytes_marked_win: 0,
            window_end: None,
            reduced_this_window: false,
        }
    }

    /// Current alpha estimate (mark-fraction EWMA).
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Closes out the observation window if ~1 RTT has elapsed: folds
    /// the mark fraction into alpha and starts a fresh window.
    fn roll_window(&mut self, info: &AckInfo) {
        let rtt = info.srtt.unwrap_or(SimTime::from_us(100));
        match self.window_end {
            Some(end) if info.now < end => {}
            _ => {
                if self.bytes_acked_win > 0 {
                    let f = self.bytes_marked_win as f64 / self.bytes_acked_win as f64;
                    self.alpha = (1.0 - GAIN) * self.alpha + GAIN * f;
                }
                self.bytes_acked_win = 0;
                self.bytes_marked_win = 0;
                self.window_end = Some(info.now + rtt);
                self.reduced_this_window = false;
            }
        }
    }
}

impl CongCtrl for Dctcp {
    fn on_ack(&mut self, info: AckInfo) {
        self.roll_window(&info);
        self.bytes_acked_win += info.acked as u64;
        if info.ece {
            self.bytes_marked_win += info.acked as u64;
            if self.cwnd < self.ssthresh {
                // A mark ends slow start.
                self.ssthresh = self.cwnd;
            }
            if !self.reduced_this_window {
                self.reduced_this_window = true;
                // The DCTCP law: cwnd *= (1 - alpha/2).
                let reduce = (self.cwnd as f64 * self.alpha / 2.0) as u32;
                self.cwnd = self.cwnd.saturating_sub(reduce).max(2 * self.mss);
                self.ssthresh = self.cwnd;
                return;
            }
        }
        if self.cwnd < self.ssthresh {
            self.cwnd = self.cwnd.saturating_add(info.acked.min(self.mss));
        } else {
            self.acked_accum += info.acked;
            if self.acked_accum >= self.cwnd {
                self.acked_accum -= self.cwnd;
                self.cwnd = self.cwnd.saturating_add(self.mss);
            }
        }
    }

    fn on_timeout(&mut self) {
        self.ssthresh = (self.cwnd / 2).max(2 * self.mss);
        self.cwnd = self.mss;
    }

    fn on_fast_retransmit(&mut self) {
        // Actual loss (not just a mark): fall back to Reno halving.
        self.ssthresh = (self.cwnd / 2).max(2 * self.mss);
        self.cwnd = self.ssthresh;
    }

    fn cwnd(&self) -> u32 {
        self.cwnd
    }

    fn ssthresh(&self) -> u32 {
        self.ssthresh
    }

    fn name(&self) -> &'static str {
        "dctcp"
    }
}

/// One DCTCP rate-law iteration (paper §3.2 and §5.5): folds one control
/// interval's feedback into the flow's `st` and returns its new rate in
/// bits/second.
pub fn dctcp_rate(st: &mut CcState, fb: RateFeedback, current_bps: u64, interval_secs: f64) -> u64 {
    let mut rate = current_bps as f64;

    // Track the achieved rate so the target can't run away from
    // what the flow actually moves (TIMELY-paper-style rate cap).
    if fb.ackb > 0 {
        let measured = fb.ackb as f64 * 8.0 / interval_secs;
        st.rate_ewma = if st.rate_ewma == 0.0 {
            measured
        } else {
            0.8 * st.rate_ewma + 0.2 * measured
        };
        rate = rate.min(st.rate_ewma.max(measured) * RATE_CAP_FACTOR);
        // alpha <- (1-g)*alpha + g*F, F = marked fraction this interval.
        let f = (fb.ecnb as f64 / fb.ackb as f64).min(1.0);
        st.alpha = (1.0 - GAIN) * st.alpha + GAIN * f;
    }

    let congested = fb.ecnb > 0 || fb.frexmits > 0;
    if congested {
        st.slow_start = false;
    }

    if fb.frexmits > 0 {
        // Loss: multiplicative decrease, classic halving.
        rate /= 2.0;
    } else if fb.ecnb > 0 {
        // Marks only: gentle DCTCP reduction by alpha/2.
        rate *= 1.0 - st.alpha / 2.0;
    } else if st.slow_start {
        rate *= 2.0;
    } else if fb.ackb > 0 {
        rate += RATE_AI_BPS as f64;
    }

    (rate as u64).clamp(MIN_RATE_BPS, MAX_RATE_BPS)
}
