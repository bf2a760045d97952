//! TCP NewReno: classic loss-based AIMD (RFC 6582 flavor).

use crate::{AckInfo, CongCtrl, INIT_WINDOW_SEGS};

/// Window-based NewReno. ECN echoes are treated like loss (RFC 3168
/// §6.1.2): one halving per echo, same as a fast retransmit.
#[derive(Debug)]
pub struct NewReno {
    mss: u32,
    cwnd: u32,
    ssthresh: u32,
    /// Bytes acked since the last congestion-avoidance increment.
    acked_accum: u32,
}

impl NewReno {
    pub fn new(mss: u32) -> Self {
        NewReno {
            mss,
            cwnd: INIT_WINDOW_SEGS * mss,
            ssthresh: u32::MAX,
            acked_accum: 0,
        }
    }

    fn halve(&mut self) {
        self.ssthresh = (self.cwnd / 2).max(2 * self.mss);
        self.cwnd = self.ssthresh;
    }
}

impl CongCtrl for NewReno {
    fn on_ack(&mut self, info: AckInfo) {
        if info.ece {
            self.halve();
            return;
        }
        if self.cwnd < self.ssthresh {
            // Slow start: cwnd += min(acked, MSS) per ACK.
            self.cwnd = self.cwnd.saturating_add(info.acked.min(self.mss));
        } else {
            // Congestion avoidance: one MSS per window's worth of ACKs.
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
        self.halve();
    }

    fn cwnd(&self) -> u32 {
        self.cwnd
    }

    fn ssthresh(&self) -> u32 {
        self.ssthresh
    }

    fn name(&self) -> &'static str {
        "newreno"
    }
}
