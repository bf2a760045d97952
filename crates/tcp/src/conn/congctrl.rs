//! `CongCtrl`: congestion control and ECN — the pluggable window
//! algorithm (a `tas_cc::CongCtrl` trait object) plus the ECN
//! negotiation/echo state that feeds it. The fields are private to this
//! module: all mutation goes through `&mut self` methods here, everything
//! else reads through getters.

use tas_cc::{make_cc, AckInfo, CcKind};
use tas_sim::prof_scope;

/// Congestion-control component: owns the algorithm and ECN state.
#[derive(Debug)]
pub struct CongCtrl {
    /// The window congestion-control algorithm.
    algo: Box<dyn tas_cc::CongCtrl>,
    /// ECN negotiated on this connection.
    ecn_active: bool,
    /// RFC 3168 latched receiver echo (NewReno); cleared by sender CWR.
    ece_latched: bool,
    /// DCTCP-style per-packet echo: the last data segment was CE-marked.
    last_seg_ce: bool,
    /// Set CWR on the next outgoing data segment.
    cwr_pending: bool,
    /// NewReno ECE guard: ignore further ECE until `una_off` passes this
    /// offset (at most one window reduction per RTT, RFC 3168 §6.1.2).
    ece_guard_off: u64,
}

impl CongCtrl {
    pub(crate) fn new(kind: CcKind, mss: u32) -> CongCtrl {
        CongCtrl {
            algo: make_cc(kind, mss),
            ecn_active: false,
            ece_latched: false,
            last_seg_ce: false,
            cwr_pending: false,
            ece_guard_off: 0,
        }
    }

    /// The algorithm's current congestion window in bytes.
    #[inline]
    pub fn cwnd(&self) -> u32 {
        self.algo.cwnd()
    }

    /// ECN negotiated on this connection.
    #[inline]
    pub fn ecn_active(&self) -> bool {
        self.ecn_active
    }

    /// RFC 3168 latched receiver echo (NewReno); cleared by sender CWR.
    #[inline]
    pub fn ece_latched(&self) -> bool {
        self.ece_latched
    }

    /// The last data segment was CE-marked (DCTCP per-packet echo).
    #[inline]
    pub fn last_seg_ce(&self) -> bool {
        self.last_seg_ce
    }

    /// Records the ECN negotiation outcome from the handshake.
    pub(crate) fn set_active(&mut self, active: bool) {
        self.ecn_active = active;
    }

    /// Feeds one ACK to the algorithm (profiled per algorithm name).
    pub(crate) fn on_ack(&mut self, info: AckInfo) {
        prof_scope!(self.algo.name());
        self.algo.on_ack(info);
    }

    /// Algorithm response to a retransmission timeout.
    pub(crate) fn on_timeout(&mut self) {
        prof_scope!(self.algo.name());
        self.algo.on_timeout();
    }

    /// Algorithm response to entering fast recovery.
    pub(crate) fn on_fast_retransmit(&mut self) {
        prof_scope!(self.algo.name());
        self.algo.on_fast_retransmit();
    }

    /// Records the CE mark state of the data segment just received; CE
    /// latches the classic (RFC 3168) echo.
    pub(crate) fn note_ce(&mut self, ce: bool) {
        self.last_seg_ce = ce;
        if ce {
            self.ece_latched = true;
        }
    }

    /// Sender signalled CWR: stop the latched echo.
    pub(crate) fn clear_latch_on_cwr(&mut self) {
        self.ece_latched = false;
    }

    /// Consumes a pending CWR flag for the next data segment.
    pub(crate) fn take_cwr_pending(&mut self) -> bool {
        let p = self.cwr_pending;
        self.cwr_pending = false;
        p
    }

    /// Classic (NewReno) once-per-RTT ECE gate: passes the echo
    /// through only when `una_off` has cleared the guard, then re-arms
    /// the guard at `nxt_off` and schedules a CWR.
    pub(crate) fn classic_ece_gate(&mut self, ece: bool, una_off: u64, nxt_off: u64) -> bool {
        if ece && una_off >= self.ece_guard_off {
            self.cwr_pending = true;
            self.ece_guard_off = nxt_off;
            true
        } else {
            false
        }
    }
}
