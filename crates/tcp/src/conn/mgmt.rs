//! `ConnMgmt`: connection lifecycle state — the RFC 793 state machine,
//! open/close progress (FIN bookkeeping on both sides), the TIME_WAIT
//! timer, and the timestamp echo. The fields are private to this module:
//! all mutation goes through `&mut self` methods here, everything else
//! reads through getters.

use tas_sim::SimTime;

use super::{EndpointInfo, TcpState};

/// Connection-management component: owns the state machine and
/// open/close bookkeeping.
#[derive(Debug)]
pub struct ConnMgmt {
    /// Current RFC 793 state.
    state: TcpState,
    /// Local addressing.
    local: EndpointInfo,
    /// Remote addressing.
    remote: EndpointInfo,
    /// TIME_WAIT expiry, when in TIME_WAIT.
    time_wait_deadline: Option<SimTime>,
    /// Application requested close; FIN goes out once data drains.
    fin_queued: bool,
    /// Our FIN has been transmitted.
    fin_sent: bool,
    /// Our FIN has been acknowledged.
    fin_acked: bool,
    /// Stream offset of the peer's FIN, once seen.
    peer_fin_off: Option<u64>,
    /// The peer FIN has been delivered to the application.
    peer_fin_done: bool,
    /// Most recent peer TSval, echoed in our timestamps.
    ts_recent: u32,
}

impl ConnMgmt {
    pub(crate) fn new(local: EndpointInfo, remote: EndpointInfo) -> ConnMgmt {
        ConnMgmt {
            state: TcpState::Closed,
            local,
            remote,
            time_wait_deadline: None,
            fin_queued: false,
            fin_sent: false,
            fin_acked: false,
            peer_fin_off: None,
            peer_fin_done: false,
            ts_recent: 0,
        }
    }

    /// Current RFC 793 state.
    #[inline]
    pub fn state(&self) -> TcpState {
        self.state
    }

    /// Local addressing.
    #[inline]
    pub fn local(&self) -> EndpointInfo {
        self.local
    }

    /// Remote addressing.
    #[inline]
    pub fn remote(&self) -> EndpointInfo {
        self.remote
    }

    /// TIME_WAIT expiry, when in TIME_WAIT.
    #[inline]
    pub fn time_wait_deadline(&self) -> Option<SimTime> {
        self.time_wait_deadline
    }

    /// The application requested close.
    #[inline]
    pub fn fin_queued(&self) -> bool {
        self.fin_queued
    }

    /// Our FIN has been transmitted.
    #[inline]
    pub fn fin_sent(&self) -> bool {
        self.fin_sent
    }

    /// Our FIN has been acknowledged.
    #[inline]
    pub fn fin_acked(&self) -> bool {
        self.fin_acked
    }

    /// Stream offset of the peer's FIN, once seen.
    #[inline]
    pub fn peer_fin_off(&self) -> Option<u64> {
        self.peer_fin_off
    }

    /// Most recent peer TSval.
    #[inline]
    pub fn ts_recent(&self) -> u32 {
        self.ts_recent
    }

    /// Transitions the state machine.
    pub(crate) fn set_state(&mut self, s: TcpState) {
        self.state = s;
    }

    /// Records the peer's most recent TSval for echo.
    pub(crate) fn note_ts(&mut self, tsval: u32) {
        self.ts_recent = tsval;
    }

    /// Marks the application's close request; returns false if already
    /// queued (close is idempotent).
    pub(crate) fn queue_fin(&mut self) -> bool {
        if self.fin_queued {
            return false;
        }
        self.fin_queued = true;
        true
    }

    pub(crate) fn set_fin_sent(&mut self, sent: bool) {
        self.fin_sent = sent;
    }

    pub(crate) fn mark_fin_acked(&mut self) {
        self.fin_acked = true;
    }

    /// Remembers where the peer's FIN sits in the stream.
    pub(crate) fn set_peer_fin(&mut self, off: u64) {
        self.peer_fin_off = Some(off);
    }

    /// Marks the peer FIN as delivered; returns false if it already was.
    pub(crate) fn mark_peer_fin_done(&mut self) -> bool {
        if self.peer_fin_done {
            return false;
        }
        self.peer_fin_done = true;
        true
    }

    /// Arms the TIME_WAIT timer.
    pub(crate) fn arm_time_wait(&mut self, deadline: SimTime) {
        self.time_wait_deadline = Some(deadline);
    }

    /// Final transition to CLOSED; returns false if already closed.
    pub(crate) fn enter_closed(&mut self) -> bool {
        if self.state == TcpState::Closed {
            return false;
        }
        self.state = TcpState::Closed;
        self.time_wait_deadline = None;
        true
    }
}
