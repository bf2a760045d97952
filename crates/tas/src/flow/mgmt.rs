//! `FpConnMgmt`: the flow's identity, timestamp echo, RTT estimate and
//! lifecycle flag. The fields are private to this module: writes go
//! through the `&mut self` methods here, reads through getters.

use tas_proto::{FlowKey, MacAddr};

/// Connection-management component: identity, timestamps, RTT tracking,
/// and lifecycle (slow-path teardown coordination).
#[derive(Debug)]
pub struct FpConnMgmt {
    /// Application-defined flow identifier, relayed in notifications.
    opaque: u64,
    /// RX/TX context queue number.
    context: u16,
    /// The flow's 4-tuple (local_port + peer ip|port; peer MAC is carried
    /// in `peer_mac` for segmentation).
    key: FlowKey,
    /// Peer MAC for header construction.
    peer_mac: MacAddr,
    /// Most recent peer timestamp value, echoed in TSecr.
    ts_recent: u32,
    /// RTT estimate in microseconds (rtt_est), EWMA from timestamps.
    rtt_est_us: u32,
    /// The application closed this flow; the slow path is draining it.
    closing: bool,
}

impl FpConnMgmt {
    /// Component state at flow installation.
    pub fn new(
        opaque: u64,
        context: u16,
        key: FlowKey,
        peer_mac: MacAddr,
        ts_recent: u32,
    ) -> FpConnMgmt {
        FpConnMgmt {
            opaque,
            context,
            key,
            peer_mac,
            ts_recent,
            rtt_est_us: 0,
            closing: false,
        }
    }

    /// Application-defined flow identifier, relayed in notifications.
    #[inline]
    pub fn opaque(&self) -> u64 {
        self.opaque
    }

    /// RX/TX context queue number.
    #[inline]
    pub fn context(&self) -> u16 {
        self.context
    }

    /// The flow's 4-tuple.
    #[inline]
    pub fn key(&self) -> FlowKey {
        self.key
    }

    /// Peer MAC for header construction.
    #[inline]
    pub fn peer_mac(&self) -> MacAddr {
        self.peer_mac
    }

    /// Most recent peer timestamp value, echoed in TSecr.
    #[inline]
    pub fn ts_recent(&self) -> u32 {
        self.ts_recent
    }

    /// RTT estimate in microseconds; 0 until the first sample.
    #[inline]
    pub fn rtt_est_us(&self) -> u32 {
        self.rtt_est_us
    }

    /// The application closed this flow; the slow path is draining it.
    #[inline]
    pub fn closing(&self) -> bool {
        self.closing
    }

    /// Records the peer's latest timestamp value for echo.
    pub fn note_ts(&mut self, tsval: u32) {
        self.ts_recent = tsval;
    }

    /// Folds one RTT sample (µs) into the estimate (EWMA 7/8, like the
    /// kernel's SRTT). The sample derives from a peer-controlled TSecr and
    /// can be anywhere in `u32`, so the weighted sum is taken in `u64`; the
    /// result is at most `max(estimate, sample)` and fits back.
    pub fn rtt_sample(&mut self, sample_us: u32) {
        self.rtt_est_us = if self.rtt_est_us == 0 {
            sample_us
        } else {
            ((self.rtt_est_us as u64 * 7 + sample_us as u64) / 8) as u32
        };
    }

    /// The application closed the flow; teardown is deferred until the
    /// transmit buffer drains.
    pub fn mark_closing(&mut self) {
        self.closing = true;
    }
}
