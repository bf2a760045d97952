//! `FpRecvRel`: the receive ring and the single tracked out-of-order
//! interval. Apart from the ring (the shared-memory surface libTAS reads
//! from), the fields are private to this module: writes go through the
//! `&mut self` methods here, reads through getters.

use tas_shm::ByteRing;

/// Receive-reliability component: the receive ring and the single
/// tracked out-of-order interval.
#[derive(Debug)]
pub struct FpRecvRel {
    /// Per-flow receive payload buffer in user-space memory
    /// (rx_start|size|head|tail). `end_offset` is the in-order frontier;
    /// `start_offset` advances as the application reads. Public by design:
    /// the ring lives in memory shared with the application, which
    /// consumes it without entering TAS (§3.1).
    pub rx: ByteRing,
    /// Peer initial sequence number; peer seq = irs + 1 + rx offset.
    irs: u32,
    /// Out-of-order interval start as an absolute RX stream offset
    /// (ooo_start); meaningful when `ooo_len > 0`.
    ooo_start: u64,
    /// Out-of-order interval length (ooo_len).
    ooo_len: u32,
}

impl FpRecvRel {
    /// Component state at flow installation.
    pub fn new(rx: ByteRing, irs: u32) -> FpRecvRel {
        FpRecvRel {
            rx,
            irs,
            ooo_start: 0,
            ooo_len: 0,
        }
    }

    /// Peer initial sequence number; peer seq = irs + 1 + rx offset.
    #[inline]
    pub fn irs(&self) -> u32 {
        self.irs
    }

    /// Out-of-order interval start as an absolute RX stream offset;
    /// meaningful when `ooo_len() > 0`.
    #[inline]
    pub fn ooo_start(&self) -> u64 {
        self.ooo_start
    }

    /// Out-of-order interval length; 0 when no interval is tracked.
    #[inline]
    pub fn ooo_len(&self) -> u32 {
        self.ooo_len
    }

    /// The gap closed (or the interval merged): drop the interval.
    pub fn clear_ooo(&mut self) {
        self.ooo_len = 0;
    }

    /// Starts tracking a fresh out-of-order interval.
    pub fn set_ooo(&mut self, start: u64, len: u32) {
        self.ooo_start = start;
        self.ooo_len = len;
    }

    /// Extends the tracked interval at its tail.
    pub fn grow_ooo_tail(&mut self, n: u32) {
        self.ooo_len += n;
    }

    /// Extends the tracked interval at its head (new start, longer run).
    pub fn grow_ooo_head(&mut self, new_start: u64, n: u32) {
        self.ooo_start = new_start;
        self.ooo_len += n;
    }
}
