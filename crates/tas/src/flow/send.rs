//! `FpSendRel`: the transmit ring, in-flight accounting, duplicate-ACK
//! recovery and pacing-timer arming. Apart from the ring
//! (the shared-memory surface libTAS appends to), the fields are private
//! to this module: writes go through the `&mut self` methods here, reads
//! through getters.

use tas_proto::tcp::Seq;
use tas_shm::ByteRing;

/// Send-reliability component: the transmit ring, in-flight accounting,
/// duplicate-ACK recovery, and pacing-timer arming.
#[derive(Debug)]
pub struct FpSendRel {
    /// Per-flow transmit payload buffer (tx_start|size|head|tail).
    /// `start_offset` is the unacknowledged base; the application appends
    /// at `end_offset`. Public by design: the ring lives in memory shared
    /// with the application, which writes it without entering TAS (§3.1).
    pub tx: ByteRing,
    /// Sent-but-unacknowledged bytes from the TX base (tx_sent).
    tx_sent: u64,
    /// Highest TX stream offset ever transmitted (recovery resets
    /// `tx_sent` "as if those segments had not been sent", but cumulative
    /// ACKs for them must still be accepted).
    max_sent_off: u64,
    /// Local initial sequence number; local seq = iss + 1 + tx offset.
    iss: Seq,
    /// Duplicate ACK count (dupack_cnt).
    dupack_cnt: u8,
    /// A TX-poll timer is armed for this flow (rate pacing).
    tx_timer_armed: bool,
}

impl FpSendRel {
    /// Component state at flow installation.
    pub fn new(tx: ByteRing, iss: u32) -> FpSendRel {
        FpSendRel {
            tx,
            tx_sent: 0,
            max_sent_off: 0,
            iss: Seq(iss),
            dupack_cnt: 0,
            tx_timer_armed: false,
        }
    }

    /// Sent-but-unacknowledged bytes from the TX base (tx_sent).
    #[inline]
    pub fn tx_sent(&self) -> u64 {
        self.tx_sent
    }

    /// Highest TX stream offset ever transmitted.
    #[inline]
    pub fn max_sent_off(&self) -> u64 {
        self.max_sent_off
    }

    /// Local initial sequence number; local seq = iss + 1 + tx offset.
    #[inline]
    pub fn iss(&self) -> Seq {
        self.iss
    }

    /// Duplicate ACK count (dupack_cnt).
    #[inline]
    pub fn dupack_cnt(&self) -> u8 {
        self.dupack_cnt
    }

    /// A TX-poll timer is armed for this flow (rate pacing).
    #[inline]
    pub fn tx_timer_armed(&self) -> bool {
        self.tx_timer_armed
    }

    /// Absolute TX offset of the next unsent byte.
    #[inline]
    pub fn nxt_off(&self) -> u64 {
        self.tx.start_offset() + self.tx_sent
    }

    /// Buffered bytes not yet transmitted.
    #[inline]
    pub fn unsent(&self) -> u64 {
        self.tx.end_offset().saturating_sub(self.nxt_off())
    }

    /// Progress at the left edge: releases `newly` cumulatively
    /// acknowledged bytes from the ring and the in-flight count and
    /// restarts duplicate-ACK counting; false on ring-accounting failure
    /// (the caller degrades by ignoring the ACK).
    pub fn consume_acked(&mut self, newly: u64) -> bool {
        if self.tx.consume(newly).is_err() {
            return false;
        }
        self.tx_sent = self.tx_sent.saturating_sub(newly);
        self.dupack_cnt = 0;
        true
    }

    /// Counts one duplicate ACK; on the third, fast recovery rewinds the
    /// sender (§3.1) and this returns true.
    pub fn dupack(&mut self) -> bool {
        self.dupack_cnt = self.dupack_cnt.saturating_add(1);
        let recover = self.dupack_cnt >= 3;
        if recover {
            self.rewind();
        }
        recover
    }

    /// Go-back-N, for fast recovery and the slow path's timeout alike:
    /// reset the sender as if unacked segments were never sent (§3.1).
    pub fn rewind(&mut self) {
        self.tx_sent = 0;
        self.dupack_cnt = 0;
    }

    /// Records `n` freshly transmitted bytes.
    pub fn note_sent(&mut self, n: u64) {
        self.tx_sent += n;
        self.max_sent_off = self.max_sent_off.max(self.nxt_off());
    }

    /// Arms the pacing timer; false if one is already pending.
    pub fn arm_tx_timer(&mut self) -> bool {
        !std::mem::replace(&mut self.tx_timer_armed, true)
    }

    /// The pacing timer fired (or was consumed).
    pub fn clear_tx_timer(&mut self) {
        self.tx_timer_armed = false;
    }
}
