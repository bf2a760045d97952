//! `RecvRel`: receive-side reliability and ordered delivery — the
//! in-order receive ring, the out-of-order reassembler, and the receive
//! frontier (`rcv_nxt` as a stream offset). The fields are private to
//! this module: all mutation goes through `&mut self` methods here,
//! everything else reads through getters.

use crate::reasm::Reassembler;
use tas_proto::tcp::Seq;
use tas_shm::ByteRing;

/// Receive-reliability component: owns ordered delivery to the
/// application.
#[derive(Debug)]
pub struct RecvRel {
    /// Initial receive sequence number (peer's ISS).
    irs: Seq,
    /// Stream offset of the next in-order byte expected (`rcv_nxt`).
    rcv_off: u64,
    /// In-order receive buffer the application reads from.
    rx: ByteRing,
    /// Out-of-order segment store (SACK-style receiver).
    reasm: Reassembler,
}

impl RecvRel {
    pub(crate) fn new(recv_buf: usize) -> RecvRel {
        RecvRel {
            irs: Seq(0),
            rcv_off: 0,
            rx: ByteRing::new(recv_buf),
            reasm: Reassembler::new(recv_buf),
        }
    }

    /// Initial receive sequence number (peer's ISS).
    #[inline]
    pub fn irs(&self) -> Seq {
        self.irs
    }

    /// Stream offset of the next in-order byte expected (`rcv_nxt`).
    #[inline]
    pub fn rcv_off(&self) -> u64 {
        self.rcv_off
    }

    /// Read view of the in-order receive buffer.
    #[inline]
    pub fn rx(&self) -> &ByteRing {
        &self.rx
    }

    /// Read view of the out-of-order segment store.
    #[inline]
    pub fn reasm(&self) -> &Reassembler {
        &self.reasm
    }

    /// Latches the peer's ISS and resets the frontier (handshake).
    pub(crate) fn init_irs(&mut self, irs: Seq) {
        self.irs = irs;
        self.rcv_off = 0;
    }

    /// Commits in-order payload to the receive ring, bounded by free
    /// space; advances the frontier and returns the bytes taken.
    pub(crate) fn commit_in_order(&mut self, fresh: &[u8]) -> usize {
        let take = fresh.len().min(self.rx.free());
        let n = if self.rx.append(&fresh[..take]).is_ok() {
            take
        } else {
            debug_assert!(false, "take bounded by free space");
            0
        };
        self.rcv_off += n as u64;
        // A retransmission can carry bytes we already buffered out of
        // order; tell the reassembler the frontier moved past them so
        // overlapped chunks are trimmed, not stranded.
        self.reasm.advance_frontier(self.rcv_off);
        n
    }

    /// Pulls any now-contiguous reassembled run into the ring; returns
    /// the bytes delivered.
    pub(crate) fn drain_reassembled(&mut self) -> usize {
        let Some(run) = self.reasm.pop_ready(self.rcv_off) else {
            return 0;
        };
        let take = run.len().min(self.rx.free());
        if self.rx.append(&run[..take]).is_ok() {
            self.rcv_off += take as u64;
            take
        } else {
            debug_assert!(false, "reassembled run bounded by rx.free()");
            0
        }
    }

    /// Stores an out-of-order chunk at stream offset `off`.
    pub(crate) fn insert_ooo(&mut self, off: u64, data: Vec<u8>) {
        self.reasm.insert(off, data);
    }

    /// Hands up to `max` in-order bytes to the application in place
    /// ([`ByteRing::read_with`]); returns the bytes it took.
    pub(crate) fn read_with(&mut self, max: usize, f: impl FnMut(&[u8]) -> usize) -> usize {
        self.rx.read_with(max, f)
    }
}
