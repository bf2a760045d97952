//! `FpRecvRel`: the receive ring and the single tracked out-of-order
//! interval. Apart from the ring (the shared-memory surface libTAS reads
//! from), the fields are private to this module: reads go through
//! getters, and the one write is [`FpRecvRel::place`] — the whole receive
//! placement policy (trim, in-order append and merge, the single-interval
//! decision, horizon) is this component's step, not the orchestrator's.

use tas_proto::tcp::Seq;
use tas_shm::ByteRing;

/// What [`FpRecvRel::place`] did with one data segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placed {
    /// This many new in-order bytes are readable: the segment and, when
    /// it closed the gap, the staged interval behind it ("as if one big
    /// segment arrived").
    InOrder(u32),
    /// Written beyond the frontier; the tracked interval started or grew.
    Staged,
    /// Nothing new: wholly below the frontier or inside the interval.
    Duplicate,
    /// Out of order and not placeable: go-back-N mode, past the buffer
    /// horizon, or not adjacent to the single interval.
    Dropped,
    /// In order, but the payload buffer has no room (§3.1: drop).
    BufFull,
}

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
    irs: Seq,
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
            irs: Seq(irs),
            ooo_start: 0,
            ooo_len: 0,
        }
    }

    /// Peer initial sequence number; peer seq = irs + 1 + rx offset.
    #[inline]
    pub fn irs(&self) -> Seq {
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

    /// Places one data segment starting at peer sequence number `seg_seq`.
    /// `track_ooo = false` is go-back-N: everything out of order drops.
    #[inline]
    pub fn place(&mut self, seg_seq: Seq, mut data: &[u8], track_ooo: bool) -> Placed {
        let frontier = self.rx.end_offset();
        let expected = self.irs + 1 + frontier as u32;
        // Trim a partially-old segment against the frontier.
        let ahead = if seg_seq.lt(expected) {
            data = data.get((expected - seg_seq) as usize..).unwrap_or(&[]);
            0
        } else {
            (seg_seq - expected) as u64
        };
        if data.is_empty() {
            return Placed::Duplicate;
        }
        let n = data.len() as u64;
        let int_end = self.ooo_start + self.ooo_len as u64;
        if ahead == 0 {
            // Common case: deposit straight into the user-space buffer.
            if self.rx.append(data).is_err() {
                return Placed::BufFull;
            }
            let mut readable = n;
            if self.ooo_len > 0 && self.ooo_start <= frontier + n {
                // The gap just closed: commit the staged run as well.
                let staged = int_end.saturating_sub(frontier + n);
                if self.rx.advance_end(staged).is_ok() {
                    readable += staged;
                } else {
                    debug_assert!(false, "ooo interval within the ring");
                }
                self.ooo_len = 0;
            }
            return Placed::InOrder(readable as u32);
        }
        // Fast-path exception #2: one tracked out-of-order interval
        // within the receive buffer.
        let off = frontier + ahead;
        let horizon = self.rx.start_offset() + self.rx.capacity() as u64;
        let (start, len) = if !track_ooo || off + n > horizon {
            return Placed::Dropped;
        } else if self.ooo_len == 0 {
            (off, n)
        } else if off >= self.ooo_start && off + n <= int_end {
            return Placed::Duplicate;
        } else if off == int_end {
            (self.ooo_start, self.ooo_len as u64 + n)
        } else if off + n == self.ooo_start {
            (off, self.ooo_len as u64 + n)
        } else {
            // Not mergeable with the single interval: drop; the ACK the
            // caller sends triggers fast retransmission at the peer.
            return Placed::Dropped;
        };
        if self.rx.write_at(off, data).is_err() {
            debug_assert!(false, "ooo write fits by horizon check");
            return Placed::Dropped;
        }
        self.ooo_start = start;
        self.ooo_len = len as u32;
        Placed::Staged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One row: segments placed first, then the segment under test, and
    /// what must hold afterwards (interval tracking on throughout).
    struct Case {
        name: &'static str,
        pre: &'static [(u32, &'static [u8])],
        seg: (u32, &'static [u8]),
        want: Placed,
        /// Everything readable in order afterwards.
        readable: &'static [u8],
        /// `(ooo_start, ooo_len)`; the start is only compared when tracked.
        interval: (u64, u32),
    }

    #[test]
    fn placement_outcomes() {
        // A 16-byte ring and irs 999: stream offset 0 is sequence 1000.
        let cases = [
            Case {
                name: "in-order",
                pre: &[],
                seg: (1000, b"abcd"),
                want: Placed::InOrder(4),
                readable: b"abcd",
                interval: (0, 0),
            },
            Case {
                name: "in-order closing the gap notifies the whole run",
                pre: &[(1004, b"EFGH")],
                seg: (1000, b"abcd"),
                want: Placed::InOrder(8),
                readable: b"abcdEFGH",
                interval: (0, 0),
            },
            Case {
                name: "stage",
                pre: &[],
                seg: (1004, b"EFGH"),
                want: Placed::Staged,
                readable: b"",
                interval: (4, 4),
            },
            Case {
                name: "extend tail",
                pre: &[(1004, b"EF")],
                seg: (1006, b"GH"),
                want: Placed::Staged,
                readable: b"",
                interval: (4, 4),
            },
            Case {
                name: "extend head",
                pre: &[(1006, b"GH")],
                seg: (1004, b"EF"),
                want: Placed::Staged,
                readable: b"",
                interval: (4, 4),
            },
            Case {
                name: "extended both ways, then merged in stream order",
                pre: &[(1006, b"GH"), (1004, b"EF"), (1008, b"IJ")],
                seg: (1000, b"abcd"),
                want: Placed::InOrder(10),
                readable: b"abcdEFGHIJ",
                interval: (0, 0),
            },
            Case {
                name: "duplicate inside the interval",
                pre: &[(1004, b"EFGH")],
                seg: (1005, b"FG"),
                want: Placed::Duplicate,
                readable: b"",
                interval: (4, 4),
            },
            Case {
                name: "unmergeable with the single interval",
                pre: &[(1004, b"EF")],
                seg: (1010, b"KL"),
                want: Placed::Dropped,
                readable: b"",
                interval: (4, 2),
            },
            Case {
                name: "beyond the horizon",
                pre: &[],
                seg: (1014, b"xyz"),
                want: Placed::Dropped,
                readable: b"",
                interval: (0, 0),
            },
            Case {
                name: "partially old segment trimmed",
                pre: &[(1000, b"abcd")],
                seg: (1002, b"cdef"),
                want: Placed::InOrder(2),
                readable: b"abcdef",
                interval: (0, 0),
            },
            Case {
                name: "wholly old segment",
                pre: &[(1000, b"abcd")],
                seg: (1000, b"abcd"),
                want: Placed::Duplicate,
                readable: b"abcd",
                interval: (0, 0),
            },
            Case {
                name: "in order but no room",
                pre: &[(1000, b"0123456789abcde")],
                seg: (1015, b"fg"),
                want: Placed::BufFull,
                readable: b"0123456789abcde",
                interval: (0, 0),
            },
        ];
        for c in cases {
            let mut rcv = FpRecvRel::new(ByteRing::new(16), 999);
            for (seq, data) in c.pre {
                rcv.place(Seq(*seq), data, true);
            }
            let got = rcv.place(Seq(c.seg.0), c.seg.1, true);
            assert_eq!(got, c.want, "{}", c.name);
            assert_eq!(rcv.ooo_len(), c.interval.1, "{}: interval length", c.name);
            if c.interval.1 > 0 {
                assert_eq!(rcv.ooo_start(), c.interval.0, "{}: interval start", c.name);
            }
            assert_eq!(rcv.rx.pop(16), c.readable, "{}: ring contents", c.name);
        }
        // Go-back-N mode: what would have been staged drops, untracked.
        let mut rcv = FpRecvRel::new(ByteRing::new(16), 999);
        assert_eq!(rcv.place(Seq(1004), b"EFGH", false), Placed::Dropped);
        assert_eq!((rcv.ooo_len(), rcv.rx.len()), (0, 0));
    }

    #[test]
    fn staged_interval_and_its_merge_wrap_the_ring() {
        // The 16-byte ring advanced by 12 bytes first, so sequence 1012
        // sits at slot 12: "DEFG" is staged across the physical end
        // (slots 15, 0..2), "H" extends it at slot 3, and "abc" closes the
        // gap, committing eight bytes that wrap.
        let mut rcv = FpRecvRel::new(ByteRing::new(16), 999);
        assert_eq!(rcv.place(Seq(1000), &[0; 12], true), Placed::InOrder(12));
        rcv.rx.consume(12).unwrap();
        assert_eq!(rcv.place(Seq(1015), b"DEFG", true), Placed::Staged);
        assert_eq!(rcv.place(Seq(1019), b"H", true), Placed::Staged);
        assert_eq!((rcv.ooo_start(), rcv.ooo_len()), (15, 5));
        assert_eq!(rcv.place(Seq(1012), b"abc", true), Placed::InOrder(8));
        assert_eq!(rcv.ooo_len(), 0);
        assert_eq!(rcv.rx.pop(16), b"abcDEFGH");
    }
}
