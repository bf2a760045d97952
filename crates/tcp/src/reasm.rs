//! Out-of-order segment reassembly.
//!
//! A SACK-capable receiver (the Linux model in Fig. 7) keeps *every*
//! received segment; this reassembler stores arbitrary out-of-order data
//! keyed by stream offset, bounded by the receive-buffer horizon, and
//! yields contiguous runs as holes fill. (TAS's fast path deliberately
//! keeps only a single interval instead — that lives in the `tas` crate;
//! Figure 7 compares the two.)

use std::collections::BTreeMap;

/// Bounded out-of-order reassembly buffer over stream offsets.
///
/// # Examples
///
/// ```
/// use tas_tcp::Reassembler;
/// let mut r = Reassembler::new(1024);
/// r.insert(5, b"world".to_vec());
/// assert!(r.pop_ready(0).is_none());
/// r.insert(0, b"hello".to_vec());
/// assert_eq!(r.pop_ready(0).unwrap(), b"helloworld");
/// ```
#[derive(Clone, Debug, Default)]
pub struct Reassembler {
    /// Out-of-order chunks keyed by absolute stream offset. Invariant:
    /// entries never overlap, and none start below `delivered`.
    chunks: BTreeMap<u64, Vec<u8>>,
    /// Total bytes held.
    held: usize,
    /// Maximum bytes held (receive-buffer bound).
    limit: usize,
    /// Delivered frontier: the highest offset ever handed out through
    /// [`Reassembler::pop_ready`]. Duplicates of already-delivered data
    /// (a retransmission racing the original under loss) are trimmed
    /// against it on insert, so they can never strand bytes below the
    /// frontier where no `pop_ready` cursor will ever reach them.
    delivered: u64,
}

impl Reassembler {
    /// Creates a reassembler bounded to `limit` buffered bytes.
    pub fn new(limit: usize) -> Self {
        Reassembler {
            chunks: BTreeMap::new(),
            held: 0,
            limit,
            delivered: 0,
        }
    }

    /// Bytes currently buffered out of order.
    pub fn held(&self) -> usize {
        self.held
    }

    /// Number of discontiguous chunks held.
    #[cfg(test)]
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// The delivered frontier: offset just past the last byte returned
    /// by [`Reassembler::pop_ready`].
    pub fn delivered_frontier(&self) -> u64 {
        self.delivered
    }

    /// Inserts a segment at absolute stream offset `offset`. Bytes below
    /// the delivered frontier and overlapping bytes already held are
    /// trimmed; data beyond the buffer limit is dropped. Returns the
    /// number of new bytes stored.
    pub fn insert(&mut self, offset: u64, mut data: Vec<u8>) -> usize {
        if data.is_empty() {
            return 0;
        }
        let mut offset = offset;
        // Trim against data already delivered: a duplicate of a popped
        // segment must leave no residue (held() stays 0).
        if offset < self.delivered {
            let stale = (self.delivered - offset) as usize;
            if stale >= data.len() {
                return 0; // Entirely old data.
            }
            data.drain(..stale);
            offset = self.delivered;
        }
        // Trim against the predecessor chunk.
        if let Some((&po, pdata)) = self.chunks.range(..=offset).next_back() {
            let pend = po + pdata.len() as u64;
            if pend > offset {
                let overlap = (pend - offset) as usize;
                if overlap >= data.len() {
                    return 0; // Fully contained.
                }
                data.drain(..overlap);
                offset = pend;
            }
        }
        // Trim against successors.
        let mut stored = 0;
        let end = offset + data.len() as u64;
        let successors: Vec<u64> = self.chunks.range(offset..end).map(|(&o, _)| o).collect();
        let mut pieces: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut cursor = offset;
        let mut remaining = data;
        for so in successors {
            if so > cursor {
                let take = (so - cursor) as usize;
                let rest = remaining.split_off(take);
                pieces.push((cursor, remaining));
                remaining = rest;
            }
            // Skip the bytes covered by the existing chunk at `so`.
            let covered = self.chunks[&so].len().min(remaining.len());
            remaining.drain(..covered);
            cursor = so + self.chunks[&so].len() as u64;
            if remaining.is_empty() {
                break;
            }
        }
        if !remaining.is_empty() && cursor < end {
            pieces.push((cursor, remaining));
        }
        for (o, d) in pieces {
            if d.is_empty() {
                continue;
            }
            // Respect the byte limit.
            if self.held + d.len() > self.limit {
                let room = self.limit - self.held;
                if room == 0 {
                    break;
                }
                let mut d = d;
                d.truncate(room);
                stored += d.len();
                self.held += d.len();
                self.chunks.insert(o, d);
                break;
            }
            stored += d.len();
            self.held += d.len();
            self.chunks.insert(o, d);
        }
        stored
    }

    /// If a chunk begins exactly at `next_offset`, removes and returns the
    /// maximal contiguous run starting there.
    pub fn pop_ready(&mut self, next_offset: u64) -> Option<Vec<u8>> {
        let mut out: Vec<u8> = Vec::new();
        let mut cursor = next_offset;
        while let Some((&o, _)) = self.chunks.range(cursor..=cursor).next() {
            let Some(d) = self.chunks.remove(&o) else {
                debug_assert!(false, "ranged key present in map");
                break;
            };
            self.held -= d.len();
            cursor += d.len() as u64;
            out.extend_from_slice(&d);
        }
        self.delivered = self.delivered.max(cursor);
        if out.is_empty() {
            None
        } else {
            Some(out)
        }
    }

    /// Advances the delivered frontier to `frontier` when bytes up to it
    /// arrived in order, bypassing the reassembler (a retransmission can
    /// overrun data already buffered out of order). Chunks entirely below
    /// the frontier are dropped; a chunk straddling it is trimmed so its
    /// tail stays poppable at the new frontier instead of being stranded
    /// where no `pop_ready` cursor will ever reach it.
    pub fn advance_frontier(&mut self, frontier: u64) {
        while let Some((&o, d)) = self.chunks.range(..frontier).next() {
            let end = o + d.len() as u64;
            let Some(d) = self.chunks.remove(&o) else {
                debug_assert!(false, "ranged key present in map");
                break;
            };
            if end <= frontier {
                self.held -= d.len();
            } else {
                let stale = (frontier - o) as usize;
                let mut d = d;
                d.drain(..stale);
                self.held -= stale;
                self.chunks.insert(frontier, d);
                break;
            }
        }
        self.delivered = self.delivered.max(frontier);
    }

    /// The first buffered chunk as (offset, length), if any — the first
    /// SACK block.
    pub fn first_range(&self) -> Option<(u64, u64)> {
        self.chunks.iter().next().map(|(&o, d)| (o, d.len() as u64))
    }

    /// Offset just past the highest buffered byte, if any (for SACK-style
    /// diagnostics).
    #[cfg(test)]
    pub fn max_offset(&self) -> Option<u64> {
        self.chunks
            .iter()
            .next_back()
            .map(|(&o, d)| o + d.len() as u64)
    }

    /// Drops all buffered data.
    pub fn clear(&mut self) {
        self.chunks.clear();
        self.held = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_passthrough() {
        let mut r = Reassembler::new(100);
        r.insert(0, b"abc".to_vec());
        assert_eq!(r.pop_ready(0).unwrap(), b"abc");
        assert_eq!(r.held(), 0);
    }

    #[test]
    fn fills_single_hole() {
        let mut r = Reassembler::new(100);
        r.insert(3, b"def".to_vec());
        assert!(r.pop_ready(0).is_none());
        r.insert(0, b"abc".to_vec());
        assert_eq!(r.pop_ready(0).unwrap(), b"abcdef");
    }

    #[test]
    fn advance_frontier_trims_overrun_chunks() {
        // An in-order retransmission overruns buffered ooo data: the
        // covered prefix is discarded, the tail re-keys to the frontier.
        let mut r = Reassembler::new(100);
        r.insert(5, b"fghij".to_vec());
        r.insert(12, b"mn".to_vec());
        r.advance_frontier(8);
        assert_eq!(r.held(), 4, "f/g/h trimmed");
        assert_eq!(r.first_range(), Some((8, 2)));
        assert_eq!(r.pop_ready(8).unwrap(), b"ij");
        r.advance_frontier(14);
        assert_eq!(r.held(), 0, "fully covered chunk dropped");
        assert!(r.pop_ready(14).is_none());
        // Stale duplicates after the advance leave no residue.
        assert_eq!(r.insert(6, b"ghijklm".to_vec()), 0);
    }

    #[test]
    fn multiple_holes_fill_out_of_order() {
        let mut r = Reassembler::new(100);
        r.insert(6, b"ghi".to_vec());
        r.insert(0, b"abc".to_vec());
        assert_eq!(r.pop_ready(0).unwrap(), b"abc");
        r.insert(3, b"def".to_vec());
        assert_eq!(r.pop_ready(3).unwrap(), b"defghi");
    }

    #[test]
    fn duplicate_segments_ignored() {
        let mut r = Reassembler::new(100);
        assert_eq!(r.insert(5, b"xyz".to_vec()), 3);
        assert_eq!(r.insert(5, b"xyz".to_vec()), 0);
        assert_eq!(r.held(), 3);
    }

    #[test]
    fn partial_overlap_trimmed() {
        let mut r = Reassembler::new(100);
        r.insert(0, b"abcd".to_vec());
        // Overlaps [2,4), extends to 6.
        assert_eq!(r.insert(2, b"CDEF".to_vec()), 2);
        assert_eq!(r.pop_ready(0).unwrap(), b"abcdEF");
    }

    #[test]
    fn overlap_bridging_existing_chunks() {
        let mut r = Reassembler::new(100);
        r.insert(0, b"ab".to_vec());
        r.insert(4, b"ef".to_vec());
        // Covers 0..6, should only store the hole 2..4.
        assert_eq!(r.insert(0, b"XXcdXX".to_vec()), 2);
        assert_eq!(r.pop_ready(0).unwrap(), b"abcdef");
    }

    #[test]
    fn limit_enforced() {
        let mut r = Reassembler::new(4);
        assert_eq!(r.insert(10, b"abcdef".to_vec()), 4);
        assert_eq!(r.held(), 4);
        assert_eq!(r.insert(100, b"x".to_vec()), 0);
    }

    #[test]
    fn max_offset_reported() {
        let mut r = Reassembler::new(100);
        assert_eq!(r.max_offset(), None);
        r.insert(7, b"ab".to_vec());
        assert_eq!(r.max_offset(), Some(9));
    }

    #[test]
    fn clear_resets() {
        let mut r = Reassembler::new(100);
        r.insert(3, b"abc".to_vec());
        r.clear();
        assert_eq!(r.held(), 0);
        assert_eq!(r.chunk_count(), 0);
    }
}
