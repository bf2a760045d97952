//! Circular payload buffer addressed by absolute stream offsets.

/// Errors returned by [`ByteRing`] operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RingError {
    /// The operation would exceed the ring's capacity.
    Full,
    /// The requested range is not inside the valid window.
    OutOfRange,
}

impl std::fmt::Display for RingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RingError::Full => f.write_str("ring full"),
            RingError::OutOfRange => f.write_str("range outside ring window"),
        }
    }
}

impl std::error::Error for RingError {}

/// A fixed-capacity circular byte buffer over an absolute (u64) stream.
///
/// Three offsets partition the stream:
///
/// ```text
///   start                end                      start + capacity
///     |---- valid data ----|---- writable ahead ----|
/// ```
///
/// * `start..end` holds committed bytes (readable, e.g. in-order received
///   payload, or sent-but-unacked TX data).
/// * `end..start+capacity` is space where data may be staged out of order
///   ([`write_at`](ByteRing::write_at)) before being committed by
///   [`advance_end`](ByteRing::advance_end).
///
/// Used as TAS's per-flow RX buffer (`rx_start|size`, `rx_head|tail` in the
/// paper's Table 3) and TX buffer (`tx_head|tail`, `tx_sent`).
///
/// The backing store is demand-backed: [`new`](ByteRing::new) allocates
/// nothing, and a write that reaches past the store's end grows it to the
/// next power of two of the span from `start` (at most `capacity`). The
/// store never shrinks. Byte `pos` lives at slot `pos % store length`, so
/// the store always holds the window `[start, start + store length)`.
/// Capacity keeps its meaning: it bounds what may be written, and the
/// window a flow advertises, whatever is backed.
///
/// # Examples
///
/// ```
/// use tas_shm::ByteRing;
/// let mut r = ByteRing::new(8);
/// r.append(b"abc").unwrap();
/// assert_eq!(r.copy_out(0, 3).unwrap(), b"abc");
/// r.consume(3).unwrap();
/// assert_eq!(r.len(), 0);
/// ```
#[derive(Clone, Debug)]
pub struct ByteRing {
    buf: Box<[u8]>,
    start: u64,
    len: u32,
    cap: u32,
}

const _: () = assert!(std::mem::size_of::<ByteRing>() == 32);

/// Copies `data` into the circular store `buf` (not empty) at stream
/// offset `pos`.
#[inline]
fn copy_into(buf: &mut [u8], pos: u64, data: &[u8]) {
    let s = (pos % buf.len() as u64) as usize;
    let first = (buf.len() - s).min(data.len());
    buf[s..s + first].copy_from_slice(&data[..first]);
    if first < data.len() {
        buf[..data.len() - first].copy_from_slice(&data[first..]);
    }
}

impl ByteRing {
    /// Creates a ring with the given capacity in bytes. Nothing is
    /// allocated until the first write.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or above `u32::MAX`.
    #[allow(
        clippy::panic,
        reason = "documented configuration check: rings are built at connection setup, never per packet"
    )]
    pub fn new(capacity: usize) -> Self {
        let Ok(cap @ 1..) = u32::try_from(capacity) else {
            panic!("ring capacity must be in 1..=u32::MAX, not {capacity}");
        };
        ByteRing {
            buf: Box::default(),
            start: 0,
            len: 0,
            cap,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.cap as usize
    }

    /// Bytes of backing store allocated so far: 0, a power of two, or
    /// [`capacity`](Self::capacity). It never shrinks.
    pub fn backed(&self) -> usize {
        self.buf.len()
    }

    /// Committed bytes currently stored (`end - start`).
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when no committed bytes are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Free space after the committed region.
    pub fn free(&self) -> usize {
        (self.cap - self.len) as usize
    }

    /// Absolute offset of the oldest committed byte.
    pub fn start_offset(&self) -> u64 {
        self.start
    }

    /// Absolute offset one past the newest committed byte.
    pub fn end_offset(&self) -> u64 {
        self.start + u64::from(self.len)
    }

    fn slot(&self, pos: u64) -> usize {
        (pos % self.buf.len() as u64) as usize
    }

    /// Makes the store cover `[start, start + span)`; `span` is at most
    /// the capacity.
    #[inline]
    fn ensure(&mut self, span: u64) {
        if span > self.buf.len() as u64 {
            self.grow(span);
        }
    }

    /// Replaces the store with one of `min(capacity, span.next_power_of_two())`
    /// bytes, carrying the old window `[start, start + old length)` over in
    /// stream order: committed bytes and any staged ahead of them.
    #[cold]
    fn grow(&mut self, span: u64) {
        let len = span.next_power_of_two().min(u64::from(self.cap)) as usize;
        let mut buf = vec![0u8; len].into_boxed_slice();
        if !self.buf.is_empty() {
            // The window runs from `start`'s slot to the store's end
            // (`head`), then wraps to slot 0 (`wrapped`).
            let s = self.slot(self.start);
            let (wrapped, head) = self.buf.split_at(s);
            copy_into(&mut buf, self.start, head);
            copy_into(&mut buf, self.start + head.len() as u64, wrapped);
        }
        self.buf = buf;
    }

    /// Writes `data` at `pos`, which lies in `[start, start + capacity)`
    /// with the whole of `data`, growing the store to cover it first.
    #[inline]
    fn copy_in(&mut self, pos: u64, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        self.ensure(pos + data.len() as u64 - self.start);
        copy_into(&mut self.buf, pos, data);
    }

    /// Appends committed data at `end`, failing (without partial writes)
    /// if it does not fit.
    #[inline]
    pub fn append(&mut self, data: &[u8]) -> Result<(), RingError> {
        if data.len() > self.free() {
            return Err(RingError::Full);
        }
        self.copy_in(self.end_offset(), data);
        self.len += data.len() as u32;
        Ok(())
    }

    /// Appends as much of `data` as fits, returning the byte count written.
    pub fn append_partial(&mut self, data: &[u8]) -> usize {
        let n = data.len().min(self.free());
        self.copy_in(self.end_offset(), &data[..n]);
        self.len += n as u32;
        n
    }

    /// Writes `data` at absolute offset `pos`, which may lie beyond `end`
    /// (out-of-order staging) but must fit within `start + capacity`.
    /// Does not move `end`.
    #[inline]
    pub fn write_at(&mut self, pos: u64, data: &[u8]) -> Result<(), RingError> {
        if pos < self.start || pos + data.len() as u64 > self.start + u64::from(self.cap) {
            return Err(RingError::OutOfRange);
        }
        self.copy_in(pos, data);
        Ok(())
    }

    /// Commits `n` bytes past `end` (e.g. after an out-of-order interval
    /// has been filled in). Bytes committed this way that were never
    /// staged read as unspecified values.
    #[inline]
    pub fn advance_end(&mut self, n: u64) -> Result<(), RingError> {
        if n > self.free() as u64 {
            return Err(RingError::Full);
        }
        self.ensure(u64::from(self.len) + n);
        self.len += n as u32;
        Ok(())
    }

    /// Copies `dst.len()` bytes starting at absolute offset `pos` out of
    /// the committed region into `dst`, without allocating. This is the
    /// packet-path read: the fast path fills a pooled payload buffer
    /// straight from the ring.
    #[inline]
    pub fn read_into(&self, pos: u64, dst: &mut [u8]) -> Result<(), RingError> {
        let len = dst.len();
        if pos < self.start || pos + len as u64 > self.end_offset() {
            return Err(RingError::OutOfRange);
        }
        if len == 0 {
            return Ok(());
        }
        let cap = self.buf.len();
        let s = self.slot(pos);
        let first = (cap - s).min(len);
        dst[..first].copy_from_slice(&self.buf[s..s + first]);
        if first < len {
            dst[first..].copy_from_slice(&self.buf[..len - first]);
        }
        Ok(())
    }

    /// Copies `len` bytes starting at absolute offset `pos` out of the
    /// committed region into a fresh `Vec` (harness/app-edge convenience;
    /// packet-path readers use [`Self::read_into`]).
    pub fn copy_out(&self, pos: u64, len: usize) -> Result<Vec<u8>, RingError> {
        let mut out = vec![0u8; len];
        self.read_into(pos, &mut out)?;
        Ok(out)
    }

    /// The application's in-place read: hands the first `min(max, len)`
    /// committed bytes to `f` as at most two contiguous slices, in stream
    /// order (two only when they wrap the physical end), and consumes what
    /// `f` reports taking from each. `f` returns how many bytes of its
    /// slice it took, counted from the slice's start; a short take ends
    /// the read, and a count above the slice's length takes all of it.
    /// Returns the bytes consumed. `f` is not called when nothing is
    /// offered.
    #[inline]
    pub fn read_with(&mut self, max: usize, mut f: impl FnMut(&[u8]) -> usize) -> usize {
        let len = max.min(self.len());
        if len == 0 {
            return 0;
        }
        let s = self.slot(self.start);
        let first = (self.buf.len() - s).min(len);
        let mut taken = f(&self.buf[s..s + first]).min(first);
        if taken == first && first < len {
            taken += f(&self.buf[..len - first]).min(len - first);
        }
        self.start += taken as u64;
        self.len -= taken as u32;
        taken
    }

    /// Reads and consumes up to `max` bytes from the front of the committed
    /// region into a fresh `Vec` ([`Self::read_with`] without the borrow).
    pub fn pop(&mut self, max: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(max.min(self.len()));
        self.read_with(max, |s| {
            out.extend_from_slice(s);
            s.len()
        });
        out
    }

    /// Frees `n` bytes from the front (TX-side: acknowledged data).
    #[inline]
    pub fn consume(&mut self, n: u64) -> Result<(), RingError> {
        if n > u64::from(self.len) {
            return Err(RingError::OutOfRange);
        }
        self.start += n;
        self.len -= n as u32;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_read_consume_cycle() {
        let mut r = ByteRing::new(16);
        r.append(b"hello").unwrap();
        assert_eq!(r.len(), 5);
        assert_eq!(r.free(), 11);
        assert_eq!(r.copy_out(0, 5).unwrap(), b"hello");
        r.consume(2).unwrap();
        assert_eq!(r.copy_out(2, 3).unwrap(), b"llo");
        assert_eq!(r.copy_out(1, 2), Err(RingError::OutOfRange));
    }

    #[test]
    fn wraps_around_capacity() {
        let mut r = ByteRing::new(8);
        r.append(b"abcdef").unwrap();
        r.consume(6).unwrap();
        // Next append wraps around the physical end.
        r.append(b"ghijkl").unwrap();
        assert_eq!(r.copy_out(6, 6).unwrap(), b"ghijkl");
    }

    #[test]
    fn append_full_is_atomic() {
        let mut r = ByteRing::new(4);
        r.append(b"abc").unwrap();
        assert_eq!(r.append(b"de"), Err(RingError::Full));
        assert_eq!(r.len(), 3);
        r.append(b"d").unwrap();
        assert_eq!(r.free(), 0);
    }

    #[test]
    fn append_partial_fills_exactly() {
        let mut r = ByteRing::new(4);
        assert_eq!(r.append_partial(b"abcdef"), 4);
        assert_eq!(r.copy_out(0, 4).unwrap(), b"abcd");
        assert_eq!(r.append_partial(b"x"), 0);
    }

    #[test]
    fn out_of_order_staging_then_commit() {
        // Model TAS's RX out-of-order interval: bytes 5..8 arrive before
        // 0..5; the ring stages them, then the gap fills and both commit.
        let mut r = ByteRing::new(16);
        r.write_at(5, b"XYZ").unwrap();
        assert_eq!(r.len(), 0, "staged data is not committed");
        r.append(b"abcde").unwrap();
        r.advance_end(3).unwrap();
        assert_eq!(r.copy_out(0, 8).unwrap(), b"abcdeXYZ");
    }

    #[test]
    fn staging_then_commit_across_the_physical_end() {
        // The same staging, from every start slot of an 8-byte ring: "XYZ"
        // is staged one byte past the frontier, "a" fills the gap, and
        // `advance_end` commits the staged run. Starts 5 and 6 split the
        // staged write across the end, 7 splits gap and run, and from 5
        // on the committed stream wraps. Each ring first backs its whole
        // store (8 bytes in and out), so the physical end is at 8.
        for skip in 0..8u64 {
            let mut r = ByteRing::new(8);
            r.append(&[0; 8]).unwrap();
            r.consume(8).unwrap();
            assert_eq!(r.backed(), 8);
            r.append(&vec![0; skip as usize]).unwrap();
            r.consume(skip).unwrap();
            let base = 8 + skip;
            r.write_at(base + 1, b"XYZ").unwrap();
            assert_eq!(r.len(), 0, "start {skip}: staged data is not committed");
            r.append(b"a").unwrap();
            r.advance_end(3).unwrap();
            let mut dst = [0u8; 4];
            r.read_into(base, &mut dst).unwrap();
            assert_eq!(&dst, b"aXYZ", "start {skip}: read_into");
            let mut seen: Vec<Vec<u8>> = Vec::new();
            let n = r.read_with(99, |s| {
                seen.push(s.to_vec());
                s.len()
            });
            assert_eq!(seen.concat(), b"aXYZ", "start {skip}: read_with");
            assert_eq!(seen.len(), if skip + 4 > 8 { 2 } else { 1 }, "start {skip}");
            assert_eq!((n, r.len()), (4, 0), "start {skip}: all consumed");
        }
    }

    #[test]
    #[should_panic(expected = "ring capacity")]
    fn new_rejects_zero_capacity() {
        ByteRing::new(0);
    }

    #[test]
    #[should_panic(expected = "ring capacity")]
    fn new_rejects_capacity_above_u32() {
        ByteRing::new(u32::MAX as usize + 1);
    }

    #[test]
    fn write_at_bounds_checked() {
        let mut r = ByteRing::new(8);
        r.append(b"ab").unwrap();
        r.consume(2).unwrap();
        // Window is now [2, 10).
        assert_eq!(r.write_at(1, b"z"), Err(RingError::OutOfRange));
        assert_eq!(r.write_at(9, b"zz"), Err(RingError::OutOfRange));
        r.write_at(9, b"z").unwrap();
    }

    #[test]
    fn pop_limits_to_available() {
        let mut r = ByteRing::new(8);
        r.append(b"abc").unwrap();
        assert_eq!(r.pop(10), b"abc");
        assert!(r.pop(10).is_empty());
    }

    #[test]
    fn read_with_offers_at_most_two_slices_and_consumes_what_is_taken() {
        // An 8-byte ring whose data starts `skip` bytes in: with skip 6,
        // "ghijk" wraps as "gh" + "ijk". `takes` is what the closure takes
        // from each slice it is offered.
        struct Case {
            name: &'static str,
            skip: usize,
            data: &'static [u8],
            max: usize,
            takes: &'static [usize],
            offered: &'static [&'static [u8]],
            consumed: usize,
        }
        let case = |name, skip, data, max, takes, offered, consumed| Case {
            name,
            skip,
            data,
            max,
            takes,
            offered,
            consumed,
        };
        #[rustfmt::skip]
        let cases = [
            case("contiguous", 0, b"abcde", 99, &[99], &[b"abcde"], 5),
            case("wrap-around", 6, b"ghijk", 99, &[99, 99], &[b"gh", b"ijk"], 5),
            case("a short take ends the read", 6, b"ghijk", 99, &[1], &[b"gh"], 1),
            case("max below readable", 6, b"ghijk", 3, &[99, 99], &[b"gh", b"i"], 3),
            case("max within the first slice", 6, b"ghijk", 1, &[99], &[b"g"], 1),
            case("nothing readable", 3, b"", 99, &[], &[], 0),
            case("max zero", 0, b"abc", 0, &[], &[], 0),
        ];
        for c in cases {
            let mut r = ByteRing::new(8);
            r.append(&vec![0; c.skip]).unwrap();
            r.consume(c.skip as u64).unwrap();
            r.append(c.data).unwrap();
            let mut seen: Vec<Vec<u8>> = Vec::new();
            let n = r.read_with(c.max, |s| {
                let take = c.takes.get(seen.len()).copied().unwrap_or(0);
                seen.push(s.to_vec());
                take
            });
            let name = c.name;
            assert_eq!(seen, c.offered, "{name}: slices offered");
            assert_eq!(n, c.consumed, "{name}: bytes consumed");
            assert_eq!(r.start_offset(), (c.skip + n) as u64, "{name}: start");
            assert_eq!(r.len(), c.data.len() - n, "{name}: the rest stays");
        }
    }

    #[test]
    fn advance_end_respects_capacity() {
        let mut r = ByteRing::new(4);
        r.append(b"abc").unwrap();
        assert_eq!(r.advance_end(2), Err(RingError::Full));
        r.advance_end(1).unwrap();
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn long_stream_offsets_stay_consistent() {
        // Push/pop far past several wrap points; offsets are absolute.
        let mut r = ByteRing::new(7);
        let mut next = 0u64;
        for round in 0..100u64 {
            let chunk: Vec<u8> = (0..5).map(|i| ((round * 5 + i) % 251) as u8).collect();
            r.append(&chunk).unwrap();
            let got = r.pop(5);
            for (i, b) in got.iter().enumerate() {
                assert_eq!(*b, ((next + i as u64) % 251) as u8);
            }
            next += 5;
        }
        assert_eq!(r.start_offset(), 500);
        assert_eq!(r.end_offset(), 500);
    }
}
