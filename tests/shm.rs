//! Properties of the shared-memory substrate: the payload ring and the
//! reassemblers behave like their obvious reference models, the ring over
//! every short operation sequence on every small ring and both under
//! seeded random operation sequences.

use tas_repro::shm::ByteRing;
use tas_repro::sim::Rng;
use tas_repro::tcp::Reassembler;

/// `lo` to `hi - 1` random bytes.
fn bytes(rng: &mut Rng, lo: u64, hi: u64) -> Vec<u8> {
    (0..rng.range_inclusive(lo, hi - 1))
        .map(|_| rng.next_u64() as u8)
        .collect()
}

/// `stream` cut at fewer than `max_cuts` random points into non-empty
/// `(offset, bytes)` slices, in stream order.
fn slices(rng: &mut Rng, stream: &[u8], max_cuts: u64) -> Vec<(u64, Vec<u8>)> {
    let mut points: Vec<usize> = (0..rng.below(max_cuts))
        .map(|_| rng.below(stream.len() as u64) as usize)
        .collect();
    points.extend([0, stream.len()]);
    points.sort_unstable();
    points.dedup();
    points
        .windows(2)
        .map(|w| (w[0] as u64, stream[w[0]..w[1]].to_vec()))
        .collect()
}

/// The ring delivers exactly the appended byte stream, in order, across
/// random append/pop interleavings and wrap-arounds.
#[test]
fn byte_ring_is_a_fifo_stream() {
    for case in 0..256 {
        let mut rng = Rng::new(case);
        let cap = rng.range_inclusive(1, 127) as usize;
        let mut ring = ByteRing::new(cap);
        let mut model: std::collections::VecDeque<u8> = Default::default();
        for _ in 0..rng.range_inclusive(1, 199) {
            if rng.chance(0.5) {
                let data = bytes(&mut rng, 0, 80);
                let accepted = ring.append_partial(&data);
                assert!(accepted <= data.len(), "case {case}");
                model.extend(data[..accepted].iter());
                assert_eq!(ring.len(), model.len(), "case {case}");
            } else {
                let n = rng.below(100) as usize;
                let got = ring.pop(n);
                let want: Vec<u8> = model.drain(..n.min(model.len())).collect();
                assert_eq!(got, want, "case {case}");
            }
            assert!(ring.len() <= cap, "case {case}");
            assert_eq!(ring.free(), cap - ring.len(), "case {case}");
        }
    }
}

/// One step of the exhaustive ring check. Sizes are byte counts;
/// `WriteAt`'s first field is the distance of the write past `end`.
#[derive(Clone, Copy, Debug)]
enum Op {
    Append(usize),
    Consume(u64),
    WriteAt(u64, usize),
    AdvanceEnd(u64),
    ReadWith(usize),
}

/// Every step on a ring of `cap` bytes: appends of 0 to `cap` bytes, and
/// consumes, commits and reads of 1 to `cap`; writes at each distance
/// `a < cap` past `end` with each length up to `cap - a`. A step that does
/// not fit the state it meets is part of the check: it must fail and
/// change nothing.
fn ring_ops(cap: u64) -> Vec<Op> {
    let sizes = 1..=cap;
    (0..=cap as usize)
        .map(Op::Append)
        .chain(sizes.clone().map(Op::Consume))
        .chain((0..cap).flat_map(|a| (1..=(cap - a) as usize).map(move |n| Op::WriteAt(a, n))))
        .chain(sizes.clone().map(Op::AdvanceEnd))
        .chain(sizes.map(|n| Op::ReadWith(n as usize)))
        .collect()
}

/// The oracle: the window `[start, start + cap)` as plain bytes (`None`
/// where the contents are unspecified: never written, or committed by
/// `advance_end` without being staged), the committed length, and the
/// store length the growth rule implies.
#[derive(Clone, Debug)]
struct RingModel {
    cap: u64,
    start: u64,
    len: u64,
    window: [Option<u8>; 8],
    backed: u64,
    /// The next byte value written, so that every write is distinct.
    next: u8,
}

impl RingModel {
    fn new(cap: u64) -> RingModel {
        RingModel {
            cap,
            start: 0,
            len: 0,
            window: [None; 8],
            backed: 0,
            next: 0,
        }
    }

    fn fresh_bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n)
            .map(|_| {
                self.next = self.next.wrapping_add(1);
                self.next
            })
            .collect()
    }

    /// Writes `data` at window index `at` and grows the store to cover
    /// everything up to `at + data.len()`.
    fn write(&mut self, at: u64, data: &[u8]) {
        for (i, &b) in data.iter().enumerate() {
            self.window[at as usize + i] = Some(b);
        }
        self.cover(at + data.len() as u64);
    }

    fn cover(&mut self, span: u64) {
        if span > self.backed {
            self.backed = span.next_power_of_two().min(self.cap);
        }
    }

    /// Consumes `n` committed bytes and returns them.
    fn consume(&mut self, n: u64) -> [Option<u8>; 8] {
        let taken = self.window;
        self.start += n;
        self.len -= n;
        self.window.rotate_left(n as usize);
        self.window[8 - n as usize..].fill(None);
        taken
    }
}

/// Applies `op` to both the ring and the oracle and compares what each
/// reports; `at` names the state for failure messages.
fn ring_step(ring: &mut ByteRing, m: &mut RingModel, op: Op, at: &dyn Fn() -> String) {
    let free = m.cap - m.len;
    match op {
        Op::Append(n) => {
            let data = m.fresh_bytes(n);
            let fits = n as u64 <= free;
            assert_eq!(ring.append(&data).is_ok(), fits, "{}", at());
            if fits {
                m.write(m.len, &data);
                m.len += n as u64;
            }
        }
        Op::Consume(n) => {
            let fits = n <= m.len;
            assert_eq!(ring.consume(n).is_ok(), fits, "{}", at());
            if fits {
                m.consume(n);
            }
        }
        Op::WriteAt(a, n) => {
            let data = m.fresh_bytes(n);
            let fits = a + n as u64 <= free;
            let pos = m.start + m.len + a;
            assert_eq!(ring.write_at(pos, &data).is_ok(), fits, "{}", at());
            if fits {
                m.write(m.len + a, &data);
            }
        }
        Op::AdvanceEnd(n) => {
            let fits = n <= free;
            assert_eq!(ring.advance_end(n).is_ok(), fits, "{}", at());
            if fits {
                m.len += n;
                m.cover(m.len);
            }
        }
        Op::ReadWith(max) => {
            let mut got = Vec::new();
            let n = ring.read_with(max, |s| {
                got.extend_from_slice(s);
                s.len()
            });
            let take = (max as u64).min(m.len);
            let want = m.consume(take);
            assert_eq!(n as u64, take, "{}", at());
            assert_bytes(&got, &want[..n], at);
        }
    }
}

/// `got` matches `want` wherever the oracle knows the byte.
fn assert_bytes(got: &[u8], want: &[Option<u8>], at: &dyn Fn() -> String) {
    let want: Vec<u8> = want
        .iter()
        .zip(got)
        .map(|(&b, &g)| b.unwrap_or(g))
        .collect();
    assert_eq!(got, want, "{}: bytes", at());
}

/// The ring's offsets, store length and committed bytes against the
/// oracle; `backed_before` is the store length before the last step.
fn ring_check(ring: &ByteRing, m: &RingModel, backed_before: usize, at: &dyn Fn() -> String) {
    let offsets = (ring.start_offset(), ring.end_offset());
    assert_eq!(offsets, (m.start, m.start + m.len), "{}: offsets", at());
    let backed = ring.backed();
    assert_eq!(backed as u64, m.backed, "{}: store length", at());
    assert!(backed >= backed_before, "{}: the store shrank", at());
    let shape = backed == 0 || backed.is_power_of_two() || backed == ring.capacity();
    assert!(
        shape && backed <= ring.capacity(),
        "{}: store length {backed}",
        at()
    );
    let mut buf = [0u8; 8];
    let committed = &mut buf[..m.len as usize];
    ring.read_into(m.start, committed).expect("committed");
    assert_bytes(committed, &m.window[..m.len as usize], at);
}

/// Runs every sequence of up to `depth` steps from `(ring, m)`, counting
/// each step taken in `states`.
fn ring_explore(
    ring: &ByteRing,
    m: &RingModel,
    ops: &[Op],
    depth: usize,
    path: &mut Vec<Op>,
    states: &mut u64,
) {
    if depth == 0 {
        return;
    }
    for &op in ops {
        let (mut r, mut next) = (ring.clone(), m.clone());
        path.push(op);
        let at = || format!("cap {}, steps {path:?}", m.cap);
        ring_step(&mut r, &mut next, op, &at);
        ring_check(&r, &next, ring.backed(), &at);
        *states += 1;
        ring_explore(&r, &next, ops, depth - 1, path, states);
        path.pop();
    }
}

/// `ByteRing` against a plain byte-array oracle: every capacity 1 to 8,
/// every start offset below the capacity (reached by appending and
/// consuming that many bytes, which backs part of the store), then every
/// sequence of up to three steps (two above 5 bytes, for run time). The
/// starts leave every store length at several slots, so the sequences
/// cross each growth point from each of them: a grow that loses the
/// wrapped half of its old window, a write or commit that skips the
/// coverage check, and a store grown past the capacity each fail here.
#[test]
fn byte_ring_matches_a_byte_array_over_every_short_sequence() {
    let mut states = 0u64;
    for cap in 1..=8u64 {
        let ops = ring_ops(cap);
        for start in 0..cap {
            let mut ring = ByteRing::new(cap as usize);
            let mut m = RingModel::new(cap);
            let prelude = [Op::Append(start as usize), Op::Consume(start)];
            for op in prelude {
                ring_step(&mut ring, &mut m, op, &|| format!("cap {cap}, {prelude:?}"));
            }
            let depth = if cap <= 5 { 3 } else { 2 };
            ring_explore(&ring, &m, &ops, depth, &mut Vec::new(), &mut states);
        }
    }
    assert_eq!(states, 422_193);
}

/// Out-of-order staging: staging a run beyond a hole and committing the
/// hole and the run yields the right bytes.
#[test]
fn byte_ring_out_of_order_staging() {
    for case in 0..256 {
        let mut rng = Rng::new(case);
        let cap = rng.range_inclusive(64, 255) as usize;
        let (head, tail) = (bytes(&mut rng, 1, 16), bytes(&mut rng, 1, 32));
        // Stage `tail` beyond a hole the size of `head`, then commit the
        // head followed by the staged region.
        let hole = head.len();
        let mut ring = ByteRing::new(cap);
        ring.write_at(hole as u64, &tail).expect("fits");
        assert_eq!(ring.len(), 0, "case {case}");
        ring.append(&head).expect("fits");
        ring.advance_end(tail.len() as u64).expect("fits");
        assert_eq!(ring.pop(cap), [head, tail].concat(), "case {case}");
    }
}

/// The reassembler reconstructs the original stream from randomly
/// sliced, duplicated, and shuffled segments.
#[test]
fn reassembler_reconstructs_stream() {
    for case in 0..256 {
        let mut rng = Rng::new(case);
        let stream = bytes(&mut rng, 1, 500);
        let mut segments = slices(&mut rng, &stream, 10);
        // Duplicate some segments and shuffle.
        for d in 0..(rng.below(3) as usize).min(segments.len()) {
            segments.push(segments[d].clone());
        }
        rng.shuffle(&mut segments);
        let (out, held) = reassemble_trimmed(&stream, segments);
        assert_eq!(out, stream, "case {case}");
        assert_eq!(held, 0, "case {case}: nothing left buffered");
    }
}

/// Feeds `segments` to a reassembler the way a TCP receiver does —
/// trimming data already delivered (below rcv_nxt) first — and returns
/// the delivered stream and the bytes still held.
fn reassemble_trimmed(stream: &[u8], segments: Vec<(u64, Vec<u8>)>) -> (Vec<u8>, usize) {
    let mut r = Reassembler::new(stream.len() + 64);
    let mut out: Vec<u8> = Vec::new();
    for (mut off, mut data) in segments {
        let delivered = out.len() as u64;
        if off < delivered {
            let skip = (delivered - off) as usize;
            if skip >= data.len() {
                continue;
            }
            data.drain(..skip);
            off = delivered;
        }
        r.insert(off, data);
        if let Some(run) = r.pop_ready(out.len() as u64) {
            out.extend_from_slice(&run);
        }
    }
    (out, r.held())
}

/// Duplicates delivered *without* the receiver-side trim above: the
/// reassembler's own delivered-frontier tracking must absorb them.
/// Generalizes the shrunk case replayed by
/// [`regression_duplicate_of_delivered_segment_seed`].
#[test]
fn reassembler_absorbs_raw_duplicates() {
    for case in 0..256 {
        let mut rng = Rng::new(case);
        let stream = bytes(&mut rng, 1, 300);
        let mut segments = slices(&mut rng, &stream, 8);
        // Every segment twice, shuffled — no trimming by the caller.
        segments.extend(segments.clone());
        rng.shuffle(&mut segments);
        let mut r = Reassembler::new(stream.len() + 64);
        let mut out: Vec<u8> = Vec::new();
        for (off, data) in segments {
            r.insert(off, data);
            if let Some(run) = r.pop_ready(out.len() as u64) {
                out.extend_from_slice(&run);
            }
        }
        assert_eq!(out, stream, "case {case}");
        assert_eq!(
            r.held(),
            0,
            "case {case}: duplicates left residue below the frontier"
        );
    }
}

/// The log-linear histogram's quantiles stay within its error bound.
#[test]
fn histogram_quantile_error_bounded() {
    for case in 0..256 {
        let mut rng = Rng::new(case);
        let values: Vec<u64> = (0..rng.range_inclusive(10, 499))
            .map(|_| rng.range_inclusive(1, 999_999))
            .collect();
        let mut h = tas_repro::sim::Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for q in [0.5, 0.9, 0.99] {
            let rank =
                (((q * sorted.len() as f64).ceil() as usize).max(1) - 1).min(sorted.len() - 1);
            let exact = sorted[rank] as f64;
            let got = h.quantile(q) as f64;
            assert!(
                (got - exact).abs() <= exact * 0.04 + 1.0,
                "case {case}: q{q}: got {got}, exact {exact}"
            );
        }
    }
}

/// The shrunk counterexample `stream = [0], dupes = 1` of
/// [`reassembler_reconstructs_stream`]: a one-byte stream whose single
/// segment arrives twice.
#[test]
fn regression_duplicate_of_delivered_segment_seed() {
    let stream = vec![0u8];
    let (out, held) = reassemble_trimmed(&stream, vec![(0, stream.clone()), (0, stream.clone())]);
    assert_eq!(out, stream);
    assert_eq!(held, 0, "duplicate left residue");
}

/// The underlying bug class, hit directly: without any caller-side
/// trimming, a duplicate of an already-delivered segment must leave
/// `held() == 0` — the reassembler's delivered frontier absorbs it.
#[test]
fn regression_duplicate_below_frontier_is_absorbed() {
    let mut r = Reassembler::new(100);
    assert_eq!(r.insert(0, b"hello".to_vec()), 5);
    assert_eq!(r.pop_ready(0).unwrap(), b"hello");
    assert_eq!(r.delivered_frontier(), 5);
    // Exact duplicate, a stale retransmission, and a partial overlap
    // spanning the frontier.
    assert_eq!(r.insert(0, b"hello".to_vec()), 0);
    assert_eq!(r.held(), 0, "exact duplicate stranded bytes");
    assert_eq!(r.insert(2, b"llo".to_vec()), 0);
    assert_eq!(r.held(), 0, "stale retransmission stranded bytes");
    assert_eq!(r.insert(3, b"loWORLD".to_vec()), 5);
    assert_eq!(r.held(), 5, "fresh tail past the frontier kept");
    assert_eq!(r.pop_ready(5).unwrap(), b"WORLD");
    assert_eq!(r.held(), 0);
    assert_eq!(r.delivered_frontier(), 10);
}
