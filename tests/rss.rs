//! Properties of receive-side scaling.
//!
//! The Toeplitz hash is a linear code: `H(a ⊕ b) = H(a) ⊕ H(b)` for
//! equal-length inputs. This is the construction's defining property —
//! the MSDN known-answer vectors (unit tests) pin the key schedule, and
//! linearity pins the bit-mixing for *all* inputs at once.

use tas_repro::netsim::rss::{toeplitz_hash, RssTable, RSS_TABLE_SIZE, TOEPLITZ_KEY};
use tas_repro::sim::Rng;

/// Toeplitz is linear over GF(2): hashing the XOR of two tuples equals
/// the XOR of their hashes.
#[test]
fn toeplitz_is_linear() {
    for case in 0..256 {
        let mut rng = Rng::new(case);
        let [a, b]: [[u8; 12]; 2] =
            std::array::from_fn(|_| std::array::from_fn(|_| rng.next_u64() as u8));
        let xored: Vec<u8> = a.iter().zip(b.iter()).map(|(x, y)| x ^ y).collect();
        assert_eq!(
            toeplitz_hash(&TOEPLITZ_KEY, &xored),
            toeplitz_hash(&TOEPLITZ_KEY, &a) ^ toeplitz_hash(&TOEPLITZ_KEY, &b),
            "case {case}"
        );
    }
}

/// The zero input hashes to zero (linearity's identity), and each of the
/// 96 single set bits selects exactly its 32-bit key window.
#[test]
fn toeplitz_single_bit_windows() {
    assert_eq!(toeplitz_hash(&TOEPLITZ_KEY, &[0u8; 12]), 0);
    for bit in 0..96 {
        let mut input = [0u8; 12];
        input[bit / 8] = 1 << (7 - bit % 8);
        // The window for bit i is key bits [i, i+32).
        let mut want: u32 = 0;
        for k in 0..32 {
            let idx = bit + k;
            let key_bit = TOEPLITZ_KEY[idx / 8] >> (7 - idx % 8) & 1;
            want = (want << 1) | key_bit as u32;
        }
        assert_eq!(toeplitz_hash(&TOEPLITZ_KEY, &input), want, "bit {bit}");
    }
}

/// After any sequence of rebalances the table references exactly the
/// first `active` queues, spread evenly (entry counts differ by at most
/// one) — the eager steering invariant of §3.4.
#[test]
fn rebalance_is_even_and_exact() {
    for case in 0..256 {
        let mut rng = Rng::new(case);
        let mut active = rng.range_inclusive(1, 15) as usize;
        let mut t = RssTable::new(active);
        for _ in 0..rng.range_inclusive(1, 7) {
            active = rng.range_inclusive(1, 15) as usize;
            t.rebalance(active);
        }
        assert_eq!(t.active_queues(), active.min(RSS_TABLE_SIZE), "case {case}");
        let mut counts = vec![0usize; active];
        for h in 0..RSS_TABLE_SIZE as u32 {
            let q = t.queue_for_hash(h);
            assert!(
                q < active,
                "case {case}: stale queue {q} after rebalance({active})"
            );
            counts[q] += 1;
        }
        let (min, max) = (
            counts.iter().min().copied().unwrap_or(0),
            counts.iter().max().copied().unwrap_or(0),
        );
        assert!(max - min <= 1, "case {case}: uneven spread: {counts:?}");
    }
}
