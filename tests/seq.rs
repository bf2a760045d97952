//! Exhaustive checks of RFC 793 sequence-number arithmetic.
//!
//! Every ACK-acceptance, window, and out-of-order decision in both stacks
//! reduces to the methods of `Seq`; a wraparound bug here corrupts
//! connections only once per 4 GB of stream, which no example-based test
//! reliably catches. So every operator is checked over a boundary set of
//! bases (both ends of the space and both sides of 2^31) × every delta
//! within 64 of 0, of 2^31 and of 2^32, against plain `u64` arithmetic.

use tas_repro::proto::Seq;

const HALF: u32 = 0x8000_0000;

const BASES: [u32; 8] = [
    0,
    1,
    HALF - 2,
    HALF - 1,
    HALF,
    HALF + 1,
    u32::MAX - 1,
    u32::MAX,
];

/// Window lengths: empty, small, and at the 2^31 ambiguity point.
const LENS: [u32; 10] = [0, 1, 2, 63, 64, 65, HALF - 1, HALF, HALF + 1, u32::MAX];

/// Every delta within 64 of 0, of 2^31 and of 2^32: 258 values.
fn deltas() -> impl Iterator<Item = u32> {
    (0..=64)
        .chain(HALF - 64..=HALF + 64)
        .chain(u32::MAX - 63..=u32::MAX)
}

/// Every (base, delta) pair with the two points `a` and `b = a + delta`,
/// where `b` is computed in `u64` and reduced mod 2^32.
fn pairs() -> impl Iterator<Item = (Seq, u32, Seq)> {
    BASES.into_iter().flat_map(|a| {
        deltas().map(move |d| (Seq(a), d, Seq(((a as u64 + d as u64) % (1 << 32)) as u32)))
    })
}

/// `x` comes before a point `fwd` ahead of it: the forward distance is
/// non-zero and at most half the ring (at exactly 2^31 both orders hold).
fn before(fwd: u32) -> bool {
    fwd != 0 && fwd <= HALF
}

/// `Seq + u32` wraps and `Seq - Seq` is the forward distance, both ways.
#[test]
fn sub_inverts_add() {
    let mut n = 0;
    for (a, d, b) in pairs() {
        assert_eq!(a + d, b, "{a:?} + {d}");
        assert_eq!(b - a, d, "{b:?} - {a:?}");
        assert_eq!(a - b, d.wrapping_neg(), "{a:?} - {b:?}");
        assert_eq!(a == b, d == 0, "{a:?} == {b:?}");
        n += 1;
    }
    assert_eq!(n, 8 * 258);
}

/// Every order operator agrees with the forward distance in both
/// directions, wherever the wrap falls.
#[test]
fn forward_step_is_greater() {
    let mut n = 0;
    for (a, d, b) in pairs() {
        let (ab, ba) = (before(d), before(d.wrapping_neg()));
        let eq = d == 0;
        let got = [a.lt(b), a.le(b), a.gt(b), a.ge(b)];
        assert_eq!(
            got,
            [ab, ab || eq, ba, ba || eq],
            "{a:?} vs {b:?} (delta {d})"
        );
        n += 1;
    }
    assert_eq!(n, 8 * 258);
}

/// Away from 0 and the 2^31 ambiguity point exactly one strict order
/// holds (both stacks keep windows far smaller, as TCP must).
#[test]
fn ordering_is_antisymmetric() {
    let mut n = 0;
    for (a, _, b) in pairs().filter(|&(_, d, _)| d != 0 && d != HALF) {
        assert_ne!(a.lt(b), b.lt(a), "{a:?} vs {b:?}");
        assert!(!(a.gt(b) && b.gt(a)), "{a:?} vs {b:?}");
        n += 1;
    }
    assert_eq!(n, 8 * 256);
}

/// Equality is reflexive and excludes strict orderings.
#[test]
fn equality_cases() {
    let mut n = 0;
    for (_, _, a) in pairs() {
        assert!(a.le(a) && a.ge(a) && !a.lt(a) && !a.gt(a), "{a:?}");
        n += 1;
    }
    assert_eq!(n, 8 * 258);
}

/// `x.in_window(lo, len)` holds exactly when `x` is fewer than `len`
/// steps ahead of `lo`.
#[test]
fn window_membership_is_exact() {
    let mut n = 0;
    for (lo, d, x) in pairs() {
        for len in LENS {
            assert_eq!(x.in_window(lo, len), d < len, "{x:?} in [{lo:?}, +{len})");
            n += 1;
        }
    }
    assert_eq!(n, 8 * 258 * 10);
}

/// Transitivity within a window: three points inside one half-ring
/// window order by offset, for every triple of small and near-2^30
/// offsets from every base.
#[test]
fn ordering_matches_offsets_within_window() {
    const OFFS: [u32; 8] = [
        0,
        1,
        2,
        63,
        0x3FFF_FFFD,
        0x3FFF_FFFE,
        0x3FFF_FFFF,
        0x4000_0000,
    ];
    let mut n = 0;
    for lo in BASES {
        for (i, &x) in OFFS.iter().enumerate() {
            for (j, &y) in OFFS.iter().enumerate().skip(i + 1) {
                for &z in &OFFS[j + 1..] {
                    let [p, q, r] = [x, y, z].map(|o| Seq(lo) + o);
                    assert!(
                        p.lt(q) && q.lt(r) && p.lt(r),
                        "offsets {x} {y} {z} at base {lo}"
                    );
                    n += 1;
                }
            }
        }
    }
    assert_eq!(n, 8 * 56);
}
