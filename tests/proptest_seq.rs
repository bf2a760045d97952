//! Property tests for RFC 793 sequence-number arithmetic.
//!
//! Every ACK-acceptance, window, and out-of-order decision in both stacks
//! reduces to the methods of `Seq`; a wraparound bug here corrupts
//! connections only once per 4 GB of stream, which no example-based test
//! reliably catches.

use proptest::prelude::*;
use tas_repro::proto::Seq;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Moving forward by 1..2^31-1 is always "greater", regardless of
    /// where the wrap falls.
    #[test]
    fn forward_step_is_greater(a in any::<u32>(), d in 1u32..0x8000_0000) {
        let (a, b) = (Seq(a), Seq(a) + d);
        prop_assert!(a.lt(b));
        prop_assert!(a.le(b));
        prop_assert!(b.gt(a));
        prop_assert!(b.ge(a));
        prop_assert!(!b.lt(a));
    }

    /// For distances below the 2^31 ambiguity point, exactly one ordering
    /// holds (RFC 793 comparisons are undefined at exactly 2^31 apart —
    /// both stacks keep windows far smaller, as TCP must).
    #[test]
    fn ordering_is_antisymmetric(a in any::<u32>(), d in 1u32..0x8000_0000) {
        let (a, b) = (Seq(a), Seq(a) + d);
        prop_assert_ne!(a.lt(b), b.lt(a));
        prop_assert!(!(a.gt(b) && b.gt(a)));
    }

    /// Equality is reflexive and excludes strict orderings.
    #[test]
    fn equality_cases(a in any::<u32>()) {
        let a = Seq(a);
        prop_assert!(a.le(a));
        prop_assert!(a.ge(a));
        prop_assert!(!a.lt(a));
        prop_assert!(!a.gt(a));
    }

    /// `Seq - Seq` inverts `Seq + u32` exactly, across the wrap.
    #[test]
    fn sub_inverts_add(a in any::<u32>(), d in any::<u32>()) {
        prop_assert_eq!((Seq(a) + d) - Seq(a), d);
    }

    /// `x.in_window(lo, len)` holds exactly for the `len` sequence
    /// numbers starting at `lo`, wherever the window wraps.
    #[test]
    fn window_membership_is_exact(
        lo in any::<u32>(),
        len in 1u32..0x8000_0000,
        probe in any::<u32>(),
    ) {
        let (lo, probe) = (Seq(lo), Seq(probe));
        // A point chosen inside is always in; the two boundary points
        // behave half-open.
        let inside = lo + probe.0 % len;
        prop_assert!(inside.in_window(lo, len));
        prop_assert!(lo.in_window(lo, len));
        prop_assert!(!(lo + len).in_window(lo, len));
        // An arbitrary probe agrees with the distance definition.
        prop_assert_eq!(probe.in_window(lo, len), probe - lo < len);
    }

    /// Transitivity within a window: if three points sit inside one
    /// half-ring window, their pairwise ordering by offset matches `lt`.
    #[test]
    fn ordering_matches_offsets_within_window(
        lo in any::<u32>(),
        mut offs in proptest::collection::vec(0u32..0x4000_0000, 3),
    ) {
        offs.sort_unstable();
        offs.dedup();
        let pts: Vec<Seq> = offs.iter().map(|&o| Seq(lo) + o).collect();
        for i in 0..pts.len() {
            for j in (i + 1)..pts.len() {
                prop_assert!(pts[i].lt(pts[j]), "offsets {offs:?} at base {lo}");
            }
        }
    }
}
