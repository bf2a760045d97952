//! Property tests: the wire codec is a faithful inverse of the structured
//! segment representation, and corruption never passes validation.

use proptest::prelude::*;
use std::net::Ipv4Addr;
use tas_repro::proto::{wire, Ecn, MacAddr, ParseError, Segment, TcpFlags, TcpHeader};

fn arb_flags() -> impl Strategy<Value = TcpFlags> {
    // Any combination of real flag bits.
    (0u8..=0xff).prop_map(TcpFlags)
}

fn arb_segment() -> impl Strategy<Value = Segment> {
    (
        (any::<u32>(), any::<u32>(), any::<u16>(), any::<u16>()), // addressing
        (any::<u32>(), any::<u32>(), arb_flags(), any::<u16>()),  // seq/ack/flags/window
        (
            proptest::option::of(any::<u16>()),        // mss
            proptest::option::of(0u8..15),             // wscale
            proptest::option::of(any::<(u32, u32)>()), // timestamp
            proptest::option::of(any::<(u32, u32)>()), // sack block
            any::<bool>(),                             // sack permitted
        ),
        0u8..=3,                                        // ecn bits
        proptest::collection::vec(any::<u8>(), 0..600), // payload
    )
        .prop_map(
            |(
                (sip, dip, sp, dp),
                (seq, ack, flags, window),
                (mss, ws, ts, sack, sp2),
                ecn,
                payload,
            )| {
                let mut tcp = TcpHeader::new(sp, dp, seq, ack, flags);
                tcp.window = window;
                tcp.options.mss = mss;
                tcp.options.wscale = ws;
                tcp.options.timestamp = ts;
                tcp.options.sack_block = sack;
                tcp.options.sack_permitted = sp2;
                let mut seg = Segment::tcp(
                    MacAddr::for_host(1),
                    MacAddr::for_host(2),
                    Ipv4Addr::from(sip),
                    Ipv4Addr::from(dip),
                    tcp,
                    payload,
                    false,
                );
                seg.ip.ecn = Ecn::from_bits(ecn);
                seg
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// serialize ∘ parse is the identity on structured segments.
    #[test]
    fn wire_round_trip(seg in arb_segment()) {
        let bytes = wire::serialize(&seg);
        prop_assert_eq!(bytes.len(), seg.wire_len());
        let back = wire::parse(&bytes).expect("own serialization must parse");
        prop_assert_eq!(back, seg);
    }

    /// Flipping any single byte is always detected (checksum or framing),
    /// or parses to a *different* packet only when the flip is outside
    /// both checksummed regions — which for Ethernet/IPv4/TCP means never.
    #[test]
    fn single_byte_corruption_detected(seg in arb_segment(), idx in any::<prop::sample::Index>(), bit in 0u8..8) {
        let bytes = wire::serialize(&seg);
        let mut corrupted = bytes.clone();
        let i = idx.index(corrupted.len());
        corrupted[i] ^= 1 << bit;
        match wire::parse(&corrupted) {
            Err(_) => {} // Detected: good.
            Ok(parsed) => {
                // Only the Ethernet header is not covered by a checksum;
                // any accepted parse must differ only in Ethernet fields.
                prop_assert!(i < 14, "undetected corruption at byte {i}");
                prop_assert_eq!(parsed.ip, seg.ip);
                prop_assert_eq!(parsed.tcp, seg.tcp);
                prop_assert_eq!(parsed.payload, seg.payload);
            }
        }
    }

    /// Truncation at any point never panics and never yields a full parse
    /// of the original length.
    #[test]
    fn truncation_never_panics(seg in arb_segment(), cut in any::<prop::sample::Index>()) {
        let bytes = wire::serialize(&seg);
        let n = cut.index(bytes.len());
        match wire::parse(&bytes[..n]) {
            Err(ParseError::Truncated) | Err(ParseError::BadChecksum) | Err(ParseError::Unsupported) | Err(ParseError::BadOptions) => {}
            Ok(p) => {
                // A shorter valid parse can only happen if the IP total
                // length already fit in the truncated slice; then payload
                // must be a prefix.
                prop_assert!(p.payload.len() <= seg.payload.len());
            }
        }
    }

    /// Sequence-space arithmetic is consistent: in_window agrees with the
    /// ordering primitives.
    #[test]
    fn seq_window_consistent(lo in any::<u32>(), len in 1u32..1_000_000, delta in 0u32..2_000_000) {
        use tas_repro::proto::Seq;
        let (lo, x) = (Seq(lo), Seq(lo) + delta);
        prop_assert_eq!(x.in_window(lo, len), delta < len);
        if delta > 0 && delta < u32::MAX / 2 {
            prop_assert!(x.gt(lo) || delta == 0);
        }
    }
}
