//! The wire codec is a faithful inverse of the structured segment
//! representation, and corruption never passes validation: round trips
//! over every flag byte × option combination × ECN codepoint, then seeded
//! loops over random segments.

use std::net::Ipv4Addr;
use tas_repro::proto::{wire, Ecn, MacAddr, ParseError, Segment, Seq, TcpFlags, TcpHeader};
use tas_repro::sim::Rng;

/// A segment with the given flag byte, option set (one bit each for MSS,
/// window scale, timestamp, SACK block and SACK-permitted) and ECN bits;
/// every other field, and a payload shorter than `max_payload` bytes, are
/// drawn from `rng`.
fn segment(rng: &mut Rng, flags: u8, opts: u8, ecn: u8, max_payload: u64) -> Segment {
    let mut tcp = TcpHeader::new(
        rng.next_u64() as u16,
        rng.next_u64() as u16,
        rng.next_u32(),
        rng.next_u32(),
        TcpFlags(flags),
    );
    tcp.window = rng.next_u64() as u16;
    let o = &mut tcp.options;
    o.mss = (opts & 1 != 0).then(|| rng.next_u64() as u16);
    o.wscale = (opts & 2 != 0).then(|| rng.below(15) as u8);
    o.timestamp = (opts & 4 != 0).then(|| (rng.next_u32(), rng.next_u32()));
    o.sack_block = (opts & 8 != 0).then(|| (rng.next_u32(), rng.next_u32()));
    o.sack_permitted = opts & 16 != 0;
    let payload: Vec<u8> = (0..rng.below(max_payload))
        .map(|_| rng.next_u64() as u8)
        .collect();
    let mut seg = Segment::tcp(
        MacAddr::for_host(1),
        MacAddr::for_host(2),
        Ipv4Addr::from(rng.next_u32()),
        Ipv4Addr::from(rng.next_u32()),
        tcp,
        payload,
        false,
    );
    seg.ip.ecn = Ecn::from_bits(ecn);
    seg
}

/// A segment with every field drawn from `rng`, payload up to 599 bytes.
fn random_segment(rng: &mut Rng) -> Segment {
    let (flags, opts, ecn) = (
        rng.next_u64() as u8,
        rng.below(32) as u8,
        rng.below(4) as u8,
    );
    segment(rng, flags, opts, ecn, 600)
}

/// serialize ∘ parse is the identity on structured segments, for every
/// flag byte × option combination × ECN codepoint.
#[test]
fn wire_round_trip() {
    let mut rng = Rng::new(0x317E);
    let mut n = 0;
    for flags in 0..=u8::MAX {
        for opts in 0..32 {
            for ecn in 0..4 {
                let seg = segment(&mut rng, flags, opts, ecn, 64);
                let bytes = wire::serialize(&seg);
                let state = format!("flags {flags:#04x}, options {opts:#07b}, ecn {ecn}");
                assert_eq!(bytes.len(), seg.wire_len(), "{state}");
                let back = wire::parse(&bytes).expect("own serialization must parse");
                assert_eq!(back, seg, "{state}");
                n += 1;
            }
        }
    }
    assert_eq!(n, 256 * 32 * 4);
}

/// Flipping any single bit is always detected (checksum or framing), or
/// parses to a *different* packet only when the flip is outside both
/// checksummed regions — which for Ethernet/IPv4/TCP means never.
#[test]
fn single_byte_corruption_detected() {
    for case in 0..256 {
        let mut rng = Rng::new(case);
        let seg = random_segment(&mut rng);
        let mut corrupted = wire::serialize(&seg);
        let i = rng.below(corrupted.len() as u64) as usize;
        corrupted[i] ^= 1 << rng.below(8);
        if let Ok(parsed) = wire::parse(&corrupted) {
            // Only the Ethernet header is not covered by a checksum; any
            // accepted parse must differ only in Ethernet fields.
            assert!(i < 14, "case {case}: undetected corruption at byte {i}");
            assert_eq!(parsed.ip, seg.ip, "case {case}");
            assert_eq!(parsed.tcp, seg.tcp, "case {case}");
            assert_eq!(parsed.payload, seg.payload, "case {case}");
        }
    }
}

/// Truncation at any point never panics and never yields a longer
/// payload than the original.
#[test]
fn truncation_never_panics() {
    for case in 0..256 {
        let mut rng = Rng::new(case);
        let seg = random_segment(&mut rng);
        let bytes = wire::serialize(&seg);
        let n = rng.below(bytes.len() as u64) as usize;
        match wire::parse(&bytes[..n]) {
            Err(
                ParseError::Truncated
                | ParseError::BadChecksum
                | ParseError::Unsupported
                | ParseError::BadOptions,
            ) => {}
            // A shorter valid parse can only happen if the IP total length
            // already fit in the truncated slice; then the payload must be
            // a prefix.
            Ok(p) => assert!(p.payload.len() <= seg.payload.len(), "case {case}"),
        }
    }
}

/// Sequence-space arithmetic is consistent: in_window agrees with the
/// ordering primitives.
#[test]
fn seq_window_consistent() {
    for case in 0..256 {
        let mut rng = Rng::new(case);
        let lo = Seq(rng.next_u32());
        let (len, delta) = (
            rng.range_inclusive(1, 999_999) as u32,
            rng.below(2_000_000) as u32,
        );
        let x = lo + delta;
        assert_eq!(x.in_window(lo, len), delta < len, "case {case}");
        assert!(delta == 0 || x.gt(lo), "case {case}");
    }
}
