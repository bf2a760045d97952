//! Wire-format walkthrough: build a TCP segment, serialize it to bytes
//! with real checksums, corrupt it, and watch validation catch it.
//!
//! Run with: `cargo run --release --example wire_format`

use std::net::Ipv4Addr;
use tas_repro::proto::{wire, MacAddr, Segment, TcpFlags, TcpHeader};

fn main() {
    // A SYN with the options TAS's slow path negotiates.
    let mut tcp = TcpHeader::new(40_000, 80, 0x1000_0000, 0, TcpFlags::SYN);
    tcp.flags |= TcpFlags::ECE | TcpFlags::CWR; // ECN negotiation.
    tcp.options.mss = Some(1448);
    tcp.options.wscale = Some(7);
    tcp.options.timestamp = Some((123_456, 0));
    tcp.window = 16_384;
    let seg = Segment::tcp(
        MacAddr::for_host(1),
        MacAddr::for_host(2),
        Ipv4Addr::new(10, 0, 0, 1),
        Ipv4Addr::new(10, 0, 0, 2),
        tcp,
        Vec::new(),
        false,
    );

    let bytes = wire::serialize(&seg);
    println!("segment: {} wire bytes", bytes.len());
    println!("  eth {:02x?}", &bytes[..14]);
    println!("  ip  {:02x?}", &bytes[14..34]);
    println!("  tcp {:02x?}", &bytes[34..]);

    // Round trip: everything (flags, options, checksums) survives.
    let parsed = wire::parse(&bytes).expect("valid packet parses");
    assert_eq!(parsed, seg);
    println!("round-trip parse: OK (headers, options and checksums verified)");

    // A single flipped payload/header bit fails the checksum.
    let mut corrupted = bytes.clone();
    corrupted[40] ^= 0x01; // Inside the TCP header.
    match wire::parse(&corrupted) {
        Err(e) => println!("corrupted segment rejected: {e}"),
        Ok(_) => unreachable!("corruption must not parse"),
    }

    // The simulator passes structured segments for speed; this codec is
    // the proof they are wire-equivalent (see tests/wire.rs).
    println!("flow key: {}", seg.flow_key());
}
