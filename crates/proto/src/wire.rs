//! Byte-level wire codec for [`Segment`].
//!
//! The simulator passes structured segments, but the codec here is complete
//! (checksums, options, padding) and round-trip property-tested, so the
//! structured form provably carries everything the wire form does.

use crate::checksum::Checksum;
use crate::eth::{EthHeader, EtherType, MacAddr};
use crate::ipv4::{Ecn, Ipv4Header};
use crate::segment::Segment;
use crate::tcp::{Seq, TcpFlags, TcpHeader, TcpOptions};
use crate::ParseError;
use std::net::Ipv4Addr;

/// Serializes a segment to wire bytes, computing both checksums.
pub fn serialize(seg: &Segment) -> Vec<u8> {
    let mut out = Vec::with_capacity(seg.wire_len());
    // Ethernet.
    out.extend_from_slice(&seg.eth.dst.0);
    out.extend_from_slice(&seg.eth.src.0);
    out.extend_from_slice(&seg.eth.ethertype.value().to_be_bytes());
    // IPv4.
    let ip_start = out.len();
    let ip = &seg.ip;
    out.push(0x45); // Version 4, IHL 5.
    out.push((ip.dscp << 2) | ip.ecn.bits());
    out.extend_from_slice(&ip.total_len.to_be_bytes());
    out.extend_from_slice(&ip.ident.to_be_bytes());
    let mut flags_frag = ip.frag_offset & 0x1FFF;
    if ip.dont_fragment {
        flags_frag |= 0x4000;
    }
    if ip.more_fragments {
        flags_frag |= 0x2000;
    }
    out.extend_from_slice(&flags_frag.to_be_bytes());
    out.push(ip.ttl);
    out.push(ip.protocol);
    out.extend_from_slice(&[0, 0]); // Checksum placeholder.
    out.extend_from_slice(&ip.src.octets());
    out.extend_from_slice(&ip.dst.octets());
    let ipck = {
        let mut c = Checksum::new();
        c.add_bytes(&out[ip_start..ip_start + Ipv4Header::LEN]);
        c.finish()
    };
    out[ip_start + 10..ip_start + 12].copy_from_slice(&ipck.to_be_bytes());
    // TCP.
    let tcp_start = out.len();
    let t = &seg.tcp;
    out.extend_from_slice(&t.src_port.to_be_bytes());
    out.extend_from_slice(&t.dst_port.to_be_bytes());
    out.extend_from_slice(&t.seq.0.to_be_bytes());
    out.extend_from_slice(&t.ack.0.to_be_bytes());
    let data_off = (t.wire_len() / 4) as u8;
    out.push(data_off << 4);
    out.push(t.flags.0);
    out.extend_from_slice(&t.window.to_be_bytes());
    out.extend_from_slice(&[0, 0]); // Checksum placeholder.
    out.extend_from_slice(&t.urgent.to_be_bytes());
    write_options(&mut out, &t.options);
    debug_assert_eq!(out.len() - tcp_start, t.wire_len());
    out.extend_from_slice(&seg.payload);
    // TCP pseudo-header checksum.
    let tcp_len = (out.len() - tcp_start) as u16;
    let tcpck = {
        let mut c = Checksum::new();
        c.add_bytes(&ip.src.octets());
        c.add_bytes(&ip.dst.octets());
        c.add_u16(ip.protocol as u16);
        c.add_u16(tcp_len);
        c.add_bytes(&out[tcp_start..]);
        c.finish()
    };
    out[tcp_start + 16..tcp_start + 18].copy_from_slice(&tcpck.to_be_bytes());
    out
}

fn write_options(out: &mut Vec<u8>, o: &TcpOptions) {
    let start = out.len();
    if let Some(mss) = o.mss {
        out.push(2);
        out.push(4);
        out.extend_from_slice(&mss.to_be_bytes());
    }
    if let Some(ws) = o.wscale {
        out.push(3);
        out.push(3);
        out.push(ws);
    }
    if o.sack_permitted {
        out.push(4);
        out.push(2);
    }
    if let Some((val, ecr)) = o.timestamp {
        out.push(8);
        out.push(10);
        out.extend_from_slice(&val.to_be_bytes());
        out.extend_from_slice(&ecr.to_be_bytes());
    }
    if let Some((l, r)) = o.sack_block {
        out.push(5);
        out.push(10);
        out.extend_from_slice(&l.to_be_bytes());
        out.extend_from_slice(&r.to_be_bytes());
    }
    // Pad to 4-byte multiple with NOPs.
    while !(out.len() - start).is_multiple_of(4) {
        out.push(1);
    }
}

fn parse_options(mut b: &[u8]) -> Result<TcpOptions, ParseError> {
    let mut o = TcpOptions::default();
    while !b.is_empty() {
        match b[0] {
            0 => break,       // EOL.
            1 => b = &b[1..], // NOP.
            kind => {
                if b.len() < 2 {
                    return Err(ParseError::BadOptions);
                }
                let len = b[1] as usize;
                if len < 2 || len > b.len() {
                    return Err(ParseError::BadOptions);
                }
                let body = &b[2..len];
                match (kind, len) {
                    (2, 4) => o.mss = Some(u16::from_be_bytes([body[0], body[1]])),
                    (3, 3) => o.wscale = Some(body[0]),
                    (4, 2) => o.sack_permitted = true,
                    (8, 10) => {
                        o.timestamp = Some((
                            u32::from_be_bytes([body[0], body[1], body[2], body[3]]),
                            u32::from_be_bytes([body[4], body[5], body[6], body[7]]),
                        ))
                    }
                    (5, 10) => {
                        o.sack_block = Some((
                            u32::from_be_bytes([body[0], body[1], body[2], body[3]]),
                            u32::from_be_bytes([body[4], body[5], body[6], body[7]]),
                        ))
                    }
                    // Unknown options are skipped (fast path would raise an
                    // exception; the codec is liberal in what it accepts).
                    _ => {}
                }
                b = &b[len..];
            }
        }
    }
    Ok(o)
}

/// Parses wire bytes into a segment, verifying both checksums.
pub fn parse(bytes: &[u8]) -> Result<Segment, ParseError> {
    if bytes.len() < EthHeader::LEN + Ipv4Header::LEN + TcpHeader::BASE_LEN {
        return Err(ParseError::Truncated);
    }
    let eth = EthHeader {
        dst: MacAddr(bytes[0..6].try_into().expect("sized")),
        src: MacAddr(bytes[6..12].try_into().expect("sized")),
        ethertype: EtherType::from_value(u16::from_be_bytes([bytes[12], bytes[13]])),
    };
    if eth.ethertype != EtherType::Ipv4 {
        return Err(ParseError::Unsupported);
    }
    let b = &bytes[EthHeader::LEN..];
    if b[0] >> 4 != 4 {
        return Err(ParseError::Unsupported);
    }
    let ihl = (b[0] & 0xF) as usize * 4;
    if ihl != Ipv4Header::LEN {
        // IP options: not generated by any stack here.
        return Err(ParseError::Unsupported);
    }
    if !crate::checksum::verify(&b[..ihl]) {
        return Err(ParseError::BadChecksum);
    }
    let total_len = u16::from_be_bytes([b[2], b[3]]);
    if (total_len as usize) > b.len() {
        return Err(ParseError::Truncated);
    }
    let flags_frag = u16::from_be_bytes([b[6], b[7]]);
    let ip = Ipv4Header {
        src: Ipv4Addr::new(b[12], b[13], b[14], b[15]),
        dst: Ipv4Addr::new(b[16], b[17], b[18], b[19]),
        dscp: b[1] >> 2,
        ecn: Ecn::from_bits(b[1]),
        ident: u16::from_be_bytes([b[4], b[5]]),
        dont_fragment: flags_frag & 0x4000 != 0,
        more_fragments: flags_frag & 0x2000 != 0,
        frag_offset: flags_frag & 0x1FFF,
        ttl: b[8],
        protocol: b[9],
        total_len,
    };
    if ip.protocol != Ipv4Header::PROTO_TCP {
        return Err(ParseError::Unsupported);
    }
    let t = &b[ihl..total_len as usize];
    if t.len() < TcpHeader::BASE_LEN {
        return Err(ParseError::Truncated);
    }
    let data_off = (t[12] >> 4) as usize * 4;
    if data_off < TcpHeader::BASE_LEN || data_off > t.len() {
        return Err(ParseError::Truncated);
    }
    // Verify the pseudo-header checksum over the whole TCP region.
    let mut c = Checksum::new();
    c.add_bytes(&ip.src.octets());
    c.add_bytes(&ip.dst.octets());
    c.add_u16(ip.protocol as u16);
    c.add_u16(t.len() as u16);
    c.add_bytes(t);
    if c.finish() != 0 {
        return Err(ParseError::BadChecksum);
    }
    let tcp = TcpHeader {
        src_port: u16::from_be_bytes([t[0], t[1]]),
        dst_port: u16::from_be_bytes([t[2], t[3]]),
        seq: Seq(u32::from_be_bytes([t[4], t[5], t[6], t[7]])),
        ack: Seq(u32::from_be_bytes([t[8], t[9], t[10], t[11]])),
        flags: TcpFlags(t[13]),
        window: u16::from_be_bytes([t[14], t[15]]),
        urgent: u16::from_be_bytes([t[18], t[19]]),
        options: parse_options(&t[TcpHeader::BASE_LEN..data_off])?,
    };
    Ok(Segment {
        eth,
        ip,
        tcp,
        payload: crate::payload::PayloadBuf::from_slice(&t[data_off..]),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::TcpHeader;

    fn sample() -> Segment {
        let mut tcp = TcpHeader::new(
            5000,
            80,
            0x01020304,
            0x0a0b0c0d,
            TcpFlags::ACK | TcpFlags::PSH,
        );
        tcp.window = 4096;
        tcp.options.timestamp = Some((123456, 654321));
        Segment::tcp(
            MacAddr::for_host(1),
            MacAddr::for_host(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            tcp,
            b"hello, TAS".to_vec(),
            true,
        )
    }

    #[test]
    fn round_trip_data_segment() {
        let seg = sample();
        let bytes = serialize(&seg);
        assert_eq!(bytes.len(), seg.wire_len());
        let back = parse(&bytes).expect("parse");
        assert_eq!(back, seg);
    }

    #[test]
    fn round_trip_syn_with_all_options() {
        let mut tcp = TcpHeader::new(1, 2, 7, 0, TcpFlags::SYN | TcpFlags::ECE | TcpFlags::CWR);
        tcp.options.mss = Some(1460);
        tcp.options.wscale = Some(7);
        tcp.options.sack_permitted = true;
        tcp.options.timestamp = Some((1, 0));
        let seg = Segment::tcp(
            MacAddr::for_host(3),
            MacAddr::for_host(4),
            Ipv4Addr::new(10, 0, 0, 3),
            Ipv4Addr::new(10, 0, 0, 4),
            tcp,
            Vec::new(),
            true,
        );
        let back = parse(&serialize(&seg)).expect("parse");
        assert_eq!(back, seg);
    }

    #[test]
    fn corrupt_ip_checksum_rejected() {
        let mut bytes = serialize(&sample());
        bytes[EthHeader::LEN + 8] ^= 0xff; // TTL flips, IP checksum breaks.
        assert_eq!(parse(&bytes), Err(ParseError::BadChecksum));
    }

    #[test]
    fn corrupt_payload_rejected_by_tcp_checksum() {
        let mut bytes = serialize(&sample());
        let n = bytes.len();
        bytes[n - 1] ^= 0xff;
        assert_eq!(parse(&bytes), Err(ParseError::BadChecksum));
    }

    #[test]
    fn truncated_rejected() {
        let bytes = serialize(&sample());
        assert_eq!(parse(&bytes[..30]), Err(ParseError::Truncated));
        assert_eq!(parse(&[]), Err(ParseError::Truncated));
    }

    #[test]
    fn non_ipv4_rejected() {
        let mut bytes = serialize(&sample());
        bytes[12] = 0x86; // EtherType -> IPv6-ish.
        bytes[13] = 0xdd;
        assert_eq!(parse(&bytes), Err(ParseError::Unsupported));
    }

    #[test]
    fn ce_mark_survives_round_trip() {
        let mut seg = sample();
        seg.ip.ecn = Ecn::Ce;
        // ECN lives in the IP header; re-serialize recomputes the checksum.
        let back = parse(&serialize(&seg)).expect("parse");
        assert_eq!(back.ip.ecn, Ecn::Ce);
    }
}
