//! Pcap export of traced segments.
//!
//! Replays the segments captured in a trace ring through
//! [`tas_proto::wire::serialize`] — the same codec the simulated NICs
//! would use on real hardware — into a classic nanosecond-resolution pcap
//! (magic `0xa1b2_3c4d`, LINKTYPE_ETHERNET) that Wireshark and tcpdump
//! open directly. A small reader parses the format back so tests can
//! round-trip an export through [`tas_proto::wire::parse`] and verify
//! checksums, ECN codepoints, and ordering survive the trip.

use crate::{TraceEvent, TraceRecord};
use tas_proto::wire;
use tas_proto::Segment;
use tas_sim::SimTime;

/// Nanosecond-resolution pcap magic (host byte order).
const MAGIC_NS: u32 = 0xa1b2_3c4d;
/// LINKTYPE_ETHERNET.
const LINKTYPE_EN10MB: u32 = 1;
const SNAPLEN: u32 = 65_535;

/// A pcap writer accumulating records in memory.
///
/// Timestamps are the simulated clock: `ts_sec`/`ts_nsec` are derived
/// from [`SimTime::as_nanos`], so a capture of a deterministic run is
/// itself byte-deterministic.
pub struct PcapWriter {
    buf: Vec<u8>,
}

impl PcapWriter {
    /// Creates a writer with the global header already emitted.
    pub fn new() -> PcapWriter {
        let mut buf = Vec::with_capacity(4096);
        buf.extend_from_slice(&MAGIC_NS.to_le_bytes());
        buf.extend_from_slice(&2u16.to_le_bytes()); // version major
        buf.extend_from_slice(&4u16.to_le_bytes()); // version minor
        buf.extend_from_slice(&0i32.to_le_bytes()); // thiszone
        buf.extend_from_slice(&0u32.to_le_bytes()); // sigfigs
        buf.extend_from_slice(&SNAPLEN.to_le_bytes());
        buf.extend_from_slice(&LINKTYPE_EN10MB.to_le_bytes());
        PcapWriter { buf }
    }

    /// Appends one segment stamped at simulated time `t`.
    pub fn push(&mut self, t: SimTime, seg: &Segment) {
        let frame = wire::serialize(seg);
        let ns = t.as_nanos();
        self.buf
            .extend_from_slice(&((ns / 1_000_000_000) as u32).to_le_bytes());
        self.buf
            .extend_from_slice(&((ns % 1_000_000_000) as u32).to_le_bytes());
        let len = frame.len().min(SNAPLEN as usize) as u32;
        self.buf.extend_from_slice(&len.to_le_bytes()); // incl_len
        self.buf
            .extend_from_slice(&(frame.len() as u32).to_le_bytes()); // orig_len
        self.buf.extend_from_slice(&frame[..len as usize]);
    }

    /// The finished capture bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if no packet records have been written.
    pub fn is_empty(&self) -> bool {
        self.buf.len() <= 24
    }
}

impl Default for PcapWriter {
    fn default() -> Self {
        PcapWriter::new()
    }
}

/// Builds a capture from trace records, keeping `SegRx`/`SegTx` events
/// whose site passes `site_filter` (e.g. `|s| s == "nic"` for what each
/// host sent, or `|_| true` for everything).
pub fn from_records(records: &[TraceRecord], mut site_filter: impl FnMut(&str) -> bool) -> Vec<u8> {
    let mut w = PcapWriter::new();
    for r in records {
        if !site_filter(r.site) {
            continue;
        }
        match &r.ev {
            TraceEvent::SegRx { seg } | TraceEvent::SegTx { seg } => w.push(r.t, seg),
            _ => {}
        }
    }
    w.into_bytes()
}

/// One packet read back from a capture.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PcapPacket {
    /// Capture timestamp, reconstructed on the simulated clock.
    pub t: SimTime,
    /// Raw frame bytes (feed to [`tas_proto::wire::parse`]).
    pub frame: Vec<u8>,
}

/// Errors from [`parse`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PcapError {
    /// Shorter than the 24-byte global header.
    TruncatedHeader,
    /// Magic number is not the nanosecond-pcap magic this crate writes.
    BadMagic(u32),
    /// A record header or body extends past the end of the buffer.
    TruncatedRecord,
}

/// Parses a capture produced by [`PcapWriter`] back into packets.
pub fn parse(bytes: &[u8]) -> Result<Vec<PcapPacket>, PcapError> {
    if bytes.len() < 24 {
        return Err(PcapError::TruncatedHeader);
    }
    let magic = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
    if magic != MAGIC_NS {
        return Err(PcapError::BadMagic(magic));
    }
    let mut off = 24;
    let mut out = Vec::new();
    while off < bytes.len() {
        if off + 16 > bytes.len() {
            return Err(PcapError::TruncatedRecord);
        }
        let sec = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as u64;
        let nsec = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().unwrap()) as u64;
        let incl = u32::from_le_bytes(bytes[off + 8..off + 12].try_into().unwrap()) as usize;
        off += 16;
        if off + incl > bytes.len() {
            return Err(PcapError::TruncatedRecord);
        }
        out.push(PcapPacket {
            t: SimTime::from_ps((sec * 1_000_000_000 + nsec) * 1000),
            frame: bytes[off..off + incl].to_vec(),
        });
        off += incl;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;
    use tas_proto::{MacAddr, TcpFlags, TcpHeader};

    fn seg(seq: u32, len: usize) -> Segment {
        Segment::tcp(
            MacAddr::for_host(1),
            MacAddr::for_host(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            TcpHeader::new(5000, 80, seq, 9, TcpFlags::ACK | TcpFlags::PSH),
            vec![0x5a; len],
            true,
        )
    }

    #[test]
    fn writer_reader_round_trip_preserves_frames_and_times() {
        let mut w = PcapWriter::new();
        assert!(w.is_empty());
        let s1 = seg(100, 32);
        let s2 = seg(132, 0);
        w.push(SimTime::from_us(7), &s1);
        w.push(SimTime::from_secs(2) + SimTime::from_ns(5), &s2);
        assert!(!w.is_empty());
        let bytes = w.into_bytes();

        let pkts = parse(&bytes).unwrap();
        assert_eq!(pkts.len(), 2);
        assert_eq!(pkts[0].t, SimTime::from_us(7));
        assert_eq!(pkts[1].t, SimTime::from_secs(2) + SimTime::from_ns(5));
        let back1 = wire::parse(&pkts[0].frame).unwrap();
        assert_eq!(back1.tcp.seq.0, 100);
        assert_eq!(back1.payload, vec![0x5a; 32]);
        let back2 = wire::parse(&pkts[1].frame).unwrap();
        assert_eq!(back2.tcp.seq.0, 132);
        assert!(back2.payload.is_empty());
    }

    #[test]
    fn from_records_keeps_only_segments_at_matching_sites() {
        let recs = vec![
            TraceRecord {
                t: SimTime::from_us(1),
                site: "nic",
                ev: TraceEvent::SegTx {
                    seg: Box::new(seg(1, 4)),
                },
            },
            TraceRecord {
                t: SimTime::from_us(2),
                site: "fp",
                ev: TraceEvent::SegTx {
                    seg: Box::new(seg(2, 4)),
                },
            },
            TraceRecord {
                t: SimTime::from_us(3),
                site: "nic",
                ev: TraceEvent::CoreScale {
                    active: 1,
                    delta: 1,
                },
            },
        ];
        let bytes = from_records(&recs, |s| s == "nic");
        let pkts = parse(&bytes).unwrap();
        assert_eq!(pkts.len(), 1);
        assert_eq!(wire::parse(&pkts[0].frame).unwrap().tcp.seq.0, 1);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(parse(&[0u8; 10]), Err(PcapError::TruncatedHeader));
        let mut bad = PcapWriter::new().into_bytes();
        bad[0] = 0xff;
        assert!(matches!(parse(&bad), Err(PcapError::BadMagic(_))));
        let mut trunc = PcapWriter::new();
        trunc.push(SimTime::from_us(1), &seg(1, 10));
        let mut b = trunc.into_bytes();
        b.truncate(b.len() - 3);
        assert_eq!(parse(&b), Err(PcapError::TruncatedRecord));
    }
}
