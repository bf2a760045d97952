//! TCP header model: flags, options, and sequence-number arithmetic.

/// TCP flag bits.
///
/// # Examples
///
/// ```
/// use tas_proto::TcpFlags;
/// let f = TcpFlags::SYN | TcpFlags::ACK;
/// assert!(f.contains(TcpFlags::SYN));
/// assert!(!f.contains(TcpFlags::FIN));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    /// No flags.
    pub const EMPTY: TcpFlags = TcpFlags(0);
    /// FIN: sender is done sending.
    pub const FIN: TcpFlags = TcpFlags(0x01);
    /// SYN: synchronize sequence numbers.
    pub const SYN: TcpFlags = TcpFlags(0x02);
    /// RST: reset the connection.
    pub const RST: TcpFlags = TcpFlags(0x04);
    /// PSH: push buffered data to the application.
    pub const PSH: TcpFlags = TcpFlags(0x08);
    /// ACK: the acknowledgment field is valid.
    pub const ACK: TcpFlags = TcpFlags(0x10);
    /// URG: the urgent pointer is valid (a fast-path exception).
    pub const URG: TcpFlags = TcpFlags(0x20);
    /// ECE: ECN echo — receiver saw CE (or SYN-time ECN negotiation).
    pub const ECE: TcpFlags = TcpFlags(0x40);
    /// CWR: congestion window reduced (sender response to ECE).
    pub const CWR: TcpFlags = TcpFlags(0x80);

    /// True when all bits of `other` are set in `self`.
    pub fn contains(self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// True when any bit of `other` is set in `self`.
    pub fn intersects(self, other: TcpFlags) -> bool {
        self.0 & other.0 != 0
    }
}

impl std::ops::BitOr for TcpFlags {
    type Output = TcpFlags;
    fn bitor(self, rhs: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | rhs.0)
    }
}

impl std::ops::BitOrAssign for TcpFlags {
    fn bitor_assign(&mut self, rhs: TcpFlags) {
        self.0 |= rhs.0;
    }
}

/// The TCP options TAS negotiates and uses (§3.1–3.2 of the paper: MSS,
/// timestamps for RTT estimation, window scaling).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct TcpOptions {
    /// Maximum segment size (SYN-only).
    pub mss: Option<u16>,
    /// Window scale shift count (SYN-only).
    pub wscale: Option<u8>,
    /// Timestamp value and echo reply (TSval, TSecr).
    pub timestamp: Option<(u32, u32)>,
    /// SACK-permitted (SYN-only); TAS itself does not send SACK blocks but
    /// the Linux baseline model negotiates this.
    pub sack_permitted: bool,
    /// First SACK block (left, right edge), when the receiver holds
    /// out-of-order data (kind 5; one block suffices for the models here).
    pub sack_block: Option<(u32, u32)>,
}

impl TcpOptions {
    /// Wire length the options occupy, padded to a multiple of 4.
    pub fn wire_len(&self) -> usize {
        let mut n = 0;
        if self.mss.is_some() {
            n += 4;
        }
        if self.wscale.is_some() {
            n += 3;
        }
        if self.timestamp.is_some() {
            n += 10;
        }
        if self.sack_permitted {
            n += 2;
        }
        if self.sack_block.is_some() {
            n += 10;
        }
        (n + 3) & !3
    }

    /// The RTT sample, in µs, that the timestamp echo yields at `now_us`.
    /// TSecr is peer-controlled and timestamp time wraps at 2^32, so the
    /// distance is taken in that space: an echo of 0, or one ahead of the
    /// clock, is no sample.
    #[inline]
    pub fn echo_rtt_us(&self, now_us: u64) -> Option<u32> {
        let (_, tsecr) = self.timestamp?;
        let d = (now_us as u32).wrapping_sub(tsecr);
        (tsecr != 0 && d as i32 >= 0).then(|| d.max(1))
    }
}

/// A TCP header in structured form.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TcpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number of the first payload byte.
    pub seq: Seq,
    /// Acknowledgment number (next expected byte), valid with ACK.
    pub ack: Seq,
    /// Flags.
    pub flags: TcpFlags,
    /// Receive window (unscaled wire value).
    pub window: u16,
    /// Urgent pointer (always 0 in the simulator; URG is an exception).
    pub urgent: u16,
    /// Options.
    pub options: TcpOptions,
}

impl TcpHeader {
    /// Wire length of the header without options.
    pub const BASE_LEN: usize = 20;

    /// Total wire length including padded options.
    pub fn wire_len(&self) -> usize {
        Self::BASE_LEN + self.options.wire_len()
    }

    /// A bare data/ACK header with the given endpoints.
    pub fn new(src_port: u16, dst_port: u16, seq: u32, ack: u32, flags: TcpFlags) -> Self {
        TcpHeader {
            src_port,
            dst_port,
            seq: Seq(seq),
            ack: Seq(ack),
            flags,
            window: 0,
            urgent: 0,
            options: TcpOptions::default(),
        }
    }
}

/// A TCP sequence number: a position in the 2^32 sequence space, where
/// every comparison is modular (RFC 793 §3.3).
///
/// `+ u32` wraps and `Seq - Seq` is the forward distance, so neither can
/// overflow. There is deliberately no `PartialOrd`: a bare comparison
/// would mis-order across the wrap, so it does not compile, and the
/// methods ([`Seq::lt`], [`Seq::in_window`], …) are the only ordering.
///
/// ```
/// use tas_proto::tcp::Seq;
/// let (a, b) = (Seq(u32::MAX - 1), Seq(1));
/// assert!(a.lt(b) && b.gt(a));
/// assert_eq!(b - a, 3);
/// assert_eq!(a + 3, b);
/// ```
///
/// ```compile_fail,E0369
/// use tas_proto::tcp::Seq;
/// let _ = Seq(1) < Seq(2);
/// ```
///
/// ```compile_fail,E0308
/// use tas_proto::tcp::Seq;
/// let _ = Seq(1) == 1u32;
/// ```
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Seq(pub u32);

impl Seq {
    /// True when `self` comes before `other` in sequence space.
    pub fn lt(self, other: Seq) -> bool {
        ((self - other) as i32) < 0
    }

    /// True when `self` is `other` or comes before it.
    pub fn le(self, other: Seq) -> bool {
        self == other || self.lt(other)
    }

    /// True when `self` comes after `other` in sequence space.
    pub fn gt(self, other: Seq) -> bool {
        other.lt(self)
    }

    /// True when `self` is `other` or comes after it.
    pub fn ge(self, other: Seq) -> bool {
        other.le(self)
    }

    /// True when `self` lies in the half-open window `[lo, lo + len)`.
    pub fn in_window(self, lo: Seq, len: u32) -> bool {
        self - lo < len
    }
}

impl std::ops::Add<u32> for Seq {
    type Output = Seq;
    fn add(self, n: u32) -> Seq {
        Seq(self.0.wrapping_add(n))
    }
}

impl std::ops::Sub for Seq {
    type Output = u32;
    /// The forward distance from `rhs` to `self` (huge when `self` is behind).
    fn sub(self, rhs: Seq) -> u32 {
        self.0.wrapping_sub(rhs.0)
    }
}

impl std::fmt::Display for Seq {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

/// The bare number, so traces and `Debug` dumps read as before.
impl std::fmt::Debug for Seq {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_ops() {
        let f = TcpFlags::SYN | TcpFlags::ECE | TcpFlags::CWR;
        assert!(f.contains(TcpFlags::SYN | TcpFlags::ECE));
        assert!(f.intersects(TcpFlags::CWR));
        assert!(!f.contains(TcpFlags::ACK));
        let mut g = TcpFlags::EMPTY;
        g |= TcpFlags::FIN;
        assert!(g.contains(TcpFlags::FIN));
    }

    #[test]
    fn option_lengths_are_padded() {
        let mut o = TcpOptions::default();
        assert_eq!(o.wire_len(), 0);
        o.mss = Some(1460);
        assert_eq!(o.wire_len(), 4);
        o.wscale = Some(7);
        assert_eq!(o.wire_len(), 8); // 4 + 3 padded to 8.
        o.timestamp = Some((1, 2));
        assert_eq!(o.wire_len(), 20); // 4 + 3 + 10 = 17 padded to 20.
        o.sack_permitted = true;
        assert_eq!(o.wire_len(), 20); // 19 padded to 20.
    }

    #[test]
    fn header_wire_len() {
        let mut h = TcpHeader::new(1, 2, 0, 0, TcpFlags::SYN);
        assert_eq!(h.wire_len(), 20);
        h.options.mss = Some(1460);
        assert_eq!(h.wire_len(), 24);
    }

    #[test]
    fn seq_across_the_wrap() {
        let (hi, lo, half) = (Seq(u32::MAX - 1), Seq(1), i32::MAX as u32);
        // (a, b, [a.lt(b), a.le(b), a.gt(b), a.ge(b)], b - a)
        let table = [
            (hi, lo, [true, true, false, false], 3),
            (lo, hi, [false, false, true, true], u32::MAX - 2),
            (Seq(u32::MAX), Seq(0), [true, true, false, false], 1),
            (Seq(5), Seq(5), [false, true, false, true], 0),
            // Half the ring is ahead, half behind (2^31 apart is undefined).
            (Seq(0), Seq(half), [true, true, false, false], half),
            (Seq(0), Seq(half + 2), [false, false, true, true], half + 2),
        ];
        for (a, b, order, dist) in table {
            assert_eq!([a.lt(b), a.le(b), a.gt(b), a.ge(b)], order, "{a} vs {b}");
            assert_eq!(b - a, dist, "{a} to {b}");
        }
        assert_eq!(hi + 3, lo);
        assert_eq!(lo + u32::MAX, Seq(0));
        // [u32::MAX - 1, u32::MAX - 1 + 4) holds MAX-1, MAX, 0, 1.
        let max = Seq(u32::MAX);
        for (x, inside) in [(hi, true), (max, true), (lo, true), (Seq(2), false)] {
            assert_eq!(x.in_window(hi, 4), inside, "{x}");
        }
        assert!(!hi.in_window(hi, 0), "an empty window holds nothing");
        assert_eq!(format!("{lo} {lo:?}"), "1 1");
    }
}
