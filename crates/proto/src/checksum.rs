//! The Internet checksum (RFC 1071) used by IPv4 and TCP.

/// Incremental ones-complement sum accumulator.
///
/// # Examples
///
/// ```
/// use tas_proto::checksum::Checksum;
/// let mut c = Checksum::new();
/// c.add_bytes(&[0x45, 0x00, 0x00, 0x1c]);
/// let _folded: u16 = c.finish();
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct Checksum {
    sum: u32,
}

impl Checksum {
    /// Creates a zeroed accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a 16-bit word.
    pub fn add_u16(&mut self, v: u16) {
        self.sum += v as u32;
    }

    /// Adds a byte slice, padding an odd trailing byte with zero.
    pub fn add_bytes(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(2);
        for c in &mut chunks {
            self.add_u16(u16::from_be_bytes([c[0], c[1]]));
        }
        if let [last] = chunks.remainder() {
            self.add_u16(u16::from_be_bytes([*last, 0]));
        }
    }

    /// Folds carries and returns the ones-complement checksum.
    pub fn finish(self) -> u16 {
        let mut s = self.sum;
        while s >> 16 != 0 {
            s = (s & 0xFFFF) + (s >> 16);
        }
        !(s as u16)
    }
}

/// One-shot checksum of a byte slice.
pub fn checksum(bytes: &[u8]) -> u16 {
    let mut c = Checksum::new();
    c.add_bytes(bytes);
    c.finish()
}

/// Verifies that a region containing its own checksum field sums to zero.
pub fn verify(bytes: &[u8]) -> bool {
    let mut c = Checksum::new();
    c.add_bytes(bytes);
    c.finish() == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1071_example() {
        // Example from RFC 1071 §3: 00 01 f2 03 f4 f5 f6 f7.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        let mut c = Checksum::new();
        c.add_bytes(&data);
        // Sum is 0xddf2 before complement.
        assert_eq!(c.finish(), !0xddf2);
    }

    #[test]
    fn known_ipv4_header_checksum() {
        // Classic example header (checksum field zeroed at bytes 10..12).
        let hdr = [
            0x45, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00, 0x40, 0x11, 0x00, 0x00, 0xc0, 0xa8,
            0x00, 0x01, 0xc0, 0xa8, 0x00, 0xc7,
        ];
        assert_eq!(checksum(&hdr), 0xb861);
    }

    #[test]
    fn verify_including_checksum_field() {
        let mut hdr = [
            0x45, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00, 0x40, 0x11, 0x00, 0x00, 0xc0, 0xa8,
            0x00, 0x01, 0xc0, 0xa8, 0x00, 0xc7,
        ];
        let ck = checksum(&hdr);
        hdr[10..12].copy_from_slice(&ck.to_be_bytes());
        assert!(verify(&hdr));
        hdr[0] ^= 0xff;
        assert!(!verify(&hdr));
    }

    #[test]
    fn odd_length_padding() {
        // Odd slice pads trailing byte as high-order.
        assert_eq!(checksum(&[0xab]), !0xab00);
    }

    #[test]
    fn empty_is_all_ones() {
        assert_eq!(checksum(&[]), 0xffff);
    }
}
