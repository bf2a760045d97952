//! Receive-side scaling: Toeplitz hashing and the redirection table.
//!
//! TAS steers packets to fast-path cores with the NIC's RSS redirection
//! table and updates that table eagerly when adding/removing cores (§3.4).
//! The hash is the standard Toeplitz construction over the IPv4 4-tuple
//! with the well-known Microsoft verification key, so hash values match
//! real NICs bit-for-bit.

use std::net::Ipv4Addr;

/// The Microsoft RSS verification key used by most NIC drivers by default.
pub const TOEPLITZ_KEY: [u8; 40] = [
    0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2, 0x41, 0x67, 0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0,
    0xd0, 0xca, 0x2b, 0xcb, 0xae, 0x7b, 0x30, 0xb4, 0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30, 0xf2, 0x0c,
    0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa,
];

/// Toeplitz hash over arbitrary input bytes with the given key, one input
/// bit at a time: the reference [`hash_tuple`]'s table is tested against.
pub fn toeplitz_hash(key: &[u8; 40], input: &[u8]) -> u32 {
    let mut result: u32 = 0;
    // The hash window is the first 32 bits of the key, shifting left one
    // bit per input bit.
    let mut window = u32::from_be_bytes([key[0], key[1], key[2], key[3]]);
    let mut next_bit_idx = 32; // Next key bit to shift into the window.
    for &byte in input {
        for bit in (0..8).rev() {
            if byte >> bit & 1 == 1 {
                result ^= window;
            }
            let next = if next_bit_idx < 320 {
                key[next_bit_idx / 8] >> (7 - next_bit_idx % 8) & 1
            } else {
                0
            };
            window = (window << 1) | next as u32;
            next_bit_idx += 1;
        }
    }
    result
}

/// Key bits `[bit, bit + 32)` of [`TOEPLITZ_KEY`]: the hash window that
/// input bit `bit` selects.
const fn key_window(bit: usize) -> u32 {
    let mut w: u32 = 0;
    let mut k = 0;
    while k < 32 {
        let idx = bit + k;
        w = (w << 1) | (TOEPLITZ_KEY[idx / 8] >> (7 - idx % 8) & 1) as u32;
        k += 1;
    }
    w
}

/// `TUPLE_TABLE[i][b]` is the hash of the 12-byte input whose byte `i` is
/// `b` and whose other bytes are zero. Toeplitz is linear over GF(2), so a
/// tuple's hash is the XOR of one entry per input byte (12 KiB, built at
/// compile time).
static TUPLE_TABLE: [[u32; 256]; 12] = {
    let mut t = [[0u32; 256]; 12];
    let mut i = 0;
    while i < 12 {
        let mut b = 0;
        while b < 256 {
            let mut bit = 0;
            while bit < 8 {
                if b >> (7 - bit) & 1 == 1 {
                    t[i][b] ^= key_window(i * 8 + bit);
                }
                bit += 1;
            }
            b += 1;
        }
        i += 1;
    }
    t
};

/// Hashes an IPv4/TCP 4-tuple as NICs do for RSS (src ip, dst ip, src
/// port, dst port, all big-endian): `toeplitz_hash(&TOEPLITZ_KEY, ..)` of
/// the 12 bytes, computed as one table lookup per byte.
pub fn hash_tuple(src: Ipv4Addr, dst: Ipv4Addr, sport: u16, dport: u16) -> u32 {
    tuple_bytes(src, dst, sport, dport)
        .iter()
        .zip(&TUPLE_TABLE)
        .fold(0, |h, (&b, row)| h ^ row[b as usize])
}

/// The RSS hash input for a 4-tuple: src ip, dst ip, src port, dst port,
/// big-endian.
fn tuple_bytes(src: Ipv4Addr, dst: Ipv4Addr, sport: u16, dport: u16) -> [u8; 12] {
    let mut input = [0u8; 12];
    input[0..4].copy_from_slice(&src.octets());
    input[4..8].copy_from_slice(&dst.octets());
    input[8..10].copy_from_slice(&sport.to_be_bytes());
    input[10..12].copy_from_slice(&dport.to_be_bytes());
    input
}

/// The NIC's RSS redirection table: hash → receive queue.
///
/// 128 entries as on the paper's Intel NICs. TAS rewrites entries to steer
/// flows toward or away from fast-path cores during scale-up/down.
///
/// # Examples
///
/// ```
/// use tas_netsim::RssTable;
/// let mut t = RssTable::new(4);
/// assert!(t.queue_for_hash(0x1234) < 4);
/// t.rebalance(2); // Steer everything onto queues 0..2.
/// assert!(t.queue_for_hash(0x1234) < 2);
/// ```
#[derive(Clone, Debug)]
pub struct RssTable {
    entries: Vec<u16>,
}

/// Number of redirection-table entries (Intel 82599/XL710 default).
pub const RSS_TABLE_SIZE: usize = 128;

impl RssTable {
    /// Creates a table spreading entries round-robin over `queues`.
    ///
    /// # Panics
    ///
    /// Panics if `queues` is zero.
    pub fn new(queues: usize) -> Self {
        assert!(queues > 0, "need at least one queue");
        let entries = (0..RSS_TABLE_SIZE).map(|i| (i % queues) as u16).collect();
        RssTable { entries }
    }

    /// Queue index for a hash value.
    pub fn queue_for_hash(&self, hash: u32) -> usize {
        self.entries[hash as usize % RSS_TABLE_SIZE] as usize
    }

    /// Rewrites the whole table to spread over the first `active` queues —
    /// the eager steering update of §3.4.
    ///
    /// # Panics
    ///
    /// Panics if `active` is zero.
    pub fn rebalance(&mut self, active: usize) {
        assert!(active > 0, "need at least one active queue");
        for (i, e) in self.entries.iter_mut().enumerate() {
            *e = (i % active) as u16;
        }
    }

    /// Number of distinct queues currently referenced.
    pub fn active_queues(&self) -> usize {
        let mut seen = std::collections::BTreeSet::new();
        for &e in &self.entries {
            seen.insert(e);
        }
        seen.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Known-answer vectors from the Microsoft RSS specification.
    #[test]
    fn toeplitz_known_answers_ipv4() {
        // (src, dst, sport, dport) -> expected hash, from the MSDN
        // verification suite ("IPv4 with TCP" rows).
        let cases = [
            (
                Ipv4Addr::new(66, 9, 149, 187),
                Ipv4Addr::new(161, 142, 100, 80),
                2794,
                1766,
                0x51cc_c178u32,
            ),
            (
                Ipv4Addr::new(199, 92, 111, 2),
                Ipv4Addr::new(65, 69, 140, 83),
                14230,
                4739,
                0xc626_b0eau32,
            ),
            (
                Ipv4Addr::new(24, 19, 198, 95),
                Ipv4Addr::new(12, 22, 207, 184),
                12898,
                38024,
                0x5c2b_394au32,
            ),
        ];
        for (src, dst, sport, dport, want) in cases {
            // The spec orders the tuple (src, dst, sport, dport).
            let got = hash_tuple(src, dst, sport, dport);
            assert_eq!(got, want, "tuple {src}:{sport} -> {dst}:{dport}");
        }
    }

    #[test]
    fn tuple_table_matches_bit_serial_reference() {
        let mut rng = tas_sim::Rng::new(0x7055);
        for _ in 0..100_000 {
            let (a, b) = (rng.next_u64(), rng.next_u64());
            let src = Ipv4Addr::from(a as u32);
            let dst = Ipv4Addr::from((a >> 32) as u32);
            let (sport, dport) = (b as u16, (b >> 16) as u16);
            assert_eq!(
                hash_tuple(src, dst, sport, dport),
                toeplitz_hash(&TOEPLITZ_KEY, &tuple_bytes(src, dst, sport, dport)),
                "tuple {src}:{sport} -> {dst}:{dport}"
            );
        }
    }

    #[test]
    fn table_spreads_round_robin() {
        let t = RssTable::new(4);
        let mut counts = [0u32; 4];
        for h in 0..1024u32 {
            counts[t.queue_for_hash(h)] += 1;
        }
        for c in counts {
            assert_eq!(c, 256);
        }
        assert_eq!(t.active_queues(), 4);
    }

    #[test]
    fn rebalance_restricts_queues() {
        let mut t = RssTable::new(8);
        t.rebalance(3);
        assert_eq!(t.active_queues(), 3);
        for h in 0..1000u32 {
            assert!(t.queue_for_hash(h) < 3);
        }
    }

    #[test]
    fn same_flow_same_queue() {
        let t = RssTable::new(6);
        let h = hash_tuple(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            80,
            5000,
        );
        assert_eq!(t.queue_for_hash(h), t.queue_for_hash(h));
    }
}
