//! The per-packet 4-tuple index: [`FlowKey`] → dense `u32` id.
//!
//! [`FlowIndex`] maps a 4-tuple to its slot id with open addressing
//! (linear probing, backward-shift deletion) under a word-wise hash: the
//! key as two 64-bit words, one multiply each, and a multiply-xorshift
//! finalizer so the bucket bits (`& mask`) depend on every key bit: three
//! multiplies, two of them independent. Unlike `HashMap`'s SipHash it is
//! not DoS-resistant, and need not be: this is the per-packet lookup, and
//! the simulated NIC in the paper does it in hardware (§3.1's flow-group
//! steering). Both connection tables use it: the TAS fast path's flow
//! table and the Linux-model host's socket table. A unit test holds the
//! probe lengths on the benchmark's key shapes to what a uniform hash
//! gives.
//!
//! Lookups never allocate; the index allocates only on growth (doubling
//! at 3/4 load). The lookup path (`get`, `find`, `bucket_of`, `hash_key`)
//! is `#[inline(always)]`: its callers live in other crates, and without
//! link-time optimisation a non-generic function is not inlined across a
//! crate boundary unless it says so. `always` rather than a hint because
//! the probe must compile into the fast path's `rx_segment` whatever the
//! inliner's cost model decides; CI checks that it does (DESIGN.md §12).
#![cfg_attr(
    not(test),
    deny(
        unsafe_code,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

use crate::segment::FlowKey;

/// Sentinel for an empty [`FlowIndex`] bucket.
const VACANT: u32 = u32::MAX;

/// Initial bucket count (power of two).
const INDEX_MIN_BUCKETS: usize = 16;

/// Multipliers for the two key words (odd; the golden ratio and one of
/// xxHash's primes).
const MUL_ADDRS: u64 = 0x9e37_79b9_7f4a_7c15;
const MUL_PORTS: u64 = 0xc2b2_ae3d_27d4_eb4f;
/// The finalizer's multiplier (fmix64's first, from MurmurHash3).
const MUL_MIX: u64 = 0xff51_afd7_ed55_8ccd;

/// Hashes the 4-tuple as two words, both addresses and both ports, with
/// one independent multiply each. A multiply carries key bits only
/// upwards, so their xor is finished the way fmix64 starts (xor-shift,
/// multiply, xor-shift): the low bits that `& mask` keeps then depend on
/// every key bit.
#[inline(always)]
fn hash_key(key: &FlowKey) -> u64 {
    let addrs = (u64::from(u32::from(key.local_ip)) << 32) | u64::from(u32::from(key.remote_ip));
    let ports = (u64::from(key.local_port) << 16) | u64::from(key.remote_port);
    let mut h = addrs.wrapping_mul(MUL_ADDRS) ^ ports.wrapping_mul(MUL_PORTS);
    h ^= h >> 32;
    h = h.wrapping_mul(MUL_MIX);
    h ^ (h >> 32)
}

fn placeholder_key() -> FlowKey {
    FlowKey::new(
        std::net::Ipv4Addr::UNSPECIFIED,
        0,
        std::net::Ipv4Addr::UNSPECIFIED,
        0,
    )
}

/// An open-addressing 4-tuple → flow-id map for the per-packet lookup.
///
/// Parallel arrays (`keys`, `fids`) with power-of-two capacity; a bucket
/// is live iff its fid is not [`VACANT`]. Linear probing keeps clusters
/// cache-resident; deletion uses backward shifting so no tombstones
/// accumulate and lookups never degrade over connection churn.
#[derive(Debug)]
pub struct FlowIndex {
    keys: Vec<FlowKey>,
    fids: Vec<u32>,
    mask: usize,
    len: usize,
}

impl Default for FlowIndex {
    fn default() -> Self {
        FlowIndex {
            keys: vec![placeholder_key(); INDEX_MIN_BUCKETS],
            fids: vec![VACANT; INDEX_MIN_BUCKETS],
            mask: INDEX_MIN_BUCKETS - 1,
            len: 0,
        }
    }
}

impl FlowIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of installed keys.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no keys are installed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline(always)]
    fn bucket_of(&self, key: &FlowKey) -> usize {
        (hash_key(key) as usize) & self.mask
    }

    /// Finds the bucket holding `key`, if installed.
    #[inline(always)]
    fn find(&self, key: &FlowKey) -> Option<usize> {
        let mut i = self.bucket_of(key);
        loop {
            let fid = *self.fids.get(i)?;
            if fid == VACANT {
                return None;
            }
            if self.keys.get(i).is_some_and(|k| k == key) {
                return Some(i);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Looks up the flow id for `key`.
    #[inline(always)]
    pub fn get(&self, key: &FlowKey) -> Option<u32> {
        let i = self.find(key)?;
        self.fids.get(i).copied()
    }

    /// Installs `key → fid`, returning the previous id if the key was
    /// already present (overwritten).
    pub fn insert(&mut self, key: FlowKey, fid: u32) -> Option<u32> {
        debug_assert_ne!(fid, VACANT, "fid u32::MAX is reserved");
        if (self.len + 1) * 4 > (self.mask + 1) * 3 {
            self.grow();
        }
        let mut i = self.bucket_of(&key);
        loop {
            let Some(slot_fid) = self.fids.get_mut(i) else {
                debug_assert!(false, "probe ran off the bucket array");
                return None;
            };
            if *slot_fid == VACANT {
                *slot_fid = fid;
                if let Some(k) = self.keys.get_mut(i) {
                    *k = key;
                }
                self.len += 1;
                return None;
            }
            if self.keys.get(i).is_some_and(|k| *k == key) {
                let prev = *slot_fid;
                *slot_fid = fid;
                return Some(prev);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Removes `key`, returning its flow id. Backward-shifts the probe
    /// cluster so later lookups stay tombstone-free.
    pub fn remove(&mut self, key: &FlowKey) -> Option<u32> {
        let mut hole = self.find(key)?;
        let removed = self.fids.get(hole).copied()?;
        self.len -= 1;
        let mut j = hole;
        loop {
            j = (j + 1) & self.mask;
            let Some(&fid) = self.fids.get(j) else { break };
            if fid == VACANT {
                break;
            }
            let home = self.keys.get(j).map(|k| self.bucket_of(k)).unwrap_or(j);
            // Entry at j may slide into the hole only if its home bucket
            // is cyclically at-or-before the hole (otherwise the shift
            // would move it ahead of its probe start).
            if (j.wrapping_sub(home) & self.mask) >= (j.wrapping_sub(hole) & self.mask) {
                if let (Some(&k), Some(&f)) = (self.keys.get(j), self.fids.get(j)) {
                    if let Some(kh) = self.keys.get_mut(hole) {
                        *kh = k;
                    }
                    if let Some(fh) = self.fids.get_mut(hole) {
                        *fh = f;
                    }
                }
                hole = j;
            }
        }
        if let Some(f) = self.fids.get_mut(hole) {
            *f = VACANT;
        }
        Some(removed)
    }

    fn grow(&mut self) {
        let new_cap = (self.mask + 1) * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![placeholder_key(); new_cap]);
        let old_fids = std::mem::replace(&mut self.fids, vec![VACANT; new_cap]);
        self.mask = new_cap - 1;
        self.len = 0;
        for (k, f) in old_keys.into_iter().zip(old_fids) {
            if f != VACANT {
                self.insert(k, f);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn key(port: u16) -> FlowKey {
        FlowKey::new(
            Ipv4Addr::new(10, 0, 0, 1),
            80,
            Ipv4Addr::new(10, 0, 0, 2),
            port,
        )
    }

    #[test]
    fn index_insert_get_remove() {
        let mut ix = FlowIndex::new();
        assert!(ix.is_empty());
        assert_eq!(ix.insert(key(1), 10), None);
        assert_eq!(ix.insert(key(2), 20), None);
        assert_eq!(ix.get(&key(1)), Some(10));
        assert_eq!(ix.get(&key(2)), Some(20));
        assert_eq!(ix.get(&key(3)), None);
        assert_eq!(ix.insert(key(1), 11), Some(10), "reinsert overwrites");
        assert_eq!(ix.len(), 2);
        assert_eq!(ix.remove(&key(1)), Some(11));
        assert_eq!(ix.get(&key(1)), None);
        assert_eq!(ix.remove(&key(1)), None);
        assert_eq!(ix.len(), 1);
    }

    #[test]
    fn index_survives_growth_and_churn() {
        let mut ix = FlowIndex::new();
        for p in 0..1000u16 {
            ix.insert(key(p), p as u32);
        }
        assert_eq!(ix.len(), 1000);
        for p in 0..1000u16 {
            assert_eq!(ix.get(&key(p)), Some(p as u32));
        }
        // Remove every other key, then verify the survivors (exercises
        // backward-shift deletion through long probe clusters).
        for p in (0..1000u16).step_by(2) {
            assert_eq!(ix.remove(&key(p)), Some(p as u32));
        }
        assert_eq!(ix.len(), 500);
        for p in 0..1000u16 {
            let want = if p % 2 == 0 { None } else { Some(p as u32) };
            assert_eq!(ix.get(&key(p)), want);
        }
        // Refill the holes; lookups must still be exact.
        for p in (0..1000u16).step_by(2) {
            ix.insert(key(p), 100_000 + p as u32);
        }
        for p in (0..1000u16).step_by(2) {
            assert_eq!(ix.get(&key(p)), Some(100_000 + p as u32));
        }
    }

    #[test]
    fn index_matches_reference_map_under_random_ops() {
        // Differential test against BTreeMap with a deterministic LCG.
        use std::collections::BTreeMap;
        let mut ix = FlowIndex::new();
        let mut reference: BTreeMap<u16, u32> = BTreeMap::new();
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for step in 0..20_000u32 {
            let p = (next() % 512) as u16;
            match next() % 3 {
                0 | 1 => {
                    let prev = ix.insert(key(p), step);
                    assert_eq!(prev, reference.insert(p, step));
                }
                _ => {
                    assert_eq!(ix.remove(&key(p)), reference.remove(&p));
                }
            }
            if step % 1024 == 0 {
                assert_eq!(ix.len(), reference.len());
            }
        }
        for p in 0..512u16 {
            assert_eq!(ix.get(&key(p)), reference.get(&p).copied());
        }
    }

    /// Probes a lookup of each installed key takes: its distance from its
    /// home bucket, plus one.
    fn probe_stats(keys: &[FlowKey]) -> (f64, usize) {
        let mut ix = FlowIndex::new();
        for (i, k) in keys.iter().enumerate() {
            ix.insert(*k, i as u32);
        }
        assert_eq!(ix.len(), keys.len(), "keys are distinct");
        let probes: Vec<usize> = keys
            .iter()
            .map(|k| {
                let at = ix.find(k).expect("installed");
                (at.wrapping_sub(ix.bucket_of(k)) & ix.mask) + 1
            })
            .collect();
        let mean = probes.iter().sum::<usize>() as f64 / probes.len() as f64;
        (mean, probes.iter().copied().max().unwrap_or(0))
    }

    #[test]
    fn probe_lengths_stay_short_on_benchmark_key_shapes() {
        // `fp_rx_256k`'s flows (and their first 1,024, `fp_duplex_1k`):
        // one local socket, the remote address counting up.
        let fp_key = |i: usize| {
            FlowKey::new(
                Ipv4Addr::new(10, 0, 0, 1),
                80,
                Ipv4Addr::new(10, (i >> 16) as u8 + 1, (i >> 8) as u8, i as u8),
                7777,
            )
        };
        let rx: Vec<FlowKey> = (0..262_144).map(fp_key).collect();
        let duplex = rx[..1024].to_vec();
        // `rpc64_tas_sim`'s server, 10.0.0.1:7: 2,000 connections from
        // four load generators (10.0.0.2-5), each counting its local ports
        // up from 1024. The benchmark's seed takes 0-25 connections off
        // each of the last three clients and gives them to the first, so
        // this covers that range in steps of five.
        let rpc_key = |client: u8, j: u16| {
            FlowKey::new(
                Ipv4Addr::new(10, 0, 0, 1),
                7,
                Ipv4Addr::new(10, 0, 0, 2 + client),
                1024 + j,
            )
        };
        let mut sets = vec![
            ("fp_rx_256k".to_string(), rx),
            ("fp_duplex_1k".to_string(), duplex),
        ];
        for cut in 0..6 * 6 * 6u16 {
            let taken = [cut % 6 * 5, cut / 6 % 6 * 5, cut / 36 * 5];
            let counts = [
                500 + taken.iter().sum::<u16>(),
                500 - taken[0],
                500 - taken[1],
                500 - taken[2],
            ];
            let keys = (0..4u8)
                .flat_map(|c| (0..counts[c as usize]).map(move |j| rpc_key(c, j)))
                .collect();
            sets.push((format!("rpc64 {counts:?}"), keys));
        }
        // Linear probing with a uniform hash expects about 1.5 probes per
        // hit at these loads (about one half).
        for (name, keys) in sets {
            let (mean, max) = probe_stats(&keys);
            assert!(mean <= 1.75, "{name}: mean probe length {mean:.3}");
            assert!(max <= 64, "{name}: longest probe {max}");
        }
    }
}
