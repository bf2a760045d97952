//! The per-packet 4-tuple index: [`FlowKey`] → dense `u32` id.
//!
//! [`FlowIndex`] maps a 4-tuple to its slot id with FNV-1a hashing and
//! open addressing (linear probing, backward-shift deletion). Unlike
//! `HashMap`'s SipHash, FNV-1a over the 12 key bytes is a handful of
//! multiplies — this is the per-packet lookup, and the simulated NIC in
//! the paper does it in hardware (§3.1's flow-group steering); a
//! DoS-resistant hash would be pure overhead here. Both connection tables
//! use it: the TAS fast path's flow table and the Linux-model host's
//! socket table.
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

/// FNV-1a 64-bit offset basis / prime.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline(always)]
fn hash_key(key: &FlowKey) -> u64 {
    let mut h = FNV_OFFSET;
    let mut step = |b: u8| {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    };
    for b in key.local_ip.octets() {
        step(b);
    }
    for b in key.local_port.to_be_bytes() {
        step(b);
    }
    for b in key.remote_ip.octets() {
        step(b);
    }
    for b in key.remote_port.to_be_bytes() {
        step(b);
    }
    h
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
}
