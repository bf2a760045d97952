//! The connection-state arena both hosts keep their flows in.
//!
//! [`Slab`] keeps connection state in a dense `Vec` addressed by a stable
//! `u32` slot id. Freed slots go on a LIFO free list and are recycled in
//! deterministic order, so ids are reproducible run-to-run and the backing
//! storage never shifts an entry (ids stay valid across unrelated
//! inserts/removes). The fast path's flow table and `StackHost`'s socket
//! table each pair one with a [`FlowIndex`](crate::FlowIndex) from
//! 4-tuple to id.
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

/// A dense arena with stable `u32` ids and LIFO slot recycling.
#[derive(Debug)]
pub struct Slab<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> Slab<T> {
    /// Creates an empty slab.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty slab with room for `cap` entries.
    pub fn with_capacity(cap: usize) -> Self {
        Slab {
            slots: Vec::with_capacity(cap),
            free: Vec::new(),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// True when no entries are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts a value, returning its slot id. The most recently freed
    /// slot is reused first (deterministic id assignment).
    pub fn insert(&mut self, value: T) -> u32 {
        match self.free.pop() {
            Some(id) => {
                if let Some(slot) = self.slots.get_mut(id as usize) {
                    *slot = Some(value);
                }
                id
            }
            None => {
                self.slots.push(Some(value));
                (self.slots.len() - 1) as u32
            }
        }
    }

    /// Accesses an entry by id.
    pub fn get(&self, id: u32) -> Option<&T> {
        self.slots.get(id as usize).and_then(Option::as_ref)
    }

    /// Mutably accesses an entry by id.
    pub fn get_mut(&mut self, id: u32) -> Option<&mut T> {
        self.slots.get_mut(id as usize).and_then(Option::as_mut)
    }

    /// Removes an entry, returning it. The slot goes on the free list.
    pub fn remove(&mut self, id: u32) -> Option<T> {
        let value = self.slots.get_mut(id as usize).and_then(Option::take)?;
        self.free.push(id);
        Some(value)
    }

    /// Iterates over (id, value) pairs in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|v| (i as u32, v)))
    }

    /// Iterates over (id, value) pairs in slot order, mutably.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (u32, &mut T)> {
        self.slots
            .iter_mut()
            .enumerate()
            .filter_map(|(i, s)| s.as_mut().map(|v| (i as u32, v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slab_insert_get_remove_recycles_lifo() {
        let mut s: Slab<String> = Slab::new();
        let a = s.insert("a".into());
        let b = s.insert("b".into());
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(a).map(String::as_str), Some("a"));
        assert_eq!(s.remove(a).as_deref(), Some("a"));
        assert_eq!(s.get(a), None);
        let c = s.insert("c".into());
        assert_eq!(c, a, "most recently freed slot is reused first");
        assert_eq!(s.remove(b).as_deref(), Some("b"));
        assert_eq!(s.remove(b), None, "double remove is a no-op");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn slab_iter_visits_slot_order() {
        let mut s: Slab<u32> = Slab::new();
        let ids: Vec<u32> = (0..5).map(|v| s.insert(v * 10)).collect();
        s.remove(ids[2]);
        let seen: Vec<(u32, u32)> = s.iter().map(|(i, v)| (i, *v)).collect();
        assert_eq!(seen, vec![(0, 0), (1, 10), (3, 30), (4, 40)]);
        for (_, v) in s.iter_mut() {
            *v += 1;
        }
        assert_eq!(s.get(ids[4]), Some(&41));
    }
}
