//! Bounded descriptor queues (TAS "context queues").

use std::collections::VecDeque;

/// A bounded FIFO of descriptors with occupancy statistics.
///
/// Models the cache-efficient SPSC shared-memory queues connecting TAS's
/// components. A full queue rejects the descriptor and counts the failure —
/// the fast path reacts by re-notifying later (§3.1: "context queues only
/// fill when payload is queued at an application").
///
/// # Examples
///
/// ```
/// use tas_shm::DescQueue;
/// let mut q: DescQueue<u32> = DescQueue::new(2);
/// q.try_push(1).unwrap();
/// q.try_push(2).unwrap();
/// assert!(q.try_push(3).is_err());
/// assert_eq!(q.pop(), Some(1));
/// ```
#[derive(Clone, Debug)]
pub struct DescQueue<T> {
    items: VecDeque<T>,
    capacity: usize,
    enqueued: u64,
    rejected: u64,
}

impl<T> DescQueue<T> {
    /// Creates a queue holding at most `capacity` descriptors.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[allow(
        clippy::panic,
        reason = "documented configuration check: queues are built at host setup, never per packet"
    )]
    pub fn new(capacity: usize) -> Self {
        if capacity == 0 {
            panic!("queue capacity must be positive");
        }
        DescQueue {
            items: VecDeque::with_capacity(capacity.min(1024)),
            capacity,
            enqueued: 0,
            rejected: 0,
        }
    }

    /// Capacity in descriptors.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no descriptors are queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// True when at capacity.
    pub fn is_full(&self) -> bool {
        self.items.len() >= self.capacity
    }

    /// Enqueues a descriptor, returning it back on a full queue.
    pub fn try_push(&mut self, item: T) -> Result<(), T> {
        if self.is_full() {
            self.rejected += 1;
            return Err(item);
        }
        self.items.push_back(item);
        self.enqueued += 1;
        Ok(())
    }

    /// Dequeues the oldest descriptor.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Peeks at the oldest descriptor without dequeuing.
    pub fn peek(&self) -> Option<&T> {
        self.items.front()
    }

    /// Dequeues up to `max` descriptors into `out` (batched consumption, as
    /// mTCP-style stacks do).
    pub fn pop_batch(&mut self, max: usize, out: &mut Vec<T>) -> usize {
        let n = max.min(self.items.len());
        let mut popped = 0;
        while popped < n {
            let Some(item) = self.items.pop_front() else {
                debug_assert!(false, "length checked above");
                break;
            };
            out.push(item);
            popped += 1;
        }
        popped
    }

    /// Total successfully enqueued descriptors.
    pub fn total_enqueued(&self) -> u64 {
        self.enqueued
    }

    /// Total rejected (queue-full) descriptors.
    pub fn total_rejected(&self) -> u64 {
        self.rejected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut q = DescQueue::new(4);
        for i in 0..4 {
            q.try_push(i).unwrap();
        }
        for i in 0..4 {
            assert_eq!(q.pop(), Some(i));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn rejects_when_full_and_counts() {
        let mut q = DescQueue::new(1);
        q.try_push("a").unwrap();
        assert_eq!(q.try_push("b"), Err("b"));
        assert_eq!(q.total_rejected(), 1);
        assert_eq!(q.total_enqueued(), 1);
        assert!(q.is_full());
        q.pop();
        q.try_push("b").unwrap();
    }

    #[test]
    fn batch_pop() {
        let mut q = DescQueue::new(8);
        for i in 0..6 {
            q.try_push(i).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(4, &mut out), 4);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(q.pop_batch(4, &mut out), 2);
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5]);
        assert!(q.is_empty());
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = DescQueue::new(2);
        q.try_push(42).unwrap();
        assert_eq!(q.peek(), Some(&42));
        assert_eq!(q.len(), 1);
    }
}
