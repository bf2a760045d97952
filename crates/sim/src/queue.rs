//! The time-ordered event queue.
//!
//! A hierarchical timing wheel keyed by `(time, sequence)`: ties on time
//! dispatch in insertion order, which is what makes the whole simulation
//! deterministic.
//!
//! # Structure
//!
//! Four wheel levels of 256 slots each cover an expanding horizon above the
//! cursor (the end of the last drained window):
//!
//! | level | tick             | horizon   | what lands there                  |
//! |-------|------------------|-----------|-----------------------------------|
//! | 0     | 2^18 ps ~ 262 ns | ~67 us    | wire, switch, core and doorbell hops |
//! | 1     | 2^26 ps ~ 67 us  | ~17 ms    | think times, pacing, control loop |
//! | 2     | 2^34 ps ~ 17 ms  | ~4.4 s    | RTOs, handshake retries           |
//! | 3     | 2^42 ps ~ 4.4 s  | ~1126 s   | idle and harness timers           |
//!
//! Events beyond the top horizon park in a small overflow [`BinaryHeap`] and
//! are pulled into the wheel as the cursor approaches them. Pushing and
//! popping are O(1) amortised; each event cascades through at most
//! `LEVELS - 1` slots on its way down, and the finest level is sized so
//! that the events a scenario actually dispatches are placed exactly once
//! (see [`G0_SHIFT`]). A drained level-0 slot is sorted by `(time, seq)`
//! into the ready run, which restores the exact global dispatch order of
//! the old global binary heap (kept as the test-only `HeapQueue`, the
//! reference of the differential tests in this module); an event pushed
//! inside the window already drained — less than one tick ahead — is
//! merged into that sorted run directly. [`EventQueue::stats`] counts
//! each of these steps.
//!
//! # Refill
//!
//! When the ready run is empty, the next window is the earliest occupied
//! slot over all levels and the overflow head; on equal starts a coarser
//! slot wins, so it cascades before a fine slot at the same boundary
//! drains. A refill first tries the shortcut that decides this from
//! level 0 alone: if no coarse level holds an entry in the cursor's own
//! window, the overflow head is later, and the first occupied level-0
//! window starts before the next level-1 boundary, that level-0 slot
//! wins, since every other coarse slot starts at or after its level's
//! next boundary. The first condition is not implied by placement: an
//! entry is placed at least one coarse tick ahead, but the cursor later
//! enters its window. Only when the shortcut fails does the refill scan
//! every level's occupancy bitmap.
//!
//! # Dispatch
//!
//! The engine pushes each event with its target agent, which the entry
//! keeps beside the payload, and pops in two crate-private steps: one
//! takes the front of the ready run and returns the entry's time and slab
//! index, the other moves the payload out of its slab entry and frees the
//! entry. Between them the engine reads the target from the entry, so the
//! payload is moved once, from the slab into the handler's argument.
//! [`EventQueue::pop_due`] is the two steps in one.
//!
//! # Memory layout
//!
//! Every pending event is one [`Entry`] in a slab — key, generation,
//! cancel mark and payload together — recycled through a LIFO free list.
//! Wheel slots hold bare `u32` slab indices, so a cascade moves four bytes
//! per event; the ready run and the overflow heap carry the `(time, seq)`
//! key beside the index because they are ordered by it. The simulator
//! workloads this is sized for hold a few thousand pending events
//! (`rpc64_tas_sim` peaks at ~5 k, `bulk_loss_tas_sim` ~8 k, `kv_linux_sim`
//! under 1 k), so the whole slab stays cache-resident.
//!
//! # Cancellation
//!
//! [`EventQueue::push`] returns an [`EventId`]; [`EventQueue::cancel`]
//! resolves it through the generation-checked slab, so a stale handle (the
//! event already dispatched, or the slot recycled) is a safe no-op, and a
//! live handle always cancels — an event stays cancellable until the pop
//! that returns it, including one due at the instant being dispatched.
//! Cancel marks the entry and drops its payload; nothing else moves. The
//! entry is freed wherever the wheel next meets it — the front of the
//! ready run, a level-0 drain, a cascade or an overflow pull — so a
//! cancelled event never perturbs dispatch order. A compaction sweep over
//! the ready run, the overflow heap and every wheel slot runs once
//! cancelled entries outnumber live ones by [`COMPACT_SLACK`], which keeps
//! the resident size O(live) under any cancel pattern.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// log2 of the level-0 tick in picoseconds (2^18 ps ~= 262 ns).
///
/// The finest level is where a typical event should land on its one and
/// only placement, so its reach (256 ticks) has to cover the horizons the
/// scenarios push, not the resolution of the clock: order inside a tick
/// comes from the sort at drain time, whatever the tick. Counted over a
/// whole `rpc64_tas_sim` benchmark run (seed 1, 8 s), 0.14 % of 28.5 M
/// events were pushed less than 262 ns ahead of the clock (none under
/// 32 ns; the mode is 1-2 us, and on `kv_linux_sim` nothing is under
/// 0.5 us), so with the former 1 ns tick every event was placed at level 1
/// and cascaded: 2.10 placements per event and 1.14 events per drained
/// slot, against 1.10 and 13.0 with this tick (DESIGN.md §12 has the
/// histogram for all three simulator workloads). Host time per packet
/// read flat within noise from 2^16 to 2^20 and ~7 % worse at 2^14
/// (cascades return) and 2^22 (sorted runs and in-window inserts grow),
/// which is why this is a constant and not a setting.
const G0_SHIFT: u32 = 18;
/// log2 of the slot count per level.
const LEVEL_BITS: u32 = 8;
/// Slots per wheel level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Number of wheel levels; beyond the top horizon events overflow to a heap.
const LEVELS: usize = 4;
/// Compaction slack: sweep only once cancelled entries exceed live by this.
const COMPACT_SLACK: usize = 64;

const fn level_shift(level: usize) -> u32 {
    G0_SHIFT + LEVEL_BITS * level as u32
}

/// Exact work counts of an [`EventQueue`] since it was created: how often
/// each step of the structure ran, not how long it took.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events pushed.
    pub pushes: u64,
    /// Events popped (dispatched).
    pub pops: u64,
    /// Entries placed into a wheel slot, by level (first placements and
    /// re-placements alike).
    pub placed_level: [u64; LEVELS],
    /// Entries placed into the overflow heap.
    pub placed_overflow: u64,
    /// Entries placed into the sorted ready run because they were due
    /// inside the window already drained.
    pub placed_ready: u64,
    /// Of all placements, those that re-placed an entry coming down from
    /// a coarser slot or from the overflow heap.
    pub cascaded: u64,
    /// Level-0 slots drained into the ready run.
    pub drains: u64,
    /// Entries those drains moved.
    pub drained: u64,
    /// Live handles cancelled.
    pub cancels: u64,
}

impl QueueStats {
    /// Every placement made: `pushes + cascaded`.
    pub fn placements(&self) -> u64 {
        self.placed_level.iter().sum::<u64>() + self.placed_overflow + self.placed_ready
    }
}

/// Handle to a pending event, returned by [`EventQueue::push`].
///
/// Pass it to [`EventQueue::cancel`] to drop the event without dispatching.
/// Handles are generation-checked: cancelling an event that already
/// dispatched (or was cancelled) is a no-op, even if its internal slot has
/// since been recycled for a newer event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EventId {
    slot: u32,
    gen: u32,
}

/// One pending event in the slab.
struct Entry<E> {
    at: u64,
    seq: u64,
    /// Bumped each time the entry is freed, so old handles miss.
    gen: u32,
    /// The agent the engine dispatches the event to (see
    /// [`EventQueue::push_to`]); 0 through the public [`EventQueue::push`],
    /// whose callers never read it. It sits in what would be padding.
    target: u32,
    /// Cancelled but not yet freed: the wheel frees it when it next meets
    /// the entry's cell.
    cancelled: bool,
    /// `None` once dispatched or cancelled.
    event: Option<E>,
}

/// A `(time, seq, slab index)` key for the sorted ready run and the
/// overflow heap.
#[derive(Clone, Copy)]
struct Keyed {
    at: u64,
    seq: u64,
    idx: u32,
}

/// Overflow-heap entry, ordered earliest-first by `(time, seq)`.
struct HeapEnt(Keyed);

impl PartialEq for HeapEnt {
    fn eq(&self, other: &Self) -> bool {
        (self.0.at, self.0.seq) == (other.0.at, other.0.seq)
    }
}
impl Eq for HeapEnt {}
impl PartialOrd for HeapEnt {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEnt {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        (other.0.at, other.0.seq).cmp(&(self.0.at, self.0.seq))
    }
}

struct Level {
    /// Slab indices of the entries in each wheel slot, unordered.
    slots: Vec<Vec<u32>>,
    /// One bit per slot: set when the slot vec is non-empty.
    occ: [u64; SLOTS / 64],
}

impl Level {
    fn new() -> Self {
        Level {
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
            occ: [0; SLOTS / 64],
        }
    }

    fn mark(&mut self, idx: usize) {
        self.occ[idx >> 6] |= 1u64 << (idx & 63);
    }

    fn clear(&mut self, idx: usize) {
        self.occ[idx >> 6] &= !(1u64 << (idx & 63));
    }

    fn is_marked(&self, idx: usize) -> bool {
        self.occ[idx >> 6] & (1u64 << (idx & 63)) != 0
    }

    /// First occupied slot index in circular order starting at `start`.
    fn first_occupied_from(&self, start: usize) -> Option<usize> {
        let (w0, b0) = (start >> 6, start & 63);
        let m = self.occ[w0] & (!0u64 << b0);
        if m != 0 {
            return Some((w0 << 6) + m.trailing_zeros() as usize);
        }
        for (w, &bits) in self.occ.iter().enumerate().skip(w0 + 1) {
            if bits != 0 {
                return Some((w << 6) + bits.trailing_zeros() as usize);
            }
        }
        for (w, &bits) in self.occ.iter().enumerate().take(w0 + 1) {
            let mm = if w == w0 { bits & !(!0u64 << b0) } else { bits };
            if mm != 0 {
                return Some((w << 6) + mm.trailing_zeros() as usize);
            }
        }
        None
    }
}

/// A deterministic min-queue of timestamped events.
///
/// # Examples
///
/// ```
/// use tas_sim::{EventQueue, SimTime};
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_us(2), "late");
/// let early = q.push(SimTime::from_us(1), "early");
/// q.cancel(early);
/// assert_eq!(q.pop(), Some((SimTime::from_us(2), "late")));
/// ```
pub struct EventQueue<E> {
    levels: Vec<Level>,
    /// The entry slab (see [`Entry`]).
    entries: Vec<Entry<E>>,
    /// Recycled slab indices, LIFO.
    free: Vec<u32>,
    overflow: BinaryHeap<HeapEnt>,
    /// The ready run: entries below `cursor`, sorted by `(at, seq)`.
    ready: VecDeque<Keyed>,
    /// Exclusive end of the drained window; wheel entries are all `>= cursor`.
    /// Always a multiple of the level-0 tick.
    cursor: u64,
    seq: u64,
    /// Entries resident across ready + wheel + overflow.
    resident: usize,
    /// Of those, cancelled ones not yet freed.
    dead: usize,
    stats: QueueStats,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            levels: (0..LEVELS).map(|_| Level::new()).collect(),
            entries: Vec::new(),
            free: Vec::new(),
            overflow: BinaryHeap::new(),
            ready: VecDeque::new(),
            cursor: 0,
            seq: 0,
            resident: 0,
            dead: 0,
            stats: QueueStats::default(),
        }
    }

    /// Schedules `event` at absolute time `at`, returning a cancel handle.
    pub fn push(&mut self, at: SimTime, event: E) -> EventId {
        self.push_to(at, 0, event)
    }

    /// [`Self::push`] with the engine's dispatch target stored beside the
    /// payload, where [`Self::target_of`] reads it without moving the
    /// payload.
    pub(crate) fn push_to(&mut self, at: SimTime, target: u32, event: E) -> EventId {
        let (at, seq) = (at.as_ps(), self.seq);
        self.seq += 1;
        let id = if let Some(slot) = self.free.pop() {
            let e = &mut self.entries[slot as usize];
            e.at = at;
            e.seq = seq;
            e.target = target;
            e.cancelled = false;
            e.event = Some(event);
            EventId { slot, gen: e.gen }
        } else {
            let slot = self.entries.len() as u32;
            self.entries.push(Entry {
                at,
                seq,
                gen: 0,
                target,
                cancelled: false,
                event: Some(event),
            });
            EventId { slot, gen: 0 }
        };
        self.resident += 1;
        self.stats.pushes += 1;
        self.place(id.slot);
        id
    }

    /// Work counts since creation (see [`QueueStats`]).
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Cancels a pending event: it is dropped without dispatching.
    ///
    /// Returns true if the handle was still live: the event had been
    /// neither popped nor cancelled, whatever its timestamp. Stale handles
    /// are a safe no-op. The entry is only marked here; the wheel frees it
    /// when it next reaches the entry's cell.
    pub fn cancel(&mut self, id: EventId) -> bool {
        match self.entries.get_mut(id.slot as usize) {
            Some(e) if e.gen == id.gen && !e.cancelled => {
                e.cancelled = true;
                e.event = None;
            }
            _ => return false,
        }
        self.dead += 1;
        self.stats.cancels += 1;
        if self.len() > 2 * self.live_len() + COMPACT_SLACK {
            self.compact();
        }
        true
    }

    /// Removes and returns the earliest live event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_due(SimTime::MAX)
    }

    /// Removes and returns the earliest live event if it is due at or
    /// before `deadline`; a later one stays queued.
    pub fn pop_due(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        let (t, idx) = self.pop_due_slot(deadline)?;
        Some((t, self.take(idx)))
    }

    /// The engine's dispatch step, first half: takes the earliest live
    /// entry off the ready run if it is due at or before `deadline` and
    /// returns its time and slab index. The payload stays in the entry,
    /// beside the target [`Self::target_of`] reads, until [`Self::take`]
    /// moves it out once, straight to its consumer.
    pub(crate) fn pop_due_slot(&mut self, deadline: SimTime) -> Option<(SimTime, u32)> {
        if !self.prepare_front() {
            return None;
        }
        let r = *self.ready.front()?;
        if r.at > deadline.as_ps() {
            return None;
        }
        self.ready.pop_front();
        self.stats.pops += 1;
        Some((SimTime::from_ps(r.at), r.idx))
    }

    /// The dispatch target of an entry [`Self::pop_due_slot`] returned.
    pub(crate) fn target_of(&self, idx: u32) -> u32 {
        self.entries[idx as usize].target
    }

    /// Moves the payload out of an entry [`Self::pop_due_slot`] returned
    /// and frees the entry. Always inlined: out of line, the payload makes
    /// one more stop, in this function's return slot, on its way to the
    /// handler.
    #[inline(always)]
    pub(crate) fn take(&mut self, idx: u32) -> E {
        let event = self.entries[idx as usize].event.take();
        self.release(idx);
        event.expect("a popped entry keeps its payload until taken")
    }

    /// Timestamp of the earliest live event.
    ///
    /// Takes `&mut self` because finding the earliest event may cascade
    /// wheel slots (a pure reorganisation; no event is dispatched).
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if self.prepare_front() {
            self.ready.front().map(|r| SimTime::from_ps(r.at))
        } else {
            None
        }
    }

    /// Number of resident entries (live + not-yet-freed cancelled).
    /// Compaction keeps this within `2 * live_len() + COMPACT_SLACK`; see
    /// [`Self::live_len`].
    pub fn len(&self) -> usize {
        self.resident
    }

    /// Number of live (non-cancelled) pending events.
    pub fn live_len(&self) -> usize {
        self.resident - self.dead
    }

    /// True when no live events are pending.
    pub fn is_empty(&self) -> bool {
        self.live_len() == 0
    }

    /// Frees a slab entry that has left the structure: bumps its
    /// generation and returns it to the free list.
    fn release(&mut self, idx: u32) {
        let e = &mut self.entries[idx as usize];
        e.gen = e.gen.wrapping_add(1);
        if e.cancelled {
            self.dead -= 1;
        }
        self.resident -= 1;
        self.free.push(idx);
    }

    /// Routes an entry to the ready run, a wheel slot, or the overflow
    /// heap, based on its distance from the cursor.
    fn place(&mut self, idx: u32) {
        let Entry { at, seq, .. } = self.entries[idx as usize];
        if at < self.cursor {
            // Inside the already-drained window: merge into the ready run.
            self.stats.placed_ready += 1;
            let r = Keyed { at, seq, idx };
            if self.ready.back().is_none_or(|b| (b.at, b.seq) < (at, seq)) {
                self.ready.push_back(r);
            } else {
                let i = self.ready.partition_point(|x| (x.at, x.seq) < (at, seq));
                self.ready.insert(i, r);
            }
            return;
        }
        for k in 0..LEVELS {
            let shift = level_shift(k);
            if (at >> shift) - (self.cursor >> shift) < SLOTS as u64 {
                let s = ((at >> shift) as usize) & (SLOTS - 1);
                self.stats.placed_level[k] += 1;
                let lv = &mut self.levels[k];
                if lv.slots[s].is_empty() {
                    lv.mark(s);
                }
                lv.slots[s].push(idx);
                return;
            }
        }
        self.stats.placed_overflow += 1;
        self.overflow.push(HeapEnt(Keyed { at, seq, idx }));
    }

    /// Takes an entry off a coarser slot or the overflow heap: a live one
    /// is placed again, a cancelled one freed.
    fn move_down(&mut self, idx: u32) {
        if self.entries[idx as usize].cancelled {
            self.release(idx);
        } else {
            self.stats.cascaded += 1;
            self.place(idx);
        }
    }

    /// Ensures `ready.front()` is a live entry, freeing cancelled ones and
    /// cascading the wheel as needed. Returns false when no live events
    /// remain.
    fn prepare_front(&mut self) -> bool {
        loop {
            match self.ready.front() {
                Some(r) if !self.entries[r.idx as usize].cancelled => return true,
                Some(r) => {
                    let idx = r.idx;
                    self.ready.pop_front();
                    self.release(idx);
                }
                None => {
                    if self.resident == 0 || !self.refill_ready() {
                        return false;
                    }
                }
            }
        }
    }

    /// Advances the cursor to the next non-empty window and drains it into
    /// the ready run. Returns false if the wheel and overflow are empty.
    fn refill_ready(&mut self) -> bool {
        loop {
            if let Some((bs, s)) = self.level0_wins() {
                self.drain_level0(bs, s);
                return true;
            }
            // Earliest candidate window per level: (window start ps, level,
            // slot idx). On equal starts prefer the highest level so coarse
            // slots cascade before a fine slot at the same boundary drains.
            let mut best: Option<(u64, usize, usize)> = None;
            for k in 0..LEVELS {
                let shift = level_shift(k);
                let base = self.cursor >> shift;
                let start_idx = (base as usize) & (SLOTS - 1);
                if let Some(idx) = self.levels[k].first_occupied_from(start_idx) {
                    let off = (idx + SLOTS - start_idx) & (SLOTS - 1);
                    let window = (base + off as u64) << shift;
                    if best.is_none_or(|(bs, _, _)| window <= bs) {
                        best = Some((window, k, idx));
                    }
                }
            }
            match (best, self.overflow.peek().map(|e| e.0.at)) {
                (None, None) => return false,
                (Some((bs, _, _)), Some(ov)) if ov <= bs => self.pull_overflow(),
                (None, Some(_)) => self.pull_overflow(),
                (Some((bs, 0, s)), _) => {
                    self.drain_level0(bs, s);
                    return true;
                }
                (Some((bs, k, s)), _) => {
                    // Cascade: redistribute the winning coarse slot. Every
                    // entry in it is < bs + tick(k), so each lands at a
                    // strictly lower level relative to the advanced cursor.
                    self.cursor = self.cursor.max(bs);
                    let mut v = std::mem::take(&mut self.levels[k].slots[s]);
                    self.levels[k].clear(s);
                    for idx in v.drain(..) {
                        self.move_down(idx);
                    }
                    self.levels[k].slots[s] = v;
                }
            }
        }
    }

    /// The first occupied level-0 window `(start ps, slot)`, when it is
    /// sure to win `refill_ready`'s comparison without looking at the
    /// coarse levels: no coarse level holds an entry in the cursor's own
    /// window (such a slot's start is at or below the cursor, so it would
    /// win), the overflow head is later than the window, and the window
    /// starts before the next level-1 boundary (every other coarse slot
    /// starts at or after its level's next boundary, which is no earlier).
    /// `None` leaves the decision to the full scan.
    fn level0_wins(&self) -> Option<(u64, usize)> {
        let base = self.cursor >> G0_SHIFT;
        let start = (base as usize) & (SLOTS - 1);
        let s = self.levels[0].first_occupied_from(start)?;
        let window = (base + ((s + SLOTS - start) & (SLOTS - 1)) as u64) << G0_SHIFT;
        let next_l1 = ((self.cursor >> level_shift(1)) + 1) << level_shift(1);
        let coarse_idle = (1..LEVELS).all(|k| {
            let cur = ((self.cursor >> level_shift(k)) as usize) & (SLOTS - 1);
            !self.levels[k].is_marked(cur)
        });
        let overflow_later = self.overflow.peek().is_none_or(|e| e.0.at > window);
        (window < next_l1 && coarse_idle && overflow_later).then_some((window, s))
    }

    /// Drains level-0 slot `s`, whose window starts at `bs`, onto the ready
    /// run (empty here: refill happens only then), freeing cancelled
    /// entries, and sorts what was added by (at, seq) to restore global
    /// dispatch order within its window.
    fn drain_level0(&mut self, bs: u64, s: usize) {
        debug_assert!(self.ready.is_empty(), "refill only runs dry");
        let mut v = std::mem::take(&mut self.levels[0].slots[s]);
        self.levels[0].clear(s);
        for idx in v.drain(..) {
            let e = &self.entries[idx as usize];
            if e.cancelled {
                self.release(idx);
            } else {
                self.ready.push_back(Keyed {
                    at: e.at,
                    seq: e.seq,
                    idx,
                });
            }
        }
        self.levels[0].slots[s] = v;
        if self.ready.len() > 1 {
            self.ready
                .make_contiguous()
                .sort_unstable_by_key(|r| (r.at, r.seq));
        }
        self.stats.drains += 1;
        self.stats.drained += self.ready.len() as u64;
        self.cursor = bs + (1u64 << G0_SHIFT);
        // Overflow entries may have drifted inside this window.
        while self.overflow.peek().is_some_and(|e| e.0.at < self.cursor) {
            let e = self.overflow.pop().expect("peek checked");
            self.move_down(e.0.idx);
        }
    }

    /// Pulls the earliest overflow entry down into the wheel.
    fn pull_overflow(&mut self) {
        let Some(HeapEnt(e)) = self.overflow.pop() else {
            return;
        };
        let top = level_shift(LEVELS - 1);
        if (e.at >> top) - (self.cursor >> top) >= SLOTS as u64 {
            // Still beyond the top horizon (wheel was empty): jump the
            // cursor near the event so it fits. Safe: nothing is pending
            // below it. Keep the cursor tick-aligned.
            self.cursor = e.at & !((1u64 << G0_SHIFT) - 1);
        }
        self.move_down(e.idx);
    }

    /// Frees every cancelled entry wherever it sits. Survivors keep their
    /// order in the ready run (wheel slots are unordered until drained,
    /// and the heap orders itself), so dispatch order is unaffected.
    fn compact(&mut self) {
        let mut dead = Vec::with_capacity(self.dead);
        let mut keep = |idx: u32| {
            let live = !self.entries[idx as usize].cancelled;
            if !live {
                dead.push(idx);
            }
            live
        };
        self.ready.retain(|r| keep(r.idx));
        let mut v = std::mem::take(&mut self.overflow).into_vec();
        v.retain(|e| keep(e.0.idx));
        self.overflow = BinaryHeap::from(v);
        for lv in &mut self.levels {
            for s in 0..SLOTS {
                lv.slots[s].retain(|&idx| keep(idx));
                if lv.slots[s].is_empty() {
                    lv.clear(s);
                }
            }
        }
        for idx in dead {
            self.release(idx);
        }
        debug_assert_eq!(self.dead, 0, "compaction frees every cancelled entry");
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// Inline entry for [`HeapQueue`], ordered earliest-first by `(time, seq)`.
    struct HeapEntry<E> {
        at: SimTime,
        seq: u64,
        ctl: u32,
        event: E,
    }

    impl<E> PartialEq for HeapEntry<E> {
        fn eq(&self, other: &Self) -> bool {
            self.at == other.at && self.seq == other.seq
        }
    }
    impl<E> Eq for HeapEntry<E> {}

    impl<E> PartialOrd for HeapEntry<E> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl<E> Ord for HeapEntry<E> {
        fn cmp(&self, other: &Self) -> Ordering {
            // Reversed: BinaryHeap is a max-heap, we want earliest first.
            other
                .at
                .cmp(&self.at)
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }

    /// A delay a few level-0 ticks either side of the level-0 horizon
    /// (`SLOTS` ticks, ~67.1 us): such an entry lands on level 1 just past
    /// the cursor's window, which the cursor then enters before the
    /// entry's slot is cascaded, the case the refill's level-0 shortcut
    /// must hand to the full scan.
    fn near_level0_horizon(rng: &mut Rng) -> u64 {
        const BAND: u64 = 4 << G0_SHIFT;
        (1u64 << level_shift(1)) - BAND + rng.below(2 * BAND)
    }

    /// Generation-checked liveness slab for [`HeapQueue`].
    #[derive(Clone, Copy, Default)]
    struct GenSlot {
        gen: u32,
        cancelled: bool,
    }

    /// The pre-wheel global binary-heap queue, kept as the reference
    /// implementation: the differential tests below check that the wheel
    /// dispatches identical `(time, seq)` sequences and agrees on every
    /// observable. Cancellation here is lazy-only (skip on pop, no
    /// compaction), which is exactly the ghost-entry growth the wheel fixes.
    struct HeapQueue<E> {
        heap: BinaryHeap<HeapEntry<E>>,
        seq: u64,
        slots: Vec<GenSlot>,
        free: Vec<u32>,
        dead: usize,
    }

    impl<E> HeapQueue<E> {
        /// Creates an empty queue.
        fn new() -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
                seq: 0,
                slots: Vec::new(),
                free: Vec::new(),
                dead: 0,
            }
        }

        /// Schedules `event` at absolute time `at`, returning a cancel handle.
        fn push(&mut self, at: SimTime, event: E) -> EventId {
            let seq = self.seq;
            self.seq += 1;
            let id = if let Some(slot) = self.free.pop() {
                EventId {
                    slot,
                    gen: self.slots[slot as usize].gen,
                }
            } else {
                let slot = self.slots.len() as u32;
                self.slots.push(GenSlot::default());
                EventId { slot, gen: 0 }
            };
            self.heap.push(HeapEntry {
                at,
                seq,
                ctl: id.slot,
                event,
            });
            id
        }

        /// Frees a slot; returns true if it was cancelled.
        fn release(&mut self, slot: u32) -> bool {
            let s = &mut self.slots[slot as usize];
            let was = s.cancelled;
            s.cancelled = false;
            s.gen = s.gen.wrapping_add(1);
            self.free.push(slot);
            was
        }

        /// Cancels a pending event (lazy: reclaimed only when popped over).
        fn cancel(&mut self, id: EventId) -> bool {
            match self.slots.get_mut(id.slot as usize) {
                Some(s) if s.gen == id.gen && !s.cancelled => {
                    s.cancelled = true;
                    self.dead += 1;
                    true
                }
                _ => false,
            }
        }

        /// Removes and returns the earliest live event.
        fn pop(&mut self) -> Option<(SimTime, E)> {
            while let Some(e) = self.heap.pop() {
                if self.release(e.ctl) {
                    self.dead -= 1;
                    continue;
                }
                return Some((e.at, e.event));
            }
            None
        }

        /// Timestamp of the earliest live event.
        fn peek_time(&mut self) -> Option<SimTime> {
            while let Some(e) = self.heap.peek() {
                if self.slots[e.ctl as usize].cancelled {
                    let e = self.heap.pop().expect("peek checked");
                    self.release(e.ctl);
                    self.dead -= 1;
                    continue;
                }
                return Some(e.at);
            }
            None
        }

        /// Number of live (non-cancelled) pending events.
        fn live_len(&self) -> usize {
            self.heap.len() - self.dead
        }

        /// True when no live events are pending.
        fn is_empty(&self) -> bool {
            self.live_len() == 0
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_us(3), 3);
        q.push(SimTime::from_us(1), 1);
        q.push(SimTime::from_us(2), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_us(5);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn len_and_peek() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_ns(10), ());
        q.push(SimTime::from_ns(5), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(5)));
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_us(10), 10);
        q.push(SimTime::from_us(1), 1);
        assert_eq!(q.pop().unwrap().1, 1);
        q.push(SimTime::from_us(5), 5);
        assert_eq!(q.pop().unwrap().1, 5);
        assert_eq!(q.pop().unwrap().1, 10);
    }

    #[test]
    fn spans_every_level_and_overflow() {
        let mut q = EventQueue::new();
        // One event per decade from 1 ns to 10^4 s: the sub-tick ready
        // run, all four levels, and (past ~1126 s) the overflow heap.
        let times: Vec<SimTime> = (0..14)
            .map(|d| SimTime::from_ps(10u64.pow(d + 3)))
            .collect();
        for (i, &t) in times.iter().enumerate().rev() {
            q.push(t, i);
        }
        for (i, &t) in times.iter().enumerate() {
            assert_eq!(q.pop(), Some((t, i)));
        }
        assert!(q.pop().is_none());
        let st = q.stats();
        assert!(st.placed_level.iter().all(|&n| n > 0), "{st:?}");
        assert!(st.placed_overflow > 0, "{st:?}");
    }

    #[test]
    fn cancel_skips_without_dispatch() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime::from_us(1), "a");
        let b = q.push(SimTime::from_us(2), "b");
        let c = q.push(SimTime::from_us(3), "c");
        assert!(q.cancel(b));
        assert!(!q.cancel(b), "double cancel is a no-op");
        assert_eq!(q.pop(), Some((SimTime::from_us(1), "a")));
        assert!(!q.cancel(a), "cancel after dispatch is a no-op");
        assert_eq!(q.pop(), Some((SimTime::from_us(3), "c")));
        let _ = c;
        assert!(q.pop().is_none());
    }

    #[test]
    fn stale_handle_does_not_hit_recycled_slot() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime::from_us(1), 1);
        assert_eq!(q.pop(), Some((SimTime::from_us(1), 1)));
        // The slot is recycled for a new event; the stale handle must miss.
        let b = q.push(SimTime::from_us(2), 2);
        assert!(!q.cancel(a));
        assert_eq!(q.peek_time(), Some(SimTime::from_us(2)));
        assert!(q.cancel(b));
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_heavy_workload_stays_o_live() {
        // The ghost-timer regression: 100k RTO timers, each reset (cancel +
        // re-push) once. Resident size must track the live set, not the
        // total ever pushed.
        let mut q = EventQueue::new();
        let mut ids = Vec::new();
        for i in 0..100_000u64 {
            ids.push(q.push(SimTime::from_us(1000 + i), i));
        }
        for (i, id) in ids.into_iter().enumerate() {
            assert!(q.cancel(id));
            q.push(SimTime::from_us(2000 + i as u64), i as u64);
        }
        assert_eq!(q.live_len(), 100_000);
        assert!(
            q.len() <= 2 * q.live_len() + COMPACT_SLACK,
            "resident {} must stay O(live {})",
            q.len(),
            q.live_len()
        );
        // And the lazy-pop path never dispatches a cancelled entry.
        let mut popped = 0;
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            assert!(t >= SimTime::from_us(2000), "cancelled timer dispatched");
            last = t;
            popped += 1;
        }
        assert_eq!(popped, 100_000);
    }

    #[test]
    fn repeated_cancel_into_one_slot_stays_compact() {
        // Cancelled pile-up: hammer cancel + re-push at the same far-future
        // instant so every entry lands in one wheel slot that never drains
        // meanwhile. Compaction must keep the resident size O(live), not
        // grow per op.
        let mut q = EventQueue::new();
        let t = SimTime::from_ms(50);
        let mut id = q.push(t, 0u64);
        for i in 1..100_000u64 {
            assert!(q.cancel(id));
            id = q.push(t, i);
        }
        assert_eq!(q.live_len(), 1);
        assert!(
            q.len() <= 2 * q.live_len() + COMPACT_SLACK,
            "resident {} must stay O(live {})",
            q.len(),
            q.live_len()
        );
        assert_eq!(q.pop(), Some((t, 99_999)));
        assert!(q.pop().is_none());
    }

    #[test]
    fn refill_cascades_a_coarse_entry_the_cursor_has_entered() {
        // With the cursor at 0, `late` (tick 266) is past level 0's
        // 256-tick reach and goes on level 1; `early` and `edge` go on
        // level 0. Popping `early` moves the cursor to tick 51, so `after`
        // (tick 300) lands on level 0, in `late`'s level-1 window but
        // later. Draining `edge` moves the cursor onto tick 256, into that
        // window. The next refill must cascade `late` before it drains
        // `after`'s slot, although that slot starts before the next
        // level-1 boundary: the refill shortcut's current-window check.
        let tick = |n: u64| SimTime::from_ps(n << G0_SHIFT);
        let mut q = EventQueue::new();
        q.push(tick(50), "early");
        q.push(tick(255), "edge");
        q.push(tick(266), "late");
        assert_eq!(q.pop(), Some((tick(50), "early")));
        q.push(tick(300), "after");
        assert_eq!(q.stats().placed_level, [3, 1, 0, 0]);
        assert_eq!(q.pop(), Some((tick(255), "edge")));
        assert_eq!(q.pop(), Some((tick(266), "late")));
        assert_eq!(q.pop(), Some((tick(300), "after")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_due_stops_at_the_deadline() {
        let mut q = EventQueue::new();
        let t = SimTime::from_us(7);
        for i in 0..3 {
            q.push(t, i);
        }
        q.push(SimTime::from_us(8), 99);
        assert_eq!(q.pop_due(SimTime::from_us(6)), None);
        for i in 0..3 {
            assert_eq!(q.pop_due(t), Some((t, i)), "due exactly at the deadline");
        }
        assert_eq!(q.pop_due(t), None);
        assert_eq!(q.len(), 1, "a refused event stays queued");
        // Looking past the deadline moved the cursor; an earlier push
        // still dispatches first.
        q.push(SimTime::from_ns(7_500), 50);
        assert_eq!(q.pop_due(SimTime::MAX), Some((SimTime::from_ns(7_500), 50)));
        assert_eq!(q.pop_due(SimTime::MAX), Some((SimTime::from_us(8), 99)));
        assert_eq!(q.pop_due(SimTime::MAX), None);
    }

    #[test]
    fn same_instant_event_stays_cancellable_until_popped() {
        let mut q = EventQueue::new();
        let t = SimTime::from_us(3);
        let ids: Vec<EventId> = (0..4).map(|i| q.push(t, i)).collect();
        assert_eq!(q.pop(), Some((t, 0)));
        // The rest of the run is in the ready run by now; still live.
        assert!(q.cancel(ids[2]));
        assert!(!q.cancel(ids[0]), "already popped");
        assert_eq!(q.pop(), Some((t, 1)));
        assert_eq!(q.pop(), Some((t, 3)));
        assert!(q.pop().is_none());
        assert_eq!(q.stats().cancels, 1);
    }

    #[test]
    fn rpc_shaped_schedule_places_once_and_drains_in_runs() {
        // What a closed-loop RPC scenario pushes: every connection idles on
        // a 500 us think timer, then runs a chain of short hops (wire,
        // switch, core, doorbell: 32 ns - 4 us ahead) that all fire. 2000
        // connections x 9 events per ~510 us is one event per ~28 ns of
        // simulated time with ~2000 pending. The bounds pin the mechanism:
        // the hops must land in level 0 directly (one placement; only the
        // think timer cascades) and a drained slot must feed a run of
        // events, not one: this schedule reads 1.12 placements per event
        // and 7.3 entries per drain, and with a 1 ns level-0 tick 1.73
        // and 1.02.
        const CONNS: u64 = 2000;
        const HOPS: u64 = 8;
        const THINK_PS: u64 = 500_000_000;
        let mut rng = Rng::new(0x59c);
        let mut q: EventQueue<(u64, u64)> = EventQueue::new();
        for c in 0..CONNS {
            q.push(SimTime::from_ps(rng.next_u64() % THINK_PS), (c, 0));
        }
        let mut now = SimTime::ZERO;
        for _ in 0..400_000 {
            let (t, (c, hop)) = q.pop().expect("closed loop never drains");
            assert!(t >= now);
            now = t;
            let (delay, next) = if hop == HOPS {
                (THINK_PS, 0)
            } else {
                // Log-uniform over 2^15 .. 2^22 ps (32 ns .. 4 us).
                let octave = 15 + rng.next_u64() % 7;
                ((1 << octave) + rng.next_u64() % (1 << octave), hop + 1)
            };
            q.push(t + SimTime::from_ps(delay), (c, next));
        }
        let st = q.stats();
        assert_eq!(st.pushes, st.pops + CONNS);
        assert_eq!(st.placements(), st.pushes + st.cascaded);
        let per_event = st.placements() as f64 / st.pops as f64;
        let per_drain = st.drained as f64 / st.drains as f64;
        assert!(
            per_event <= 1.25,
            "{per_event:.3} placements per event: {st:?}"
        );
        assert!(per_drain >= 4.0, "{per_drain:.2} entries per drain: {st:?}");
    }

    #[test]
    fn matches_heap_reference_on_random_schedule() {
        // Seeded differential smoke test; `wheel_matches_heap_reference`
        // below runs 256 shorter random operation sequences.
        let mut rng = Rng::new(0xF00D);
        let mut wheel = EventQueue::new();
        let mut heap = HeapQueue::new();
        let mut now = 0u64;
        let mut wheel_ids = Vec::new();
        let mut heap_ids = Vec::new();
        for step in 0..20_000u64 {
            match rng.next_u64() % 10 {
                0..=5 => {
                    // Mixed horizons: same-instant ties, inside the level-0
                    // tick, each wheel level, astride the level-0 horizon,
                    // and past the top horizon (~1126 s) into the overflow
                    // heap.
                    let d = match rng.next_u64() % 7 {
                        0 => 0,
                        1 => rng.next_u64() % 200_000,
                        2 => rng.next_u64() % 50_000_000,
                        3 => rng.next_u64() % 10_000_000_000,
                        4 => rng.next_u64() % 3_000_000_000_000,
                        5 => near_level0_horizon(&mut rng),
                        _ => rng.next_u64() % 4_000_000_000_000_000,
                    };
                    let at = SimTime::from_ps(now + d);
                    wheel_ids.push(wheel.push(at, step));
                    heap_ids.push(heap.push(at, step));
                }
                6 => {
                    if !wheel_ids.is_empty() {
                        let i = (rng.next_u64() as usize) % wheel_ids.len();
                        assert_eq!(wheel.cancel(wheel_ids[i]), heap.cancel(heap_ids[i]),);
                    }
                }
                _ => {
                    let (w, h) = (wheel.pop(), heap.pop());
                    match (&w, &h) {
                        (Some((wt, wv)), Some((ht, hv))) => {
                            assert_eq!((wt, wv), (ht, hv));
                            now = now.max(wt.as_ps());
                        }
                        (None, None) => {}
                        _ => panic!("wheel {w:?} != heap {h:?}"),
                    }
                }
            }
        }
        loop {
            let (w, h) = (wheel.pop(), heap.pop());
            assert_eq!(w.is_some(), h.is_some());
            match (w, h) {
                (Some(a), Some(b)) => assert_eq!(a, b),
                _ => break,
            }
        }
        // The schedule reached every place an entry can live.
        let st = wheel.stats();
        for n in st.placed_level {
            assert!(n > 0, "{st:?}");
        }
        for n in [st.placed_ready, st.placed_overflow, st.cascaded] {
            assert!(n > 0, "{st:?}");
        }
        assert!(st.cancels > 0, "{st:?}");
    }

    #[test]
    fn matches_heap_reference_on_rto_reset_schedule() {
        // The terabit-sweep timer loop: the clock advances one packet
        // arrival per op (one reset sweep of all flows per 10 ms), and each
        // arrival cancels that flow's retransmission timer and re-arms it
        // `G` sweeps out, so a timer fires only when its flow went unpicked
        // for `G` sweeps (~e^-G of them) and the queue's job is absorbing
        // constant re-arms at 1 k / 10 k / 100 k pending timers. Every live
        // fire must come out of both engines at the same instant with the
        // same payload, and every cancel must have the same outcome.
        const G: u64 = 3;
        const OPS: u64 = 200_000;
        const SWEEP_PS: u64 = 10_000_000_000;
        for flows in [1_000u64, 10_000, 100_000] {
            let step_ps = SWEEP_PS / flows;
            let rto = SimTime::from_ps(G * SWEEP_PS);
            let mut rng = Rng::new(0x5157_5545_5545 ^ flows);
            let mut wheel = EventQueue::new();
            let mut heap = HeapQueue::new();
            let mut ids: Vec<(EventId, EventId)> = (0..flows)
                .map(|f| {
                    let at = SimTime::from_ps(1 + f * step_ps) + rto;
                    (wheel.push(at, f), heap.push(at, f))
                })
                .collect();
            let mut now = flows * step_ps;
            let mut fired = 0u64;
            // (G + 1) sweeps fill the steady state before the counted ops.
            for _ in 0..(G + 1) * flows + OPS {
                now += step_ps;
                let deadline = SimTime::from_ps(now);
                while let Some((at, f)) = wheel.pop_due(deadline) {
                    assert_eq!(heap.pop(), Some((at, f)), "{flows} flows, fire {fired}");
                    fired += 1;
                    // RTO expiry: back off one more period.
                    ids[f as usize] = (wheel.push(at + rto, f), heap.push(at + rto, f));
                }
                assert!(heap.peek_time().is_none_or(|t| t > deadline));
                let f = rng.below(flows);
                let (w, h) = ids[f as usize];
                assert!(wheel.cancel(w) && heap.cancel(h), "a pending timer is live");
                let at = deadline + rto;
                ids[f as usize] = (wheel.push(at, f), heap.push(at, f));
                assert_eq!(wheel.live_len(), flows as usize);
            }
            assert_eq!(heap.live_len(), flows as usize);
            assert!(
                fired > OPS / 100,
                "{flows} flows: only {fired} timers fired"
            );
            assert!(wheel.stats().cancels > OPS, "every re-arm cancels");
        }
    }

    /// Under random push / cancel / pop interleavings — same-timestamp
    /// ties, delays inside the finest tick (which land in the window
    /// already drained and merge into the sorted ready run), delays
    /// spanning every wheel level and the overflow heap, deadline-bounded
    /// pops, stale and duplicate cancellations — the wheel must dispatch
    /// exactly the sequence of [`HeapQueue`] and agree with it on every
    /// observable (peek, length, cancel outcome) at every step.
    #[test]
    fn wheel_matches_heap_reference() {
        // Delay caps, one per place an entry can land: inside the level-0
        // tick (2^18 ps), levels 0-3, and past the wheel's top horizon
        // (2^50 ps, ~1126 s) in the overflow heap.
        const DELAY_CAPS: [u64; 6] = [
            200_000,
            50_000_000,
            10_000_000_000,
            3_000_000_000_000,
            1_000_000_000_000_000,
            4_000_000_000_000_000,
        ];
        for case in 0..256 {
            let mut rng = Rng::new(case);
            let mut wheel: EventQueue<u64> = EventQueue::new();
            let mut heap: HeapQueue<u64> = HeapQueue::new();
            let mut handles = Vec::new();
            let mut now = 0u64;
            let mut last_at = 0u64;
            for i in 0..rng.range_inclusive(1, 399) {
                match rng.below(5) {
                    // Push at `now + delay`, delays drawn from every horizon
                    // and from the band astride the level-0 horizon; or at
                    // exactly the previous push's timestamp: a tie that
                    // must break by insertion order in both engines.
                    op @ (0 | 1) => {
                        if op == 0 {
                            let k = rng.below(DELAY_CAPS.len() as u64 + 1) as usize;
                            last_at = now
                                + match DELAY_CAPS.get(k) {
                                    Some(cap) => rng.next_u64() % cap,
                                    None => near_level0_horizon(&mut rng),
                                };
                        }
                        let at = SimTime::from_ps(last_at.max(now));
                        handles.push((wheel.push(at, i), heap.push(at, i)));
                    }
                    // Cancel a handle issued so far: sometimes live, sometimes
                    // already dispatched or cancelled.
                    2 => {
                        if !handles.is_empty() {
                            let (w, h) = handles[rng.below(handles.len() as u64) as usize];
                            assert_eq!(wheel.cancel(w), heap.cancel(h), "case {case}, op {i}");
                        }
                    }
                    // Pop up to 7 events, advancing the clock.
                    3 => {
                        for _ in 0..rng.range_inclusive(1, 7) {
                            let (w, h) = (wheel.pop(), heap.pop());
                            assert_eq!(w, h, "case {case}, op {i}");
                            match w {
                                Some((t, _)) => now = now.max(t.as_ps()),
                                None => break,
                            }
                        }
                    }
                    // Pop every event due within a window of now, the way
                    // `Sim::run_until` does: the reference is the heap's
                    // `peek_time` + `pop`.
                    _ => {
                        let window = rng.next_u64() % DELAY_CAPS[rng.below(3) as usize];
                        let deadline = SimTime::from_ps(now + window);
                        loop {
                            let due = heap.peek_time().is_some_and(|t| t <= deadline);
                            let h = if due { heap.pop() } else { None };
                            let w = wheel.pop_due(deadline);
                            assert_eq!(w, h, "case {case}, op {i}");
                            if w.is_none() {
                                break;
                            }
                        }
                        now = deadline.as_ps();
                    }
                }
                assert_eq!(wheel.live_len(), heap.live_len(), "case {case}, op {i}");
                assert_eq!(wheel.is_empty(), heap.is_empty(), "case {case}, op {i}");
                assert_eq!(wheel.peek_time(), heap.peek_time(), "case {case}, op {i}");
            }
            // Drain to exhaustion: every remaining live event must come out
            // of both engines in the same order with the same key and
            // payload.
            loop {
                let (w, h) = (wheel.pop(), heap.pop());
                assert_eq!(w, h, "case {case}: drain");
                if w.is_none() {
                    break;
                }
            }
            assert!(wheel.is_empty() && heap.is_empty(), "case {case}");
        }
    }
}
