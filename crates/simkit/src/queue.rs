//! Future-event list: an indexed binary min-heap keyed on ([`SimTime`],
//! insertion sequence) with eager, O(log n) cancellation.
//!
//! Ties are broken by insertion order so that two events scheduled for the
//! same instant fire in the order they were scheduled. This determinism
//! matters: disk-array response times are sensitive to who wins a
//! simultaneous arrival at a queue.
//!
//! ## Why a heap
//!
//! The simulator's pending set is small — tens of events (one completion
//! per busy disk, a destage tick per array, a few staged issues), because
//! trace arrivals are merged in from the trace itself rather than
//! scheduled. At that depth a binary heap is three to six levels: `push`
//! and `pop` touch a handful of 24-byte nodes in one contiguous `Vec`, and
//! the minimum sits at the root, so `peek_time` is a single load. The
//! structure has no tuning knobs — nothing to size from the workload, and
//! the same cost whether event times are dense or sparse.
//!
//! ## Slot table
//!
//! Every scheduled event owns a slot in a `Vec`-backed table; its
//! [`EventId`] is the (slot, generation) pair. The slot holds the event
//! payload and the position of its node in the heap, which every sift
//! keeps current, so cancellation removes the node on the spot — no
//! tombstones, no lazy draining. Slots are recycled through a free list;
//! the generation counter bumps on every reuse, so a stale id (fired or
//! cancelled long ago) can never cancel the slot's new occupant. A slot
//! whose generation reaches `u32::MAX` is retired instead of wrapping:
//! wrapping would reissue generation 0 and let an ancient id alias the
//! slot's new occupant.

use crate::time::SimTime;

/// Opaque handle to a scheduled event, usable for cancellation.
///
/// Internally a (slot, generation) pair into the queue's slot table;
/// generations make ids single-use, so an id kept past its event's firing
/// or cancellation is harmlessly rejected even after the slot is reused.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventId {
    slot: u32,
    gen: u32,
}

/// One heap node: the ordering key and the slot that owns the payload.
#[derive(Clone, Copy)]
struct Node {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl Node {
    #[inline]
    fn before(&self, other: &Node) -> bool {
        (self.at, self.seq) < (other.at, other.seq)
    }
}

/// Heap position of a slot with no pending event (free or retired).
const NOT_QUEUED: u32 = u32::MAX;

/// One slot of the table. `pos` is [`NOT_QUEUED`] from the event's pop or
/// cancellation until the slot's next reuse; `gen` counts reuses.
struct Slot<E> {
    gen: u32,
    pos: u32,
    event: Option<E>,
}

/// Priority queue of future events.
///
/// `pop` returns events in nondecreasing time order; events with equal
/// timestamps come out in scheduling order (the (time, seq) tie-break).
/// `cancel` removes the event eagerly: the slot table records its heap
/// position.
///
/// All bookkeeping lives in flat `Vec`s (heap + slot table + free list) —
/// no ordered sets, no hashing — so the structure is cache-friendly and
/// trivially deterministic.
pub struct EventQueue<E> {
    heap: Vec<Node>,
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    /// High-water mark of the heap length over the queue's lifetime.
    peak_live: usize,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Pre-size for `cap` simultaneously pending events (everything still
    /// grows on demand past that).
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: Vec::with_capacity(cap),
            slots: Vec::with_capacity(cap),
            free: Vec::with_capacity(cap),
            peak_live: 0,
            next_seq: 0,
        }
    }

    /// Place `node` at heap index `i` and record the position in its slot.
    #[inline]
    fn put(&mut self, i: usize, node: Node) {
        self.slots[node.slot as usize].pos = i as u32;
        self.heap[i] = node;
    }

    /// Move `node`, destined for hole `i`, up past every later parent.
    fn sift_up(&mut self, mut i: usize, node: Node) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if !node.before(&self.heap[parent]) {
                break;
            }
            let p = self.heap[parent];
            self.put(i, p);
            i = parent;
        }
        self.put(i, node);
    }

    /// Move `node`, destined for hole `i`, down past every earlier child.
    fn sift_down(&mut self, mut i: usize, node: Node) {
        let len = self.heap.len();
        loop {
            let left = 2 * i + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let child = if right < len && self.heap[right].before(&self.heap[left]) {
                right
            } else {
                left
            };
            if !self.heap[child].before(&node) {
                break;
            }
            let c = self.heap[child];
            self.put(i, c);
            i = child;
        }
        self.put(i, node);
    }

    /// Remove the node at heap index `i`, refilling the hole with the last
    /// node; returns the removed node's slot.
    fn remove_at(&mut self, i: usize) -> u32 {
        let slot = self.heap[i].slot;
        // simlint::allow(panic-policy): callers pass an index inside the heap
        let last = self.heap.pop().expect("remove from an empty heap");
        if i < self.heap.len() {
            if i > 0 && last.before(&self.heap[(i - 1) / 2]) {
                self.sift_up(i, last);
            } else {
                self.sift_down(i, last);
            }
        }
        slot
    }

    fn alloc_slot(&mut self) -> u32 {
        match self.free.pop() {
            Some(s) => s,
            None => {
                self.slots.push(Slot {
                    gen: 0,
                    pos: NOT_QUEUED,
                    event: None,
                });
                (self.slots.len() - 1) as u32
            }
        }
    }

    /// Take `slot`'s event and retire the slot back to the free list,
    /// invalidating outstanding ids. A slot that has exhausted its
    /// generation space is retired for good: wrapping to generation 0 would
    /// let an ancient id alias the slot's next occupant.
    #[inline]
    fn release_slot(&mut self, slot: u32) -> E {
        let s = &mut self.slots[slot as usize];
        s.pos = NOT_QUEUED;
        // simlint::allow(panic-policy): a queued slot always holds its event
        let event = s.event.take().expect("queued slot without an event");
        if s.gen != u32::MAX {
            s.gen += 1;
            self.free.push(slot);
        }
        event
    }

    /// Schedule `event` to fire at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) -> EventId {
        let slot = self.alloc_slot();
        let seq = self.next_seq;
        self.next_seq += 1;
        self.slots[slot as usize].event = Some(event);
        let i = self.heap.len();
        let node = Node { at, seq, slot };
        self.heap.push(node);
        self.sift_up(i, node);
        self.peak_live = self.peak_live.max(self.heap.len());
        EventId {
            slot,
            gen: self.slots[slot as usize].gen,
        }
    }

    /// Cancel a previously scheduled event. Returns `true` if the event was
    /// still pending (i.e. not yet popped or already cancelled). A stale id
    /// — fired, already cancelled, or from a recycled slot — is rejected by
    /// the generation check and never touches the slot's current occupant.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let Some(slot) = self.slots.get(id.slot as usize) else {
            return false;
        };
        if slot.gen != id.gen || slot.pos == NOT_QUEUED {
            return false;
        }
        let freed = self.remove_at(slot.pos as usize);
        drop(self.release_slot(freed));
        true
    }

    /// Remove and return the earliest pending event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let at = self.heap.first()?.at;
        let slot = self.remove_at(0);
        Some((at, self.release_slot(slot)))
    }

    /// Timestamp of the earliest pending event without removing it.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|n| n.at)
    }

    /// Number of live (non-cancelled) pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Most events simultaneously pending over the queue's lifetime.
    pub fn peak_len(&self) -> usize {
        self.peak_live
    }

    /// Test-only: pin a slot's generation counter, simulating the slot
    /// having been recycled that many times.
    #[cfg(test)]
    fn force_slot_gen(&mut self, slot: u32, gen: u32) {
        self.slots[slot as usize].gen = gen;
    }

    /// Test-only: every node is no earlier than its parent, and every slot
    /// records exactly where its node sits.
    #[cfg(test)]
    fn check_invariants(&self) {
        for (i, n) in self.heap.iter().enumerate() {
            if i > 0 {
                assert!(!n.before(&self.heap[(i - 1) / 2]), "heap order at {i}");
            }
            assert_eq!(self.slots[n.slot as usize].pos as usize, i, "slot position");
            assert!(
                self.slots[n.slot as usize].event.is_some(),
                "queued slot lost its event"
            );
        }
        let queued = self.slots.iter().filter(|s| s.pos != NOT_QUEUED).count();
        assert_eq!(queued, self.heap.len(), "slots marked queued");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ms(5), "c");
        q.schedule(SimTime::from_ms(1), "a");
        q.schedule(SimTime::from_ms(3), "b");
        assert_eq!(q.pop(), Some((SimTime::from_ms(1), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_ms(3), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_ms(5), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ms(2);
        for i in 0..100 {
            q.schedule(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn cancellation_skips_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_ms(1), "a");
        q.schedule(SimTime::from_ms(2), "b");
        assert_eq!(q.len(), 2);
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double-cancel reports false");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime::from_ms(2), "b")));
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_unknown_id_is_noop() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventId { slot: 42, gen: 0 }));
    }

    /// Regression: cancelling an id that already fired used to insert a
    /// tombstone that nothing could consume, making `len()` underflow.
    #[test]
    fn cancel_of_fired_event_is_rejected() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_ms(1), "a");
        assert_eq!(q.pop(), Some((SimTime::from_ms(1), "a")));
        assert!(!q.cancel(a), "cancel of a fired event must report false");
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
        // The queue remains fully usable afterwards.
        q.schedule(SimTime::from_ms(2), "b");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime::from_ms(2), "b")));
        assert_eq!(q.pop(), None);
    }

    /// Regression: the same stale-cancel scenario with another event still
    /// pending; `len()` must not drift.
    #[test]
    fn stale_cancel_does_not_corrupt_len() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_ms(1), "a");
        q.schedule(SimTime::from_ms(5), "b");
        assert_eq!(q.pop(), Some((SimTime::from_ms(1), "a")));
        assert!(!q.cancel(a));
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_ms(5)));
        assert_eq!(q.pop(), Some((SimTime::from_ms(5), "b")));
        assert!(q.is_empty());
    }

    /// A fired event's slot is recycled by the next schedule; the stale id
    /// must not cancel (or even see) the slot's new occupant.
    #[test]
    fn stale_id_does_not_cancel_slot_reuser() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_ms(1), "a");
        assert_eq!(q.pop(), Some((SimTime::from_ms(1), "a")));
        // Slot is reused with a bumped generation.
        let b = q.schedule(SimTime::from_ms(2), "b");
        assert!(!q.cancel(a), "stale id must not cancel the new occupant");
        assert_eq!(q.len(), 1, "the new occupant is untouched");
        assert_eq!(q.pop(), Some((SimTime::from_ms(2), "b")));
        assert!(!q.cancel(b), "fired reuser's own id is stale too");
    }

    /// Same, when the first occupant was cancelled rather than popped: the
    /// cancelled id stays dead through the slot's next life.
    #[test]
    fn cancelled_id_stays_dead_after_slot_reuse() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_ms(1), "a");
        assert!(q.cancel(a));
        // Cancellation removes the entry eagerly, so the slot is free.
        let b = q.schedule(SimTime::from_ms(3), "b");
        assert!(!q.cancel(a), "cancelled id is single-use");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime::from_ms(3), "b")));
        assert!(!q.cancel(b));
        assert_eq!(q.pop(), None);
    }

    /// Ids from consecutive lives of one slot are distinct values.
    #[test]
    fn recycled_slot_yields_distinct_ids() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_ms(1), 0);
        q.pop();
        let b = q.schedule(SimTime::from_ms(1), 1);
        assert_ne!(a, b, "generation must differ on slot reuse");
    }

    /// Regression (generation wraparound): a slot whose generation counter
    /// has exhausted `u32` must be retired, not wrapped. Pre-fix, releasing
    /// a generation-`u32::MAX` occupant wrapped the counter to 0 and the
    /// next schedule on that slot aliased the oldest possible id — an
    /// ancient, long-dead `EventId` could then cancel a brand-new event.
    #[test]
    fn generation_wraparound_retires_slot_instead_of_aliasing() {
        let mut q = EventQueue::new();
        let ancient = q.schedule(SimTime::from_ms(1), "a"); // slot 0, gen 0
        assert_eq!(q.pop(), Some((SimTime::from_ms(1), "a")));
        // Simulate the slot having lived through the whole generation space.
        q.force_slot_gen(0, u32::MAX);
        let b = q.schedule(SimTime::from_ms(2), "b"); // slot 0, gen u32::MAX
        assert!(q.cancel(b)); // releases the slot at the end of its gen space
        let _c = q.schedule(SimTime::from_ms(3), "c");
        assert!(
            !q.cancel(ancient),
            "an id from a wrapped-around slot must never cancel the new occupant"
        );
        assert_eq!(q.len(), 1, "the new event must survive the stale cancel");
        assert_eq!(q.pop(), Some((SimTime::from_ms(3), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn peek_time_skips_cancelled_events() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_ms(1), "a");
        q.schedule(SimTime::from_ms(9), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(SimTime::from_ms(9)));
        assert_eq!(q.pop(), Some((SimTime::from_ms(9), "b")));
        assert_eq!(q.peek_time(), None);
    }

    /// Cancelling an entry buried behind others must remove exactly it;
    /// `peek_time` must never report it.
    #[test]
    fn buried_cancellation_is_skipped_when_it_surfaces() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ms(1), "a");
        let b = q.schedule(SimTime::from_ms(2), "b");
        q.schedule(SimTime::from_ms(3), "c");
        assert!(q.cancel(b));
        assert_eq!(q.peek_time(), Some(SimTime::from_ms(1)));
        assert_eq!(q.pop(), Some((SimTime::from_ms(1), "a")));
        assert_eq!(q.peek_time(), Some(SimTime::from_ms(3)));
        assert_eq!(q.pop(), Some((SimTime::from_ms(3), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn peak_len_tracks_high_water_mark() {
        let mut q = EventQueue::new();
        assert_eq!(q.peak_len(), 0);
        q.schedule(SimTime::from_ms(1), "a");
        q.schedule(SimTime::from_ms(2), "b");
        q.schedule(SimTime::from_ms(3), "c");
        assert_eq!(q.peak_len(), 3);
        q.pop();
        q.pop();
        q.schedule(SimTime::from_ms(4), "d");
        assert_eq!(q.peak_len(), 3, "peak is a lifetime high-water mark");
    }

    /// A far-future event scheduled first must still interleave exactly
    /// with nearer events scheduled later, including ones scheduled after
    /// the clock has moved on.
    #[test]
    fn far_future_entries_interleave_with_near_entries() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(10_000), "far");
        q.schedule(SimTime::from_ns(50), "near");
        q.schedule(SimTime::from_ns(350), "mid");
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(50)));
        assert_eq!(q.pop(), Some((SimTime::from_ns(50), "near")));
        q.schedule(SimTime::from_ns(9_999), "almost");
        assert_eq!(q.pop(), Some((SimTime::from_ns(350), "mid")));
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(9_999)));
        assert_eq!(q.pop(), Some((SimTime::from_ns(9_999), "almost")));
        assert_eq!(q.pop(), Some((SimTime::from_ns(10_000), "far")));
        assert_eq!(q.pop(), None);
    }

    /// Cancelling the root, a leaf and an interior node each repairs the
    /// heap: the survivors still pop in exact order and `len` stays right.
    #[test]
    fn cancel_of_root_leaf_and_interior_entries() {
        let mut q = EventQueue::new();
        // Times 1..=15 scheduled in scrambled order fill a four-level heap.
        let ids: Vec<(u64, EventId)> = [8u64, 4, 12, 2, 6, 10, 14, 1, 3, 5, 7, 9, 11, 13, 15]
            .iter()
            .map(|&t| (t, q.schedule(SimTime::from_ns(t), t)))
            .collect();
        let id_of = |t: u64| {
            ids.iter()
                .find(|(x, _)| *x == t)
                .map(|(_, id)| *id)
                .unwrap()
        };
        q.check_invariants();
        assert!(q.cancel(id_of(1)), "root");
        q.check_invariants();
        assert!(q.cancel(id_of(15)), "a leaf");
        q.check_invariants();
        assert!(q.cancel(id_of(6)), "an interior node");
        q.check_invariants();
        assert_eq!(q.len(), 12);
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(2)));
        let mut out = Vec::new();
        while let Some((_, t)) = q.pop() {
            q.check_invariants();
            out.push(t);
        }
        assert_eq!(out, vec![2, 3, 4, 5, 7, 8, 9, 10, 11, 12, 13, 14]);
    }

    /// Equal-time events keep scheduling order however cancels interleave
    /// with the schedules: the survivors fire first-scheduled-first.
    #[test]
    fn equal_time_fifo_survives_interleaved_cancels() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ms(7);
        let mut ids = Vec::new();
        for i in 0..40 {
            ids.push(q.schedule(t, i));
            if i % 3 == 2 {
                // Cancel an earlier sibling, alternating near and far back.
                let victim = if i % 2 == 0 { i - 2 } else { i / 2 };
                q.cancel(ids[victim]);
            }
        }
        q.check_invariants();
        let mut prev = None;
        while let Some((at, i)) = q.pop() {
            assert_eq!(at, t);
            assert!(prev < Some(i), "FIFO broken: {i} after {prev:?}");
            prev = Some(i);
        }
    }

    /// Saturated far-future timestamps (u64::MAX-adjacent) must be
    /// schedulable, poppable, and cancellable without overflow panics.
    #[test]
    fn u64_max_adjacent_times_are_handled() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::MAX, "end");
        q.schedule(SimTime::from_ns(u64::MAX - 1), "almost");
        let gone = q.schedule(SimTime::from_ns(u64::MAX - 2), "gone");
        q.schedule(SimTime::ZERO, "start");
        assert!(q.cancel(gone));
        assert_eq!(q.pop(), Some((SimTime::ZERO, "start")));
        assert_eq!(q.pop(), Some((SimTime::from_ns(u64::MAX - 1), "almost")));
        assert_eq!(q.pop(), Some((SimTime::MAX, "end")));
        assert_eq!(q.pop(), None);
    }

    /// A slot retired at the end of its generation space is never handed
    /// out again: later schedules take fresh slots, and the retired slot's
    /// last id stays inert.
    #[test]
    fn retired_slot_is_never_reissued() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ms(1), 0u32); // slot 0
        q.pop();
        q.force_slot_gen(0, u32::MAX);
        let last = q.schedule(SimTime::from_ms(2), 1); // slot 0, final generation
        assert_eq!(q.pop(), Some((SimTime::from_ms(2), 1)));
        for i in 0..8 {
            let id = q.schedule(SimTime::from_ms(3 + i), 2 + i as u32);
            assert_ne!(id.slot, 0, "retired slot reissued");
        }
        assert!(!q.cancel(last));
        assert_eq!(q.len(), 8);
    }

    /// Naive reference model: the observable behavior the heap queue must
    /// reproduce exactly. Linear scans everywhere — unambiguously
    /// correct, hopelessly slow.
    struct ModelQueue {
        // (time_ns, seq, cancelled)
        pending: Vec<(u64, u64, bool)>,
        next_seq: u64,
    }

    impl ModelQueue {
        fn new() -> Self {
            ModelQueue {
                pending: Vec::new(),
                next_seq: 0,
            }
        }

        fn schedule(&mut self, t: u64) -> u64 {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.pending.push((t, seq, false));
            seq
        }

        /// Cancel by scheduling sequence; true iff still pending.
        fn cancel(&mut self, seq: u64) -> bool {
            match self.pending.iter_mut().find(|e| e.1 == seq && !e.2) {
                Some(e) => {
                    e.2 = true;
                    true
                }
                None => false,
            }
        }

        fn pop(&mut self) -> Option<(u64, u64)> {
            let i = self
                .pending
                .iter()
                .enumerate()
                .filter(|(_, e)| !e.2)
                .min_by_key(|(_, e)| (e.0, e.1))
                .map(|(i, _)| i)?;
            let e = self.pending.remove(i);
            self.pending.retain(|x| !x.2);
            Some((e.0, e.1))
        }

        fn peek_time(&self) -> Option<u64> {
            self.pending
                .iter()
                .filter(|e| !e.2)
                .map(|e| (e.0, e.1))
                .min()
                .map(|(t, _)| t)
        }

        fn len(&self) -> usize {
            self.pending.iter().filter(|e| !e.2).count()
        }
    }

    /// One step of the differential interpreter.
    #[derive(Clone, Debug)]
    enum Op {
        Schedule(u64),
        /// Cancel the id issued by the i-th Schedule so far (mod count);
        /// may be live, fired, cancelled, or from a since-recycled slot.
        Cancel(usize),
        Pop,
        Peek,
    }

    fn op_strategy(times: std::ops::Range<u64>) -> impl Strategy<Value = Op> {
        prop_oneof![
            3 => times.prop_map(Op::Schedule),
            2 => (0usize..64).prop_map(Op::Cancel),
            2 => Just(Op::Pop),
            1 => Just(Op::Peek),
        ]
    }

    fn run_differential(ops: Vec<Op>) -> Result<(), TestCaseError> {
        let mut real = EventQueue::new();
        let mut model = ModelQueue::new();
        // i-th Schedule's handles in both worlds: (EventId, model seq).
        let mut issued: Vec<(EventId, u64)> = Vec::new();
        for op in ops {
            match op {
                Op::Schedule(t) => {
                    let seq = model.schedule(t);
                    let id = real.schedule(SimTime::from_ns(t), seq);
                    issued.push((id, seq));
                }
                Op::Cancel(i) => {
                    if issued.is_empty() {
                        continue;
                    }
                    let (id, seq) = issued[i % issued.len()];
                    prop_assert_eq!(
                        real.cancel(id),
                        model.cancel(seq),
                        "cancel of schedule #{} disagrees",
                        i
                    );
                }
                Op::Pop => {
                    let got = real.pop().map(|(at, seq)| (at.as_ns(), seq));
                    prop_assert_eq!(got, model.pop());
                }
                Op::Peek => {
                    let got = real.peek_time().map(|t| t.as_ns());
                    prop_assert_eq!(got, model.peek_time());
                }
            }
            real.check_invariants();
            prop_assert_eq!(real.len(), model.len());
            prop_assert_eq!(real.is_empty(), model.len() == 0);
            // peek is pure: always consistent with len.
            prop_assert_eq!(real.peek_time().is_some(), !real.is_empty());
        }
        // Drain both to the end: same residue in the same order.
        loop {
            let got = real.pop().map(|(at, seq)| (at.as_ns(), seq));
            let want = model.pop();
            prop_assert_eq!(got, want);
            if got.is_none() {
                break;
            }
        }
        Ok(())
    }

    proptest! {
        /// Popped timestamps are nondecreasing, and every scheduled,
        /// non-cancelled event comes out exactly once.
        #[test]
        fn prop_time_order_and_completeness(
            times in proptest::collection::vec(0u64..10_000, 1..200),
            cancel_mask in proptest::collection::vec(any::<bool>(), 1..200),
        ) {
            let mut q = EventQueue::new();
            let mut ids = Vec::new();
            for (i, &t) in times.iter().enumerate() {
                ids.push((q.schedule(SimTime::from_ns(t), i), t));
            }
            let mut live = Vec::new();
            for (i, (id, t)) in ids.into_iter().enumerate() {
                if *cancel_mask.get(i).unwrap_or(&false) {
                    prop_assert!(q.cancel(id));
                } else {
                    live.push((t, i));
                }
            }
            let mut out = Vec::new();
            let mut last = SimTime::ZERO;
            while let Some((at, idx)) = q.pop() {
                prop_assert!(at >= last);
                last = at;
                out.push((at.as_ns(), idx));
            }
            live.sort();
            out.sort();
            prop_assert_eq!(live, out);
        }

        /// Differential property: drive the heap queue and the naive
        /// reference model through a random interleaving of schedule /
        /// cancel / pop / peek — including cancels of stale and recycled
        /// ids — and require identical observable behavior at every step.
        #[test]
        fn prop_differential_against_model(
            ops in proptest::collection::vec(op_strategy(0..10_000), 1..300),
        ) {
            run_differential(ops)?;
        }

        /// Same differential over only 16 distinct timestamps, so most
        /// schedules tie and ordering rests on the insertion-sequence
        /// tie-break through every sift and cancel.
        #[test]
        fn prop_differential_with_dense_ties(
            ops in proptest::collection::vec(op_strategy(0..16), 1..300),
        ) {
            run_differential(ops)?;
        }
    }
}
