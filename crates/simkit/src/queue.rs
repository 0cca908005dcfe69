//! Future-event list: a binary min-heap keyed on ([`SimTime`], insertion
//! sequence).
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
//! and `pop` touch a handful of nodes in one contiguous `Vec`, and the
//! minimum sits at the root, so `peek_time` is a single load. The
//! structure has no tuning knobs — nothing to size from the workload, and
//! the same cost whether event times are dense or sparse.
//!
//! ## Cancellation
//!
//! An [`EventId`] is the event's insertion sequence number, which is never
//! reissued, so an id kept past its event's firing or cancellation can
//! never name another event. `cancel` scans the heap for the node and
//! removes it on the spot — no tombstones, no lazy draining. The scan is
//! linear in the pending set, which is small, and the simulator cancels
//! only when a disk fails (its in-service completion).

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Opaque handle to a scheduled event, usable for cancellation: the
/// event's insertion sequence number. Sequence numbers are never reissued,
/// so a stale id (fired or cancelled) is harmlessly rejected.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventId(u64);

/// One heap node: the ordering key and the event it carries.
struct Node<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> Node<E> {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

// `BinaryHeap` is a max-heap: nodes order by reversed key so the earliest
// (time, seq) sits at the top. Keys are unique (`seq` is), so the order is
// total and the payload never takes part.
impl<E> Ord for Node<E> {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

impl<E> PartialOrd for Node<E> {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> PartialEq for Node<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<E> Eq for Node<E> {}

/// Priority queue of future events.
///
/// `pop` returns events in nondecreasing time order; events with equal
/// timestamps come out in scheduling order (the (time, seq) tie-break).
/// `cancel` removes the event eagerly.
pub struct EventQueue<E> {
    heap: BinaryHeap<Node<E>>,
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

    /// Pre-size for `cap` simultaneously pending events (the heap still
    /// grows on demand past that).
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            peak_live: 0,
            next_seq: 0,
        }
    }

    /// Schedule `event` to fire at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Node { at, seq, event });
        self.peak_live = self.peak_live.max(self.heap.len());
        EventId(seq)
    }

    /// Cancel a previously scheduled event. Returns `true` if the event was
    /// still pending (i.e. not yet popped or already cancelled).
    pub fn cancel(&mut self, id: EventId) -> bool {
        let before = self.heap.len();
        self.heap.retain(|n| n.seq != id.0);
        self.heap.len() < before
    }

    /// Remove and return the earliest pending event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|n| (n.at, n.event))
    }

    /// Timestamp of the earliest pending event without removing it.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|n| n.at)
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

    /// Test-only: every node is no earlier than its parent.
    #[cfg(test)]
    fn check_invariants(&self) {
        let nodes = self.heap.as_slice();
        for (i, n) in nodes.iter().enumerate().skip(1) {
            assert!(n.key() >= nodes[(i - 1) / 2].key(), "heap order at {i}");
        }
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
        assert!(!q.cancel(EventId(42)));
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

    /// A fired event's stale id must not cancel (or even see) the event
    /// scheduled after it.
    #[test]
    fn stale_id_does_not_cancel_slot_reuser() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_ms(1), "a");
        assert_eq!(q.pop(), Some((SimTime::from_ms(1), "a")));
        let b = q.schedule(SimTime::from_ms(2), "b");
        assert!(!q.cancel(a), "stale id must not cancel the new occupant");
        assert_eq!(q.len(), 1, "the new occupant is untouched");
        assert_eq!(q.pop(), Some((SimTime::from_ms(2), "b")));
        assert!(!q.cancel(b), "fired reuser's own id is stale too");
    }

    /// Same, when the first event was cancelled rather than popped: the
    /// cancelled id stays dead after later schedules.
    #[test]
    fn cancelled_id_stays_dead_after_slot_reuse() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_ms(1), "a");
        assert!(q.cancel(a));
        let b = q.schedule(SimTime::from_ms(3), "b");
        assert!(!q.cancel(a), "cancelled id is single-use");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime::from_ms(3), "b")));
        assert!(!q.cancel(b));
        assert_eq!(q.pop(), None);
    }

    /// Ids of consecutive schedules are distinct values, even when the
    /// first event has already fired.
    #[test]
    fn recycled_slot_yields_distinct_ids() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_ms(1), 0);
        q.pop();
        let b = q.schedule(SimTime::from_ms(1), 1);
        assert_ne!(a, b, "ids are never reissued");
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
        /// may be live, fired or cancelled.
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
        /// cancel / pop / peek — including cancels of fired and cancelled
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
