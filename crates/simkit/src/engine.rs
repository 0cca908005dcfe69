//! Clock + future-event-list harness.

use crate::queue::{EventId, EventQueue};
use crate::time::SimTime;

/// What one executed event did to the future-event list: the times of the
/// events it scheduled (in call order) and the schedule ordinals of the
/// pending events it successfully cancelled.
///
/// A stream of frames — one per executed event — is a complete, replayable
/// journal of a run's event-queue behavior: a consumer that knows the
/// initial (root) schedules can reconstruct the exact global pop order by
/// replaying schedules and cancels against a symbolic queue. The parallel
/// runner uses this to prove a partitioned run pops events in byte-for-byte
/// the same order as a serial run.
#[derive(Clone, Debug, Default)]
pub struct ExecFrame {
    /// Fire time of the executed event (`now` during its handler).
    pub at: SimTime,
    /// Times passed to `schedule_*` by the handler, in call order.
    pub children: Vec<SimTime>,
    /// Schedule ordinals (0-based, counting every `schedule_*` call since
    /// recording started, roots included) of events the handler cancelled.
    pub cancels: Vec<u64>,
}

/// A column-oriented batch of [`ExecFrame`]s: per-frame scalars plus two
/// shared spill arrays indexed by the per-frame counts. Compared with
/// `Vec<ExecFrame>` this is five flat allocations per batch instead of two
/// heap `Vec`s per frame, so journaling a partition run and replaying it in
/// the merge touch contiguous memory.
///
/// Frames are appended by [`Engine::flush_frame`] and read back by walking
/// `at`/`child_count`/`cancel_count` in lockstep while advancing cursors
/// into `children` and `cancels`.
#[derive(Clone, Debug, Default)]
pub struct FrameChunk {
    /// Fire time of each frame's event.
    pub at: Vec<SimTime>,
    /// Number of `children` entries belonging to each frame.
    pub child_count: Vec<u32>,
    /// Number of `cancels` entries belonging to each frame.
    pub cancel_count: Vec<u32>,
    /// Concatenated child schedule times, in frame order then call order.
    pub children: Vec<SimTime>,
    /// Concatenated cancelled schedule ordinals, in frame order.
    pub cancels: Vec<u64>,
}

impl FrameChunk {
    /// Number of frames in the chunk.
    #[inline]
    pub fn len(&self) -> usize {
        self.at.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.at.is_empty()
    }

    /// Resident size of the encoded frames in bytes (buffer contents, not
    /// capacity) — the journal-footprint figure reported by `RunStats`.
    pub fn bytes(&self) -> usize {
        self.at.len() * size_of::<SimTime>()
            + self.child_count.len() * size_of::<u32>()
            + self.cancel_count.len() * size_of::<u32>()
            + self.children.len() * size_of::<SimTime>()
            + self.cancels.len() * size_of::<u64>()
    }

    /// Drop all frames, retaining capacity for reuse.
    pub fn clear(&mut self) {
        self.at.clear();
        self.child_count.clear();
        self.cancel_count.clear();
        self.children.clear();
        self.cancels.clear();
    }
}

/// Recording state, allocated only while recording is on.
struct RecState {
    frame: ExecFrame,
    /// Next schedule ordinal to assign.
    sched_ord: u64,
    /// Ordinal of the event currently pending in each queue slot.
    slot_ord: Vec<u64>,
}

/// A simulation engine: a monotonically advancing clock bound to an event
/// queue.
///
/// The owning simulator drives the loop itself:
///
/// ```
/// use simkit::{Engine, SimTime};
///
/// #[derive(Debug, PartialEq)]
/// enum Ev { Tick(u32) }
///
/// let mut eng = Engine::new();
/// eng.schedule_after(1_000, Ev::Tick(1));
/// eng.schedule_after(2_000, Ev::Tick(2));
/// let mut fired = Vec::new();
/// while let Some(ev) = eng.next_event() {
///     fired.push(ev);
/// }
/// assert_eq!(fired, vec![Ev::Tick(1), Ev::Tick(2)]);
/// assert_eq!(eng.now(), SimTime::from_ns(2_000));
/// ```
///
/// `next_event` advances the clock to the event's timestamp before returning
/// it, so handlers always observe `now()` equal to their own fire time.
pub struct Engine<E> {
    now: SimTime,
    queue: EventQueue<E>,
    processed: u64,
    rec: Option<Box<RecState>>,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Pre-size the event queue for `cap` simultaneously pending events
    /// (e.g. from the driving trace's length), avoiding heap regrowth in
    /// the middle of a run.
    pub fn with_capacity(cap: usize) -> Self {
        Engine {
            now: SimTime::ZERO,
            queue: EventQueue::with_capacity(cap),
            processed: 0,
            rec: None,
        }
    }

    /// Current simulation time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events dispatched so far.
    #[inline]
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Live events still pending.
    #[inline]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Most events simultaneously pending so far (future-event-list
    /// high-water mark; reported by the perf harness as queue depth).
    #[inline]
    pub fn peak_pending(&self) -> usize {
        self.queue.peak_len()
    }

    #[inline]
    fn sched(&mut self, at: SimTime, event: E) -> EventId {
        let id = self.queue.schedule(at, event);
        if let Some(rec) = &mut self.rec {
            rec.frame.children.push(at);
            let slot = id.slot_index();
            if slot >= rec.slot_ord.len() {
                rec.slot_ord.resize(slot + 1, 0);
            }
            rec.slot_ord[slot] = rec.sched_ord;
            rec.sched_ord += 1;
        }
        id
    }

    /// Schedule an event at an absolute time, which must not precede `now`.
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventId {
        debug_assert!(
            at >= self.now,
            "event scheduled in the past: {at:?} < {:?}",
            self.now
        );
        self.sched(at.max(self.now), event)
    }

    /// Schedule an event `delay_ns` nanoseconds from now. Saturates at
    /// [`SimTime::MAX`] rather than wrapping, so an absurdly long delay
    /// (e.g. a disabled periodic process) cannot send the clock backwards.
    pub fn schedule_after(&mut self, delay_ns: u64, event: E) -> EventId {
        self.sched(
            SimTime::from_ns(self.now.as_ns().saturating_add(delay_ns)),
            event,
        )
    }

    /// Schedule an event at the current instant (fires after all events
    /// already scheduled for `now`).
    pub fn schedule_now(&mut self, event: E) -> EventId {
        self.sched(self.now, event)
    }

    /// Cancel a pending event.
    pub fn cancel(&mut self, id: EventId) -> bool {
        // Read the ordinal before the queue releases the slot; the slot's
        // entry is untouched between its schedule and this cancel.
        let ok = self.queue.cancel(id);
        if ok {
            if let Some(rec) = &mut self.rec {
                rec.frame.cancels.push(rec.slot_ord[id.slot_index()]);
            }
        }
        ok
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn next_event(&mut self) -> Option<E> {
        let (at, ev) = self.queue.pop()?;
        debug_assert!(at >= self.now);
        self.now = at;
        self.processed += 1;
        if let Some(rec) = &mut self.rec {
            rec.frame.at = at;
        }
        Some(ev)
    }

    /// Timestamp of the next pending event, if any.
    pub fn next_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Account for an event delivered by an external ordered feed (e.g. a
    /// trace arrival stream) rather than the event queue: advances the clock
    /// to `at` and counts the event as processed, exactly as if it had been
    /// popped by [`Engine::next_event`]. The caller owns the interleaving
    /// decision between its feed and [`Engine::next_time`].
    pub fn feed_event(&mut self, at: SimTime) {
        debug_assert!(
            at >= self.now,
            "fed event in the past: {at:?} < {:?}",
            self.now
        );
        self.now = at;
        self.processed += 1;
        if let Some(rec) = &mut self.rec {
            rec.frame.at = at;
        }
    }

    /// Turn exec-frame recording on or off. While on, every `schedule_*`
    /// and successful `cancel` is journaled into the current frame; call
    /// [`Engine::take_frame`] after executing each event to collect it.
    pub fn set_recording(&mut self, on: bool) {
        match (on, self.rec.is_some()) {
            (true, false) => {
                self.rec = Some(Box::new(RecState {
                    frame: ExecFrame::default(),
                    sched_ord: 0,
                    slot_ord: Vec::new(),
                }));
            }
            (false, true) => {
                self.rec = None;
            }
            _ => {}
        }
    }

    /// Take the frame accumulated since the last `take_frame` (or since
    /// recording started). `at` is the fire time of the most recent
    /// `next_event`; for schedules made before any pop (roots), it is
    /// [`SimTime::ZERO`]. Panics if recording is off.
    pub fn take_frame(&mut self) -> ExecFrame {
        // simlint::allow(panic-policy): documented contract — callers enable recording first
        let rec = self.rec.as_mut().expect("take_frame without recording");
        let frame = std::mem::take(&mut rec.frame);
        rec.frame.at = frame.at;
        frame
    }

    /// Append the frame accumulated since the last flush/take to `chunk`
    /// and reset it for the next event. Unlike [`Engine::take_frame`] this
    /// never gives up the frame's buffers, so a journaling loop performs no
    /// per-event allocation once the working frame's `Vec`s have grown.
    /// Panics if recording is off.
    pub fn flush_frame(&mut self, chunk: &mut FrameChunk) {
        // simlint::allow(panic-policy): documented contract — callers enable recording first
        let rec = self.rec.as_mut().expect("flush_frame without recording");
        let frame = &mut rec.frame;
        chunk.at.push(frame.at);
        chunk.child_count.push(frame.children.len() as u32);
        chunk.cancel_count.push(frame.cancels.len() as u32);
        chunk.children.append(&mut frame.children);
        chunk.cancels.append(&mut frame.cancels);
    }

    /// Advance the clock to `t` without processing events — used when
    /// assembling a merged report whose statistics were produced elsewhere.
    /// Must not move the clock backwards.
    pub fn fast_forward(&mut self, t: SimTime) {
        debug_assert!(
            t >= self.now,
            "fast_forward backwards: {t:?} < {:?}",
            self.now
        );
        self.now = self.now.max(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Ev {
        A,
        B,
        C,
    }

    #[test]
    fn clock_advances_with_events() {
        let mut eng = Engine::new();
        eng.schedule_at(SimTime::from_ms(10), Ev::B);
        eng.schedule_at(SimTime::from_ms(5), Ev::A);
        eng.schedule_after(20_000_000, Ev::C);
        assert_eq!(eng.pending(), 3);

        assert_eq!(eng.next_event(), Some(Ev::A));
        assert_eq!(eng.now(), SimTime::from_ms(5));
        assert_eq!(eng.next_event(), Some(Ev::B));
        assert_eq!(eng.now(), SimTime::from_ms(10));
        assert_eq!(eng.next_event(), Some(Ev::C));
        assert_eq!(eng.now(), SimTime::from_ms(20));
        assert_eq!(eng.next_event(), None);
        assert_eq!(eng.events_processed(), 3);
    }

    #[test]
    fn schedule_now_fires_after_existing_same_time_events() {
        let mut eng = Engine::new();
        eng.schedule_at(SimTime::ZERO, Ev::A);
        eng.schedule_now(Ev::B);
        assert_eq!(eng.next_event(), Some(Ev::A));
        assert_eq!(eng.next_event(), Some(Ev::B));
        assert_eq!(eng.now(), SimTime::ZERO);
    }

    #[test]
    fn cancelled_events_do_not_fire() {
        let mut eng = Engine::new();
        let id = eng.schedule_after(100, Ev::A);
        eng.schedule_after(200, Ev::B);
        assert!(eng.cancel(id));
        assert_eq!(eng.next_event(), Some(Ev::B));
        assert_eq!(eng.next_event(), None);
    }

    #[test]
    fn next_time_peeks_without_advancing() {
        let mut eng = Engine::new();
        eng.schedule_after(500, Ev::A);
        assert_eq!(eng.next_time(), Some(SimTime::from_ns(500)));
        assert_eq!(eng.now(), SimTime::ZERO);
    }

    /// The exec-frame journal captures exactly what each handler did:
    /// child schedule times in call order and the ordinals of cancelled
    /// schedules.
    #[test]
    fn recording_journals_schedules_and_cancels() {
        let mut eng = Engine::new();
        eng.set_recording(true);
        // Roots: ordinals 0 and 1.
        eng.schedule_at(SimTime::from_ns(100), Ev::A);
        let b = eng.schedule_at(SimTime::from_ns(200), Ev::B);
        let roots = eng.take_frame();
        assert_eq!(roots.at, SimTime::ZERO);
        assert_eq!(
            roots.children,
            vec![SimTime::from_ns(100), SimTime::from_ns(200)]
        );
        assert!(roots.cancels.is_empty());

        // A fires, schedules C (ordinal 2) and cancels B (ordinal 1).
        assert_eq!(eng.next_event(), Some(Ev::A));
        eng.schedule_after(50, Ev::C);
        assert!(eng.cancel(b));
        let f = eng.take_frame();
        assert_eq!(f.at, SimTime::from_ns(100));
        assert_eq!(f.children, vec![SimTime::from_ns(150)]);
        assert_eq!(f.cancels, vec![1]);

        // C fires and does nothing.
        assert_eq!(eng.next_event(), Some(Ev::C));
        let f = eng.take_frame();
        assert_eq!(f.at, SimTime::from_ns(150));
        assert!(f.children.is_empty() && f.cancels.is_empty());
        assert_eq!(eng.next_event(), None);
    }

    /// Ordinals track slot reuse: after a slot's event fires, the slot's
    /// next occupant gets a fresh ordinal and cancelling it journals the
    /// new ordinal, not the old one.
    #[test]
    fn recording_ordinals_survive_slot_reuse() {
        let mut eng = Engine::new();
        eng.set_recording(true);
        eng.schedule_at(SimTime::from_ns(10), Ev::A); // ordinal 0
        eng.take_frame();
        assert_eq!(eng.next_event(), Some(Ev::A));
        let b = eng.schedule_after(10, Ev::B); // ordinal 1, reuses A's slot
        assert!(eng.cancel(b));
        let f = eng.take_frame();
        assert_eq!(
            f.cancels,
            vec![1],
            "cancel must journal the reused slot's new ordinal"
        );
    }

    /// A fed event is indistinguishable from a popped one: clock advance,
    /// processed count, and the recorded frame's fire time all match.
    #[test]
    fn feed_event_advances_clock_and_counts() {
        let mut eng: Engine<Ev> = Engine::new();
        eng.set_recording(true);
        eng.feed_event(SimTime::from_ns(100));
        eng.schedule_after(50, Ev::A);
        let f = eng.take_frame();
        assert_eq!(f.at, SimTime::from_ns(100));
        assert_eq!(f.children, vec![SimTime::from_ns(150)]);
        assert_eq!(eng.now(), SimTime::from_ns(100));
        assert_eq!(eng.events_processed(), 1);
        assert_eq!(eng.next_event(), Some(Ev::A));
        assert_eq!(eng.events_processed(), 2);
    }

    /// Flat-encoded chunks round-trip the same journal `take_frame` yields:
    /// per-frame counts partition the spill arrays in order.
    #[test]
    fn flush_frame_flat_encoding_round_trips() {
        let mut eng = Engine::new();
        eng.set_recording(true);
        let mut chunk = FrameChunk::default();
        eng.schedule_at(SimTime::from_ns(10), Ev::A); // ordinal 0
        let b = eng.schedule_at(SimTime::from_ns(20), Ev::B); // ordinal 1
        eng.flush_frame(&mut chunk); // roots frame
        assert_eq!(eng.next_event(), Some(Ev::A));
        eng.schedule_after(5, Ev::C); // ordinal 2
        assert!(eng.cancel(b));
        eng.flush_frame(&mut chunk);
        assert_eq!(eng.next_event(), Some(Ev::C));
        eng.flush_frame(&mut chunk);

        assert_eq!(chunk.len(), 3);
        assert_eq!(
            chunk.at,
            vec![SimTime::ZERO, SimTime::from_ns(10), SimTime::from_ns(15)]
        );
        assert_eq!(chunk.child_count, vec![2, 1, 0]);
        assert_eq!(chunk.cancel_count, vec![0, 1, 0]);
        assert_eq!(
            chunk.children,
            vec![
                SimTime::from_ns(10),
                SimTime::from_ns(20),
                SimTime::from_ns(15)
            ]
        );
        assert_eq!(chunk.cancels, vec![1]);
        assert!(chunk.bytes() > 0);
        chunk.clear();
        assert!(chunk.is_empty());
    }

    #[test]
    fn fast_forward_moves_clock_without_events() {
        let mut eng: Engine<Ev> = Engine::new();
        eng.fast_forward(SimTime::from_ms(3));
        assert_eq!(eng.now(), SimTime::from_ms(3));
        assert_eq!(eng.events_processed(), 0);
    }
}
