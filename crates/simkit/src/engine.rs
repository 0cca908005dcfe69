//! Clock + future-event-list harness.

use crate::queue::{EventId, EventQueue};
use crate::time::SimTime;

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

    /// Schedule an event at an absolute time, which must not precede `now`.
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventId {
        debug_assert!(
            at >= self.now,
            "event scheduled in the past: {at:?} < {:?}",
            self.now
        );
        self.queue.schedule(at.max(self.now), event)
    }

    /// Schedule an event `delay_ns` nanoseconds from now. Saturates at
    /// [`SimTime::MAX`] rather than wrapping, so an absurdly long delay
    /// (e.g. a disabled periodic process) cannot send the clock backwards.
    pub fn schedule_after(&mut self, delay_ns: u64, event: E) -> EventId {
        self.queue.schedule(
            SimTime::from_ns(self.now.as_ns().saturating_add(delay_ns)),
            event,
        )
    }

    /// Schedule an event at the current instant (fires after all events
    /// already scheduled for `now`).
    pub fn schedule_now(&mut self, event: E) -> EventId {
        self.queue.schedule(self.now, event)
    }

    /// Cancel a pending event.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn next_event(&mut self) -> Option<E> {
        let (at, ev) = self.queue.pop()?;
        debug_assert!(at >= self.now);
        self.now = at;
        self.processed += 1;
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

    /// A fed event is indistinguishable from a popped one: the clock
    /// advances to it, it counts as processed, and schedules made after it
    /// are relative to its time.
    #[test]
    fn feed_event_advances_clock_and_counts() {
        let mut eng: Engine<Ev> = Engine::new();
        eng.feed_event(SimTime::from_ns(100));
        eng.schedule_after(50, Ev::A);
        assert_eq!(eng.next_time(), Some(SimTime::from_ns(150)));
        assert_eq!(eng.now(), SimTime::from_ns(100));
        assert_eq!(eng.events_processed(), 1);
        assert_eq!(eng.next_event(), Some(Ev::A));
        assert_eq!(eng.events_processed(), 2);
    }
}
