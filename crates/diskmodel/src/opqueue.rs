//! Pending-operation queue for one drive.
//!
//! Three service bands, FIFO within each:
//!
//! * [`Band::Priority`] — parity accesses under the RF/PR and DF/PR
//!   synchronization policies ("gives the parity access higher priority than
//!   non-parity accesses queued at the same disk", Section 3.3).
//! * [`Band::Normal`] — host reads/writes and ordinary parity accesses.
//! * [`Band::Background`] — destage and parity-spool writes, "scheduled
//!   progressively so that they will cause minimal interference with the
//!   read traffic" (Section 3.4): they are only dispatched when no
//!   foreground work is queued.

use std::collections::VecDeque;

/// Service band of a queued operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Band {
    Priority,
    Normal,
    Background,
}

impl Band {
    /// All bands in service order (highest precedence first).
    pub const ALL: [Band; 3] = [Band::Priority, Band::Normal, Band::Background];

    /// Dense index in service order (`Priority` = 0).
    pub fn index(self) -> usize {
        match self {
            Band::Priority => 0,
            Band::Normal => 1,
            Band::Background => 2,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Band::Priority => "priority",
            Band::Normal => "normal",
            Band::Background => "background",
        }
    }
}

/// Three-band FIFO queue: the FCFS discipline of
/// [`SchedulerQueue`](crate::SchedulerQueue).
#[derive(Clone, Debug)]
pub(crate) struct OpQueue<T> {
    /// One FIFO per band, indexed by [`Band::index`].
    bands: [VecDeque<T>; 3],
}

impl<T> OpQueue<T> {
    pub(crate) fn new() -> Self {
        OpQueue {
            bands: Default::default(),
        }
    }

    /// Enqueue at the tail of a band.
    pub(crate) fn push(&mut self, band: Band, item: T) {
        self.bands[band.index()].push_back(item);
    }

    /// Dequeue the next operation: priority, then normal, then background.
    pub(crate) fn pop(&mut self) -> Option<(Band, T)> {
        Band::ALL
            .into_iter()
            .find_map(|b| self.bands[b.index()].pop_front().map(|x| (b, x)))
    }

    /// Operations queued in one band.
    pub(crate) fn band_len(&self, band: Band) -> usize {
        self.bands[band.index()].len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bands_drain_in_order() {
        let mut q = OpQueue::new();
        q.push(Band::Background, "bg");
        q.push(Band::Normal, "n1");
        q.push(Band::Priority, "p1");
        q.push(Band::Normal, "n2");
        assert_eq!(Band::ALL.map(|b| q.band_len(b)), [1, 2, 1]);
        assert_eq!(q.pop(), Some((Band::Priority, "p1")));
        assert_eq!(q.pop(), Some((Band::Normal, "n1")));
        assert_eq!(q.pop(), Some((Band::Normal, "n2")));
        assert_eq!(q.pop(), Some((Band::Background, "bg")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn band_helpers_and_labels() {
        assert_eq!(Band::ALL.map(Band::index), [0, 1, 2]);
        assert_eq!(Band::Priority.label(), "priority");
        let mut q = OpQueue::new();
        q.push(Band::Normal, 1);
        q.push(Band::Background, 2);
        assert_eq!(q.band_len(Band::Priority), 0);
        assert_eq!(q.band_len(Band::Normal), 1);
        assert_eq!(q.band_len(Band::Background), 1);
    }
}
