//! Per-drive service disciplines — the dispatch layer's seam.
//!
//! The paper evaluates every organization under one fixed discipline:
//! FIFO per-disk queues with a priority band for RF/PR parity accesses and
//! a background band for destage traffic (Sections 3.3–3.4). FCFS
//! reproduces that exactly and is the default. SSTF and SCAN are the
//! classic position-aware alternatives — Thomasian's mirrored-array survey
//! shows the choice materially shifts which organization wins under
//! skewed OLTP load — so the comparison is one [`Discipline`] knob on one
//! [`SchedulerQueue`] type instead of a simulator fork. The disciplines
//! are private to this module, where the contract tests cover them.
//!
//! # The contract
//!
//! Every discipline obeys, in order of precedence:
//!
//! 1. **Bands are absolute.** No operation is served while a higher band
//!    ([`Band::Priority`] > [`Band::Normal`] > [`Band::Background`]) has
//!    work queued. Position-aware ordering applies only *within* a band;
//!    RF/PR parity priority and background destage semantics are therefore
//!    identical across disciplines.
//! 2. **Exactly-once, no starvation.** Every pushed token is returned by
//!    exactly one `pop`, and any finite push sequence drains in finitely
//!    many pops (`pop` returns `Some` whenever the queue is non-empty).
//!    Ties within a band break by enqueue order, so a discipline is a pure
//!    function of its push/pop history — never of iteration order or
//!    ambient state.
//! 3. **Aborts do not move the arm.** [`SchedulerQueue::drain`] removes
//!    every queued operation at once — the disk-failure abort path — in a
//!    canonical, discipline-independent order, and leaves position state
//!    (SCAN's cursor and sweep direction) exactly as the last real service
//!    left it. Draining by repeated `pop`s instead drives the sweep
//!    machinery through a phantom service pass: the cursor ends up
//!    wherever the *aborted* ops would have taken the arm, and the hot
//!    spare inherits that garbled state for all re-planned and rebuild
//!    traffic.
//!
//! `pop` takes the arm's current cylinder so position-aware disciplines
//! can order by seek distance; FCFS ignores it, which is what makes it
//! byte-identical to the original hard-wired three-band FIFO.

use crate::geometry::Cylinder;
use crate::opqueue::{Band, OpQueue};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Which service discipline each drive's queue uses. The paper's
/// experiments all use `Fcfs`; the other disciplines are an extension
/// axis.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Discipline {
    /// First-come first-served within each band — the paper's discipline.
    #[default]
    Fcfs,
    /// Shortest seek time first: of the queued operations in the highest
    /// non-empty band, serve the one whose target cylinder is nearest the
    /// arm (ties by enqueue order).
    Sstf,
    /// Elevator sweep: serve queued operations in cylinder order in the
    /// current sweep direction, reversing at the ends (same cursor scheme
    /// as the RAID4 parity spool's drain order).
    Scan,
}

impl Discipline {
    pub const ALL: [Discipline; 3] = [Discipline::Fcfs, Discipline::Sstf, Discipline::Scan];

    pub fn label(self) -> &'static str {
        match self {
            Discipline::Fcfs => "FCFS",
            Discipline::Sstf => "SSTF",
            Discipline::Scan => "SCAN",
        }
    }

    /// Parse a CLI-style name (case-insensitive).
    pub fn from_name(s: &str) -> Option<Discipline> {
        match s.to_ascii_lowercase().as_str() {
            "fcfs" => Some(Discipline::Fcfs),
            "sstf" => Some(Discipline::Sstf),
            "scan" => Some(Discipline::Scan),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// SSTF
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
struct Entry {
    seq: u64,
    token: u32,
    cyl: Cylinder,
}

/// Shortest seek time first within each band.
#[derive(Clone, Debug, Default)]
struct Sstf {
    bands: [Vec<Entry>; 3],
    seq: u64,
}

impl Sstf {
    fn push(&mut self, band: Band, token: u32, cylinder: Cylinder) {
        let seq = self.seq;
        self.seq += 1;
        self.bands[band.index()].push(Entry {
            seq,
            token,
            cyl: cylinder,
        });
    }

    fn pop(&mut self, arm: Cylinder) -> Option<(Band, u32)> {
        let band = Band::ALL
            .into_iter()
            .find(|b| !self.bands[b.index()].is_empty())?;
        let entries = &mut self.bands[band.index()];
        // Nearest cylinder, ties by enqueue order: the key is a pure
        // function of the push history, so pops replay exactly.
        let (best, _) = entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| (arm.abs_diff(e.cyl), e.seq))?;
        Some((band, entries.remove(best).token))
    }

    fn drain(&mut self) -> Vec<(Band, u32)> {
        let mut out = Vec::new();
        for band in Band::ALL {
            let mut entries = std::mem::take(&mut self.bands[band.index()]);
            entries.sort_unstable_by_key(|e| e.seq);
            out.extend(entries.into_iter().map(|e| (band, e.token)));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// SCAN
// ---------------------------------------------------------------------------

/// Elevator sweep within each band: one cursor + direction per drive (the
/// arm is one physical object), reusing the cursor scheme proven in the
/// RAID4 parity spool (`nvcache::spool::ParitySpool::pop_run`). Within a
/// cylinder, operations are served in enqueue order in both sweep
/// directions.
#[derive(Clone, Debug)]
struct Scan {
    bands: [BTreeMap<(Cylinder, u64), u32>; 3],
    seq: u64,
    cursor: Cylinder,
    upward: bool,
}

impl Scan {
    fn new() -> Scan {
        Scan {
            bands: Default::default(),
            seq: 0,
            cursor: 0,
            upward: true,
        }
    }

    /// Next cylinder to service in `band` under the sweep, reversing at
    /// the ends; `None` iff the band is empty.
    fn sweep_target(&mut self, band: usize) -> Option<Cylinder> {
        let entries = &self.bands[band];
        if entries.is_empty() {
            return None;
        }
        if self.upward {
            match entries.range((self.cursor, 0)..).next() {
                Some((&(cyl, _), _)) => Some(cyl),
                None => {
                    self.upward = false;
                    entries
                        .range(..(self.cursor, 0))
                        .next_back()
                        .map(|(&(cyl, _), _)| cyl)
                }
            }
        } else {
            match entries.range(..=(self.cursor, u64::MAX)).next_back() {
                Some((&(cyl, _), _)) => Some(cyl),
                None => {
                    self.upward = true;
                    entries
                        .range((self.cursor, 0)..)
                        .next()
                        .map(|(&(cyl, _), _)| cyl)
                }
            }
        }
    }

    fn push(&mut self, band: Band, token: u32, cylinder: Cylinder) {
        let seq = self.seq;
        self.seq += 1;
        self.bands[band.index()].insert((cylinder, seq), token);
    }

    fn pop(&mut self) -> Option<(Band, u32)> {
        for band in Band::ALL {
            let i = band.index();
            let Some(cyl) = self.sweep_target(i) else {
                continue;
            };
            // FIFO within the chosen cylinder regardless of direction.
            let (&key, &token) = self.bands[i].range((cyl, 0)..=(cyl, u64::MAX)).next()?;
            self.bands[i].remove(&key);
            self.cursor = cyl;
            return Some((band, token));
        }
        None
    }

    // Unlike `pop`, draining leaves `cursor`/`upward` alone: aborted ops
    // were never serviced, so the arm never swept over them.
    fn drain(&mut self) -> Vec<(Band, u32)> {
        let mut out = Vec::new();
        for band in Band::ALL {
            let mut entries: Vec<(u64, u32)> = std::mem::take(&mut self.bands[band.index()])
                .into_iter()
                .map(|((_cyl, seq), token)| (seq, token))
                .collect();
            entries.sort_unstable_by_key(|&(seq, _)| seq);
            out.extend(entries.into_iter().map(|(_, token)| (band, token)));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// The per-drive queue
// ---------------------------------------------------------------------------

/// One drive's queue of operation tokens under the discipline chosen at
/// configuration time. Enum dispatch keeps the per-op hot path monomorphic
/// (no vtable) while letting the simulator hold a uniform
/// `Vec<SchedulerQueue>`.
#[derive(Clone, Debug)]
pub struct SchedulerQueue(Queue);

#[derive(Clone, Debug)]
enum Queue {
    /// The paper's discipline: the three-band FIFO, cylinders ignored.
    Fcfs(OpQueue<u32>),
    Sstf(Sstf),
    Scan(Scan),
}

impl SchedulerQueue {
    pub fn new(discipline: Discipline) -> SchedulerQueue {
        SchedulerQueue(match discipline {
            Discipline::Fcfs => Queue::Fcfs(OpQueue::new()),
            Discipline::Sstf => Queue::Sstf(Sstf::default()),
            Discipline::Scan => Queue::Scan(Scan::new()),
        })
    }

    /// Enqueue an operation targeting `cylinder`.
    pub fn push(&mut self, band: Band, token: u32, cylinder: Cylinder) {
        match &mut self.0 {
            Queue::Fcfs(q) => q.push(band, token),
            Queue::Sstf(q) => q.push(band, token, cylinder),
            Queue::Scan(q) => q.push(band, token, cylinder),
        }
    }

    /// Remove and return the next operation to service given the arm's
    /// current position. `None` iff empty.
    pub fn pop(&mut self, arm: Cylinder) -> Option<(Band, u32)> {
        match &mut self.0 {
            Queue::Fcfs(q) => q.pop(),
            Queue::Sstf(q) => q.pop(arm),
            Queue::Scan(q) => q.pop(),
        }
    }

    /// Remove every queued operation at once (the abort path: the ops will
    /// never be serviced). Canonical order, identical across disciplines:
    /// bands in priority order, each in enqueue order. Leaves position
    /// state untouched (contract clause 3) — the aborted ops never moved
    /// the arm. FCFS holds no position state, so its pop order *is* the
    /// canonical order.
    pub fn drain(&mut self) -> Vec<(Band, u32)> {
        match &mut self.0 {
            Queue::Fcfs(q) => std::iter::from_fn(|| q.pop()).collect(),
            Queue::Sstf(q) => q.drain(),
            Queue::Scan(q) => q.drain(),
        }
    }

    /// Queued operations in one band (per-band depth statistics).
    pub fn band_len(&self, band: Band) -> usize {
        match &self.0 {
            Queue::Fcfs(q) => q.band_len(band),
            Queue::Sstf(q) => q.bands[band.index()].len(),
            Queue::Scan(q) => q.bands[band.index()].len(),
        }
    }

    pub fn len(&self) -> usize {
        Band::ALL.into_iter().map(|b| self.band_len(b)).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Queued priority + normal operations (admission/replica decisions
    /// count only foreground work, as background ops always yield).
    pub fn foreground_len(&self) -> usize {
        self.band_len(Band::Priority) + self.band_len(Band::Normal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn schedulers() -> [SchedulerQueue; 3] {
        [
            SchedulerQueue::new(Discipline::Fcfs),
            SchedulerQueue::new(Discipline::Sstf),
            SchedulerQueue::new(Discipline::Scan),
        ]
    }

    #[test]
    fn discipline_names_round_trip() {
        for d in Discipline::ALL {
            assert_eq!(Discipline::from_name(d.label()), Some(d));
            assert_eq!(
                Discipline::from_name(&d.label().to_ascii_lowercase()),
                Some(d)
            );
        }
        assert_eq!(Discipline::from_name("elevator"), None);
        assert_eq!(Discipline::default(), Discipline::Fcfs);
    }

    #[test]
    fn bands_stay_absolute_for_every_discipline() {
        for mut s in schedulers() {
            s.push(Band::Background, 30, 100);
            s.push(Band::Normal, 20, 900);
            s.push(Band::Priority, 10, 1200);
            s.push(Band::Normal, 21, 50);
            assert_eq!(s.pop(0).map(|(b, _)| b), Some(Band::Priority));
            assert_eq!(s.pop(0).map(|(b, _)| b), Some(Band::Normal));
            assert_eq!(s.pop(0).map(|(b, _)| b), Some(Band::Normal));
            assert_eq!(s.pop(0).map(|(b, _)| b), Some(Band::Background));
            assert_eq!(s.pop(0), None);
        }
    }

    #[test]
    fn fcfs_matches_opqueue_order_exactly() {
        let mut s = SchedulerQueue::new(Discipline::Fcfs);
        let mut q = OpQueue::new();
        let ops = [
            (Band::Normal, 1u32, 500u32),
            (Band::Background, 2, 10),
            (Band::Priority, 3, 1000),
            (Band::Normal, 4, 20),
            (Band::Priority, 5, 0),
        ];
        for (b, t, c) in ops {
            s.push(b, t, c);
            q.push(b, t);
        }
        // Arm position must be irrelevant to FCFS.
        for arm in [0u32, 600, 1259, 42, 7] {
            assert_eq!(s.pop(arm), q.pop());
        }
        assert!(s.is_empty() && q.pop().is_none());
    }

    #[test]
    fn sstf_picks_nearest_cylinder_ties_by_enqueue_order() {
        let mut s = Sstf::default();
        s.push(Band::Normal, 1, 100);
        s.push(Band::Normal, 2, 510);
        s.push(Band::Normal, 3, 490); // same distance from 500 as token 2
        assert_eq!(s.pop(500), Some((Band::Normal, 2)), "tie → earlier push");
        assert_eq!(s.pop(500), Some((Band::Normal, 3)));
        assert_eq!(s.pop(490), Some((Band::Normal, 1)));
    }

    #[test]
    fn scan_sweeps_up_then_reverses() {
        let mut s = Scan::new();
        for (t, c) in [(1u32, 100u32), (2, 50), (3, 200)] {
            s.push(Band::Normal, t, c);
        }
        // Cursor starts at 0 going up: 50, 100, then 200; an op behind the
        // cursor waits for the downward sweep. SCAN never reads the arm.
        assert_eq!(s.pop(), Some((Band::Normal, 2)));
        assert_eq!(s.pop(), Some((Band::Normal, 1)));
        s.push(Band::Normal, 4, 10);
        assert_eq!(s.pop(), Some((Band::Normal, 3)));
        assert_eq!(s.pop(), Some((Band::Normal, 4)), "sweep reversed");
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn scan_serves_same_cylinder_fifo_in_both_directions() {
        let mut s = Scan::new();
        s.push(Band::Normal, 1, 300);
        s.push(Band::Normal, 2, 300);
        assert_eq!(s.pop(), Some((Band::Normal, 1)));
        assert_eq!(s.pop(), Some((Band::Normal, 2)));
        // Force a downward sweep over a doubly-occupied cylinder.
        s.push(Band::Normal, 3, 400);
        assert_eq!(s.pop(), Some((Band::Normal, 3)));
        s.push(Band::Normal, 4, 100);
        s.push(Band::Normal, 5, 100);
        assert_eq!(s.pop(), Some((Band::Normal, 4)), "FIFO going down too");
        assert_eq!(s.pop(), Some((Band::Normal, 5)));
    }

    /// Contract clause 3 regression: draining on abort must not drive the
    /// sweep machinery. Two identical SCAN queues mid-sweep are emptied
    /// for a disk failure — one via `drain`, one via the legacy pop loop —
    /// then receive identical fresh work: the drained queue resumes the
    /// sweep where the last *real* service left it, while the pop-looped
    /// queue's cursor and direction ended up wherever the *aborted* ops
    /// would have taken the arm.
    #[test]
    fn abort_drain_preserves_sweep_position_unlike_pop_draining() {
        let mut fixed = Scan::new();
        let mut legacy = Scan::new();
        for s in [&mut fixed, &mut legacy] {
            s.push(Band::Normal, 1, 10);
            s.push(Band::Normal, 2, 50);
            assert_eq!(s.pop(), Some((Band::Normal, 1)));
            assert_eq!(s.pop(), Some((Band::Normal, 2)));
            // The sweep is now at cylinder 50, heading up.
            s.push(Band::Normal, 3, 40);
            s.push(Band::Normal, 4, 60);
        }
        // The disk fails: everything still queued is aborted.
        let drained = fixed.drain();
        assert_eq!(
            drained,
            vec![(Band::Normal, 3), (Band::Normal, 4)],
            "canonical drain aborts in enqueue order"
        );
        let mut popped = Vec::new();
        while let Some(x) = legacy.pop() {
            popped.push(x);
        }
        // Same ops aborted either way — but the pop loop "serviced" them:
        // swept up to 60, reversed, came back down to 40.
        assert_eq!(popped, vec![(Band::Normal, 4), (Band::Normal, 3)]);
        assert_eq!((fixed.cursor, fixed.upward), (50, true));
        assert_eq!((legacy.cursor, legacy.upward), (40, false));
        // The hot spare takes over and identical re-planned work arrives:
        // the fixed queue resumes the interrupted upward sweep; the
        // garbled one heads the wrong way.
        for s in [&mut fixed, &mut legacy] {
            s.push(Band::Normal, 5, 45);
            s.push(Band::Normal, 6, 55);
        }
        assert_eq!(
            fixed.pop(),
            Some((Band::Normal, 6)),
            "upward sweep resumes past cylinder 50"
        );
        assert_eq!(
            legacy.pop(),
            Some((Band::Normal, 5)),
            "phantom sweep state picks the wrong op"
        );
    }

    /// `drain` returns entries in enqueue order, Priority → Normal →
    /// Background — identically for every discipline, whatever was popped
    /// before — and leaves the queue empty.
    #[test]
    fn drain_is_canonical_exactly_once_for_every_discipline() {
        for mut s in schedulers() {
            s.push(Band::Background, 30, 100);
            s.push(Band::Normal, 20, 900);
            s.push(Band::Priority, 10, 1200);
            s.push(Band::Normal, 21, 50);
            assert_eq!(s.pop(1200), Some((Band::Priority, 10)));
            s.push(Band::Priority, 11, 600);
            s.push(Band::Normal, 22, 1000);
            assert_eq!(
                s.drain(),
                vec![
                    (Band::Priority, 11),
                    (Band::Normal, 20),
                    (Band::Normal, 21),
                    (Band::Normal, 22),
                    (Band::Background, 30),
                ]
            );
            assert!(s.is_empty());
            assert!(s.drain().is_empty());
        }
    }

    #[test]
    fn len_accounting_spans_bands() {
        for mut s in schedulers() {
            assert!(s.is_empty());
            s.push(Band::Priority, 1, 0);
            s.push(Band::Normal, 2, 0);
            s.push(Band::Background, 3, 0);
            assert_eq!(s.len(), 3);
            assert_eq!(s.foreground_len(), 2);
            assert_eq!(s.band_len(Band::Priority), 1);
            assert_eq!(s.pop(0), Some((Band::Priority, 1)));
            assert_eq!(s.len(), 2);
            assert_eq!(s.foreground_len(), 1);
            assert_eq!(s.band_len(Band::Priority), 0);
            assert_eq!(s.band_len(Band::Background), 1);
            assert!(!s.is_empty());
        }
    }

    proptest! {
        /// Exactly-once, no starvation, bands absolute: any push sequence
        /// drains completely, every token appears exactly once, and no op
        /// is served while a higher band is non-empty — for all three
        /// disciplines. Replaying the same sequence pops identically.
        #[test]
        fn drains_exactly_once_with_absolute_bands(
            ops in proptest::collection::vec((0u8..3, 0u32..1260), 1..80),
            arm_walk in proptest::collection::vec(0u32..1260, 1..80),
        ) {
            for d in Discipline::ALL {
                let band_of = |i: u8| Band::ALL[i as usize];
                let run = |sched: &mut SchedulerQueue| {
                    let mut served: Vec<u32> = Vec::new();
                    let mut popped_bands: Vec<Band> = Vec::new();
                    let mut arms = arm_walk.iter().cycle();
                    // Interleave pushes and pops: push two, pop one.
                    for (i, &(b, cyl)) in ops.iter().enumerate() {
                        sched.push(band_of(b), i as u32, cyl);
                        if i % 2 == 1 {
                            if let Some((band, tok)) = sched.pop(*arms.next().unwrap()) {
                                prop_assert!(
                                    (0..band.index()).all(|hi| sched.band_len(Band::ALL[hi]) == 0),
                                    "{}: served {band:?} while a higher band was queued",
                                    d.label()
                                );
                                served.push(tok);
                                popped_bands.push(band);
                            }
                        }
                    }
                    while let Some((band, tok)) = sched.pop(*arms.next().unwrap()) {
                        prop_assert!(
                            (0..band.index()).all(|hi| sched.band_len(Band::ALL[hi]) == 0)
                        );
                        served.push(tok);
                        popped_bands.push(band);
                    }
                    prop_assert!(sched.is_empty());
                    prop_assert_eq!(served.len(), ops.len(), "{}: lost or duplicated ops", d.label());
                    let mut sorted = served.clone();
                    sorted.sort_unstable();
                    sorted.dedup();
                    prop_assert_eq!(sorted.len(), ops.len(), "{}: duplicate serve", d.label());
                    Ok(served)
                };
                let a = run(&mut SchedulerQueue::new(d))?;
                let b = run(&mut SchedulerQueue::new(d))?;
                prop_assert_eq!(a, b, "{} replay diverged", d.label());
            }
        }

        /// FCFS `drain` is byte-identical to the legacy abort path's pop
        /// loop — the property that keeps the pinned fault-injection
        /// replay hash intact across the drain fix.
        #[test]
        fn fcfs_drain_matches_pop_loop(
            ops in proptest::collection::vec((0u8..3, any::<bool>()), 1..60),
        ) {
            let mut a = SchedulerQueue::new(Discipline::Fcfs);
            let mut b = SchedulerQueue::new(Discipline::Fcfs);
            for (i, &(band, pop_one)) in ops.iter().enumerate() {
                let band = Band::ALL[band as usize];
                a.push(band, i as u32, 0);
                b.push(band, i as u32, 0);
                if pop_one {
                    prop_assert_eq!(a.pop(0), b.pop(0));
                }
            }
            let drained = a.drain();
            let mut legacy = Vec::new();
            while let Some(x) = b.pop(0) {
                legacy.push(x);
            }
            prop_assert_eq!(drained, legacy);
        }

        /// FCFS through the scheduler seam is indistinguishable from the
        /// raw OpQueue, whatever the arm does and whatever the cylinders.
        #[test]
        fn fcfs_differential_vs_opqueue(
            ops in proptest::collection::vec((0u8..3, 0u32..1260, any::<bool>()), 1..60),
            arms in proptest::collection::vec(0u32..1260, 1..60),
        ) {
            let mut s = SchedulerQueue::new(Discipline::Fcfs);
            let mut q: OpQueue<u32> = OpQueue::new();
            let mut arm = arms.iter().cycle();
            for (i, &(b, cyl, do_pop)) in ops.iter().enumerate() {
                let band = Band::ALL[b as usize];
                s.push(band, i as u32, cyl);
                q.push(band, i as u32);
                if do_pop {
                    prop_assert_eq!(s.pop(*arm.next().unwrap()), q.pop());
                }
            }
            loop {
                let got = s.pop(*arm.next().unwrap());
                let want = q.pop();
                prop_assert_eq!(got, want);
                if want.is_none() {
                    break;
                }
            }
        }
    }
}
