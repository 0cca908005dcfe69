//! Model-based differential test of [`NvCache`].
//!
//! The reference is the cache model written as plainly as possible: one
//! `Vec` in MRU-first order holding data blocks and old copies alike,
//! found by linear search, with the eager destage rule (every dirty,
//! not-destaging data block, sorted by key). Random operation sequences
//! drive both; every step must give the same hit/miss counts, missing
//! blocks, dirty evictions and destage groups, and the cache must pass
//! [`NvCache::check_invariants`].

use crate::{BlockKey, CacheStats, DestageGroup, DirtyEviction, NvCache};
use proptest::prelude::*;

#[derive(Clone, Copy, Debug)]
struct Entry {
    key: BlockKey,
    old: bool,
    dirty: bool,
    destaging: bool,
    redirtied: bool,
    has_old: bool,
}

impl Entry {
    fn data(key: BlockKey, dirty: bool) -> Entry {
        Entry {
            key,
            old: false,
            dirty,
            destaging: false,
            redirtied: false,
            has_old: false,
        }
    }
}

struct Reference {
    capacity: usize,
    reserved: usize,
    /// MRU first.
    lru: Vec<Entry>,
    stats: CacheStats,
}

impl Reference {
    fn new(capacity: usize) -> Reference {
        Reference {
            capacity,
            reserved: 0,
            lru: Vec::new(),
            stats: CacheStats::default(),
        }
    }

    fn pos(&self, key: BlockKey, old: bool) -> Option<usize> {
        self.lru.iter().position(|e| e.key == key && e.old == old)
    }

    fn touch(&mut self, i: usize) {
        let e = self.lru.remove(i);
        self.lru.insert(0, e);
    }

    fn evict(&mut self, evictions: &mut Vec<DirtyEviction>) {
        while self.lru.len() > self.capacity.saturating_sub(self.reserved) {
            // The LRU-most entry not in flight, never the MRU one.
            let Some(c) = (1..self.lru.len()).rev().find(|&i| !self.lru[i].destaging) else {
                self.stats.overflow_events += 1;
                return;
            };
            let e = self.lru.remove(c);
            if e.old {
                if let Some(o) = self.pos(e.key, false) {
                    self.lru[o].has_old = false;
                }
            } else if e.dirty {
                if e.has_old {
                    let o = self
                        .pos(e.key, true)
                        .expect("owner with has_old has an old copy");
                    self.lru.remove(o);
                }
                self.stats.dirty_evictions += 1;
                evictions.push(DirtyEviction {
                    key: e.key,
                    had_old: e.has_old,
                });
            }
        }
    }

    fn insert(&mut self, e: Entry, evictions: &mut Vec<DirtyEviction>) {
        self.lru.insert(0, e);
        self.evict(evictions);
    }

    fn read(&mut self, keys: &[BlockKey], missing: &mut Vec<BlockKey>) -> bool {
        for &k in keys {
            match self.pos(k, false) {
                Some(i) => self.touch(i),
                None => missing.push(k),
            }
        }
        let hit = missing.is_empty();
        if hit {
            self.stats.read_hits += 1;
        } else {
            self.stats.read_misses += 1;
        }
        hit
    }

    fn fetch(&mut self, key: BlockKey, evictions: &mut Vec<DirtyEviction>) {
        match self.pos(key, false) {
            Some(i) => self.touch(i),
            None => self.insert(Entry::data(key, false), evictions),
        }
    }

    fn count_write(&mut self, keys: &[BlockKey]) -> bool {
        let hit = keys.iter().all(|&k| self.pos(k, false).is_some());
        if hit {
            self.stats.write_hits += 1;
        } else {
            self.stats.write_misses += 1;
        }
        hit
    }

    fn write(
        &mut self,
        keys: &[BlockKey],
        keep_old: bool,
        evictions: &mut Vec<DirtyEviction>,
    ) -> bool {
        let hit = self.count_write(keys);
        for &k in keys {
            let Some(i) = self.pos(k, false) else {
                self.insert(Entry::data(k, true), evictions);
                continue;
            };
            self.touch(i);
            let e = &mut self.lru[0];
            if e.destaging {
                e.redirtied = true;
            } else if !e.dirty {
                e.dirty = true;
                if keep_old && self.pos(k, true).is_none() {
                    self.lru[0].has_old = true;
                    let old = Entry {
                        old: true,
                        ..Entry::data(k, false)
                    };
                    self.insert(old, evictions);
                }
            }
        }
        hit
    }

    fn write_through(&mut self, keys: &[BlockKey], evictions: &mut Vec<DirtyEviction>) -> bool {
        let hit = self.count_write(keys);
        for &k in keys {
            match self.pos(k, false) {
                Some(i) => self.touch(i),
                None => self.insert(Entry::data(k, false), evictions),
            }
        }
        hit
    }

    fn collect(&mut self) -> Vec<DestageGroup> {
        let mut picked: Vec<usize> = (0..self.lru.len())
            .filter(|&i| {
                let e = &self.lru[i];
                !e.old && e.dirty && !e.destaging
            })
            .collect();
        picked.sort_by_key(|&i| self.lru[i].key);
        let mut groups: Vec<DestageGroup> = Vec::new();
        for i in picked {
            let e = &mut self.lru[i];
            e.destaging = true;
            let (k, has_old) = (e.key, e.has_old);
            match groups.last_mut() {
                Some(g)
                    if g.disk == k.disk
                        && g.block + g.nblocks as u64 == k.block
                        && g.has_old == has_old =>
                {
                    g.nblocks += 1
                }
                _ => groups.push(DestageGroup {
                    disk: k.disk,
                    block: k.block,
                    nblocks: 1,
                    has_old,
                }),
            }
        }
        groups
    }

    fn abort(&mut self, g: &DestageGroup) {
        for k in BlockKey::range(g.disk, g.block, g.nblocks) {
            if let Some(i) = self.pos(k, false) {
                self.lru[i].destaging = false;
            }
        }
    }

    fn complete(&mut self, g: &DestageGroup) {
        for k in BlockKey::range(g.disk, g.block, g.nblocks) {
            let Some(i) = self.pos(k, false) else {
                continue;
            };
            let e = &mut self.lru[i];
            e.destaging = false;
            if e.redirtied {
                e.redirtied = false;
            } else {
                e.dirty = false;
            }
            e.has_old = false;
            if let Some(o) = self.pos(k, true) {
                self.lru.remove(o);
            }
        }
    }

    fn reserve(&mut self, n: usize, evictions: &mut Vec<DirtyEviction>) -> bool {
        if self.reserved + n > self.capacity {
            return false;
        }
        self.reserved += n;
        self.evict(evictions);
        true
    }
}

#[derive(Clone, Debug)]
enum Op {
    Read(BlockKey, u32),
    Fetch(BlockKey),
    Write(BlockKey, u32, bool),
    WriteThrough(BlockKey, u32),
    Collect,
    Complete(usize),
    Abort(usize),
    Reserve(usize),
    Release(usize),
}

const DISKS: u32 = 2;
const BLOCKS: u64 = 20;

fn key() -> impl Strategy<Value = BlockKey> {
    (0..DISKS, 0..BLOCKS).prop_map(|(d, b)| BlockKey::new(d, b))
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (key(), 1u32..4).prop_map(|(k, n)| Op::Read(k, n)),
        2 => key().prop_map(Op::Fetch),
        5 => (key(), 1u32..4, any::<bool>()).prop_map(|(k, n, o)| Op::Write(k, n, o)),
        1 => (key(), 1u32..4).prop_map(|(k, n)| Op::WriteThrough(k, n)),
        2 => Just(Op::Collect),
        2 => (0usize..8).prop_map(Op::Complete),
        1 => (0usize..8).prop_map(Op::Abort),
        1 => (0usize..4).prop_map(Op::Reserve),
        1 => (0usize..4).prop_map(Op::Release),
    ]
}

/// Eviction paths a run went through.
#[derive(Default)]
struct Coverage {
    dirty_evictions: u64,
    with_old_copy: u64,
    overflows: u64,
}

/// Run `ops` against both models, failing on the first divergence.
fn run(capacity: usize, ops: &[Op]) -> Result<Coverage, String> {
    let mut cov = Coverage::default();
    let mut c = NvCache::new(capacity);
    let mut r = Reference::new(capacity);
    let mut in_flight: Vec<DestageGroup> = Vec::new();
    let (mut ev_c, mut ev_r) = (Vec::new(), Vec::new());
    let (mut miss_c, mut miss_r) = (Vec::new(), Vec::new());
    for (step, op) in ops.iter().enumerate() {
        ev_c.clear();
        ev_r.clear();
        miss_c.clear();
        miss_r.clear();
        let keys = |k: BlockKey, n: u32| -> Vec<BlockKey> {
            BlockKey::range(k.disk, k.block, n).collect()
        };
        let (got, want) = match *op {
            Op::Read(k, n) => {
                let ks = keys(k, n);
                let hit = c.read_probe_into(ks.iter().copied(), &mut miss_c);
                (hit, r.read(&ks, &mut miss_r))
            }
            Op::Fetch(k) => {
                c.fetch_into(k, &mut ev_c);
                r.fetch(k, &mut ev_r);
                (true, true)
            }
            Op::Write(k, n, keep_old) => {
                let ks = keys(k, n);
                let hit = c.write_into(ks.iter().copied(), keep_old, &mut ev_c);
                (hit, r.write(&ks, keep_old, &mut ev_r))
            }
            Op::WriteThrough(k, n) => {
                let ks = keys(k, n);
                let hit = c.write_through_into(ks.iter().copied(), &mut ev_c);
                (hit, r.write_through(&ks, &mut ev_r))
            }
            Op::Collect => {
                let got = c.collect_destage();
                let want = r.collect();
                if got != want {
                    return Err(format!("step {step}: groups {got:?}, reference {want:?}"));
                }
                in_flight.extend(got);
                (true, true)
            }
            Op::Complete(i) | Op::Abort(i) if !in_flight.is_empty() => {
                let g = in_flight.remove(i % in_flight.len());
                if matches!(op, Op::Complete(_)) {
                    c.destage_complete(&g);
                    r.complete(&g);
                } else {
                    c.destage_abort(&g);
                    r.abort(&g);
                }
                (true, true)
            }
            Op::Complete(_) | Op::Abort(_) => (true, true),
            Op::Reserve(n) => (c.reserve_slots_into(n, &mut ev_c), r.reserve(n, &mut ev_r)),
            Op::Release(n) => {
                let n = n.min(c.reserved());
                c.release_slots(n);
                r.reserved -= n;
                (true, true)
            }
        };
        cov.with_old_copy += ev_c.iter().filter(|e| e.had_old).count() as u64;
        if got != want || ev_c != ev_r || miss_c != miss_r {
            return Err(format!(
                "step {step} {op:?}: result {got}/{want}, evictions {ev_c:?}/{ev_r:?}, \
                 missing {miss_c:?}/{miss_r:?}"
            ));
        }
        if c.stats() != &r.stats || c.len() != r.lru.len() {
            return Err(format!("step {step} {op:?}: stats or length diverged"));
        }
        for d in 0..DISKS {
            for b in 0..BLOCKS + 4 {
                let k = BlockKey::new(d, b);
                let (data, old) = (r.pos(k, false), r.pos(k, true));
                let dirty = data.is_some_and(|i| r.lru[i].dirty);
                if c.contains(k) != data.is_some()
                    || c.is_dirty(k) != dirty
                    || c.has_old_copy(k) != old.is_some()
                {
                    return Err(format!("step {step} {op:?}: state of {k:?} diverged"));
                }
            }
        }
        let dirty = r.lru.iter().filter(|e| !e.old && e.dirty).count();
        if c.dirty_count() != dirty {
            return Err(format!(
                "step {step}: dirty_count {} vs {dirty}",
                c.dirty_count()
            ));
        }
        c.check_invariants()
            .map_err(|e| format!("step {step} {op:?}: {e}"))?;
    }
    cov.dirty_evictions = c.stats().dirty_evictions;
    cov.overflows = c.stats().overflow_events;
    Ok(cov)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The cache against the plain reference model, under random mixes of
    /// every operation: reads, fetches, multiblock writes with and without
    /// old-copy retention, write-through, destage collect/complete/abort
    /// and spool slot reserve/release.
    #[test]
    fn cache_matches_reference_model(
        capacity in 2usize..12,
        ops in proptest::collection::vec(op(), 1..300),
    ) {
        if let Err(e) = run(capacity, &ops) {
            prop_assert!(false, "capacity {}: {}", capacity, e);
        }
    }
}

/// The mixes above reach every eviction path: dirty evictions with and
/// without old copies, and overflow when everything is pinned.
#[test]
fn model_mix_reaches_every_eviction_path() {
    let mut runner = proptest::test_runner::TestRunner::new(ProptestConfig::with_cases(64));
    let mut total = Coverage::default();
    let cases = (2usize..12, proptest::collection::vec(op(), 1..300));
    let result = runner.run(&cases, |(capacity, ops)| {
        let cov = run(capacity, &ops).map_err(TestCaseError::fail)?;
        total.dirty_evictions += cov.dirty_evictions;
        total.with_old_copy += cov.with_old_copy;
        total.overflows += cov.overflows;
        Ok(())
    });
    assert!(result.is_ok(), "{result:?}");
    assert!(total.dirty_evictions > total.with_old_copy && total.with_old_copy > 0);
    assert!(total.overflows > 0);
}
