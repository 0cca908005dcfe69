//! LRU cache with dirty/old-data tracking and destage grouping.

use crate::table::BlockMap;
use serde::{Deserialize, Serialize};

/// Identity of a logical block: (logical disk, block within disk).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct BlockKey {
    pub disk: u32,
    pub block: u64,
}

impl BlockKey {
    pub fn new(disk: u32, block: u64) -> BlockKey {
        BlockKey { disk, block }
    }

    /// The keys of `nblocks` consecutive blocks starting at `block` on
    /// `disk` — a request's footprint, without materializing it.
    pub fn range(disk: u32, block: u64, nblocks: u32) -> impl Iterator<Item = BlockKey> + Clone {
        (block..block + nblocks as u64).map(move |b| BlockKey::new(disk, b))
    }
}

/// A dirty block forced out by LRU replacement: the evicting miss must wait
/// for it to be written to disk. `had_old` says whether the old-data copy
/// was still cached (saving the data-disk pre-read in parity organizations).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DirtyEviction {
    pub key: BlockKey,
    pub had_old: bool,
}

/// A run of consecutive dirty blocks on one logical disk, ready to destage
/// as a single multiblock write. `has_old` reports whether *every* block in
/// the run still has its old contents cached (runs are split on this
/// boundary, since it changes the data-disk service time).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DestageGroup {
    pub disk: u32,
    pub block: u64,
    pub nblocks: u32,
    pub has_old: bool,
}

/// Hit/miss and replacement accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    pub read_hits: u64,
    pub read_misses: u64,
    pub write_hits: u64,
    pub write_misses: u64,
    /// Misses that had to wait for a dirty block's writeback.
    pub dirty_evictions: u64,
    /// Times the cache ran over capacity because everything was pinned.
    pub overflow_events: u64,
}

impl CacheStats {
    pub fn read_hit_ratio(&self) -> f64 {
        ratio(self.read_hits, self.read_misses)
    }
    pub fn write_hit_ratio(&self) -> f64 {
        ratio(self.write_hits, self.write_misses)
    }
}

fn ratio(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

const NIL: usize = usize::MAX;

#[derive(Clone, Debug)]
struct Node {
    key: BlockKey,
    is_old: bool,
    dirty: bool,
    destaging: bool,
    redirtied: bool,
    has_old: bool,
    prev: usize,
    next: usize,
}

/// The non-volatile controller cache. See the crate docs for the model.
///
/// Capacity is in blocks. All mutating operations may evict; dirty
/// evictions are returned to the caller, which owes a synchronous disk
/// write for each.
#[derive(Clone, Debug)]
pub struct NvCache {
    capacity: usize,
    reserved: usize,
    nodes: Vec<Node>,
    free: Vec<usize>,
    index: BlockMap,
    /// Every block that became destageable (dirty and not in flight to
    /// disk) since the last [`NvCache::collect_destage`], appended on each
    /// such transition. Entries are never removed in place: the collect
    /// sorts and deduplicates them into (disk, block) order — the exact
    /// order destage grouping depends on — and drops the ones that have
    /// since been evicted, cleaned or pinned. So it never scans the index,
    /// and the hot path pays a `Vec` push instead of an ordered-set insert.
    collectable: Vec<BlockKey>,
    /// Count of dirty data blocks, including ones currently destaging.
    /// Maintained on every clean↔dirty transition so [`NvCache::dirty_count`]
    /// is O(1) — it used to be a full index scan on every destage tick.
    dirty_len: usize,
    head: usize,
    tail: usize,
    len: usize,
    stats: CacheStats,
}

impl NvCache {
    pub fn new(capacity_blocks: usize) -> NvCache {
        assert!(capacity_blocks >= 2, "cache too small to be meaningful");
        NvCache {
            capacity: capacity_blocks,
            reserved: 0,
            nodes: Vec::with_capacity(capacity_blocks + 1),
            free: Vec::new(),
            index: BlockMap::with_capacity(capacity_blocks + 1),
            collectable: Vec::new(),
            dirty_len: 0,
            head: NIL,
            tail: NIL,
            len: 0,
            stats: CacheStats::default(),
        }
    }

    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Blocks currently held (data + old copies), excluding spool slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Slots currently lent to the parity spool.
    #[inline]
    pub fn reserved(&self) -> usize {
        self.reserved
    }

    fn effective_capacity(&self) -> usize {
        self.capacity.saturating_sub(self.reserved)
    }

    /// Non-touching presence probe (diagnostics/tests).
    pub fn contains(&self, key: BlockKey) -> bool {
        self.index.contains_key((key, false))
    }

    /// Whether the data block is dirty.
    pub fn is_dirty(&self, key: BlockKey) -> bool {
        self.index
            .get((key, false))
            .is_some_and(|i| self.nodes[i].dirty)
    }

    /// Whether an old-data copy for `key` is held.
    pub fn has_old_copy(&self, key: BlockKey) -> bool {
        self.index.contains_key((key, true))
    }

    /// Dirty data blocks, including ones currently destaging. O(1).
    pub fn dirty_count(&self) -> usize {
        self.dirty_len
    }

    /// A data block turned dirty: it is destageable until pinned or cleaned.
    fn mark_dirty(&mut self, key: BlockKey) {
        self.dirty_len += 1;
        self.collectable.push(key);
    }

    // ------------------------------------------------------------------
    // intrusive LRU list
    // ------------------------------------------------------------------

    fn unlink(&mut self, i: usize) {
        let (p, n) = (self.nodes[i].prev, self.nodes[i].next);
        if p != NIL {
            self.nodes[p].next = n;
        } else {
            self.head = n;
        }
        if n != NIL {
            self.nodes[n].prev = p;
        } else {
            self.tail = p;
        }
        self.nodes[i].prev = NIL;
        self.nodes[i].next = NIL;
    }

    fn push_mru(&mut self, i: usize) {
        self.nodes[i].prev = NIL;
        self.nodes[i].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    fn touch(&mut self, i: usize) {
        if self.head != i {
            self.unlink(i);
            self.push_mru(i);
        }
    }

    fn alloc(&mut self, node: Node) -> usize {
        if let Some(i) = self.free.pop() {
            self.nodes[i] = node;
            i
        } else {
            self.nodes.push(node);
            self.nodes.len() - 1
        }
    }

    fn remove_entry(&mut self, i: usize) {
        let key = (self.nodes[i].key, self.nodes[i].is_old);
        if !self.nodes[i].is_old && self.nodes[i].dirty {
            // Only evictions reach here with a dirty block (destaging blocks
            // are pinned); its `collectable` entry goes stale and the next
            // collect drops it.
            self.dirty_len -= 1;
        }
        self.unlink(i);
        self.index.remove(key);
        self.free.push(i);
        self.len -= 1;
    }

    /// Evict until within capacity. Pinned (destaging) entries are skipped;
    /// if nothing is evictable the cache temporarily overflows.
    fn evict_to_capacity(&mut self, evictions: &mut Vec<DirtyEviction>) {
        while self.len > self.effective_capacity() {
            let mut cand = self.tail;
            // Skip in-flight destage blocks, and never evict the MRU entry —
            // it is the block the current operation just brought in.
            while cand != NIL && (self.nodes[cand].destaging || cand == self.head) {
                cand = self.nodes[cand].prev;
            }
            if cand == NIL {
                self.stats.overflow_events += 1;
                return;
            }
            if self.nodes[cand].is_old {
                // Dropping an old copy: the owner loses its saved pre-read.
                let owner = (self.nodes[cand].key, false);
                if let Some(oi) = self.index.get(owner) {
                    self.nodes[oi].has_old = false;
                }
                self.remove_entry(cand);
            } else if self.nodes[cand].dirty {
                let key = self.nodes[cand].key;
                let had_old = self.nodes[cand].has_old;
                if had_old {
                    if let Some(oi) = self.index.get((key, true)) {
                        self.remove_entry(oi);
                    }
                }
                self.remove_entry(cand);
                self.stats.dirty_evictions += 1;
                evictions.push(DirtyEviction { key, had_old });
            } else {
                // Clean data.
                self.remove_entry(cand);
            }
        }
    }

    fn insert_node(
        &mut self,
        key: BlockKey,
        is_old: bool,
        dirty: bool,
        has_old: bool,
        evictions: &mut Vec<DirtyEviction>,
    ) {
        let node = Node {
            key,
            is_old,
            dirty,
            destaging: false,
            redirtied: false,
            has_old,
            prev: NIL,
            next: NIL,
        };
        let i = self.alloc(node);
        let prev = self.index.insert((key, is_old), i);
        debug_assert!(prev.is_none(), "inserting duplicate cache entry");
        if dirty && !is_old {
            self.mark_dirty(key);
        }
        self.push_mru(i);
        self.len += 1;
        self.evict_to_capacity(evictions);
    }

    // ------------------------------------------------------------------
    // host-facing operations
    // ------------------------------------------------------------------

    /// Probe a (possibly multiblock) read. Present blocks are touched.
    /// Returns the missing blocks; the request is a hit iff that is empty
    /// (the paper counts multiblock requests as hits only when *all* blocks
    /// are present).
    pub fn read_probe(&mut self, keys: &[BlockKey]) -> Vec<BlockKey> {
        let mut missing = Vec::new();
        self.read_probe_into(keys.iter().copied(), &mut missing);
        missing
    }

    /// [`NvCache::read_probe`] into a caller-owned buffer: appends the
    /// missing blocks to `missing` and returns whether the read hit.
    pub fn read_probe_into(
        &mut self,
        keys: impl Iterator<Item = BlockKey>,
        missing: &mut Vec<BlockKey>,
    ) -> bool {
        let before = missing.len();
        for k in keys {
            if let Some(i) = self.index.get((k, false)) {
                self.touch(i);
            } else {
                missing.push(k);
            }
        }
        let hit = missing.len() == before;
        if hit {
            self.stats.read_hits += 1;
        } else {
            self.stats.read_misses += 1;
        }
        hit
    }

    /// Insert a block fetched from disk after a read miss (clean).
    pub fn insert_fetched(&mut self, key: BlockKey) -> Vec<DirtyEviction> {
        let mut evictions = Vec::new();
        self.fetch_into(key, &mut evictions);
        evictions
    }

    /// [`NvCache::insert_fetched`] into a caller-owned buffer: appends the
    /// dirty evictions to `evictions`.
    pub fn fetch_into(&mut self, key: BlockKey, evictions: &mut Vec<DirtyEviction>) {
        if let Some(i) = self.index.get((key, false)) {
            self.touch(i);
            return;
        }
        self.insert_node(key, false, false, false, evictions);
    }

    /// Count a write as a hit (every block present) or a miss.
    fn count_write(&mut self, mut keys: impl Iterator<Item = BlockKey>) -> bool {
        let all_present = keys.all(|k| self.index.contains_key((k, false)));
        if all_present {
            self.stats.write_hits += 1;
        } else {
            self.stats.write_misses += 1;
        }
        all_present
    }

    /// Apply a (possibly multiblock) write. A hit requires all blocks
    /// present. With `keep_old`, a clean block being modified leaves its
    /// previous contents in the cache as an extra entry (parity
    /// organizations).
    pub fn write_access(
        &mut self,
        keys: &[BlockKey],
        keep_old: bool,
    ) -> (bool, Vec<DirtyEviction>) {
        let mut evictions = Vec::new();
        let hit = self.write_into(keys.iter().copied(), keep_old, &mut evictions);
        (hit, evictions)
    }

    /// [`NvCache::write_access`] into a caller-owned buffer: appends the
    /// dirty evictions to `evictions` and returns whether the write hit.
    pub fn write_into(
        &mut self,
        keys: impl Iterator<Item = BlockKey> + Clone,
        keep_old: bool,
        evictions: &mut Vec<DirtyEviction>,
    ) -> bool {
        let all_present = self.count_write(keys.clone());
        for k in keys {
            if let Some(i) = self.index.get((k, false)) {
                self.touch(i);
                if self.nodes[i].destaging {
                    self.nodes[i].redirtied = true;
                } else if !self.nodes[i].dirty {
                    self.nodes[i].dirty = true;
                    self.mark_dirty(k);
                    if keep_old && !self.index.contains_key((k, true)) {
                        self.nodes[i].has_old = true;
                        self.insert_node(k, true, false, false, evictions);
                    }
                }
                // Already-dirty blocks absorb the write in place.
            } else {
                // Write miss: no old contents available for this block.
                self.insert_node(k, false, true, false, evictions);
            }
        }
        all_present
    }

    /// Apply a write while the cache is in write-through mode (NVRAM battery
    /// failed): the data goes straight to disk, so blocks are cached *clean*
    /// and nothing becomes destageable. Present blocks are touched in place;
    /// a dirty block stays dirty (its pre-battery-failure contents still owe
    /// a destage) but absorbs the new data without further bookkeeping.
    /// Appends the dirty evictions to `evictions` and returns whether the
    /// write hit.
    pub fn write_through_into(
        &mut self,
        keys: impl Iterator<Item = BlockKey> + Clone,
        evictions: &mut Vec<DirtyEviction>,
    ) -> bool {
        let all_present = self.count_write(keys.clone());
        for k in keys {
            if let Some(i) = self.index.get((k, false)) {
                self.touch(i);
            } else {
                self.insert_node(k, false, false, false, evictions);
            }
        }
        all_present
    }

    // ------------------------------------------------------------------
    // destage
    // ------------------------------------------------------------------

    /// Collect every dirty, not-yet-destaging block into runs of consecutive
    /// blocks per logical disk (split where old-copy availability changes),
    /// marking them in-flight. Deterministic: the candidates are visited in
    /// (disk, block) order — the same order a full-index scan would give —
    /// but this is O(d log d) in the blocks dirtied since the last collect,
    /// not O(cache).
    pub fn collect_destage(&mut self) -> Vec<DestageGroup> {
        let mut keys = std::mem::take(&mut self.collectable);
        keys.sort_unstable();
        keys.dedup();
        let mut groups: Vec<DestageGroup> = Vec::new();
        for &key in &keys {
            // Stale entries: evicted, cleaned or already pinned since they
            // were appended.
            let Some(i) = self.index.get((key, false)) else {
                continue;
            };
            let node = &mut self.nodes[i];
            if !node.dirty || node.destaging {
                continue;
            }
            node.destaging = true;
            let has_old = node.has_old;
            if let Some(last) = groups.last_mut() {
                if last.disk == key.disk
                    && last.block + last.nblocks as u64 == key.block
                    && last.has_old == has_old
                {
                    last.nblocks += 1;
                    continue;
                }
            }
            groups.push(DestageGroup {
                disk: key.disk,
                block: key.block,
                nblocks: 1,
                has_old,
            });
        }
        groups
    }

    /// Undo a [`NvCache::collect_destage`] pick that could not be issued
    /// (e.g. the RAID4 spool could not reserve slots): blocks stay dirty and
    /// become collectable again.
    pub fn destage_abort(&mut self, group: &DestageGroup) {
        for b in 0..group.nblocks as u64 {
            let key = BlockKey::new(group.disk, group.block + b);
            if let Some(i) = self.index.get((key, false)) {
                self.nodes[i].destaging = false;
                if self.nodes[i].dirty {
                    self.collectable.push(key);
                }
            }
        }
    }

    /// A destage write reached the disk: blocks become clean (unless
    /// re-dirtied meanwhile) and their old copies are released.
    pub fn destage_complete(&mut self, group: &DestageGroup) {
        for b in 0..group.nblocks as u64 {
            let key = BlockKey::new(group.disk, group.block + b);
            let Some(i) = self.index.get((key, false)) else {
                continue; // evicted under overflow; nothing to settle
            };
            let node = &mut self.nodes[i];
            node.destaging = false;
            if node.redirtied {
                // Newer contents arrived during the destage; stays dirty,
                // but the old copy now matches what's on disk — drop it and
                // accept the pre-read on the next destage.
                node.redirtied = false;
                self.collectable.push(key);
            } else if node.dirty {
                node.dirty = false;
                self.dirty_len -= 1;
            }
            self.nodes[i].has_old = false;
            if let Some(oi) = self.index.get((key, true)) {
                self.remove_entry(oi);
            }
        }
    }

    // ------------------------------------------------------------------
    // parity-spool slot accounting (RAID4)
    // ------------------------------------------------------------------

    /// Lend `n` slots to the parity spool, evicting as needed. Fails (and
    /// lends nothing) only when the request exceeds total capacity.
    pub fn reserve_slots(&mut self, n: usize) -> Option<Vec<DirtyEviction>> {
        if self.reserved + n > self.capacity {
            return None;
        }
        self.reserved += n;
        let mut evictions = Vec::new();
        self.evict_to_capacity(&mut evictions);
        Some(evictions)
    }

    /// Return slots from the parity spool.
    pub fn release_slots(&mut self, n: usize) {
        debug_assert!(n <= self.reserved);
        self.reserved -= n.min(self.reserved);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(b: u64) -> BlockKey {
        BlockKey::new(0, b)
    }

    #[test]
    fn read_hit_and_miss_accounting() {
        let mut c = NvCache::new(8);
        assert_eq!(c.read_probe(&[k(1)]), vec![k(1)]);
        c.insert_fetched(k(1));
        assert!(c.read_probe(&[k(1)]).is_empty());
        assert_eq!(c.stats().read_hits, 1);
        assert_eq!(c.stats().read_misses, 1);
        assert!((c.stats().read_hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn multiblock_read_hit_requires_all_blocks() {
        let mut c = NvCache::new(8);
        c.insert_fetched(k(1));
        c.insert_fetched(k(2));
        let missing = c.read_probe(&[k(1), k(2), k(3)]);
        assert_eq!(missing, vec![k(3)]);
        assert_eq!(c.stats().read_misses, 1);
        assert_eq!(c.stats().read_hits, 0);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = NvCache::new(2);
        c.insert_fetched(k(1));
        c.insert_fetched(k(2));
        c.read_probe(&[k(1)]); // touch 1; 2 is now LRU
        let ev = c.insert_fetched(k(3));
        assert!(ev.is_empty(), "clean eviction is silent");
        assert!(c.contains(k(1)));
        assert!(!c.contains(k(2)));
        assert!(c.contains(k(3)));
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = NvCache::new(2);
        c.write_access(&[k(1)], false);
        c.insert_fetched(k(2));
        let ev = c.insert_fetched(k(3));
        assert_eq!(
            ev,
            vec![DirtyEviction {
                key: k(1),
                had_old: false
            }]
        );
        assert_eq!(c.stats().dirty_evictions, 1);
    }

    #[test]
    fn write_hit_on_cached_clean_block_keeps_old_copy() {
        let mut c = NvCache::new(8);
        c.insert_fetched(k(5));
        let (hit, ev) = c.write_access(&[k(5)], true);
        assert!(hit && ev.is_empty());
        assert!(c.is_dirty(k(5)));
        assert!(c.has_old_copy(k(5)));
        assert_eq!(c.len(), 2, "dirty block + old copy");
        // A second write to the same block does not duplicate the old copy.
        c.write_access(&[k(5)], true);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn write_miss_has_no_old_copy() {
        let mut c = NvCache::new(8);
        let (hit, _) = c.write_access(&[k(9)], true);
        assert!(!hit);
        assert!(c.is_dirty(k(9)));
        assert!(!c.has_old_copy(k(9)));
        assert_eq!(c.stats().write_misses, 1);
    }

    #[test]
    fn non_parity_orgs_do_not_keep_old_data() {
        let mut c = NvCache::new(8);
        c.insert_fetched(k(5));
        c.write_access(&[k(5)], false);
        assert!(c.is_dirty(k(5)));
        assert!(!c.has_old_copy(k(5)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn evicting_old_copy_clears_owner_flag() {
        let mut c = NvCache::new(2);
        c.insert_fetched(k(1));
        c.write_access(&[k(1)], true); // 2 slots used: data + old
                                       // Old copy was inserted most recently, so data block 1 is... still
                                       // MRU-ordered [old(1), 1]. Touch data to push old to LRU end.
        c.read_probe(&[k(1)]);
        let ev = c.insert_fetched(k(2)); // evicts the old copy
        assert!(ev.is_empty());
        assert!(c.is_dirty(k(1)));
        assert!(!c.has_old_copy(k(1)));
        // Destaging block 1 now requires the pre-read (has_old = false).
        let groups = c.collect_destage();
        assert_eq!(groups.len(), 1);
        assert!(!groups[0].has_old);
    }

    #[test]
    fn destage_groups_consecutive_blocks_per_disk() {
        let mut c = NvCache::new(16);
        for b in [3u64, 1, 2, 7] {
            c.write_access(&[k(b)], false);
        }
        c.write_access(&[BlockKey::new(1, 2)], false);
        let groups = c.collect_destage();
        assert_eq!(
            groups,
            vec![
                DestageGroup {
                    disk: 0,
                    block: 1,
                    nblocks: 3,
                    has_old: false
                },
                DestageGroup {
                    disk: 0,
                    block: 7,
                    nblocks: 1,
                    has_old: false
                },
                DestageGroup {
                    disk: 1,
                    block: 2,
                    nblocks: 1,
                    has_old: false
                },
            ]
        );
        // Collected blocks are pinned: a second collect returns nothing.
        assert!(c.collect_destage().is_empty());
    }

    #[test]
    fn destage_splits_on_old_copy_boundary() {
        let mut c = NvCache::new(16);
        c.insert_fetched(k(1));
        c.write_access(&[k(1)], true); // has old
        c.write_access(&[k(2)], true); // miss: no old
        let groups = c.collect_destage();
        assert_eq!(groups.len(), 2);
        assert!(groups[0].has_old);
        assert!(!groups[1].has_old);
    }

    #[test]
    fn destage_complete_cleans_and_frees_old() {
        let mut c = NvCache::new(8);
        c.insert_fetched(k(1));
        c.write_access(&[k(1)], true);
        let groups = c.collect_destage();
        assert_eq!(c.len(), 2);
        c.destage_complete(&groups[0]);
        assert!(!c.is_dirty(k(1)));
        assert!(!c.has_old_copy(k(1)));
        assert_eq!(c.len(), 1);
        assert!(c.contains(k(1)), "block stays cached, now clean");
    }

    #[test]
    fn write_during_destage_redirties() {
        let mut c = NvCache::new(8);
        c.write_access(&[k(1)], false);
        let groups = c.collect_destage();
        c.write_access(&[k(1)], false); // lands mid-destage
        c.destage_complete(&groups[0]);
        assert!(c.is_dirty(k(1)), "block re-dirtied during destage");
        // And it is destageable again.
        assert_eq!(c.collect_destage().len(), 1);
    }

    #[test]
    fn destaging_blocks_are_not_evicted() {
        let mut c = NvCache::new(2);
        c.write_access(&[k(1)], false);
        c.write_access(&[k(2)], false);
        let _ = c.collect_destage(); // pins both
        let ev = c.insert_fetched(k(3)); // nothing evictable → overflow
        assert!(ev.is_empty());
        assert_eq!(c.len(), 3);
        assert_eq!(c.stats().overflow_events, 1);
        assert!(c.contains(k(1)) && c.contains(k(2)) && c.contains(k(3)));
    }

    #[test]
    fn reserve_and_release_spool_slots() {
        let mut c = NvCache::new(4);
        for b in 0..4 {
            c.insert_fetched(k(b));
        }
        let ev = c.reserve_slots(2).unwrap();
        assert!(ev.is_empty(), "clean blocks evicted silently");
        assert_eq!(c.len(), 2);
        assert_eq!(c.reserved(), 2);
        assert!(c.reserve_slots(3).is_none(), "over total capacity");
        c.release_slots(2);
        assert_eq!(c.reserved(), 0);
    }

    /// Drive a pseudo-random mix of the cache's whole API and verify, every
    /// step, that the O(1) dirty counter equals a recount through the public
    /// `is_dirty` probe. Guards the incremental bookkeeping that replaced
    /// the old full-index scan.
    #[test]
    fn dirty_counter_matches_recount_under_churn() {
        let mut c = NvCache::new(32);
        let mut in_flight: Vec<DestageGroup> = Vec::new();
        let mut x = 9u64;
        for step in 0..5_000u32 {
            // xorshift: deterministic operation mix.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = BlockKey::new((x % 2) as u32, (x >> 8) % 48);
            match x % 10 {
                0..=3 => {
                    let _ = c.write_access(&[key], x.is_multiple_of(2));
                }
                4 | 5 => {
                    let _ = c.insert_fetched(key);
                }
                6 => {
                    let _ = c.read_probe(&[key]);
                }
                7 => {
                    for g in c.collect_destage() {
                        if x.is_multiple_of(3) {
                            c.destage_abort(&g);
                        } else {
                            in_flight.push(g);
                        }
                    }
                }
                _ => {
                    if !in_flight.is_empty() {
                        let g = in_flight.remove(0);
                        c.destage_complete(&g);
                    }
                }
            }
            let recount = (0..2u32)
                .flat_map(|d| (0..48u64).map(move |b| BlockKey::new(d, b)))
                .filter(|&k| c.is_dirty(k))
                .count();
            assert_eq!(c.dirty_count(), recount, "step {step}");
        }
    }

    /// Differential: the lazy `collectable` list against the eager ordered
    /// set it replaced. The reference is a `BTreeSet` of exactly the blocks
    /// the eager set held by its invariant — present, dirty, not destaging —
    /// rebuilt from the cache's state after every step. Under random
    /// multiblock writes, fetches, probes, write-throughs, slot reservations
    /// (forced evictions), collects, aborts and completions:
    /// * every reference block has an entry waiting in the lazy list, and
    /// * every `collect_destage` returns exactly the groups the reference
    ///   set yields in (disk, block) order.
    #[test]
    fn lazy_collectable_matches_eager_set_under_churn() {
        use std::collections::BTreeSet;
        let universe: Vec<BlockKey> = (0..3u32)
            .flat_map(|d| (0..40u64).map(move |b| BlockKey::new(d, b)))
            .collect();
        let reference = |c: &NvCache| -> BTreeSet<BlockKey> {
            universe
                .iter()
                .copied()
                .filter(|&k| {
                    c.index
                        .get((k, false))
                        .is_some_and(|i| c.nodes[i].dirty && !c.nodes[i].destaging)
                })
                .collect()
        };
        let mut c = NvCache::new(24);
        let mut in_flight: Vec<DestageGroup> = Vec::new();
        let mut scratch_keys = Vec::new();
        let mut scratch_evs = Vec::new();
        let mut collects = 0;
        let mut x = 0x5EED_u64;
        for step in 0..20_000u32 {
            // xorshift: deterministic operation mix.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let (disk, block) = ((x % 3) as u32, (x >> 8) % 38);
            let n = 1 + ((x >> 20) % 3) as u32;
            let keys = BlockKey::range(disk, block, n);
            scratch_keys.clear();
            scratch_evs.clear();
            match (x >> 32) % 16 {
                0..=4 => {
                    c.write_into(keys, x.is_multiple_of(2), &mut scratch_evs);
                }
                5 | 6 => c.fetch_into(BlockKey::new(disk, block), &mut scratch_evs),
                7 => {
                    c.read_probe_into(keys, &mut scratch_keys);
                }
                8 => {
                    c.write_through_into(keys, &mut scratch_evs);
                }
                9 => {
                    if c.reserve_slots(n as usize * 4).is_some() {
                        c.release_slots(n as usize * 4);
                    }
                }
                10 | 11 => {
                    let want = reference(&c);
                    let mut expected: Vec<DestageGroup> = Vec::new();
                    for &k in &want {
                        let has_old = c.nodes[c.index.get((k, false)).unwrap()].has_old;
                        match expected.last_mut() {
                            Some(g)
                                if g.disk == k.disk
                                    && g.block + g.nblocks as u64 == k.block
                                    && g.has_old == has_old =>
                            {
                                g.nblocks += 1
                            }
                            _ => expected.push(DestageGroup {
                                disk: k.disk,
                                block: k.block,
                                nblocks: 1,
                                has_old,
                            }),
                        }
                    }
                    let got = c.collect_destage();
                    assert_eq!(got, expected, "step {step}: collect diverged");
                    collects += 1;
                    in_flight.extend(got);
                }
                12 => {
                    if !in_flight.is_empty() {
                        let g = in_flight.swap_remove((x >> 40) as usize % in_flight.len());
                        c.destage_abort(&g);
                    }
                }
                _ => {
                    if !in_flight.is_empty() {
                        let g = in_flight.remove(0);
                        c.destage_complete(&g);
                    }
                }
            }
            for k in reference(&c) {
                assert!(
                    c.collectable.contains(&k),
                    "step {step}: destageable {k:?} has no collectable entry"
                );
            }
        }
        assert!(collects > 1_000, "the mix must exercise collect");
    }

    #[test]
    fn write_through_caches_clean_blocks() {
        let mut c = NvCache::new(8);
        let mut ev = Vec::new();
        let hit = c.write_through_into([k(1), k(2)].into_iter(), &mut ev);
        assert!(!hit && ev.is_empty());
        assert!(c.contains(k(1)) && c.contains(k(2)));
        assert!(!c.is_dirty(k(1)) && !c.is_dirty(k(2)));
        assert_eq!(c.dirty_count(), 0);
        assert!(c.collect_destage().is_empty(), "nothing destageable");
        // A later read of the same blocks hits.
        assert!(c.read_probe(&[k(1), k(2)]).is_empty());
        // Hitting an already-dirty block leaves it dirty (pre-failure
        // contents still owe a destage) without double-counting.
        c.write_access(&[k(3)], false);
        let hit = c.write_through_into([k(3)].into_iter(), &mut ev);
        assert!(hit);
        assert!(c.is_dirty(k(3)));
        assert_eq!(c.dirty_count(), 1);
    }

    #[test]
    fn dirty_count_tracks_state() {
        let mut c = NvCache::new(8);
        assert_eq!(c.dirty_count(), 0);
        c.write_access(&[k(1), k(2)], false);
        assert_eq!(c.dirty_count(), 2);
        let g = c.collect_destage();
        for grp in &g {
            c.destage_complete(grp);
        }
        assert_eq!(c.dirty_count(), 0);
    }
}
