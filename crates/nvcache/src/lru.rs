//! LRU cache with dirty/old-data tracking and destage grouping.

use crate::table::{BlockMap, Probe, NIL};
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

    /// Bits of a packed key that hold the block number.
    const BLOCK_BITS: u32 = 40;
    /// Disks a cache can key (24 bits of the packed key).
    pub const MAX_DISKS: u32 = 1 << (64 - Self::BLOCK_BITS);
    /// Blocks per disk a cache can key (40 bits of the packed key).
    pub const MAX_BLOCKS: u64 = 1 << Self::BLOCK_BITS;

    /// The key as one `u64`: the disk in the top 24 bits, the block in the
    /// low 40. Packed keys order like `BlockKey`s, by (disk, block).
    #[inline]
    pub(crate) fn packed(self) -> u64 {
        assert!(
            self.disk < Self::MAX_DISKS && self.block < Self::MAX_BLOCKS,
            "{self:?} is outside the cache's key space"
        );
        ((self.disk as u64) << Self::BLOCK_BITS) | self.block
    }

    #[inline]
    pub(crate) fn unpack(key: u64) -> BlockKey {
        BlockKey::new(
            (key >> Self::BLOCK_BITS) as u32,
            key & ((1 << Self::BLOCK_BITS) - 1),
        )
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

/// Node flag bits.
const OLD: u8 = 1;
const DIRTY: u8 = 2;
const DESTAGING: u8 = 4;
const REDIRTIED: u8 = 8;
const FREE: u8 = 16;

/// One cached block: a data block, or the old-data copy of one. Ids are
/// `u32` indices into the node slab; [`NIL`] means "none".
#[derive(Clone, Copy, Debug)]
struct Node {
    /// Packed [`BlockKey`]; an old copy carries its owner's key.
    key: u64,
    prev: u32,
    next: u32,
    /// A data node's old copy, or an old copy's owner ([`NIL`]: none).
    /// Doubles as the free-list link of a freed node.
    link: u32,
    flags: u8,
}

const _: () = assert!(std::mem::size_of::<Node>() <= 24);

impl Node {
    #[inline]
    fn has(&self, flag: u8) -> bool {
        self.flags & flag != 0
    }
}

/// The non-volatile controller cache. See the crate docs for the model.
///
/// Capacity is in blocks. All mutating operations may evict; dirty
/// evictions are returned to the caller, which owes a synchronous disk
/// write for each.
///
/// Layout: a slab of 24-byte nodes threaded on an intrusive LRU list, and
/// an index from data-block keys to node ids. An old-data copy is not in
/// the index: its owner links to it and it links back, while it keeps its
/// own LRU position.
#[derive(Clone, Debug)]
pub struct NvCache {
    capacity: usize,
    reserved: usize,
    nodes: Vec<Node>,
    /// Head of the free-node list, threaded through `Node::link`.
    free: u32,
    index: BlockMap,
    /// Every (key, node) that became destageable (dirty and not in flight
    /// to disk) since the last [`NvCache::collect_destage_into`], appended
    /// on each such transition. Entries are never removed in place: the
    /// collect sorts them into (disk, block) order — the exact order
    /// destage grouping depends on — and skips the ones whose node has
    /// since been evicted, cleaned or pinned. So it never scans the index,
    /// and the hot path pays a `Vec` push instead of an ordered-set insert.
    collectable: Vec<(u64, u32)>,
    /// Count of dirty data blocks, including ones currently destaging.
    /// Maintained on every clean↔dirty transition so [`NvCache::dirty_count`]
    /// is O(1).
    dirty_len: usize,
    head: u32,
    tail: u32,
    len: usize,
    stats: CacheStats,
}

impl NvCache {
    /// The largest capacity a cache can have: node ids are `u32`, with
    /// `u32::MAX` reserved for "none".
    pub const MAX_CAPACITY: usize = NIL as usize - 1;

    /// Blocks the node slab and the index are sized for up front (a 256 MB
    /// cache of 4 KB blocks); larger caches grow them as blocks arrive.
    const PRESIZED_BLOCKS: usize = 1 << 16;

    /// An empty cache of `capacity_blocks` blocks. The node slab and the
    /// index start sized for at most [`Self::PRESIZED_BLOCKS`] blocks and
    /// grow with use, so a cache far larger than its working set costs only
    /// what it holds. Both hold one block more than that: a miss on a full
    /// cache allocates and indexes its block before `admit` evicts, so a
    /// cache within the presize never grows either.
    pub fn new(capacity_blocks: usize) -> NvCache {
        assert!(capacity_blocks >= 2, "cache too small to be meaningful");
        assert!(
            capacity_blocks <= Self::MAX_CAPACITY,
            "cache of {capacity_blocks} blocks exceeds the u32 node ids"
        );
        NvCache {
            capacity: capacity_blocks,
            reserved: 0,
            nodes: Vec::with_capacity(capacity_blocks.min(Self::PRESIZED_BLOCKS) + 1),
            free: NIL,
            index: BlockMap::with_capacity(capacity_blocks.min(Self::PRESIZED_BLOCKS) + 1),
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

    #[inline]
    fn node(&self, i: u32) -> &Node {
        &self.nodes[i as usize]
    }

    #[inline]
    fn node_mut(&mut self, i: u32) -> &mut Node {
        &mut self.nodes[i as usize]
    }

    /// The index entry for `key`, or the vacancy it would go into. A tag
    /// match is confirmed against the node's own key.
    #[inline]
    fn probe(&self, key: u64) -> Probe {
        self.index.probe(key, |i| self.node(i).key)
    }

    /// The data node holding `key`.
    #[inline]
    fn lookup(&self, key: u64) -> Option<u32> {
        self.index.get(key, |i| self.node(i).key)
    }

    /// Non-touching presence probe (diagnostics/tests).
    pub fn contains(&self, key: BlockKey) -> bool {
        self.lookup(key.packed()).is_some()
    }

    /// Whether the data block is dirty.
    pub fn is_dirty(&self, key: BlockKey) -> bool {
        self.lookup(key.packed())
            .is_some_and(|i| self.node(i).has(DIRTY))
    }

    /// Whether an old-data copy for `key` is held.
    pub fn has_old_copy(&self, key: BlockKey) -> bool {
        self.lookup(key.packed())
            .is_some_and(|i| self.node(i).link != NIL)
    }

    /// Dirty data blocks, including ones currently destaging. O(1).
    pub fn dirty_count(&self) -> usize {
        self.dirty_len
    }

    /// Data node `i` (key `key`) turned destageable: it stays so until
    /// pinned or cleaned.
    #[inline]
    fn mark_collectable(&mut self, key: u64, i: u32) {
        self.collectable.push((key, i));
    }

    // ------------------------------------------------------------------
    // node slab and intrusive LRU list
    // ------------------------------------------------------------------

    fn alloc(&mut self, key: u64, flags: u8) -> u32 {
        let node = Node {
            key,
            prev: NIL,
            next: NIL,
            link: NIL,
            flags,
        };
        if self.free != NIL {
            let i = self.free;
            self.free = self.node(i).link;
            *self.node_mut(i) = node;
            return i;
        }
        let i = self.nodes.len();
        assert!(
            i < NIL as usize,
            "cache overflow exhausted the u32 node ids"
        );
        self.nodes.push(node);
        i as u32
    }

    fn unlink(&mut self, i: u32) {
        let Node {
            prev: p, next: n, ..
        } = *self.node(i);
        if p != NIL {
            self.node_mut(p).next = n;
        } else {
            self.head = n;
        }
        if n != NIL {
            self.node_mut(n).prev = p;
        } else {
            self.tail = p;
        }
    }

    fn push_mru(&mut self, i: u32) {
        let head = self.head;
        let node = self.node_mut(i);
        node.prev = NIL;
        node.next = head;
        if head != NIL {
            self.node_mut(head).prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    #[inline]
    fn touch(&mut self, i: u32) {
        if self.head != i {
            self.unlink(i);
            self.push_mru(i);
        }
    }

    /// Drop node `i` (its old copy, if any, is the caller's business).
    fn remove_entry(&mut self, i: u32) {
        let node = *self.node(i);
        if !node.has(OLD) {
            if node.has(DIRTY) {
                // Only evictions reach here with a dirty block (destaging
                // blocks are pinned); its `collectable` entry goes stale and
                // the next collect skips it.
                self.dirty_len -= 1;
            }
            let removed = self.index.remove(node.key, i);
            debug_assert!(removed, "data node {i} was not indexed");
        }
        self.unlink(i);
        let free = self.free;
        *self.node_mut(i) = Node {
            key: 0,
            prev: NIL,
            next: NIL,
            link: free,
            flags: FREE,
        };
        self.free = i;
        self.len -= 1;
    }

    /// Evict until within capacity. Pinned (destaging) entries are skipped;
    /// if nothing is evictable the cache temporarily overflows.
    fn evict_to_capacity(&mut self, evictions: &mut Vec<DirtyEviction>) {
        while self.len > self.effective_capacity() {
            let mut cand = self.tail;
            // Skip in-flight destage blocks, and never evict the MRU entry —
            // it is the block the current operation just brought in.
            while cand != NIL && (self.node(cand).has(DESTAGING) || cand == self.head) {
                cand = self.node(cand).prev;
            }
            if cand == NIL {
                self.stats.overflow_events += 1;
                return;
            }
            let node = *self.node(cand);
            if node.has(OLD) {
                // Dropping an old copy: the owner loses its saved pre-read.
                self.node_mut(node.link).link = NIL;
                self.remove_entry(cand);
            } else if node.has(DIRTY) {
                let had_old = node.link != NIL;
                if had_old {
                    self.remove_entry(node.link);
                }
                self.remove_entry(cand);
                self.stats.dirty_evictions += 1;
                evictions.push(DirtyEviction {
                    key: BlockKey::unpack(node.key),
                    had_old,
                });
            } else {
                // Clean data.
                self.remove_entry(cand);
            }
        }
    }

    /// Make node `i` the MRU entry, count it, and evict to capacity.
    fn admit(&mut self, i: u32, evictions: &mut Vec<DirtyEviction>) {
        self.push_mru(i);
        self.len += 1;
        self.evict_to_capacity(evictions);
    }

    /// Insert an absent data block at the index vacancy `slot` its probe
    /// returned.
    fn insert_data(
        &mut self,
        slot: usize,
        key: u64,
        dirty: bool,
        evictions: &mut Vec<DirtyEviction>,
    ) {
        let i = self.alloc(key, if dirty { DIRTY } else { 0 });
        self.index.insert_vacant(slot, key, i);
        if dirty {
            self.dirty_len += 1;
            self.mark_collectable(key, i);
        }
        self.admit(i, evictions);
    }

    /// Apply a write to present data node `i`.
    fn write_hit(&mut self, i: u32, keep_old: bool, evictions: &mut Vec<DirtyEviction>) {
        self.touch(i);
        let node = *self.node(i);
        if node.has(DESTAGING) {
            self.node_mut(i).flags |= REDIRTIED;
        } else if !node.has(DIRTY) {
            self.node_mut(i).flags |= DIRTY;
            self.dirty_len += 1;
            self.mark_collectable(node.key, i);
            if keep_old && node.link == NIL {
                let old = self.alloc(node.key, OLD);
                self.node_mut(old).link = i;
                self.node_mut(i).link = old;
                self.admit(old, evictions);
            }
        }
        // Already-dirty blocks absorb the write in place.
    }

    /// Count a write as a hit (every block present) or a miss.
    fn count_write(&mut self, hit: bool) {
        if hit {
            self.stats.write_hits += 1;
        } else {
            self.stats.write_misses += 1;
        }
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
            match self.lookup(k.packed()) {
                Some(i) => self.touch(i),
                None => missing.push(k),
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
    /// dirty evictions to `evictions`. One index probe finds the block or
    /// the slot it goes into.
    pub fn fetch_into(&mut self, key: BlockKey, evictions: &mut Vec<DirtyEviction>) {
        let key = key.packed();
        match self.probe(key) {
            Probe::Found(i) => self.touch(i),
            Probe::Vacant(slot) => self.insert_data(slot, key, false, evictions),
        }
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
    ///
    /// A single-block write counts and applies with one probe. A multiblock
    /// write counts every block before applying any: an eviction during the
    /// apply pass may drop a later block of the same request.
    pub fn write_into(
        &mut self,
        keys: impl Iterator<Item = BlockKey> + Clone,
        keep_old: bool,
        evictions: &mut Vec<DirtyEviction>,
    ) -> bool {
        self.write_with(keys, evictions, |c, probe, key, evictions| match probe {
            Probe::Found(i) => c.write_hit(i, keep_old, evictions),
            // Write miss: no old contents available for this block.
            Probe::Vacant(slot) => c.insert_data(slot, key, true, evictions),
        })
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
        self.write_with(keys, evictions, |c, probe, key, evictions| match probe {
            Probe::Found(i) => c.touch(i),
            Probe::Vacant(slot) => c.insert_data(slot, key, false, evictions),
        })
    }

    /// The shared shape of both write paths: count the hit, then `apply`
    /// each block's probe result in request order.
    fn write_with(
        &mut self,
        keys: impl Iterator<Item = BlockKey> + Clone,
        evictions: &mut Vec<DirtyEviction>,
        apply: impl Fn(&mut NvCache, Probe, u64, &mut Vec<DirtyEviction>),
    ) -> bool {
        let mut rest = keys.clone();
        let (Some(first), None) = (rest.next(), rest.next()) else {
            let hit = keys.clone().all(|k| self.lookup(k.packed()).is_some());
            self.count_write(hit);
            for k in keys {
                let key = k.packed();
                let probe = self.probe(key);
                apply(self, probe, key, evictions);
            }
            return hit;
        };
        let key = first.packed();
        let probe = self.probe(key);
        let hit = matches!(probe, Probe::Found(_));
        self.count_write(hit);
        apply(self, probe, key, evictions);
        hit
    }

    // ------------------------------------------------------------------
    // destage
    // ------------------------------------------------------------------

    /// [`NvCache::collect_destage_into`], returning a fresh `Vec`.
    pub fn collect_destage(&mut self) -> Vec<DestageGroup> {
        let mut groups = Vec::new();
        self.collect_destage_into(&mut groups);
        groups
    }

    /// Collect every dirty, not-yet-destaging block into runs of consecutive
    /// blocks per logical disk (split where old-copy availability changes),
    /// marking them in-flight, and append the runs to `groups`.
    /// Deterministic: the candidates are visited in (disk, block) order —
    /// the same order a full-index scan would give — but this is
    /// O(d log d) in the blocks dirtied since the last collect, not
    /// O(cache).
    pub fn collect_destage_into(&mut self, groups: &mut Vec<DestageGroup>) {
        let mut cands = std::mem::take(&mut self.collectable);
        cands.sort_unstable_by_key(|&(key, _)| key);
        let first = groups.len();
        for &(key, i) in &cands {
            // Stale entries: the node was evicted (and maybe reused),
            // cleaned or already pinned since the entry was appended. A
            // live data node holding `key` is the one the index maps `key`
            // to, so no probe is needed.
            let node = self.node_mut(i);
            if node.key != key || node.flags & (OLD | FREE | DESTAGING | DIRTY) != DIRTY {
                continue;
            }
            node.flags |= DESTAGING;
            let has_old = node.link != NIL;
            let BlockKey { disk, block } = BlockKey::unpack(key);
            if let Some(last) = groups[first..].last_mut() {
                if last.disk == disk
                    && last.block + last.nblocks as u64 == block
                    && last.has_old == has_old
                {
                    last.nblocks += 1;
                    continue;
                }
            }
            groups.push(DestageGroup {
                disk,
                block,
                nblocks: 1,
                has_old,
            });
        }
        cands.clear();
        self.collectable = cands;
    }

    /// Undo a [`NvCache::collect_destage_into`] pick that could not be
    /// issued (e.g. the RAID4 spool could not reserve slots): blocks stay
    /// dirty and become collectable again. Nothing was written, so a write
    /// that landed since the pick is just part of the dirty contents.
    pub fn destage_abort(&mut self, group: &DestageGroup) {
        for k in BlockKey::range(group.disk, group.block, group.nblocks) {
            let key = k.packed();
            if let Some(i) = self.lookup(key) {
                let node = self.node_mut(i);
                node.flags &= !(DESTAGING | REDIRTIED);
                if node.has(DIRTY) {
                    self.mark_collectable(key, i);
                }
            }
        }
    }

    /// A destage write reached the disk: blocks become clean (unless
    /// re-dirtied meanwhile) and their old copies are released.
    pub fn destage_complete(&mut self, group: &DestageGroup) {
        for k in BlockKey::range(group.disk, group.block, group.nblocks) {
            let key = k.packed();
            let Some(i) = self.lookup(key) else {
                continue; // evicted under overflow; nothing to settle
            };
            let node = self.node_mut(i);
            node.flags &= !DESTAGING;
            if node.has(REDIRTIED) {
                // Newer contents arrived during the destage; stays dirty,
                // but the old copy now matches what's on disk — drop it and
                // accept the pre-read on the next destage.
                node.flags &= !REDIRTIED;
                self.mark_collectable(key, i);
            } else if node.has(DIRTY) {
                node.flags &= !DIRTY;
                self.dirty_len -= 1;
            }
            let old = std::mem::replace(&mut self.node_mut(i).link, NIL);
            if old != NIL {
                self.remove_entry(old);
            }
        }
    }

    // ------------------------------------------------------------------
    // parity-spool slot accounting (RAID4)
    // ------------------------------------------------------------------

    /// Lend `n` slots to the parity spool, evicting as needed and appending
    /// the dirty evictions to `evictions`. Fails (and lends nothing) only
    /// when the request exceeds total capacity.
    pub fn reserve_slots_into(&mut self, n: usize, evictions: &mut Vec<DirtyEviction>) -> bool {
        if self.reserved + n > self.capacity {
            return false;
        }
        self.reserved += n;
        self.evict_to_capacity(evictions);
        true
    }

    /// Return slots from the parity spool.
    pub fn release_slots(&mut self, n: usize) {
        debug_assert!(n <= self.reserved);
        self.reserved -= n.min(self.reserved);
    }

    /// Check the layout's invariants, naming the first one broken:
    /// * the index holds exactly the live data nodes, each under its key;
    /// * `dirty_len` counts the dirty data nodes;
    /// * old-copy and owner links are symmetric, only dirty data nodes
    ///   have old copies, and [`NvCache::has_old_copy`] agrees;
    /// * the LRU list visits exactly `len` live nodes, both directions
    ///   agree, and every freed node is off the list and on the free list;
    /// * every destageable block has a `collectable` entry, and only
    ///   in-flight blocks are marked re-dirtied;
    /// * `reserved ≤ capacity`.
    #[cfg(test)]
    pub(crate) fn check_invariants(&self) -> Result<(), String> {
        let live = |n: &Node| !n.has(FREE);
        let data = |n: &Node| live(n) && !n.has(OLD);
        let data_nodes = self.nodes.iter().filter(|n| data(n)).count();
        if self.index.len() != data_nodes {
            return Err(format!(
                "index holds {} keys for {data_nodes} data nodes",
                self.index.len()
            ));
        }
        let dirty = self
            .nodes
            .iter()
            .filter(|n| data(n) && n.has(DIRTY))
            .count();
        if self.dirty_len != dirty {
            return Err(format!(
                "dirty_len {} but {dirty} dirty nodes",
                self.dirty_len
            ));
        }
        for (i, n) in self.nodes.iter().enumerate() {
            let i = i as u32;
            if !live(n) {
                if n.prev != NIL || n.next != NIL || n.flags != FREE {
                    return Err(format!("freed node {i} still linked or flagged"));
                }
                continue;
            }
            if n.has(OLD) {
                let owner = self.nodes.get(n.link as usize);
                if !owner.is_some_and(|o| data(o) && o.link == i && o.key == n.key) {
                    return Err(format!("old copy {i} and its owner disagree"));
                }
                continue;
            }
            let key = BlockKey::unpack(n.key);
            if self.lookup(n.key) != Some(i) {
                return Err(format!("index does not map {key:?} to node {i}"));
            }
            if n.link != NIL {
                let old = self.nodes.get(n.link as usize);
                if !old.is_some_and(|o| live(o) && o.has(OLD) && o.link == i) {
                    return Err(format!("node {i}'s old copy does not link back"));
                }
                if !n.has(DIRTY) {
                    return Err(format!("clean node {i} keeps an old copy"));
                }
            }
            if self.has_old_copy(key) != (n.link != NIL) {
                return Err(format!("has_old_copy({key:?}) disagrees with the link"));
            }
            if n.has(REDIRTIED) && !n.has(DESTAGING) {
                return Err(format!("{key:?} re-dirtied outside a destage"));
            }
            if n.flags & (DIRTY | DESTAGING) == DIRTY && !self.collectable.contains(&(n.key, i)) {
                return Err(format!("destageable {key:?} has no collectable entry"));
            }
        }
        let (mut seen, mut prev, mut i) = (0usize, NIL, self.head);
        while i != NIL {
            let n = self.nodes.get(i as usize).ok_or("LRU link out of range")?;
            if !live(n) || n.prev != prev {
                return Err(format!("LRU list broken at node {i}"));
            }
            seen += 1;
            if seen > self.len {
                return Err("LRU list longer than len".into());
            }
            (prev, i) = (i, n.next);
        }
        if seen != self.len || self.tail != prev {
            return Err(format!("LRU walk saw {seen} nodes, len is {}", self.len));
        }
        if self.nodes.iter().filter(|n| live(n)).count() != self.len {
            return Err("live nodes off the LRU list".into());
        }
        let (mut freed, mut f) = (0usize, self.free);
        while f != NIL {
            freed += 1;
            if freed > self.nodes.len() {
                return Err("free list cycles".into());
            }
            f = self
                .nodes
                .get(f as usize)
                .ok_or("free link out of range")?
                .link;
        }
        if freed + self.len != self.nodes.len() {
            return Err(format!(
                "{freed} free + {} live ≠ {} nodes",
                self.len,
                self.nodes.len()
            ));
        }
        if self.reserved > self.capacity {
            return Err(format!(
                "reserved {} > capacity {}",
                self.reserved, self.capacity
            ));
        }
        Ok(())
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

    /// An aborted destage wrote nothing, so a write that landed while its
    /// blocks were picked is just part of their dirty contents: the next
    /// destage writes it and leaves the blocks clean.
    #[test]
    fn write_during_aborted_destage_is_cleaned_by_the_next_destage() {
        let mut c = NvCache::new(8);
        c.write_access(&[k(1)], false);
        let groups = c.collect_destage();
        c.write_access(&[k(1)], false); // lands while picked
        c.destage_abort(&groups[0]);
        let groups = c.collect_destage();
        assert_eq!(groups.len(), 1);
        c.destage_complete(&groups[0]);
        assert!(
            !c.is_dirty(k(1)),
            "no newer contents than the destage wrote"
        );
        assert!(c.collect_destage().is_empty(), "no second destage");
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
        let mut ev = Vec::new();
        assert!(c.reserve_slots_into(2, &mut ev));
        assert!(ev.is_empty(), "clean blocks evicted silently");
        assert_eq!(c.len(), 2);
        assert_eq!(c.reserved(), 2);
        assert!(!c.reserve_slots_into(3, &mut ev), "over total capacity");
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
                    c.lookup(k.packed())
                        .is_some_and(|i| c.node(i).flags & (DIRTY | DESTAGING) == DIRTY)
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
                    if c.reserve_slots_into(n as usize * 4, &mut scratch_evs) {
                        c.release_slots(n as usize * 4);
                    }
                }
                10 | 11 => {
                    let want = reference(&c);
                    let mut expected: Vec<DestageGroup> = Vec::new();
                    for &k in &want {
                        let has_old = c.has_old_copy(k);
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
            if let Err(e) = c.check_invariants() {
                panic!("step {step}: {e}");
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

    /// A miss on a full cache indexes its block before evicting, so the
    /// index briefly holds capacity + 1 keys: the presize must cover that,
    /// or every run doubles (and rehashes) the table mid-run. At 5/8 load
    /// a 256 MB cache's 64 Ki + 1 keys fit 2^17 slots of 8 bytes.
    #[test]
    fn index_never_grows_within_the_presize() {
        for capacity in [64, 1024, NvCache::PRESIZED_BLOCKS] {
            for keep_old in [false, true] {
                let mut c = NvCache::new(capacity);
                let bytes = c.index.bytes();
                for b in 0..2 * capacity as u64 {
                    c.insert_fetched(k(b));
                    c.write_access(&[k(b)], keep_old);
                    assert_eq!(
                        c.index.bytes(),
                        bytes,
                        "capacity {capacity}, keep_old {keep_old}: grew at block {b}"
                    );
                }
                assert_eq!(c.len(), capacity);
            }
        }
        assert!(NvCache::new(NvCache::PRESIZED_BLOCKS).index.bytes() <= 1 << 20);
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
