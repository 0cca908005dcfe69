//! # nvcache — the non-volatile controller cache (Section 3.4)
//!
//! One cache per array. The model implements everything the paper's cached
//! controllers do:
//!
//! * **LRU replacement** with read/write hit accounting ([`NvCache`]).
//! * **Old-data retention**: in parity organizations a modified block's
//!   previous contents stay in the cache (one extra slot) "to save the extra
//!   rotation needed to read the old data when writing the block back to
//!   disk". Old copies participate in LRU and may be evicted early.
//! * **Synchronous writeback on dirty eviction**: a miss that replaces a
//!   dirty block must wait for that block to reach the disk.
//! * **Periodic destage** ([`NvCache::collect_destage`]): a background
//!   process initiated every destage period that groups consecutive dirty
//!   blocks into multiblock writes, issued at background priority so they
//!   interfere minimally with reads. Blocks being destaged are pinned;
//!   writes landing on them re-dirty the block.
//! * **RAID4 parity caching** ([`ParitySpool`]): parity updates are buffered
//!   in the same cache (charging its capacity), sorted by target location
//!   and spooled to the dedicated parity disk with a SCAN sweep. Entries
//!   carry whether they hold *full* parity (full-stripe write — written
//!   without reading old parity) or an XOR *delta* (old parity must still
//!   be read, Section 3.4).
//!
//! Determinism: block lookups go through a flat open-addressing table with
//! a fixed hash function (never iterated), while everything order-sensitive
//! — destage grouping, eviction — walks either the intrusive LRU list or
//! the destage candidates sorted into (disk, block) order, so results are
//! reproducible run-to-run.
//!
//! Every host-facing operation has an `_into` form that appends to
//! caller-owned buffers (missing blocks, dirty evictions), so a simulator
//! can keep one scratch buffer per kind and allocate nothing per request;
//! the plain forms wrap them and return fresh `Vec`s.

pub mod lru;
pub mod spool;
mod table;

pub use lru::{BlockKey, CacheStats, DestageGroup, DirtyEviction, NvCache};
pub use spool::{ParitySpool, SpoolEntry};

/// Blocks that fit in a cache of `mb` megabytes with `block_bytes` blocks.
pub fn blocks_for_mb(mb: u64, block_bytes: u64) -> u64 {
    mb * 1024 * 1024 / block_bytes
}

#[cfg(test)]
mod tests {
    #[test]
    fn capacity_of_default_cache() {
        // 16 MB of 4 KB blocks = 4096 slots (Table 4 default).
        assert_eq!(super::blocks_for_mb(16, 4096), 4096);
    }
}
