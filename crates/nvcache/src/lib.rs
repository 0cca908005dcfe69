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
//! Layout: blocks are 24-byte nodes in one slab, threaded on an intrusive
//! LRU list with `u32` links. A flat open-addressing index with a fixed
//! hash (never iterated) maps each *data* block's packed (disk, block) key
//! to its node in 8-byte slots held at most 5/8 full: a 32-bit hash tag
//! and the node id, the key itself living only in the node, which confirms
//! a tag match. An old-data copy stays out of the index and is reached
//! through a link from its owner. A 256 MB cache's nodes and index take
//! 2.5 MiB; past that size both grow with use, so a huge cache costs only
//! what it holds. Each host operation probes the
//! index once per block; a multiblock write probes twice, counting the hit
//! before applying it. Everything order-sensitive — destage grouping,
//! eviction — walks either the LRU list or the destage candidates sorted
//! into (disk, block) order, so results are reproducible run-to-run.
//!
//! Every host-facing operation has an `_into` form that appends to
//! caller-owned buffers (missing blocks, dirty evictions, destage groups),
//! so a simulator can keep one scratch buffer per kind and allocate nothing
//! per request; the plain forms wrap them and return fresh `Vec`s.

pub mod lru;
#[cfg(test)]
mod model_tests;
pub mod spool;
mod table;

pub use lru::{BlockKey, CacheStats, DestageGroup, DirtyEviction, NvCache};
pub use spool::{ParitySpool, SpoolEntry};

/// Blocks that fit in a cache of `mb` megabytes with `block_bytes` blocks,
/// or `None` when that count does not fit a `u64` (or `block_bytes` is 0).
pub fn checked_blocks_for_mb(mb: u64, block_bytes: u64) -> Option<u64> {
    let bytes = mb as u128 * 1024 * 1024;
    bytes
        .checked_div(block_bytes as u128)
        .and_then(|b| u64::try_from(b).ok())
}

/// [`checked_blocks_for_mb`], saturating at `u64::MAX` blocks.
pub fn blocks_for_mb(mb: u64, block_bytes: u64) -> u64 {
    checked_blocks_for_mb(mb, block_bytes).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    #[test]
    fn capacity_of_default_cache() {
        // 16 MB of 4 KB blocks = 4096 slots (Table 4 default).
        assert_eq!(super::blocks_for_mb(16, 4096), 4096);
    }

    #[test]
    fn huge_sizes_do_not_overflow() {
        // 2·10¹³ MB: the byte count alone overflows a u64.
        assert_eq!(
            super::checked_blocks_for_mb(20_000_000_000_000, 4096),
            Some(5_120_000_000_000_000)
        );
        assert_eq!(super::checked_blocks_for_mb(u64::MAX, 4096), None);
        assert_eq!(super::blocks_for_mb(u64::MAX, 4096), u64::MAX);
        assert_eq!(super::checked_blocks_for_mb(1, 0), None);
    }
}
