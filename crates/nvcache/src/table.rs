//! Deterministic open-addressing index from data blocks to cache nodes.
//!
//! The cache's block index is the innermost lookup of every cached-run
//! event. It is a flat linear-probing table of 8-byte slots, each a 32-bit
//! hash tag and a `u32` node id, held at most 5/8 full so probe chains stay
//! short. The packed key itself ([`BlockKey::packed`]) lives only in the
//! cache's node slab: a probe compares tags and confirms a match against
//! the node's key through the caller's `key_of`, and a hit touches that
//! node next anyway. The hash is a **fixed** Fibonacci multiply (no
//! `RandomState`, no ambient seed), so behavior is bit-reproducible run to
//! run. It is never iterated: callers that need ordered traversal keep
//! their own ordered side structures, so hash order can never leak into
//! simulation results.
//!
//! A slot's home is derived from its stored tag alone, so deletion and
//! growth never read a node, and one key has one home at every table
//! size. The table doubles whenever an insert would take it past 5/8 full,
//! so a cache sized far beyond its working set costs only what it holds.
//! Deletions use backward-shift compaction instead of tombstones, keeping
//! probe chains short under the cache's constant insert/evict churn.
//!
//! [`BlockKey::packed`]: crate::BlockKey::packed

/// Node id that marks an empty slot (and "no node" in the cache's links).
pub(crate) const NIL: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Slot {
    /// The key's [`tag`].
    tag: u32,
    /// [`NIL`] when the slot is empty.
    id: u32,
}

const EMPTY: Slot = Slot { tag: 0, id: NIL };

/// The table's fullest load, `len ≤ slots · LOAD_NUM / LOAD_DEN`.
const LOAD_NUM: usize = 5;
const LOAD_DEN: usize = 8;

/// The Fibonacci hash multiplier, 2^64 / φ rounded to odd.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// A key's tag: the top 32 bits of its hash.
#[inline]
fn tag(key: u64) -> u32 {
    (key.wrapping_mul(FIB) >> 32) as u32
}

/// Where a key lives, or where it would be inserted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Probe {
    /// The key is present, mapped to this node id.
    Found(u32),
    /// The key is absent; this is the empty slot ending its probe chain.
    Vacant(usize),
}

#[derive(Clone, Debug)]
pub(crate) struct BlockMap {
    slots: Vec<Slot>,
    /// `64 − log2(slots.len())`: the tag's top bits pick the home slot.
    shift: u32,
    /// `slots.len() - 1`; the length is always a power of two.
    mask: usize,
    len: usize,
}

impl BlockMap {
    /// A table that holds `n` keys at most 5/8 full before it first
    /// grows.
    pub(crate) fn with_capacity(n: usize) -> BlockMap {
        let slots = (n * LOAD_DEN)
            .div_ceil(LOAD_NUM)
            .max(64)
            .next_power_of_two();
        BlockMap {
            slots: vec![EMPTY; slots],
            shift: 64 - slots.trailing_zeros(),
            mask: slots - 1,
            len: 0,
        }
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Heap bytes held by the slots.
    #[cfg(test)]
    pub(crate) fn bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<Slot>()
    }

    #[inline]
    fn home(&self, tag: u32) -> usize {
        (((tag as u64) << 32) >> self.shift) as usize
    }

    /// Find `key`, or the vacancy where it would go. `key_of(id)` is the
    /// key node `id` holds; it is read only on a tag match.
    #[inline]
    pub(crate) fn probe(&self, key: u64, key_of: impl Fn(u32) -> u64) -> Probe {
        let tag = tag(key);
        let mut i = self.home(tag);
        loop {
            let s = self.slots[i];
            if s.id == NIL {
                return Probe::Vacant(i);
            }
            if s.tag == tag && key_of(s.id) == key {
                return Probe::Found(s.id);
            }
            i = (i + 1) & self.mask;
        }
    }

    #[inline]
    pub(crate) fn get(&self, key: u64, key_of: impl Fn(u32) -> u64) -> Option<u32> {
        match self.probe(key, key_of) {
            Probe::Found(id) => Some(id),
            Probe::Vacant(_) => None,
        }
    }

    /// The first empty slot of `tag`'s probe chain.
    fn vacancy(&self, tag: u32) -> usize {
        let mut i = self.home(tag);
        while self.slots[i].id != NIL {
            i = (i + 1) & self.mask;
        }
        i
    }

    /// Insert an absent `key` at the vacancy [`BlockMap::probe`] just
    /// returned for it (no second probe unless the table must grow first).
    #[inline]
    pub(crate) fn insert_vacant(&mut self, slot: usize, key: u64, id: u32) {
        let tag = tag(key);
        let mut slot = slot;
        if (self.len + 1) * LOAD_DEN > self.slots.len() * LOAD_NUM {
            self.grow();
            slot = self.vacancy(tag);
        }
        debug_assert_eq!(self.slots[slot].id, NIL, "insert_vacant into a full slot");
        self.slots[slot] = Slot { tag, id };
        self.len += 1;
    }

    /// Insert an absent `key`.
    #[cfg(test)]
    pub(crate) fn insert(&mut self, key: u64, id: u32, key_of: impl Fn(u32) -> u64) {
        match self.probe(key, key_of) {
            Probe::Vacant(slot) => self.insert_vacant(slot, key, id),
            Probe::Found(_) => unreachable!("insert of a present key"),
        }
    }

    /// Remove node `id`, indexed under `key`, compacting the probe chain
    /// behind it (backward-shift deletion: every displaced entry moves at
    /// least as close to its home slot, so chains never accumulate
    /// tombstone rot). Returns whether it was present.
    pub(crate) fn remove(&mut self, key: u64, id: u32) -> bool {
        let mut hole = self.home(tag(key));
        loop {
            let s = self.slots[hole];
            if s.id == NIL {
                return false;
            }
            if s.id == id {
                break;
            }
            hole = (hole + 1) & self.mask;
        }
        self.slots[hole] = EMPTY;
        self.len -= 1;
        let mut probe = hole;
        loop {
            probe = (probe + 1) & self.mask;
            let s = self.slots[probe];
            if s.id == NIL {
                break;
            }
            let home = self.home(s.tag);
            // Shift into the hole only if that does not move the entry to
            // before its home slot (cyclic distance comparison).
            if (probe.wrapping_sub(home) & self.mask) >= (probe.wrapping_sub(hole) & self.mask) {
                self.slots[hole] = s;
                self.slots[probe] = EMPTY;
                hole = probe;
            }
        }
        true
    }

    fn grow(&mut self) {
        let new_len = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; new_len]);
        self.mask = new_len - 1;
        self.shift -= 1;
        for s in old.into_iter().filter(|s| s.id != NIL) {
            let i = self.vacancy(s.tag);
            self.slots[i] = s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The inverse of the hash multiplier mod 2^64 (Newton's iteration:
    /// each step doubles the correct low bits, from 3 for any odd number).
    fn unhash(h: u64) -> u64 {
        let mut inv = FIB;
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(FIB.wrapping_mul(inv)));
        }
        h.wrapping_mul(inv)
    }

    /// Node `id` of a test table holds `keys[id]`.
    fn key_of(keys: &[u64]) -> impl Fn(u32) -> u64 + '_ {
        |id| keys[id as usize]
    }

    #[test]
    fn slots_are_eight_bytes() {
        assert_eq!(std::mem::size_of::<Slot>(), 8);
    }

    #[test]
    fn insert_get_remove() {
        let keys = [1, 2, 0, 7];
        let key_of = key_of(&keys);
        let mut m = BlockMap::with_capacity(4);
        m.insert(1, 0, &key_of);
        m.insert(2, 1, &key_of);
        assert_eq!(m.get(1, &key_of), Some(0));
        assert_eq!(m.get(2, &key_of), Some(1));
        assert_eq!(m.get(3, &key_of), None);
        assert_eq!(m.len(), 2);
        assert!(m.remove(1, 0));
        assert!(!m.remove(1, 0));
        assert_eq!(m.get(2, &key_of), Some(1));
        assert_eq!(m.len(), 1);
        let Probe::Vacant(slot) = m.probe(7, &key_of) else {
            panic!("7 is absent");
        };
        m.insert_vacant(slot, 7, 3);
        assert_eq!(m.probe(7, &key_of), Probe::Found(3));
    }

    /// A tag match is confirmed against the node's key: a different key
    /// with the same tag is absent, and both can live side by side.
    #[test]
    fn equal_tags_are_confirmed_by_key() {
        let keys = [unhash(0x1234_5678_0000_0000), unhash(0x1234_5678_FFFF_0001)];
        assert_ne!(keys[0], keys[1]);
        assert_eq!((tag(keys[0]), tag(keys[1])), (0x1234_5678, 0x1234_5678));
        let key_of = key_of(&keys);
        let mut m = BlockMap::with_capacity(4);
        m.insert(keys[0], 0, &key_of);
        let Probe::Vacant(slot) = m.probe(keys[1], &key_of) else {
            panic!("a tag match alone must not find a key");
        };
        m.insert_vacant(slot, keys[1], 1);
        assert_eq!(m.get(keys[0], &key_of), Some(0));
        assert_eq!(m.get(keys[1], &key_of), Some(1));
        assert!(m.remove(keys[0], 0));
        assert_eq!(m.get(keys[0], &key_of), None);
        assert_eq!(m.get(keys[1], &key_of), Some(1));
    }

    #[test]
    fn grows_past_initial_capacity() {
        let keys: Vec<u64> = (0..1000u64).map(|b| ((b % 7) << 40) | b).collect();
        let key_of = key_of(&keys);
        let mut m = BlockMap::with_capacity(4);
        for (id, &key) in keys.iter().enumerate() {
            m.insert(key, id as u32, &key_of);
            assert!(m.len() * LOAD_DEN <= m.slots.len() * LOAD_NUM);
        }
        assert_eq!(m.len(), 1000);
        for (id, &key) in keys.iter().enumerate() {
            assert_eq!(m.get(key, &key_of), Some(id as u32));
        }
    }

    /// Churn against a reference model: tag-confirmed probes and
    /// backward-shift deletion must never lose or corrupt entries,
    /// whatever the interleaving. `key(x)` draws the key universe: block
    /// keys shaped like the cache's, or crafted keys that fall into a few
    /// tags (so probe chains hold runs of equal tags, homed alike, that
    /// deletions shift across).
    fn churn_against_btreemap(key: impl Fn(u64) -> u64) {
        use std::collections::BTreeMap;
        let mut m = BlockMap::with_capacity(4);
        let mut reference: BTreeMap<u64, u32> = BTreeMap::new();
        // Node ids are steps; `keys[id]` is the key node `id` was given.
        let mut keys: Vec<u64> = Vec::new();
        let mut x = 0x1234_5678_u64;
        for step in 0..20_000u32 {
            // xorshift: deterministic operation mix.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = key(x);
            keys.push(k);
            if x % 5 < 3 {
                match m.probe(k, key_of(&keys)) {
                    Probe::Found(id) => assert_eq!(reference.get(&k), Some(&id), "step {step}"),
                    Probe::Vacant(slot) => {
                        assert!(!reference.contains_key(&k), "step {step}");
                        m.insert_vacant(slot, k, step);
                        reference.insert(k, step);
                    }
                }
            } else {
                match reference.remove(&k) {
                    Some(id) => assert!(m.remove(k, id), "step {step}"),
                    None => assert_eq!(m.get(k, key_of(&keys)), None, "step {step}"),
                }
            }
            assert_eq!(m.len(), reference.len(), "step {step}");
        }
        for (&k, &v) in &reference {
            assert_eq!(m.get(k, key_of(&keys)), Some(v));
        }
    }

    #[test]
    fn differential_churn_against_btreemap() {
        churn_against_btreemap(|x| ((x % 3) << 40) | ((x >> 8) % 512));
    }

    #[test]
    fn differential_churn_with_colliding_tags() {
        // 4 tags × 128 keys each: every key shares its tag with 127 others.
        churn_against_btreemap(|x| {
            let tag = [0x0000_0001, 0x8000_0000, 0x8000_0001, 0xFFFF_FFFF][(x % 4) as usize];
            unhash((tag << 32) | ((x >> 8) % 128))
        });
    }
}
