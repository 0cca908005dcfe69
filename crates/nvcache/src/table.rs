//! Deterministic open-addressing index from data blocks to cache nodes.
//!
//! The cache's block index is the innermost lookup of every cached-run
//! event. It is a flat linear-probing table of 16-byte slots, each a packed
//! `(disk, block)` key ([`BlockKey::packed`]) and a `u32` node id, held at
//! most half full so probe chains stay short. The hash is a **fixed**
//! Fibonacci multiply (no `RandomState`, no ambient seed), so behavior is
//! bit-reproducible run to run. It is never iterated: callers that need
//! ordered traversal keep their own ordered side structures, so hash order
//! can never leak into simulation results.
//!
//! The table doubles whenever an insert would take it past half full, so
//! a cache sized far beyond its working set costs only what it holds. Deletions use
//! backward-shift compaction instead of tombstones, keeping probe chains
//! short under the cache's constant insert/evict churn.
//!
//! [`BlockKey::packed`]: crate::BlockKey::packed

/// Node id that marks an empty slot (and "no node" in the cache's links).
pub(crate) const NIL: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Slot {
    key: u64,
    /// [`NIL`] when the slot is empty.
    id: u32,
}

const EMPTY: Slot = Slot { key: 0, id: NIL };

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
    /// `64 − log2(slots.len())`: the hash's top bits pick the home slot.
    shift: u32,
    /// `slots.len() - 1`; the length is always a power of two.
    mask: usize,
    len: usize,
}

impl BlockMap {
    /// A table that holds `n` keys at most half full before it first
    /// grows.
    pub(crate) fn with_capacity(n: usize) -> BlockMap {
        let slots = (2 * n).max(64).next_power_of_two();
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

    #[cfg(test)]
    pub(crate) fn slot_count(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// Find `key`, or the vacancy where it would go.
    #[inline]
    pub(crate) fn probe(&self, key: u64) -> Probe {
        let mut i = self.home(key);
        loop {
            let s = self.slots[i];
            if s.id == NIL {
                return Probe::Vacant(i);
            }
            if s.key == key {
                return Probe::Found(s.id);
            }
            i = (i + 1) & self.mask;
        }
    }

    #[inline]
    pub(crate) fn get(&self, key: u64) -> Option<u32> {
        match self.probe(key) {
            Probe::Found(id) => Some(id),
            Probe::Vacant(_) => None,
        }
    }

    /// Insert an absent `key` at the vacancy [`BlockMap::probe`] just
    /// returned for it (no second probe unless the table must grow first).
    #[inline]
    pub(crate) fn insert_vacant(&mut self, slot: usize, key: u64, id: u32) {
        let mut slot = slot;
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow();
            slot = match self.probe(key) {
                Probe::Vacant(i) => i,
                Probe::Found(_) => unreachable!("insert_vacant of a present key"),
            };
        }
        debug_assert_eq!(self.slots[slot].id, NIL, "insert_vacant into a full slot");
        self.slots[slot] = Slot { key, id };
        self.len += 1;
    }

    /// Insert an absent `key`.
    #[cfg(test)]
    pub(crate) fn insert(&mut self, key: u64, id: u32) {
        match self.probe(key) {
            Probe::Vacant(slot) => self.insert_vacant(slot, key, id),
            Probe::Found(_) => unreachable!("insert of a present key"),
        }
    }

    /// Remove `key`, compacting the probe chain behind it (backward-shift
    /// deletion: every displaced entry moves at least as close to its home
    /// slot, so chains never accumulate tombstone rot).
    pub(crate) fn remove(&mut self, key: u64) -> Option<u32> {
        let mut hole = self.home(key);
        loop {
            let s = self.slots[hole];
            if s.id == NIL {
                return None;
            }
            if s.key == key {
                break;
            }
            hole = (hole + 1) & self.mask;
        }
        let id = self.slots[hole].id;
        self.slots[hole] = EMPTY;
        self.len -= 1;
        let mut probe = hole;
        loop {
            probe = (probe + 1) & self.mask;
            let s = self.slots[probe];
            if s.id == NIL {
                break;
            }
            let home = self.home(s.key);
            // Shift into the hole only if that does not move the entry to
            // before its home slot (cyclic distance comparison).
            if (probe.wrapping_sub(home) & self.mask) >= (probe.wrapping_sub(hole) & self.mask) {
                self.slots[hole] = s;
                self.slots[probe] = EMPTY;
                hole = probe;
            }
        }
        Some(id)
    }

    fn grow(&mut self) {
        let new_len = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; new_len]);
        self.mask = new_len - 1;
        self.shift -= 1;
        for s in old.into_iter().filter(|s| s.id != NIL) {
            let Probe::Vacant(i) = self.probe(s.key) else {
                unreachable!("duplicate key while rehashing");
            };
            self.slots[i] = s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Slot>(), 16);
    }

    #[test]
    fn insert_get_remove() {
        let mut m = BlockMap::with_capacity(4);
        m.insert(1, 10);
        m.insert(2, 11);
        assert_eq!(m.get(1), Some(10));
        assert_eq!(m.get(2), Some(11));
        assert_eq!(m.get(3), None);
        assert_eq!(m.len(), 2);
        assert_eq!(m.remove(1), Some(10));
        assert_eq!(m.remove(1), None);
        assert_eq!(m.get(2), Some(11));
        assert_eq!(m.len(), 1);
        let Probe::Vacant(slot) = m.probe(7) else {
            panic!("7 is absent");
        };
        m.insert_vacant(slot, 7, 12);
        assert_eq!(m.probe(7), Probe::Found(12));
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut m = BlockMap::with_capacity(4);
        for b in 0..1000u64 {
            m.insert(((b % 7) << 40) | b, b as u32);
            assert!(m.len() * 2 <= m.slots.len());
        }
        assert_eq!(m.len(), 1000);
        for b in 0..1000u64 {
            assert_eq!(m.get(((b % 7) << 40) | b), Some(b as u32));
        }
    }

    /// Churn against a reference model: backward-shift deletion must never
    /// lose or corrupt entries, whatever the interleaving.
    #[test]
    fn differential_churn_against_btreemap() {
        use std::collections::BTreeMap;
        let mut m = BlockMap::with_capacity(4);
        let mut reference: BTreeMap<u64, u32> = BTreeMap::new();
        let mut x = 0x1234_5678_u64;
        for step in 0..20_000u32 {
            // xorshift: deterministic operation mix.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = ((x % 3) << 40) | ((x >> 8) % 512);
            if x % 5 < 3 {
                match m.probe(key) {
                    Probe::Found(id) => assert_eq!(reference.get(&key), Some(&id)),
                    Probe::Vacant(slot) => {
                        assert!(!reference.contains_key(&key), "step {step}");
                        m.insert_vacant(slot, key, step);
                        reference.insert(key, step);
                    }
                }
            } else {
                assert_eq!(m.remove(key), reference.remove(&key), "step {step}");
            }
            assert_eq!(m.len(), reference.len(), "step {step}");
        }
        for (&k, &v) in &reference {
            assert_eq!(m.get(k), Some(v));
        }
    }
}
