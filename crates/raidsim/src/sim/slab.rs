//! Tiny slab allocator for simulation entities (requests, ops, jobs).

/// Vec-backed slab with index reuse. Indices are `u32` to keep event
/// payloads small; a simulation never holds more than a few thousand live
/// entities at once.
#[derive(Clone, Debug)]
pub struct Slab<T> {
    items: Vec<Option<T>>,
    free: Vec<u32>,
    live: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Slab<T> {
    pub fn new() -> Slab<T> {
        Self::with_capacity(0)
    }

    /// Pre-size for `cap` simultaneously live entities.
    pub fn with_capacity(cap: usize) -> Slab<T> {
        Slab {
            items: Vec::with_capacity(cap),
            free: Vec::with_capacity(cap),
            live: 0,
        }
    }

    pub fn insert(&mut self, value: T) -> u32 {
        self.live += 1;
        if let Some(i) = self.free.pop() {
            self.items[i as usize] = Some(value);
            i
        } else {
            self.items.push(Some(value));
            (self.items.len() - 1) as u32
        }
    }

    #[inline]
    #[expect(
        clippy::expect_used,
        reason = "a stale index is a scheduler logic bug; corrupting stats silently would be worse than stopping"
    )]
    pub fn get(&self, i: u32) -> &T {
        self.items[i as usize].as_ref().expect("stale slab index")
    }

    #[inline]
    #[expect(
        clippy::expect_used,
        reason = "a stale index is a scheduler logic bug; corrupting stats silently would be worse than stopping"
    )]
    pub fn get_mut(&mut self, i: u32) -> &mut T {
        self.items[i as usize].as_mut().expect("stale slab index")
    }

    pub fn remove(&mut self, i: u32) -> T {
        #[expect(
            clippy::expect_used,
            reason = "double free means two completions for one entity — a correctness bug that must stop the run"
        )]
        let v = self.items[i as usize].take().expect("double free");
        self.free.push(i);
        self.live -= 1;
        v
    }

    /// Live entities (allocated and not removed).
    pub fn len(&self) -> usize {
        self.live
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_reuse() {
        let mut s = Slab::new();
        let a = s.insert("a");
        let b = s.insert("b");
        assert_eq!(*s.get(a), "a");
        assert_eq!(s.len(), 2);
        assert_eq!(s.remove(a), "a");
        assert_eq!(s.len(), 1);
        let c = s.insert("c");
        assert_eq!(c, a, "index reused");
        assert_eq!(*s.get(b), "b");
        *s.get_mut(b) = "B";
        assert_eq!(*s.get(b), "B");
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut s = Slab::new();
        let a = s.insert(1);
        s.remove(a);
        s.remove(a);
    }

    #[test]
    #[should_panic(expected = "stale slab index")]
    fn stale_access_panics() {
        let mut s = Slab::new();
        let a = s.insert(1);
        s.remove(a);
        s.get(a);
    }
}
