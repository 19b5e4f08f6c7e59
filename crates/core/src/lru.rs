//! Exact LRU order in O(1): a doubly linked list threaded through a slab
//! by index. The page tables ([`crate::cache::ClientCache`],
//! [`crate::residency::Residency`]) keep the slab index of each page in
//! that page's map entry, so a hit relinks one node — a handful of
//! stores, no allocation, no second hash lookup — and a miss reads the
//! victim off the cold end instead of scanning the table for the
//! smallest use stamp.
//!
//! Why this is the *same* order a stamp scan gives: every use moves the
//! node to the front, and uses are totally ordered (one at a time), so
//! walking the list from the front visits pages by strictly decreasing
//! time of last use — the order of the unique stamps the scan compared.
//! The cold end is the minimum stamp; skipping one protected page gives
//! the minimum over the rest.

const NIL: u32 = u32::MAX;

#[derive(Debug)]
struct Node<K> {
    key: K,
    /// Towards the front (more recently used); `NIL` at the front. Free
    /// nodes chain through `next` only.
    prev: u32,
    next: u32,
}

/// A recency order over keys. Handles returned by
/// [`LruOrder::push_front`] stay valid until passed to
/// [`LruOrder::remove`].
#[derive(Debug)]
pub(crate) struct LruOrder<K> {
    nodes: Vec<Node<K>>,
    /// Most recently used.
    head: u32,
    /// Least recently used.
    tail: u32,
    /// Head of the free chain.
    free: u32,
}

impl<K> Default for LruOrder<K> {
    fn default() -> Self {
        LruOrder {
            nodes: Vec::new(),
            head: NIL,
            tail: NIL,
            free: NIL,
        }
    }
}

#[cfg(test)]
thread_local! {
    /// List nodes [`LruOrder::coldest_except`] has looked at on this
    /// thread (the work-bound tests count them).
    pub(crate) static NODES_VISITED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

impl<K: Copy> LruOrder<K> {
    /// Adds `key` as the most recently used; returns its handle.
    pub(crate) fn push_front(&mut self, key: K) -> u32 {
        let node = Node {
            key,
            prev: NIL,
            next: NIL,
        };
        let h = if self.free == NIL {
            self.nodes.push(node);
            u32::try_from(self.nodes.len() - 1).expect("fewer than 2^32 pages")
        } else {
            let h = self.free;
            self.free = self.nodes[h as usize].next;
            self.nodes[h as usize] = node;
            h
        };
        self.link_front(h);
        h
    }

    /// Marks `h` as just used.
    pub(crate) fn touch(&mut self, h: u32) {
        if self.head != h {
            self.unlink(h);
            self.link_front(h);
        }
    }

    /// Drops `h` from the order, returning its key.
    pub(crate) fn remove(&mut self, h: u32) -> K {
        self.unlink(h);
        let n = &mut self.nodes[h as usize];
        n.next = self.free;
        self.free = h;
        n.key
    }

    /// The least recently used key other than the one `keep` names.
    pub(crate) fn coldest_except(&self, keep: u32) -> Option<K> {
        let mut h = self.tail;
        while h != NIL {
            #[cfg(test)]
            NODES_VISITED.with(|n| n.set(n.get() + 1));
            if h != keep {
                return Some(self.nodes[h as usize].key);
            }
            h = self.nodes[h as usize].prev;
        }
        None
    }

    fn link_front(&mut self, h: u32) {
        let old = self.head;
        let n = &mut self.nodes[h as usize];
        n.prev = NIL;
        n.next = old;
        match old {
            NIL => self.tail = h,
            _ => self.nodes[old as usize].prev = h,
        }
        self.head = h;
    }

    fn unlink(&mut self, h: u32) {
        let Node { prev, next, .. } = self.nodes[h as usize];
        match prev {
            NIL => self.head = next,
            _ => self.nodes[prev as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            _ => self.nodes[next as usize].prev = prev,
        }
    }

    /// Keys from most to least recently used (consistency checks).
    pub(crate) fn hot_to_cold(&self) -> Vec<K> {
        let mut v = Vec::new();
        let mut h = self.head;
        while h != NIL {
            v.push(self.nodes[h as usize].key);
            h = self.nodes[h as usize].next;
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_follows_use() {
        let mut l = LruOrder::default();
        let a = l.push_front('a');
        let b = l.push_front('b');
        let c = l.push_front('c');
        assert_eq!(l.hot_to_cold(), ['c', 'b', 'a']);
        l.touch(a);
        assert_eq!(l.hot_to_cold(), ['a', 'c', 'b']);
        l.touch(a); // already hottest
        assert_eq!(l.hot_to_cold(), ['a', 'c', 'b']);
        assert_eq!(l.coldest_except(c), Some('b'));
        assert_eq!(l.coldest_except(b), Some('c'));
        assert_eq!(l.remove(c), 'c');
        assert_eq!(l.hot_to_cold(), ['a', 'b']);
        assert_eq!(l.remove(b), 'b');
        assert_eq!(l.coldest_except(a), None);
        assert_eq!(l.remove(a), 'a');
        assert!(l.hot_to_cold().is_empty());
    }

    #[test]
    fn removed_slots_are_reused() {
        let mut l = LruOrder::default();
        let hs: Vec<u32> = (0..8u32).map(|k| l.push_front(k)).collect();
        for h in &hs[2..6] {
            l.remove(*h);
        }
        for k in 8..12u32 {
            l.push_front(k);
        }
        assert_eq!(l.nodes.len(), 8, "freed nodes are recycled, not leaked");
        assert_eq!(l.hot_to_cold(), [11, 10, 9, 8, 7, 6, 1, 0]);
    }
}
