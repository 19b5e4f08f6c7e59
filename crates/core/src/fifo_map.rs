//! A map that remembers only its most recent insertions: the engine's
//! two bounded memories (tombstones of aborted remote transactions, and
//! the tracer's parked request contexts) are both "keep the last N, the
//! oldest goes first".

use std::collections::VecDeque;

use pscc_common::hash::HashMap;
use std::hash::Hash;

/// A hash map bounded to the `cap` most recently inserted keys.
///
/// The bound counts *insertions*, not live entries: [`remove`] takes the
/// entry out of the map at once but its place in the insertion order is
/// reclaimed only when it ages out, so `remove` stays O(1).
///
/// [`remove`]: BoundedFifoMap::remove
#[derive(Debug)]
pub(crate) struct BoundedFifoMap<K, V> {
    map: HashMap<K, V>,
    order: VecDeque<K>,
    cap: usize,
}

impl<K: Hash + Eq + Clone, V> BoundedFifoMap<K, V> {
    pub(crate) fn new(cap: usize) -> Self {
        BoundedFifoMap {
            map: HashMap::default(),
            order: VecDeque::new(),
            cap,
        }
    }

    /// Inserts `key`, evicting the oldest insertions beyond the bound.
    /// A key already present keeps its place in the order and has its
    /// value replaced; the old value is returned.
    pub(crate) fn insert(&mut self, key: K, value: V) -> Option<V> {
        let old = self.map.insert(key.clone(), value);
        if old.is_none() {
            self.order.push_back(key);
            while self.order.len() > self.cap {
                if let Some(oldest) = self.order.pop_front() {
                    self.map.remove(&oldest);
                }
            }
        }
        old
    }

    pub(crate) fn remove(&mut self, key: &K) -> Option<V> {
        self.map.remove(key)
    }

    pub(crate) fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_in_insertion_order() {
        let mut m = BoundedFifoMap::new(3);
        for k in 1..=3 {
            assert_eq!(m.insert(k, k * 10), None);
        }
        assert_eq!(m.len(), 3);
        m.insert(4, 40);
        assert!(!m.contains(&1), "the oldest insertion goes first");
        assert!(m.contains(&2) && m.contains(&3) && m.contains(&4));
        m.insert(5, 50);
        assert!(!m.contains(&2));
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn reinserting_a_present_key_replaces_the_value_and_keeps_its_age() {
        let mut m = BoundedFifoMap::new(3);
        m.insert(1, "a");
        m.insert(2, "b");
        assert_eq!(m.insert(1, "a2"), Some("a"));
        assert_eq!(m.len(), 2);
        m.insert(3, "c");
        // Still the oldest: re-inserting did not move it to the back.
        m.insert(4, "d");
        assert!(!m.contains(&1));
        assert!(m.contains(&2));
    }

    #[test]
    fn remove_is_immediate_and_its_slot_ages_out() {
        let mut m = BoundedFifoMap::new(2);
        m.insert(1, ());
        assert_eq!(m.remove(&1), Some(()));
        assert_eq!(m.remove(&1), None);
        assert!(!m.contains(&1));
        assert_eq!(m.len(), 0);
        // The removed key still counts towards the bound until two
        // later insertions have pushed it out.
        m.insert(2, ());
        m.insert(3, ());
        assert!(m.contains(&2) && m.contains(&3));
        m.insert(4, ());
        assert!(!m.contains(&2));
    }
}
