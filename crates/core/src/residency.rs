//! Server-buffer residency tracking. Page *contents* live in the
//! in-memory [`pscc_storage::Volume`]; this tracker only decides whether
//! touching a page costs a disk read (miss) and whether evicting it costs
//! a disk write (dirty) — the quantities the paper's experiments measure.

use crate::lru::LruOrder;
use pscc_common::hash::HashMap;
use pscc_common::PageId;

/// LRU residency tracker for one server's buffer pool.
#[derive(Debug, Default)]
pub struct Residency {
    resident: HashMap<PageId, Slot>,
    capacity: usize,
    lru: LruOrder<PageId>,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    /// This page's node in the recency order.
    lru: u32,
    dirty: bool,
}

/// Result of touching a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Touch {
    /// The page was not resident: charge one disk read.
    pub miss: bool,
    /// A dirty page was evicted to make room: charge one disk write.
    pub writeback: Option<PageId>,
}

impl Residency {
    /// Creates a tracker with the given capacity in pages.
    pub fn new(capacity: usize) -> Self {
        Residency {
            capacity: capacity.max(1),
            ..Self::default()
        }
    }

    /// Touches `page`, making it resident; reports whether that was a
    /// miss and whether a dirty eviction occurred.
    pub fn touch(&mut self, page: PageId, dirty: bool) -> Touch {
        let mut result = Touch {
            miss: false,
            writeback: None,
        };
        match self.resident.get_mut(&page) {
            Some(s) => {
                self.lru.touch(s.lru);
                s.dirty |= dirty;
            }
            None => {
                result.miss = true;
                let lru = self.lru.push_front(page);
                self.resident.insert(page, Slot { lru, dirty });
                if self.resident.len() > self.capacity {
                    if let Some(victim) = self.lru.coldest_except(lru) {
                        if self.remove(victim) {
                            result.writeback = Some(victim);
                        }
                    }
                }
            }
        }
        result
    }

    /// Drops a resident page from the table and the recency order;
    /// returns whether it was dirty.
    fn remove(&mut self, page: PageId) -> bool {
        let s = self
            .resident
            .remove(&page)
            .expect("ordered pages are resident");
        self.lru.remove(s.lru);
        s.dirty
    }

    /// Whether the page is currently resident (no LRU bump).
    pub fn is_resident(&self, page: PageId) -> bool {
        self.resident.contains_key(&page)
    }

    /// Marks a resident page clean (its contents were written back).
    pub fn mark_clean(&mut self, page: PageId) {
        if let Some(s) = self.resident.get_mut(&page) {
            s.dirty = false;
        }
    }

    /// Evicts every resident page matching `pred` *without* charging a
    /// writeback, returning how many went. Used when ownership of a page
    /// range migrates away: the images were shipped to the new owner, so
    /// a dirty local copy is no longer this site's to write back.
    pub fn evict_where(&mut self, pred: impl Fn(PageId) -> bool) -> usize {
        let going: Vec<PageId> = self.resident.keys().copied().filter(|p| pred(*p)).collect();
        for p in &going {
            self.remove(*p);
        }
        going.len()
    }

    /// Number of resident pages.
    pub fn len(&self) -> usize {
        self.resident.len()
    }

    /// Whether nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.resident.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use pscc_common::{FileId, VolId};

    fn pid(n: u32) -> PageId {
        PageId::new(FileId::new(VolId(0), 0), n)
    }

    #[test]
    fn first_touch_misses_second_hits() {
        let mut r = Residency::new(4);
        assert!(r.touch(pid(1), false).miss);
        assert!(!r.touch(pid(1), false).miss);
    }

    #[test]
    fn lru_eviction_and_dirty_writeback() {
        let mut r = Residency::new(2);
        r.touch(pid(1), true);
        r.touch(pid(2), false);
        r.touch(pid(1), false); // keep 1 warm; 2 becomes LRU
        let t = r.touch(pid(3), false);
        assert!(t.miss);
        assert_eq!(t.writeback, None, "page 2 was clean");
        assert!(!r.is_resident(pid(2)));
        // Now evict dirty page 1.
        r.touch(pid(2), false); // evicts 1 (LRU since tick for 3, 2 newer)
        assert!(r.is_resident(pid(2)));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut r = Residency::new(1);
        r.touch(pid(1), true);
        let t = r.touch(pid(2), false);
        assert_eq!(t.writeback, Some(pid(1)));
    }

    #[test]
    fn evict_where_drops_without_writeback() {
        let mut r = Residency::new(4);
        r.touch(pid(1), true);
        r.touch(pid(2), false);
        r.touch(pid(7), true);
        assert_eq!(r.evict_where(|p| p.page < 3), 2);
        assert!(!r.is_resident(pid(1)));
        assert!(r.is_resident(pid(7)));
    }

    #[test]
    fn mark_clean_suppresses_writeback() {
        let mut r = Residency::new(1);
        r.touch(pid(1), true);
        r.mark_clean(pid(1));
        let t = r.touch(pid(2), false);
        assert_eq!(t.writeback, None);
    }

    /// The tracker as it was before the recency list: a use stamp per
    /// page, the victim found by scanning for the smallest.
    #[derive(Default)]
    struct ScanModel {
        resident: HashMap<PageId, (u64, bool)>,
        tick: u64,
        capacity: usize,
    }

    impl ScanModel {
        fn touch(&mut self, page: PageId, dirty: bool) -> Touch {
            self.tick += 1;
            if let Some(s) = self.resident.get_mut(&page) {
                *s = (self.tick, s.1 | dirty);
                return Touch {
                    miss: false,
                    writeback: None,
                };
            }
            self.resident.insert(page, (self.tick, dirty));
            let mut writeback = None;
            if self.resident.len() > self.capacity {
                let (v, (_, was_dirty)) = self
                    .resident
                    .iter()
                    .filter(|(p, _)| **p != page)
                    .min_by_key(|(_, s)| s.0)
                    .map(|(p, s)| (*p, *s))
                    .expect("capacity >= 1");
                self.resident.remove(&v);
                writeback = was_dirty.then_some(v);
            }
            Touch {
                miss: true,
                writeback,
            }
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Touch(u32, bool),
        MarkClean(u32),
        EvictBelow(u32),
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// 64 × 250 operations: every touch reports the same miss and the
        /// same writeback as the stamp scan, `evict_where` drops the same
        /// pages, and the survivors are the same set throughout.
        #[test]
        fn recency_list_agrees_with_the_stamp_scan(
            ops in proptest::collection::vec(
                prop_oneof![
                    (0u32..40, any::<bool>()).prop_map(|(p, d)| Op::Touch(p, d)),
                    (0u32..40, any::<bool>()).prop_map(|(p, d)| Op::Touch(p, d)),
                    (0u32..40, any::<bool>()).prop_map(|(p, d)| Op::Touch(p, d)),
                    (0u32..40).prop_map(Op::MarkClean),
                    (0u32..6).prop_map(Op::EvictBelow),
                ],
                250..251,
            )
        ) {
            let mut r = Residency::new(12);
            let mut model = ScanModel { capacity: 12, ..ScanModel::default() };
            for op in ops {
                match op {
                    Op::Touch(p, dirty) => {
                        prop_assert_eq!(r.touch(pid(p), dirty), model.touch(pid(p), dirty));
                    }
                    Op::MarkClean(p) => {
                        r.mark_clean(pid(p));
                        if let Some(s) = model.resident.get_mut(&pid(p)) {
                            s.1 = false;
                        }
                    }
                    Op::EvictBelow(n) => {
                        let before = model.resident.len();
                        model.resident.retain(|p, _| p.page >= n);
                        prop_assert_eq!(
                            r.evict_where(|p| p.page < n),
                            before - model.resident.len()
                        );
                    }
                }
                prop_assert_eq!(r.len(), model.resident.len());
                prop_assert_eq!(r.lru.hot_to_cold().len(), r.len());
                for p in 0..40 {
                    prop_assert_eq!(
                        r.is_resident(pid(p)),
                        model.resident.contains_key(&pid(p))
                    );
                }
            }
            // Flush the whole order out: every remaining page leaves in
            // stamp order, reporting its dirtiness.
            for p in 100..112 {
                prop_assert_eq!(r.touch(pid(p), false), model.touch(pid(p), false));
            }
        }
    }

    #[test]
    fn a_miss_in_a_full_pool_does_not_scan_it() {
        const PAGES: u32 = 50_000;
        let mut r = Residency::new(PAGES as usize);
        for p in 0..PAGES {
            r.touch(pid(p), p % 2 == 0);
        }
        let nodes = || crate::lru::NODES_VISITED.with(std::cell::Cell::get);
        let before = nodes();
        let t = r.touch(pid(PAGES), false);
        assert_eq!(t.writeback, Some(pid(0)));
        assert!(nodes() - before <= 2, "eviction walked the recency list");
    }
}
