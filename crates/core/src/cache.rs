//! The client-role page cache: page copies with per-object availability
//! bits, dirty-object tracking, ship sequence numbers, and LRU
//! replacement (paper §4.1: "a page-based buffer manager [...] extended
//! to keep track of the 'available' objects within each cached page").
//!
//! Every operation costs what it touches (DESIGN.md §13): the LRU victim
//! comes off the cold end of a [`LruOrder`], and commit / abort visit
//! only the pages the transaction dirtied.

use crate::lru::LruOrder;
use pscc_common::hash::HashMap;
use pscc_common::{Oid, PageId, TxnId};
use pscc_storage::{AvailMask, PageSlice, SlottedPage};

/// One cached page copy.
#[derive(Debug, Clone)]
pub struct CachedPage {
    /// The page image (including any local, uncommitted updates).
    pub image: SlottedPage,
    /// Which objects (and the dummy) are available in this copy.
    pub avail: AvailMask,
    /// Uncommitted locally updated slots, with the updating transaction.
    pub dirty: HashMap<u16, TxnId>,
    /// The `ship_seq` of the latest copy received from the owner
    /// (echoed in purge notices, §4.2.4).
    pub ship_seq: u64,
    /// This page's node in the cache's recency order.
    lru: u32,
}

/// The client cache of one peer server.
#[derive(Debug, Default)]
pub struct ClientCache {
    pages: HashMap<PageId, CachedPage>,
    capacity: usize,
    lru: LruOrder<PageId>,
    /// Per transaction, the pages it dirtied, first-dirtied order. A
    /// superset: a page stays listed after its copy (or the dirty mark)
    /// is gone, until the transaction ends — [`ClientCache::clean_txn`]
    /// and [`ClientCache::abort_txn`] skip what is no longer there.
    dirty_pages: HashMap<TxnId, Vec<PageId>>,
}

#[cfg(test)]
thread_local! {
    /// Cached pages `clean_txn` / `abort_txn` have looked at on this
    /// thread (the work-bound tests count them).
    static PAGES_VISITED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

impl ClientCache {
    /// Creates a cache holding at most `capacity` pages.
    pub fn new(capacity: usize) -> Self {
        ClientCache {
            capacity: capacity.max(1),
            ..Self::default()
        }
    }

    /// The cached copy of `page`, marked as just used.
    fn touch(&mut self, page: PageId) -> Option<&mut CachedPage> {
        let cp = self.pages.get_mut(&page)?;
        self.lru.touch(cp.lru);
        Some(cp)
    }

    /// Marks `slot` dirty for `txn`, listing the page under the
    /// transaction on its first dirty mark there.
    fn mark_dirty(&mut self, oid: Oid, txn: TxnId) {
        let cp = self.pages.get_mut(&oid.page).expect("caller checked");
        let listed = cp.dirty.values().any(|t| *t == txn);
        cp.dirty.insert(oid.slot, txn);
        if !listed {
            self.dirty_pages.entry(txn).or_default().push(oid.page);
        }
    }

    /// Whether the page is cached at all.
    pub fn contains(&self, page: PageId) -> bool {
        self.pages.contains_key(&page)
    }

    /// Whether `oid` is locally cached: its page is cached *and* the
    /// object is marked available (paper §4.1).
    pub fn object_cached(&self, oid: Oid) -> bool {
        self.pages
            .get(&oid.page)
            .is_some_and(|cp| cp.avail.is_available(oid.slot))
    }

    /// Whether the page is *fully* cached — cached with every object and
    /// the dummy available (the §4.3.2 test for local-only SH page
    /// locks).
    pub fn fully_cached(&self, page: PageId) -> bool {
        self.pages.get(&page).is_some_and(|cp| {
            let n = cp.image.slot_count();
            cp.avail.fully_available(n)
        })
    }

    /// Immutable access to a cached page (bumps LRU).
    pub fn get(&mut self, page: PageId) -> Option<&CachedPage> {
        self.touch(page).map(|cp| &*cp)
    }

    /// Immutable access without the LRU bump (inspection).
    pub fn peek(&self, page: PageId) -> Option<&CachedPage> {
        self.pages.get(&page)
    }

    /// Mutable access to a cached page (bumps LRU).
    pub fn get_mut(&mut self, page: PageId) -> Option<&mut CachedPage> {
        self.touch(page)
    }

    /// Reads object bytes if locally cached: a slice sharing the cached
    /// image, so a hit copies and allocates nothing. Drop it before the
    /// page is next written, or that write copies the whole image.
    pub fn read_object(&mut self, oid: Oid) -> Option<PageSlice> {
        let cp = self.touch(oid.page)?;
        if !cp.avail.is_available(oid.slot) {
            return None;
        }
        cp.image.slice(oid.slot)
    }

    /// Installs or merges an arriving page copy per the paper's §4.2.3
    /// rules. `raced_slots` lists objects with a registered callback
    /// race (their proposed "available" is overridden to unavailable).
    ///
    /// Merge rules, per object:
    /// * already cached & available → stays available, local bytes kept
    ///   for dirty objects (never overwrite uncommitted local updates);
    /// * not cached / unavailable → takes the proposed state, except
    ///   raced slots become unavailable.
    ///
    /// Returns pages evicted to make room (the caller sends purge
    /// notices). The installed page itself is never evicted.
    pub fn install(
        &mut self,
        page: PageId,
        incoming: SlottedPage,
        proposed: AvailMask,
        ship_seq: u64,
        raced_slots: &[u16],
    ) -> Vec<(PageId, CachedPage)> {
        match self.pages.get_mut(&page) {
            Some(cp) => {
                let mut final_avail = proposed;
                for s in raced_slots {
                    final_avail.set_unavailable(*s);
                }
                // Previously available objects stay available...
                let n = incoming.slot_count().max(cp.image.slot_count());
                let mut merged = incoming;
                for slot in 0..n {
                    if cp.avail.is_available(slot) {
                        final_avail.set_available(slot);
                        // ...and dirty local bytes are preserved.
                        if cp.dirty.contains_key(&slot) {
                            if let Some(local) = cp.image.get(slot) {
                                let _ = merged.update(slot, local);
                            }
                        }
                    }
                }
                if cp.avail.is_dummy_available() {
                    final_avail.set_available(pscc_common::ids::DUMMY_SLOT);
                }
                cp.image = merged;
                cp.avail = final_avail;
                cp.ship_seq = ship_seq;
                self.lru.touch(cp.lru);
                Vec::new()
            }
            None => {
                let mut final_avail = proposed;
                for s in raced_slots {
                    final_avail.set_unavailable(*s);
                }
                let lru = self.lru.push_front(page);
                self.pages.insert(
                    page,
                    CachedPage {
                        image: incoming,
                        avail: final_avail,
                        dirty: HashMap::default(),
                        ship_seq,
                        lru,
                    },
                );
                self.evict_over_capacity(lru)
            }
        }
    }

    /// Evicts LRU pages beyond capacity, never evicting the page whose
    /// recency node is `keep`. Pages with dirty objects are *not*
    /// skipped — the engine ships their log records early, as SHORE does
    /// (§3.3).
    fn evict_over_capacity(&mut self, keep: u32) -> Vec<(PageId, CachedPage)> {
        let mut evicted = Vec::new();
        while self.pages.len() > self.capacity {
            let Some(victim) = self.lru.coldest_except(keep) else {
                break;
            };
            let cp = self.purge(victim).expect("ordered pages are cached");
            evicted.push((victim, cp));
        }
        evicted
    }

    /// Marks one object unavailable (an object-level callback). Returns
    /// `false` if the page is not cached.
    pub fn mark_unavailable(&mut self, oid: Oid) -> bool {
        match self.pages.get_mut(&oid.page) {
            Some(cp) => {
                cp.avail.set_unavailable(oid.slot);
                cp.dirty.remove(&oid.slot);
                true
            }
            None => false,
        }
    }

    /// Removes a page outright (page-level callback or abort purge).
    /// Returns the removed copy.
    pub fn purge(&mut self, page: PageId) -> Option<CachedPage> {
        let cp = self.pages.remove(&page)?;
        self.lru.remove(cp.lru);
        Some(cp)
    }

    /// Applies a local update: installs `bytes` into the object and
    /// marks it dirty for `txn`. Returns the before-image, as `Err` if
    /// the (size-growing) update does not fit the page and nothing
    /// changed — the caller then falls back to the §4.4 forwarding path.
    ///
    /// # Panics
    ///
    /// Panics if the object is not locally cached (protocol error: write
    /// permission is only granted for cached objects).
    pub fn apply_update(&mut self, oid: Oid, bytes: &[u8], txn: TxnId) -> Result<Vec<u8>, Vec<u8>> {
        let cp = self
            .touch(oid.page)
            .unwrap_or_else(|| panic!("update of uncached page {}", oid.page));
        assert!(
            cp.avail.is_available(oid.slot),
            "update of unavailable object {oid}"
        );
        let before = cp
            .image
            .get(oid.slot)
            .expect("available object has bytes")
            .to_vec();
        if cp.image.update(oid.slot, bytes).is_err() {
            return Err(before);
        }
        self.mark_dirty(oid, txn);
        Ok(before)
    }

    /// Creates an object on a cached page (requires an explicit EX page
    /// lock by protocol). Returns its slot, or `None` if the page is
    /// uncached or full.
    pub fn apply_create(&mut self, page: PageId, bytes: &[u8], txn: TxnId) -> Option<u16> {
        let cp = self.touch(page)?;
        let slot = cp.image.insert(bytes)?;
        cp.avail.set_available(slot);
        self.mark_dirty(Oid::new(page, slot), txn);
        Some(slot)
    }

    /// Deletes an object from a cached page (requires an EX object lock
    /// by protocol). Returns the before-image.
    pub fn apply_delete(&mut self, oid: Oid, txn: TxnId) -> Option<Vec<u8>> {
        let cp = self.touch(oid.page)?;
        if !cp.avail.is_available(oid.slot) {
            return None;
        }
        let before = cp.image.get(oid.slot)?.to_vec();
        cp.image.delete(oid.slot);
        cp.avail.set_unavailable(oid.slot);
        cp.dirty.remove(&oid.slot);
        let _ = txn;
        Some(before)
    }

    /// Ends `txn`'s listing in the dirty-page index: the pages commit or
    /// abort has to visit.
    fn take_dirty_pages(&mut self, txn: TxnId) -> Vec<PageId> {
        let pages = self.dirty_pages.remove(&txn).unwrap_or_default();
        #[cfg(test)]
        PAGES_VISITED.with(|n| n.set(n.get() + pages.len() as u64));
        pages
    }

    /// Clears dirty marks of `txn` (commit: records shipped and durable).
    pub fn clean_txn(&mut self, txn: TxnId) {
        for page in self.take_dirty_pages(txn) {
            if let Some(cp) = self.pages.get_mut(&page) {
                cp.dirty.retain(|_, t| *t != txn);
            }
        }
    }

    /// Aborts `txn`'s local updates: marks each of its dirty objects
    /// unavailable (paper §3.3: "purges from the local page cache any
    /// objects that it has updated ... by marking the objects as
    /// 'unavailable'"). Returns them: pages in the order the
    /// transaction first dirtied them, slots ascending within a page.
    pub fn abort_txn(&mut self, txn: TxnId) -> Vec<Oid> {
        let mut purged = Vec::new();
        for page in self.take_dirty_pages(txn) {
            let Some(cp) = self.pages.get_mut(&page) else {
                continue;
            };
            let mut slots: Vec<u16> = cp
                .dirty
                .iter()
                .filter(|(_, t)| **t == txn)
                .map(|(s, _)| *s)
                .collect();
            slots.sort_unstable();
            for s in slots {
                cp.dirty.remove(&s);
                cp.avail.set_unavailable(s);
                purged.push(Oid::new(page, s));
            }
        }
        purged
    }

    /// All cached pages of `file` (file-level callbacks purge these).
    pub fn pages_of_file(&self, file: pscc_common::FileId) -> Vec<PageId> {
        self.pages
            .keys()
            .filter(|p| p.file == file)
            .copied()
            .collect()
    }

    /// Every cached page id, sorted (rejoin-time self-invalidation
    /// scans these to find pages owned by a suspect server).
    pub fn pages(&self) -> Vec<PageId> {
        let mut v: Vec<PageId> = self.pages.keys().copied().collect();
        v.sort();
        v
    }

    /// All cached pages of `vol`.
    pub fn pages_of_volume(&self, vol: pscc_common::VolId) -> Vec<PageId> {
        self.pages
            .keys()
            .filter(|p| p.vol() == vol)
            .copied()
            .collect()
    }

    /// Number of cached pages.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Transactions the dirty-page index still lists. Zero once every
    /// transaction has committed or aborted — anything else is a leak.
    pub fn dirty_index_len(&self) -> usize {
        self.dirty_pages.len()
    }

    /// Test/diagnostic invariant: rebuilds both indexes by full scan and
    /// compares — every cached page has exactly one recency node, and
    /// every dirty mark's page is listed under its transaction.
    ///
    /// # Panics
    ///
    /// Panics with a description of the first mismatch.
    pub fn assert_consistent(&self) {
        let mut ordered = self.lru.hot_to_cold();
        assert_eq!(ordered.len(), self.pages.len(), "recency order size");
        ordered.sort();
        assert_eq!(ordered, self.pages(), "recency order covers the cache");
        for (page, cp) in &self.pages {
            for (slot, txn) in &cp.dirty {
                assert!(
                    self.dirty_pages.get(txn).is_some_and(|v| v.contains(page)),
                    "dirty mark {page}/{slot} of {txn} is not indexed"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use pscc_common::{FileId, SiteId, VolId};

    fn pid(n: u32) -> PageId {
        PageId::new(FileId::new(VolId(0), 0), n)
    }

    fn page_with(n_obj: u16) -> SlottedPage {
        let mut p = SlottedPage::new(512);
        for i in 0..n_obj {
            p.insert(&[i as u8; 16]).unwrap();
        }
        p
    }

    fn txn(n: u64) -> TxnId {
        TxnId::new(SiteId(1), n)
    }

    #[test]
    fn install_and_read() {
        let mut c = ClientCache::new(4);
        let ev = c.install(pid(1), page_with(3), AvailMask::all_available(3), 1, &[]);
        assert!(ev.is_empty());
        assert!(c.object_cached(Oid::new(pid(1), 2)));
        assert_eq!(
            c.read_object(Oid::new(pid(1), 1)).as_deref(),
            Some(&[1u8; 16][..])
        );
        assert!(c.fully_cached(pid(1)));
    }

    #[test]
    fn unavailable_objects_are_not_cached() {
        let mut c = ClientCache::new(4);
        let mut avail = AvailMask::all_available(3);
        avail.set_unavailable(1);
        c.install(pid(1), page_with(3), avail, 1, &[]);
        assert!(c.object_cached(Oid::new(pid(1), 0)));
        assert!(!c.object_cached(Oid::new(pid(1), 1)));
        assert!(!c.fully_cached(pid(1)));
        assert_eq!(c.read_object(Oid::new(pid(1), 1)), None);
    }

    #[test]
    fn merge_keeps_previously_available_and_dirty() {
        let mut c = ClientCache::new(4);
        c.install(pid(1), page_with(3), AvailMask::all_available(3), 1, &[]);
        // Local dirty update to slot 0.
        let before = c
            .apply_update(Oid::new(pid(1), 0), &[9u8; 16], txn(1))
            .unwrap();
        assert_eq!(before, vec![0u8; 16]);
        // New copy arrives proposing slot 0 unavailable and stale bytes.
        let mut proposed = AvailMask::all_available(3);
        proposed.set_unavailable(0);
        c.install(pid(1), page_with(3), proposed, 2, &[]);
        // Still available (was available before) and still dirty bytes.
        assert!(c.object_cached(Oid::new(pid(1), 0)));
        assert_eq!(
            c.read_object(Oid::new(pid(1), 0)).as_deref(),
            Some(&[9u8; 16][..])
        );
    }

    #[test]
    fn raced_slots_forced_unavailable() {
        let mut c = ClientCache::new(4);
        c.install(pid(1), page_with(3), AvailMask::all_available(3), 1, &[2]);
        assert!(!c.object_cached(Oid::new(pid(1), 2)));
        assert!(c.object_cached(Oid::new(pid(1), 0)));
    }

    #[test]
    fn raced_slot_does_not_override_already_cached() {
        // Race entries only apply to not-cached objects (§4.2.3): if the
        // object is already available locally, it stays.
        let mut c = ClientCache::new(4);
        c.install(pid(1), page_with(3), AvailMask::all_available(3), 1, &[]);
        c.install(pid(1), page_with(3), AvailMask::all_available(3), 2, &[1]);
        assert!(c.object_cached(Oid::new(pid(1), 1)));
    }

    #[test]
    fn lru_eviction_beyond_capacity() {
        let mut c = ClientCache::new(2);
        c.install(pid(1), page_with(1), AvailMask::all_available(1), 1, &[]);
        c.install(pid(2), page_with(1), AvailMask::all_available(1), 1, &[]);
        // Touch page 1 so page 2 is LRU.
        let _ = c.read_object(Oid::new(pid(1), 0));
        let evicted = c.install(pid(3), page_with(1), AvailMask::all_available(1), 1, &[]);
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].0, pid(2));
        assert!(c.contains(pid(1)) && c.contains(pid(3)));
    }

    #[test]
    fn mark_unavailable_and_purge() {
        let mut c = ClientCache::new(4);
        c.install(pid(1), page_with(2), AvailMask::all_available(2), 1, &[]);
        assert!(c.mark_unavailable(Oid::new(pid(1), 0)));
        assert!(!c.object_cached(Oid::new(pid(1), 0)));
        assert!(c.object_cached(Oid::new(pid(1), 1)));
        assert!(c.purge(pid(1)).is_some());
        assert!(!c.contains(pid(1)));
        assert!(!c.mark_unavailable(Oid::new(pid(1), 0)));
    }

    #[test]
    fn abort_marks_dirty_objects_unavailable() {
        let mut c = ClientCache::new(4);
        c.install(pid(1), page_with(3), AvailMask::all_available(3), 1, &[]);
        c.apply_update(Oid::new(pid(1), 0), &[9u8; 16], txn(1))
            .unwrap();
        c.apply_update(Oid::new(pid(1), 1), &[9u8; 16], txn(2))
            .unwrap();
        let purged = c.abort_txn(txn(1));
        assert_eq!(purged, vec![Oid::new(pid(1), 0)]);
        assert!(!c.object_cached(Oid::new(pid(1), 0)));
        assert!(c.object_cached(Oid::new(pid(1), 1)));
        // txn(2)'s dirty object survives and commits clean.
        c.clean_txn(txn(2));
        assert!(c.peek(pid(1)).unwrap().dirty.is_empty());
    }

    #[test]
    fn pages_of_file_and_volume() {
        let mut c = ClientCache::new(8);
        c.install(pid(1), page_with(1), AvailMask::all_available(1), 1, &[]);
        c.install(pid(2), page_with(1), AvailMask::all_available(1), 1, &[]);
        let other = PageId::new(FileId::new(VolId(0), 1), 9);
        c.install(other, page_with(1), AvailMask::all_available(1), 1, &[]);
        assert_eq!(c.pages_of_file(FileId::new(VolId(0), 0)).len(), 2);
        assert_eq!(c.pages_of_volume(VolId(0)).len(), 3);
    }

    // ------------------------------------------------------------------
    // Differential: the indexed cache against the scans it replaced
    // ------------------------------------------------------------------

    /// What the cache kept before it had indexes — a use stamp per page
    /// and a dirty map per page, found by scanning everything. Kept as
    /// the reference the indexed cache must agree with.
    #[derive(Default)]
    struct ScanModel {
        stamp: HashMap<PageId, u64>,
        dirty: HashMap<PageId, HashMap<u16, TxnId>>,
        tick: u64,
        capacity: usize,
    }

    impl ScanModel {
        fn touch(&mut self, page: PageId) {
            self.tick += 1;
            if let Some(s) = self.stamp.get_mut(&page) {
                *s = self.tick;
            }
        }

        /// Returns the victims, coldest first.
        fn install(&mut self, page: PageId) -> Vec<PageId> {
            self.tick += 1;
            let fresh = self.stamp.insert(page, self.tick).is_none();
            let mut victims = Vec::new();
            while fresh && self.stamp.len() > self.capacity {
                let v = *self
                    .stamp
                    .iter()
                    .filter(|(p, _)| **p != page)
                    .min_by_key(|(_, s)| **s)
                    .expect("capacity >= 1")
                    .0;
                self.purge(v);
                victims.push(v);
            }
            victims
        }

        fn purge(&mut self, page: PageId) {
            self.stamp.remove(&page);
            self.dirty.remove(&page);
        }

        fn clean(&mut self, txn: TxnId) {
            for d in self.dirty.values_mut() {
                d.retain(|_, t| *t != txn);
            }
        }

        fn abort(&mut self, txn: TxnId) -> Vec<Oid> {
            let mut purged = Vec::new();
            for (page, d) in &mut self.dirty {
                d.retain(|slot, t| {
                    if *t == txn {
                        purged.push(Oid::new(*page, *slot));
                    }
                    *t != txn
                });
            }
            purged.sort();
            purged
        }
    }

    #[derive(Debug, Clone)]
    enum CacheOp {
        Install(u32),
        Get(u32),
        GetMut(u32),
        Read(u32, u16),
        Purge(u32),
        MarkUnavailable(u32, u16),
        Update(u32, u16, u64),
        Clean(u64),
        Abort(u64),
    }

    fn arb_cache_op() -> impl Strategy<Value = CacheOp> {
        prop_oneof![
            (0u32..24).prop_map(CacheOp::Install),
            (0u32..24).prop_map(CacheOp::Install),
            (0u32..24).prop_map(CacheOp::Get),
            (0u32..24).prop_map(CacheOp::GetMut),
            (0u32..24, 0u16..4).prop_map(|(p, s)| CacheOp::Read(p, s)),
            (0u32..24).prop_map(CacheOp::Purge),
            (0u32..24, 0u16..4).prop_map(|(p, s)| CacheOp::MarkUnavailable(p, s)),
            (0u32..24, 0u16..4, 0u64..4).prop_map(|(p, s, t)| CacheOp::Update(p, s, t)),
            (0u32..24, 0u16..4, 0u64..4).prop_map(|(p, s, t)| CacheOp::Update(p, s, t)),
            (0u64..4).prop_map(CacheOp::Clean),
            (0u64..4).prop_map(CacheOp::Abort),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// 64 × 250 operations: the same victims in the same order, the
        /// same dirty sets, the same abort purges — and at the end the
        /// same complete recency order, flushed out by over-filling.
        #[test]
        fn indexed_cache_agrees_with_the_scans(
            ops in proptest::collection::vec(arb_cache_op(), 250..251)
        ) {
            let mut cache = ClientCache::new(8);
            let mut model = ScanModel { capacity: 8, ..ScanModel::default() };
            let fresh = |c: &mut ClientCache, p: u32| -> Vec<PageId> {
                c.install(pid(p), page_with(4), AvailMask::all_available(4), 1, &[])
                    .into_iter()
                    .map(|(v, _)| v)
                    .collect()
            };
            for op in ops {
                match op {
                    CacheOp::Install(p) => {
                        prop_assert_eq!(fresh(&mut cache, p), model.install(pid(p)));
                    }
                    CacheOp::Get(p) => {
                        let _ = cache.get(pid(p));
                        model.touch(pid(p));
                    }
                    CacheOp::GetMut(p) => {
                        let _ = cache.get_mut(pid(p));
                        model.touch(pid(p));
                    }
                    CacheOp::Read(p, s) => {
                        let _ = cache.read_object(Oid::new(pid(p), s));
                        model.touch(pid(p));
                    }
                    CacheOp::Purge(p) => {
                        let _ = cache.purge(pid(p));
                        model.purge(pid(p));
                    }
                    CacheOp::MarkUnavailable(p, s) => {
                        cache.mark_unavailable(Oid::new(pid(p), s));
                        if let Some(d) = model.dirty.get_mut(&pid(p)) {
                            d.remove(&s);
                        }
                    }
                    CacheOp::Update(p, s, t) => {
                        let oid = Oid::new(pid(p), s);
                        if cache.object_cached(oid) {
                            cache.apply_update(oid, &[7u8; 16], txn(t)).unwrap();
                            model.touch(pid(p));
                            model.dirty.entry(pid(p)).or_default().insert(s, txn(t));
                        }
                    }
                    CacheOp::Clean(t) => {
                        cache.clean_txn(txn(t));
                        model.clean(txn(t));
                    }
                    CacheOp::Abort(t) => {
                        let mut purged = cache.abort_txn(txn(t));
                        purged.sort();
                        prop_assert_eq!(purged, model.abort(txn(t)));
                    }
                }
                cache.assert_consistent();
                prop_assert_eq!(cache.len(), model.stamp.len());
                for p in 0..24 {
                    let got = cache.peek(pid(p)).map(|cp| cp.dirty.clone());
                    let want = model.stamp.contains_key(&pid(p)).then(|| {
                        model.dirty.get(&pid(p)).cloned().unwrap_or_default()
                    });
                    prop_assert_eq!(got, want, "dirty set of page {}", p);
                }
            }
            for p in 100..108 {
                prop_assert_eq!(fresh(&mut cache, p), model.install(pid(p)));
            }
            for t in 0..4 {
                cache.clean_txn(txn(t));
            }
            prop_assert_eq!(cache.dirty_index_len(), 0);
        }
    }

    #[test]
    fn abort_purges_in_first_dirtied_order_every_time() {
        // Under each hash seed the cache's maps iterate in another order;
        // the purge sequence must not change with it.
        let build = || {
            let mut c = ClientCache::new(64);
            for p in 0..40 {
                c.install(pid(p), page_with(4), AvailMask::all_available(4), 1, &[]);
            }
            for p in [17, 3, 29, 3, 8, 17, 31] {
                for s in [2, 0, 3] {
                    c.apply_update(Oid::new(pid(p), s), &[1u8; 16], txn(1))
                        .unwrap();
                }
            }
            c.abort_txn(txn(1))
        };
        let want: Vec<Oid> = [17, 3, 29, 8, 31]
            .into_iter()
            .flat_map(|p| [0, 2, 3].map(|s| Oid::new(pid(p), s)))
            .collect();
        for seed in 0..=3 {
            assert_eq!(pscc_common::hash::with_hash_seed(seed, build), want);
        }
    }

    // ------------------------------------------------------------------
    // Work bounds: an operation looks at what it touches
    // ------------------------------------------------------------------

    #[test]
    fn eviction_and_txn_end_do_not_scan_a_big_cache() {
        const PAGES: u32 = 50_000;
        let small = || {
            let mut p = SlottedPage::new(64);
            p.insert(&[0u8; 8]).unwrap();
            p
        };
        let mut c = ClientCache::new(PAGES as usize);
        for p in 0..PAGES {
            c.install(pid(p), small(), AvailMask::all_available(1), 1, &[]);
        }
        let nodes = || crate::lru::NODES_VISITED.with(std::cell::Cell::get);
        let before = nodes();
        let evicted = c.install(pid(PAGES), small(), AvailMask::all_available(1), 1, &[]);
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].0, pid(0));
        assert!(nodes() - before <= 2, "eviction walked the recency list");

        let pages = || PAGES_VISITED.with(std::cell::Cell::get);
        for p in [10, 20, 30] {
            c.apply_update(Oid::new(pid(p), 0), &[1u8; 8], txn(1))
                .unwrap();
            c.apply_update(Oid::new(pid(p + 1), 0), &[1u8; 8], txn(2))
                .unwrap();
        }
        let before = pages();
        c.clean_txn(txn(1));
        assert_eq!(pages() - before, 3, "commit visits the pages it dirtied");
        let before = pages();
        assert_eq!(c.abort_txn(txn(2)).len(), 3);
        assert_eq!(pages() - before, 3, "abort visits the pages it dirtied");
        assert_eq!(c.dirty_index_len(), 0);
    }
}
