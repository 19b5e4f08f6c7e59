//! # pscc-edge
//!
//! A lock-free, read-only edge cache tier for the PSCC page server.
//!
//! The paper's protocols (PS / PS-OA / PS-AA) are strictly serializable:
//! every read holds a lock and every cached page is protected by the
//! owner's callback state. That is the right contract for read-write
//! transactions, but a flash crowd of read-mostly clients does not need
//! EX/SH locks per access — it needs *bounded* staleness, in the spirit
//! of cache serializability for read-only edge transactions.
//!
//! This crate provides the two passive data structures of that tier; all
//! protocol decisions stay in `pscc-core`:
//!
//! * [`EdgeCache`] — the edge site's page copies. An entry remembers the
//!   **send time of the fetch that produced it** (`fetched_at`) and the
//!   owner commit version it reflects. Because validity is judged
//!   against the edge's *own* request send time, a copy is never assumed
//!   fresher than the moment the owner could last have told us about it
//!   — conservative under every message interleaving.
//! * [`SubscriptionTable`] — the owner's record of which edge sites
//!   watch which files. Subscriptions are leases: an edge that crashes
//!   without unsubscribing stops renewing, and the owner reaps the
//!   entry at the next publish (or eagerly on `declare_site_dead`).
//!
//! No locks are taken anywhere in this crate: an edge read either finds
//! a valid copy (a map lookup) or falls through to a fetch. `Strict`
//! files never enter either structure.

use pscc_common::{ConsistencyTier, Oid, PageId, SimDuration, SimTime, SiteId, VolId};
use pscc_storage::{PageSlice, SlottedPage};
use std::collections::{BTreeMap, BTreeSet};

/// One cached page copy at an edge site.
#[derive(Debug, Clone)]
pub struct EdgeEntry {
    /// The page image as last fetched or refreshed from the owner.
    pub image: SlottedPage,
    /// Owner commit version (WAL LSN) the image reflects.
    pub version: u64,
    /// Send time of the `EdgeFetch` that produced this image. Staleness
    /// is measured from here, not from the reply's arrival: the owner
    /// read its state some time after this instant, so `now -
    /// fetched_at` over-approximates the copy's true age.
    pub fetched_at: SimTime,
    /// Set when the owner's invalidation stream reported a newer commit.
    /// An invalidated entry is never served; it waits to be replaced by
    /// the refetch it triggered.
    pub invalidated: bool,
    /// LRU tick of the last touch.
    last_used: u64,
}

/// The edge site's lock-free page store, bounded by an LRU capacity.
#[derive(Debug, Clone)]
pub struct EdgeCache {
    pages: BTreeMap<PageId, EdgeEntry>,
    capacity: usize,
    tick: u64,
}

impl EdgeCache {
    /// An empty cache holding at most `capacity` pages.
    pub fn new(capacity: usize) -> Self {
        Self {
            pages: BTreeMap::new(),
            capacity: capacity.max(1),
            tick: 0,
        }
    }

    /// Installs (or refreshes) a page copy. A reply older than what the
    /// cache already holds is ignored — per-owner FIFO makes that
    /// impossible on a healthy lane, but the guard is cheap and keeps
    /// the version monotone even if transports change.
    pub fn install(&mut self, page: PageId, image: SlottedPage, version: u64, fetched_at: SimTime) {
        if let Some(e) = self.pages.get(&page) {
            if e.version > version {
                return;
            }
        }
        self.tick += 1;
        let entry = EdgeEntry {
            image,
            version,
            fetched_at,
            invalidated: false,
            last_used: self.tick,
        };
        self.pages.insert(page, entry);
        while self.pages.len() > self.capacity {
            let Some(victim) = self
                .pages
                .iter()
                .min_by_key(|(p, e)| (e.last_used, **p))
                .map(|(p, _)| *p)
            else {
                break;
            };
            self.pages.remove(&victim);
        }
    }

    /// Looks up a copy without judging validity (the engine owns the
    /// tier/watch state needed for that) and touches its LRU slot.
    pub fn get(&mut self, page: PageId) -> Option<&EdgeEntry> {
        self.tick += 1;
        let tick = self.tick;
        let e = self.pages.get_mut(&page)?;
        e.last_used = tick;
        Some(e)
    }

    /// Peeks at a copy without touching LRU state.
    pub fn peek(&self, page: PageId) -> Option<&EdgeEntry> {
        self.pages.get(&page)
    }

    /// Reads one object's bytes from a cached copy, touching LRU state:
    /// a slice sharing the cached image, not a copy. Returns `None` for
    /// uncached pages, invalidated entries, and dead slots alike — the
    /// caller falls through to a fetch.
    pub fn read_object(&mut self, oid: Oid) -> Option<PageSlice> {
        let e = self.get(oid.page)?;
        if e.invalidated {
            return None;
        }
        e.image.slice(oid.slot)
    }

    /// Marks a copy invalidated if the published version is newer than
    /// the cached one. Returns whether an entry was actually struck.
    /// Unknown pages are ignored: on a FIFO lane any copy fetched later
    /// than this invalidation was shipped later by the owner and already
    /// reflects the commit.
    pub fn invalidate(&mut self, page: PageId, version: u64) -> bool {
        match self.pages.get_mut(&page) {
            Some(e) if e.version < version && !e.invalidated => {
                e.invalidated = true;
                true
            }
            _ => false,
        }
    }

    /// Drops one copy.
    pub fn remove(&mut self, page: PageId) {
        self.pages.remove(&page);
    }

    /// Drops every copy of `vol` (owner restarted or died: its watch
    /// history is no longer trustworthy).
    pub fn purge_volume(&mut self, vol: VolId) {
        self.pages.retain(|p, _| p.vol() != vol);
    }

    /// Drops every copy of file number `file` (its tier changed).
    pub fn purge_file(&mut self, file: u32) {
        self.pages.retain(|p, _| p.file.file != file);
    }

    /// All cached pages, sorted.
    pub fn pages(&self) -> Vec<PageId> {
        self.pages.keys().copied().collect()
    }

    /// Number of cached copies.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// The LRU capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// One edge site's lease on an owner's invalidation stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Subscription {
    /// When the lease was last granted or renewed (owner clock).
    pub renewed_at: SimTime,
    /// How long past `renewed_at` the lease stays live.
    pub lease: SimDuration,
    /// File numbers the subscriber watches.
    pub files: BTreeSet<u32>,
}

impl Subscription {
    /// Whether the lease is still live at `now`.
    pub fn live(&self, now: SimTime) -> bool {
        now.since(self.renewed_at) < self.lease
    }
}

/// The owner's table of edge watch subscriptions, keyed by subscriber.
///
/// Everything here is a lease: a subscriber that stops renewing —
/// typically because it crashed without unsubscribing — is collected by
/// [`SubscriptionTable::reap_expired`] at the owner's next publish, so a
/// dead edge cannot leak table entries or attract invalidation traffic
/// forever.
#[derive(Debug, Clone, Default)]
pub struct SubscriptionTable {
    subs: BTreeMap<SiteId, Subscription>,
}

impl SubscriptionTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Subscribes or renews `site` for `files`. Idempotent: a renew
    /// replaces the file set and restarts the lease clock.
    pub fn upsert(
        &mut self,
        site: SiteId,
        now: SimTime,
        lease: SimDuration,
        files: impl IntoIterator<Item = u32>,
    ) {
        self.subs.insert(
            site,
            Subscription {
                renewed_at: now,
                lease,
                files: files.into_iter().collect(),
            },
        );
    }

    /// Extends `site`'s watched file set and renews its lease clock —
    /// the piggybacked subscription of an `EdgeFetch { watch: true }`,
    /// which must not wipe files registered by an earlier explicit
    /// renew the way [`SubscriptionTable::upsert`] would.
    pub fn merge(
        &mut self,
        site: SiteId,
        now: SimTime,
        lease: SimDuration,
        files: impl IntoIterator<Item = u32>,
    ) {
        let sub = self.subs.entry(site).or_insert_with(|| Subscription {
            renewed_at: now,
            lease,
            files: BTreeSet::new(),
        });
        sub.renewed_at = now;
        sub.lease = lease;
        sub.files.extend(files);
    }

    /// Whether `site` holds a lease-live subscription at `now`. An
    /// expired entry counts as absent: a renew arriving after the lapse
    /// re-creates coverage rather than extending it, and the renewer
    /// must be told (invalidations published during the gap are gone).
    pub fn is_live(&self, site: SiteId, now: SimTime) -> bool {
        self.subs.get(&site).is_some_and(|s| s.live(now))
    }

    /// Drops `site`'s subscription (declared dead, or tier rolled back
    /// to `Strict`). Returns whether an entry existed.
    pub fn drop_site(&mut self, site: SiteId) -> bool {
        self.subs.remove(&site).is_some()
    }

    /// Removes every lease-expired subscription and returns the reaped
    /// subscribers, sorted.
    pub fn reap_expired(&mut self, now: SimTime) -> Vec<SiteId> {
        let dead: Vec<SiteId> = self
            .subs
            .iter()
            .filter(|(_, s)| !s.live(now))
            .map(|(site, _)| *site)
            .collect();
        for site in &dead {
            self.subs.remove(site);
        }
        dead
    }

    /// Live subscribers watching file number `file`, sorted.
    pub fn subscribers_of(&self, file: u32, now: SimTime) -> Vec<SiteId> {
        self.subs
            .iter()
            .filter(|(_, s)| s.live(now) && s.files.contains(&file))
            .map(|(site, _)| *site)
            .collect()
    }

    /// Whether `site` currently holds any subscription (live or not).
    pub fn contains(&self, site: SiteId) -> bool {
        self.subs.contains_key(&site)
    }

    /// Number of subscriptions held (live or not).
    pub fn len(&self) -> usize {
        self.subs.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.subs.is_empty()
    }
}

/// Judges whether a cached entry may be served at `now` under `tier`,
/// and reports the age/bound pair the read would carry.
///
/// * `BoundedStale { ttl }` — valid while `now - fetched_at < ttl`.
/// * `WatchBased { fallback_ttl }` — the copy's "known fresh as of"
///   instant is `max(fetched_at, watch_validated)`, where
///   `watch_validated` is the **send time** of the last renew whose ack
///   the edge holds: the owner was still streaming invalidations to us
///   at that instant and none struck this page. A live watch keeps
///   `watch_validated` advancing; a severed one freezes it, so the copy
///   naturally degrades and expires `fallback_ttl` later.
/// * `Strict` — never (strict files never reach the edge cache).
///
/// Invalidated entries are never valid regardless of tier.
pub fn entry_valid(
    tier: ConsistencyTier,
    entry: &EdgeEntry,
    watch_validated: SimTime,
    now: SimTime,
) -> bool {
    if entry.invalidated {
        return false;
    }
    match tier {
        ConsistencyTier::Strict => false,
        ConsistencyTier::BoundedStale { ttl } => now.since(entry.fetched_at) < ttl,
        ConsistencyTier::WatchBased { fallback_ttl } => {
            now.since(entry.fetched_at.max(watch_validated)) < fallback_ttl
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscc_common::FileId;

    fn pid(n: u32) -> PageId {
        PageId::new(FileId::new(VolId(1), 0), n)
    }

    fn img() -> SlottedPage {
        let mut p = SlottedPage::new(256);
        p.insert(&[7u8; 16]);
        p
    }

    #[test]
    fn install_get_and_versions_are_monotone() {
        let mut c = EdgeCache::new(4);
        c.install(pid(1), img(), 5, SimTime::from_micros(10));
        // An older reply must not clobber a newer copy.
        c.install(pid(1), img(), 3, SimTime::from_micros(20));
        assert_eq!(c.peek(pid(1)).unwrap().version, 5);
        c.install(pid(1), img(), 9, SimTime::from_micros(30));
        assert_eq!(c.peek(pid(1)).unwrap().version, 9);
        assert_eq!(
            c.read_object(Oid::new(pid(1), 0)).as_deref(),
            Some(&[7u8; 16][..])
        );
        assert!(c.read_object(Oid::new(pid(2), 0)).is_none());
    }

    #[test]
    fn lru_eviction_respects_capacity() {
        let mut c = EdgeCache::new(2);
        c.install(pid(1), img(), 1, SimTime::ZERO);
        c.install(pid(2), img(), 1, SimTime::ZERO);
        let _ = c.get(pid(1)); // page 2 is now LRU
        c.install(pid(3), img(), 1, SimTime::ZERO);
        assert_eq!(c.len(), 2);
        assert!(c.peek(pid(2)).is_none());
        assert!(c.peek(pid(1)).is_some() && c.peek(pid(3)).is_some());
    }

    #[test]
    fn invalidate_is_version_guarded() {
        let mut c = EdgeCache::new(4);
        c.install(pid(1), img(), 5, SimTime::ZERO);
        // A reordered invalidation for an older commit is a no-op.
        assert!(!c.invalidate(pid(1), 5));
        assert!(!c.peek(pid(1)).unwrap().invalidated);
        assert!(c.invalidate(pid(1), 6));
        assert!(c.read_object(Oid::new(pid(1), 0)).is_none());
        // Unknown pages are ignored (FIFO lane: any later fetch reply
        // already reflects the commit).
        assert!(!c.invalidate(pid(9), 100));
        // A refetch clears the strike.
        c.install(pid(1), img(), 6, SimTime::from_micros(5));
        assert!(!c.peek(pid(1)).unwrap().invalidated);
    }

    #[test]
    fn purges_by_volume_and_file() {
        let mut c = EdgeCache::new(8);
        c.install(pid(1), img(), 1, SimTime::ZERO);
        let other_vol = PageId::new(FileId::new(VolId(2), 0), 7);
        c.install(other_vol, img(), 1, SimTime::ZERO);
        c.purge_volume(VolId(1));
        assert_eq!(c.pages(), vec![other_vol]);
        c.purge_file(0);
        assert!(c.is_empty());
    }

    #[test]
    fn subscriptions_lease_and_reap() {
        let mut t = SubscriptionTable::new();
        let lease = SimDuration::from_millis(10);
        t.upsert(SiteId(2), SimTime::ZERO, lease, [0]);
        t.upsert(SiteId(3), SimTime::from_micros(5_000), lease, [0, 1]);
        assert_eq!(
            t.subscribers_of(0, SimTime::from_micros(1_000)),
            vec![SiteId(2), SiteId(3)]
        );
        // Site 2's lease dies at 10ms; site 3's at 15ms.
        assert_eq!(
            t.subscribers_of(0, SimTime::from_micros(12_000)),
            vec![SiteId(3)]
        );
        assert_eq!(
            t.reap_expired(SimTime::from_micros(12_000)),
            vec![SiteId(2)]
        );
        assert_eq!(t.len(), 1);
        // Renew restarts the clock; drop removes outright.
        t.upsert(SiteId(3), SimTime::from_micros(14_000), lease, [0, 1]);
        assert_eq!(
            t.subscribers_of(1, SimTime::from_micros(20_000)),
            vec![SiteId(3)]
        );
        assert!(t.drop_site(SiteId(3)));
        assert!(!t.drop_site(SiteId(3)));
        assert!(t.is_empty());
    }

    #[test]
    fn validity_judgement_per_tier() {
        let entry = EdgeEntry {
            image: img(),
            version: 1,
            fetched_at: SimTime::from_micros(1_000),
            invalidated: false,
            last_used: 0,
        };
        let ttl = SimDuration::from_millis(5);
        let bs = ConsistencyTier::BoundedStale { ttl };
        assert!(entry_valid(
            bs,
            &entry,
            SimTime::ZERO,
            SimTime::from_micros(5_999)
        ));
        assert!(!entry_valid(
            bs,
            &entry,
            SimTime::ZERO,
            SimTime::from_micros(6_000)
        ));

        let wb = ConsistencyTier::WatchBased { fallback_ttl: ttl };
        // Watch renewed at t=4ms keeps the copy valid until 9ms.
        let validated = SimTime::from_micros(4_000);
        assert!(entry_valid(
            wb,
            &entry,
            validated,
            SimTime::from_micros(8_999)
        ));
        assert!(!entry_valid(
            wb,
            &entry,
            validated,
            SimTime::from_micros(9_000)
        ));

        let mut struck = entry.clone();
        struck.invalidated = true;
        assert!(!entry_valid(
            bs,
            &struck,
            validated,
            SimTime::from_micros(2_000)
        ));
        assert!(!entry_valid(
            ConsistencyTier::Strict,
            &entry,
            validated,
            SimTime::from_micros(1_001)
        ));
    }
}
