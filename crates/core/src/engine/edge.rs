//! The lock-free edge tier (DESIGN.md §11).
//!
//! Files assigned a non-`Strict` [`ConsistencyTier`] may be read at any
//! site from a local, lock-free page cache instead of the serializable
//! fetch/callback path. The bargain is explicit and bounded: an edge
//! read may return stale data, but never older than the tier's bound —
//! `ttl` for `BoundedStale`, `fallback_ttl` for `WatchBased` (and a
//! watch-based copy is usually far fresher, because the owner streams
//! invalidations to subscribed edges on every commit).
//!
//! Staleness is judged **conservatively from send times on the edge's
//! own clock**: a copy counts as fresh-as-of the instant its
//! `EdgeFetch` departed (the owner read its state strictly later), and
//! a watch as validated-as-of the send instant of the last `EdgeRenew`
//! whose ack arrived (the owner was still streaming to us at that
//! point, and per-lane FIFO means every invalidation published before
//! the ack was delivered before it). No cross-site clock comparison is
//! ever needed.
//!
//! Failure handling is lease-shaped at both ends. A dead edge site
//! stops renewing, so the owner reaps its subscription at the next
//! publish (or immediately via `declare_site_dead`). A dead or
//! restarted owner is detected by the epoch carried in every
//! `EdgePage`/`EdgeRenewOk` and by the `resubscribed` flag on renew
//! acks: either signal means invalidations may have been lost, and the
//! edge purges the affected copies instead of trusting them. A severed
//! watch simply freezes `watch_validated`, so the copies age out
//! `fallback_ttl` later and reads degrade to fetch-through.
//!
//! With no tiers configured (the default), every path in this module is
//! behind an empty-map check and the engine is byte-identical to the
//! strict build.

use super::{DiskCont, EdgeFetch, PeerServer, TimerKind};
use crate::msg::{DiskOp, Message, ReqId};
use pscc_common::{ConsistencyTier, Oid, PageId, SimDuration, SimTime, SiteId, TxnId};
use pscc_storage::SlottedPage;
use std::collections::BTreeMap;

impl PeerServer {
    // ------------------------------------------------------------------
    // Edge role: the lock-free read path
    // ------------------------------------------------------------------

    /// Tries to serve `txn`'s read of `oid` from the edge tier. Returns
    /// `true` when the edge path took the read — served it from a valid
    /// local copy, or parked it behind an `EdgeFetch` — and `false`
    /// when the caller must run the normal serializable path (`Strict`
    /// file, self-owned page, or no tiers configured at all).
    pub(crate) fn edge_try_read(&mut self, txn: TxnId, oid: Oid) -> bool {
        if self.cfg.edge_tiers.is_empty() {
            return false;
        }
        let tier = self.cfg.tier_of(oid.page.file.file);
        if !tier.edge_cacheable() {
            return false;
        }
        let Some(owner) = self.owners.owner_of(oid.page) else {
            return false;
        };
        if owner == self.site {
            // The owner's own reads stay on the serializable path: they
            // are already local and must see committed truth.
            return false;
        }
        if self.peers.get(&owner).is_some_and(|p| p.dead) {
            // A declared-dead owner answers no fetches; the strict path
            // owns the failure story until it is heard from again
            // (rejoin fencing and all).
            return false;
        }
        if self.edge_serve(txn, oid, owner, tier) {
            return true;
        }
        // Miss (uncached, invalidated, or aged past the bound): park the
        // read and fetch through, deduplicating per page.
        self.stats.edge_misses += 1;
        self.obs
            .record(pscc_obs::EventKind::EdgeMiss { page: oid.page });
        if let Some(fetch) = self.edge_fetches.get_mut(&oid.page) {
            fetch.waiters.push((txn, oid));
            return true;
        }
        let req = self.fresh_req();
        let fetch = EdgeFetch {
            req,
            sent: self.now,
            waiters: vec![(txn, oid)],
        };
        self.edge_fetches.insert(oid.page, fetch);
        let watch = tier.watch_based();
        if watch {
            self.edge_ensure_watch(owner);
        }
        self.send(
            owner,
            Message::EdgeFetch {
                req,
                page: oid.page,
                watch,
                lease: self.edge_watch_lease(),
            },
        );
        true
    }

    /// Serves `oid` from the local edge cache if the copy is valid under
    /// `tier` right now. Returns whether it was served.
    fn edge_serve(&mut self, txn: TxnId, oid: Oid, owner: SiteId, tier: ConsistencyTier) -> bool {
        let validated = (self.peers.get(&owner))
            .and_then(|p| p.watch)
            .map_or(SimTime::ZERO, |(validated, _)| validated);
        let Some(entry) = self.edge_cache.peek(oid.page) else {
            return false;
        };
        if !pscc_edge::entry_valid(tier, entry, validated, self.now) {
            return false;
        }
        // The copy's freshness anchor: fetch send time, advanced by the
        // watch for watch-based tiers.
        let fresh_as_of = match tier {
            ConsistencyTier::WatchBased { .. } => entry.fetched_at.max(validated),
            _ => entry.fetched_at,
        };
        let age = self.now.since(fresh_as_of);
        let bound = tier.bound().unwrap_or(SimDuration::ZERO);
        let version = entry.version;
        let bytes = self.edge_cache.read_object(oid);
        self.stats.edge_hits += 1;
        self.obs.edge_staleness.record(age);
        self.obs.record(pscc_obs::EventKind::EdgeRead {
            page: oid.page,
            version,
            age_us: age.as_micros(),
            bound_us: bound.as_micros(),
        });
        self.complete_op(txn, bytes);
        true
    }

    /// The owner's `EdgePage` reply: install the image (stamped with the
    /// *send* time of our fetch) and serve every read parked on the
    /// page. A reply that arrives too late — delayed past the tier's
    /// bound, e.g. across a partition — is not served; its waiters fall
    /// back to the serializable path instead.
    pub(crate) fn edge_page(
        &mut self,
        from: SiteId,
        req: ReqId,
        page: PageId,
        version: u64,
        epoch: u64,
        image: SlottedPage,
    ) {
        self.edge_note_owner_epoch(from, epoch);
        match self.edge_fetches.get(&page) {
            Some(f) if f.req == req => {}
            _ => return, // superseded or cancelled fetch: drop
        }
        let fetch = self.edge_fetches.remove(&page).expect("checked above");
        let tier = self.cfg.tier_of(page.file.file);
        // `version == 0` is the owner's can't-serve sentinel (page not in
        // its volume, e.g. mid-migration); an un-cacheable tier means a
        // `SetTier` roll landed while the fetch was in flight.
        if version > 0 && tier.edge_cacheable() {
            self.edge_cache.install(page, image, version, fetch.sent);
        }
        for (txn, oid) in fetch.waiters {
            if !self.txn_is_running(txn) {
                continue;
            }
            if !self.edge_serve(txn, oid, from, tier) {
                // Degrade to fetch-through: the strict path serves this
                // read with locks and full consistency.
                self.client_access(txn, oid, false, None);
            }
        }
    }

    /// The owner's invalidation stream: strike every cached copy older
    /// than the committed version. Uncached pages are skipped — on a
    /// FIFO lane any copy fetched after this message was sent already
    /// reflects the commit.
    pub(crate) fn edge_invalidate(&mut self, pages: Vec<(PageId, u64)>) {
        for (page, version) in pages {
            if self.edge_cache.invalidate(page, version) {
                self.stats.edge_invalidations += 1;
            }
        }
    }

    /// Ensures watch state and the periodic renew timer exist for
    /// `owner`.
    pub(crate) fn edge_ensure_watch(&mut self, owner: SiteId) {
        if self.peers.get(&owner).is_some_and(|p| p.watch.is_some()) {
            return;
        }
        self.edge_arm_renew(owner);
    }

    /// Arms the next renew toward `owner`, starting the watch (never
    /// validated) if there is none.
    fn edge_arm_renew(&mut self, owner: SiteId) {
        let lease = self.edge_watch_lease();
        let delay = SimDuration::from_micros((lease.as_micros() / 2).max(1));
        let timer = self.arm(TimerKind::EdgeRenew { owner }, delay);
        let watch = &mut self.peer(owner).watch;
        watch.get_or_insert((SimTime::ZERO, timer)).1 = timer;
    }

    /// The subscription lease the edge asks owners for: the smallest
    /// watch-based fallback TTL. Renews go out at half this interval,
    /// so a healthy lane keeps the owner's lease continuously covered.
    fn edge_watch_lease(&self) -> SimDuration {
        self.cfg
            .edge_tiers
            .iter()
            .filter_map(|t| match t.tier {
                ConsistencyTier::WatchBased { fallback_ttl } => Some(fallback_ttl),
                _ => None,
            })
            .min()
            .unwrap_or(SimDuration::from_millis(100))
    }

    /// File numbers under a watch-based tier, sorted (the renew's watch
    /// list).
    fn edge_watch_files(&self) -> Vec<u32> {
        let mut files: Vec<u32> = self
            .cfg
            .edge_tiers
            .iter()
            .filter(|t| t.tier.watch_based())
            .map(|t| t.file)
            .collect();
        files.sort_unstable();
        files.dedup();
        files
    }

    /// The periodic renew tick for `owner`: send a renew (recording its
    /// send time — the instant a future ack will validate the watch as
    /// of) and re-arm. A fire with no watch state left, or from a timer
    /// that has been superseded, is stale and arms nothing.
    pub(crate) fn edge_renew_fired(&mut self, timer: crate::msg::TimerId, owner: SiteId) {
        match self.peers.get(&owner).and_then(|p| p.watch) {
            Some((_, renew)) if renew == timer => {}
            _ => return, // superseded (owner died and watch was recreated)
        }
        let files = self.edge_watch_files();
        if files.is_empty() {
            // Every watch-based tier was rolled away: retire the watch.
            self.peer(owner).watch = None;
            return;
        }
        let req = self.fresh_req();
        self.edge_renews.insert(req, (owner, self.now));
        self.send(
            owner,
            Message::EdgeRenew {
                req,
                lease: self.edge_watch_lease(),
                files,
            },
        );
        self.edge_arm_renew(owner);
    }

    /// The owner acknowledged a renew: advance the watch's validation
    /// instant to the renew's send time — unless coverage lapsed
    /// (`resubscribed`) or the owner restarted (epoch bump), in which
    /// case the affected copies are purged first.
    pub(crate) fn edge_renew_ok(
        &mut self,
        from: SiteId,
        req: ReqId,
        epoch: u64,
        resubscribed: bool,
    ) {
        let Some((owner, sent)) = self.edge_renews.remove(&req) else {
            return;
        };
        debug_assert_eq!(owner, from, "renew ack from the wrong site");
        self.edge_note_owner_epoch(from, epoch);
        if resubscribed {
            self.edge_purge_watch_files(from, "watch coverage lapsed");
        }
        if let Some((validated, _)) = self.peer(from).watch.as_mut() {
            *validated = (*validated).max(sent);
        }
    }

    /// Records the owner's epoch; a bump since last contact means it
    /// restarted and invalidations were lost — purge its watch-based
    /// copies. (`BoundedStale` copies are untouched: their validity
    /// rests on their own fetch time, not on the invalidation stream.)
    fn edge_note_owner_epoch(&mut self, owner: SiteId, epoch: u64) {
        match self.peer(owner).owner_epoch.replace(epoch) {
            Some(prev) if prev != epoch => {
                self.edge_purge_watch_files(owner, "owner epoch bump");
            }
            _ => {}
        }
    }

    /// Drops every watch-based cached copy owned by `owner` and resets
    /// the watch validation clock (new coverage starts from the next
    /// acked renew).
    fn edge_purge_watch_files(&mut self, owner: SiteId, _why: &str) {
        let files = self.edge_watch_files();
        let mut purged = 0usize;
        for page in self.edge_cache.pages() {
            if files.contains(&page.file.file) && self.owners.owner_of(page) == Some(owner) {
                self.edge_cache.remove(page);
                purged += 1;
            }
        }
        if let Some((validated, _)) = self.peer(owner).watch.as_mut() {
            *validated = SimTime::ZERO;
        }
        if purged > 0 {
            self.obs.record(pscc_obs::EventKind::EdgePurgedOwner {
                owner,
                pages: purged,
            });
        }
    }

    // ------------------------------------------------------------------
    // Owner role: serving fetches, watches, and publishing commits
    // ------------------------------------------------------------------

    /// An edge site wants a page image (lock-free; no admission slot, no
    /// credit, no locks). Optionally piggybacks a watch subscription for
    /// the page's file.
    pub(crate) fn server_edge_fetch(
        &mut self,
        from: SiteId,
        req: ReqId,
        page: PageId,
        watch: bool,
        lease: SimDuration,
    ) {
        if watch {
            self.edge_subs
                .merge(from, self.now, lease, [page.file.file]);
            self.obs.record(pscc_obs::EventKind::EdgeSubscribed {
                site: from,
                files: 1,
            });
        }
        if self.touch_resident(page, false) {
            self.server_edge_ship(req, from, page);
        } else {
            self.disk(
                DiskOp::ReadPage(page),
                DiskCont::EdgeShip {
                    req,
                    to: from,
                    page,
                },
            );
        }
    }

    /// Ships the current committed image to an edge site. A page this
    /// site cannot serve (not in its volume — unmapped or migrated away)
    /// is answered with the `version == 0` sentinel so the edge's parked
    /// readers degrade to the serializable path instead of hanging.
    pub(crate) fn server_edge_ship(&mut self, req: ReqId, to: SiteId, page: PageId) {
        let (version, image) = match self.volume.page(page) {
            Some(img) => {
                let v = self
                    .edge_versions
                    .get(&page)
                    .copied()
                    .unwrap_or_else(|| self.log.durable_lsn().0.max(1));
                (v, img.clone())
            }
            None => (0, SlottedPage::new(self.cfg.page_size)),
        };
        self.send(
            to,
            Message::EdgePage {
                req,
                page,
                version,
                epoch: self.epoch,
                image,
            },
        );
    }

    /// An explicit watch renew. The `resubscribed` flag in the ack tells
    /// the edge whether coverage was continuous.
    pub(crate) fn server_edge_renew(
        &mut self,
        from: SiteId,
        req: ReqId,
        lease: SimDuration,
        files: Vec<u32>,
    ) {
        let resubscribed = !self.edge_subs.is_live(from, self.now);
        let n = files.len();
        self.edge_subs.upsert(from, self.now, lease, files);
        self.obs.record(pscc_obs::EventKind::EdgeSubscribed {
            site: from,
            files: n,
        });
        self.send(
            from,
            Message::EdgeRenewOk {
                req,
                epoch: self.epoch,
                resubscribed,
            },
        );
    }

    /// Publishes a commit to the edge tier: records per-page versions
    /// (ground truth for later fetches and the auditor), reaps
    /// lease-expired subscriptions, and streams batched invalidations to
    /// the live subscribers of each touched file. Called from
    /// `commit_forced` with the committed pages; `version` is the WAL's
    /// durable LSN at that instant, which is monotone across restarts.
    pub(crate) fn edge_publish_commit(&mut self, pages: Vec<PageId>) {
        if self.cfg.edge_tiers.is_empty() {
            return;
        }
        let mut tiered: Vec<PageId> = pages
            .into_iter()
            .filter(|p| self.cfg.tier_of(p.file.file).edge_cacheable())
            .collect();
        tiered.sort_unstable();
        tiered.dedup();
        if tiered.is_empty() {
            return;
        }
        let version = self.log.durable_lsn().0.max(1);
        for site in self.edge_subs.reap_expired(self.now) {
            self.stats.edge_subs_reaped += 1;
            self.obs.record(pscc_obs::EventKind::EdgeSubReaped { site });
        }
        let mut per_sub: BTreeMap<SiteId, Vec<(PageId, u64)>> = BTreeMap::new();
        for page in &tiered {
            self.edge_versions.insert(*page, version);
            self.obs.record(pscc_obs::EventKind::EdgePageCommitted {
                page: *page,
                version,
            });
            for site in self.edge_subs.subscribers_of(page.file.file, self.now) {
                per_sub.entry(site).or_default().push((*page, version));
            }
        }
        for (site, batch) in per_sub {
            self.obs.record(pscc_obs::EventKind::EdgeInvalidated {
                to: site,
                pages: batch.len(),
            });
            self.send(site, Message::EdgeInvalidate { pages: batch });
        }
    }

    // ------------------------------------------------------------------
    // Online tier rolls (control plane)
    // ------------------------------------------------------------------

    /// Handles [`ControlOp::SetTier`](crate::ControlOp::SetTier): adopts
    /// `tier` for file number `file` — the reconciler's zero-downtime
    /// tier roll. Both roles adjust conservatively: the
    /// edge purges its copies of the file (they were judged under the
    /// old tier), the owner side just lets its published state stand
    /// (publishing consults the new tier from now on).
    pub(crate) fn set_tier(&mut self, file: u32, tier: ConsistencyTier) {
        self.cfg.edge_tiers.retain(|t| t.file != file);
        if !matches!(tier, ConsistencyTier::Strict) {
            self.cfg
                .edge_tiers
                .push(pscc_common::EdgeTierSpec { file, tier });
        }
        self.edge_cache.purge_file(file);
    }

    // ------------------------------------------------------------------
    // Failure handling
    // ------------------------------------------------------------------

    /// Cleanup for a site declared dead, both roles. Owner role: drop
    /// its subscription so it stops attracting invalidation traffic
    /// (the satellite fix — previously only lease reaping collected
    /// it). Edge role: a dead *owner* orphans our watch and every copy
    /// it shipped; purge them and abort the reads parked on its pages —
    /// their fetches will never be answered.
    pub(crate) fn edge_site_dead(&mut self, dead: SiteId) {
        // Owner role.
        if self.edge_subs.drop_site(dead) {
            self.stats.edge_subs_reaped += 1;
            self.obs
                .record(pscc_obs::EventKind::EdgeSubReaped { site: dead });
        }

        // Edge role (the watch left with the peer's record).
        self.edge_renews.retain(|_, (s, _)| *s != dead);
        let mut purged = 0usize;
        for page in self.edge_cache.pages() {
            if self.owners.owner_of(page) == Some(dead) {
                self.edge_cache.remove(page);
                purged += 1;
            }
        }
        if purged > 0 {
            self.obs.record(pscc_obs::EventKind::EdgePurgedOwner {
                owner: dead,
                pages: purged,
            });
        }
        let mut dead_pages: Vec<PageId> = self
            .edge_fetches
            .keys()
            .copied()
            .filter(|p| self.owners.owner_of(*p) == Some(dead))
            .collect();
        dead_pages.sort_unstable(); // the aborts below go out in this order
        for page in dead_pages {
            let fetch = self.edge_fetches.remove(&page).expect("listed above");
            for (txn, _) in fetch.waiters {
                if self.txn_is_running(txn) {
                    self.home_abort(txn, pscc_common::AbortReason::Internal);
                }
            }
        }
    }
}
