//! Client-role logic: object accesses through the local cache, fetches,
//! write-permission requests, adaptive write grants, callback threads,
//! deescalation handling, and cache eviction with purge notices.

use super::{CbCtx, CbKey, LockCont, PeerServer, ReqCont, Request, TimerKind};
use crate::msg::{AppReply, CbId, DeId, Message, ReqId};
use pscc_common::{
    AbortReason, FileId, LockMode, LockableId, Oid, PageId, SiteId, Stage, TxnId, VolId,
};
use pscc_lockmgr::Acquire;
use pscc_storage::{PageSlice, PageSnapshot};
use pscc_wal::LogRecord;

impl PeerServer {
    // ------------------------------------------------------------------
    // Object access entry points
    // ------------------------------------------------------------------

    /// An application read or write of `oid` by `txn` (paper §4.1.1:
    /// "its master thread first obtains a local lock on the object" — on
    /// its page under PS).
    pub(crate) fn client_access(
        &mut self,
        txn: TxnId,
        oid: Oid,
        write: bool,
        bytes: Option<Vec<u8>>,
    ) {
        // An owner-local access acquires its lock directly in the shared
        // table, so it must pass the migration and deescalation gates
        // *first* — a frozen range must quiesce (no new local locks on
        // it), and another client's adaptive page lock makes the server
        // copy stale and must be deescalated before any lock on the page
        // is taken.
        if self.owners.owner_of(oid.page) == Some(self.site) {
            let app = match self.txns.home.get(&txn) {
                Some(h) => h.app,
                None => return,
            };
            // Built only by the gate that keeps it: the access almost
            // never waits, and a write would copy its value per gate.
            let work = || {
                let op = if write {
                    crate::msg::AppOp::Write {
                        oid,
                        bytes: bytes.clone(),
                    }
                } else {
                    crate::msg::AppOp::Read(oid)
                };
                crate::msg::Input::App(crate::msg::AppRequest {
                    app,
                    txn: Some(txn),
                    op,
                })
            };
            if self.queue_if_migrating(oid.page, work)
                || self.queue_if_deescalating(oid.page, work)
                || self.start_deescalation_if_needed(oid.page, txn, work)
            {
                return;
            }
        }
        let mode = if write { LockMode::Ex } else { LockMode::Sh };
        let cont = LockCont::LocalAccess {
            txn,
            oid,
            write,
            bytes,
        };
        self.lock_or_park(txn, self.cfg.protocol.granule(oid), mode, cont);
    }

    /// Local lock on the access's granule held; consult the cache and
    /// the page grants.
    pub(crate) fn client_access_locked(
        &mut self,
        txn: TxnId,
        oid: Oid,
        write: bool,
        bytes: Option<Vec<u8>>,
    ) {
        if !self.txn_is_running(txn) {
            return;
        }
        if !write {
            match self.cache.read_object(oid) {
                Some(data) => {
                    self.stats.cache_hits += 1;
                    self.finish_read(txn, oid, Some(data));
                }
                None => {
                    self.stats.cache_misses += 1;
                    self.fetch(txn, oid, None);
                }
            }
            return;
        }
        // Write path. The page copy is needed to install the update.
        // (`cache_hits`/`cache_misses` count object *reads* only — the
        // fetch below is still visible through `read_requests`.)
        if !self.cache.object_cached(oid) {
            self.fetch(txn, oid, Some(bytes));
            return;
        }
        // A grant covering the page held by *this* transaction — an
        // adaptive page lock (paper §4.1.2), or PS's EX page lock? Then
        // the update needs no server interaction at all.
        let adaptive = self
            .txns
            .home
            .get(&txn)
            .is_some_and(|h| h.adaptive_pages.contains(&oid.page));
        if adaptive {
            self.stats.adaptive_hits += 1;
            self.finish_write(txn, oid, bytes);
            return;
        }
        let Some(owner) = self.client_route(txn, oid.page) else {
            return;
        };
        self.stats.write_requests += 1;
        let cont = ReqCont::Write {
            oid,
            bytes,
            deescalated: false,
        };
        let req = self.issue(txn, owner, cont);
        self.send_data(req);
    }

    fn fetch(&mut self, txn: TxnId, oid: Oid, then_write: Option<Option<Vec<u8>>>) {
        let Some(owner) = self.client_route(txn, oid.page) else {
            return;
        };
        self.stats.read_requests += 1;
        let cont = ReqCont::Fetch {
            oid,
            then_write,
            raced: Vec::new(),
        };
        let req = self.issue(txn, owner, cont);
        self.obs.record(pscc_obs::EventKind::FetchSent {
            to: owner,
            item: self.cfg.protocol.granule(oid),
        });
        self.send_data(req);
    }

    // ------------------------------------------------------------------
    // The request table: one way in, one way out
    // ------------------------------------------------------------------

    /// Records a new request of home transaction `txn` to `to` and
    /// returns its id: the record goes in the request table, the id in
    /// the transaction's index (and the page's, for a fetch), and `to`
    /// joins the transaction's participants. The caller sends.
    pub(crate) fn issue(&mut self, txn: TxnId, to: SiteId, cont: ReqCont) -> ReqId {
        let req = self.fresh_req();
        if let ReqCont::Fetch { oid, .. } = cont {
            self.pending_fetches
                .entry(oid.page)
                .or_default()
                .insert(req);
        }
        if let Some(h) = self.txns.home.get_mut(&txn) {
            h.outstanding_reqs.insert(req);
            h.participants.insert(to);
        }
        let record = Request {
            txn,
            to,
            cont,
            issued: self.now,
            stalled: None,
            retry: None,
            redirected: None,
        };
        self.requests.insert(req, record);
        req
    }

    /// Sends data request `req` (`ReadObj`, `WriteObj` or `LockItem`),
    /// built from its record, to the record's owner.
    pub(crate) fn send_data(&mut self, req: ReqId) {
        let Some(r) = self.requests.get(&req) else {
            return;
        };
        let to = r.to;
        if let Some(msg) = r.data_msg(req) {
            self.send(to, msg);
        }
    }

    /// Retires request `req` on its answer: the record leaves the table
    /// and both indexes. `None` if it was already retired (its
    /// transaction ended).
    pub(crate) fn settle(&mut self, req: ReqId) -> Option<Request> {
        let r = self.requests.remove(&req)?;
        if let Some(h) = self.txns.home.get_mut(&r.txn) {
            h.outstanding_reqs.remove(&req);
        }
        if let ReqCont::Fetch { oid, .. } = r.cont {
            if let Some(p) = self.pending_fetches.get_mut(&oid.page) {
                p.remove(&req);
                if p.is_empty() {
                    self.pending_fetches.remove(&oid.page);
                }
            }
        }
        Some(r)
    }

    /// The callback race (paper §4.2.4, Fig. 5): a callback on `oid`
    /// completed here, and a read reply already in flight for its page
    /// must not make it available again. Every fetch of the page
    /// outstanding now carries the slot; later fetches do not.
    pub(crate) fn mark_fetch_races(&mut self, oid: Oid) {
        let Some(reqs) = self.pending_fetches.get(&oid.page) else {
            return;
        };
        for req in reqs {
            if let Some(Request {
                cont: ReqCont::Fetch { raced, .. },
                ..
            }) = self.requests.get_mut(req)
            {
                raced.push(oid.slot);
            }
        }
    }

    /// [`Self::settle`], keeping the record only while its transaction
    /// still runs, so the answer should resume it.
    pub(crate) fn settle_running(&mut self, req: ReqId) -> Option<Request> {
        self.settle(req).filter(|r| self.txn_is_running(r.txn))
    }

    /// The outstanding requests of home transaction `txn` whose record
    /// `pick` accepts.
    pub(crate) fn reqs_of(&self, txn: TxnId, pick: impl Fn(&Request) -> bool) -> Vec<ReqId> {
        let Some(h) = self.txns.home.get(&txn) else {
            return Vec::new();
        };
        h.outstanding_reqs
            .iter()
            .copied()
            .filter(|r| self.requests.get(r).is_some_and(&pick))
            .collect()
    }

    // ------------------------------------------------------------------
    // Explicit hierarchical locks (paper §4.3)
    // ------------------------------------------------------------------

    /// An explicit `Lock` op: acquire locally first, then propagate per
    /// §4.3 (file/volume locks always; page SH only if not fully cached).
    pub(crate) fn client_explicit(&mut self, txn: TxnId, item: LockableId, mode: LockMode) {
        let cont = LockCont::LocalExplicit { txn, item, mode };
        self.lock_or_park(txn, item, mode, cont);
    }

    /// Local explicit lock held; decide whether to propagate.
    pub(crate) fn client_explicit_locked(&mut self, txn: TxnId, item: LockableId, mode: LockMode) {
        if !self.txn_is_running(txn) {
            return;
        }
        // Page SH locks stay local when the page is fully cached
        // (§4.3.2); everything else is propagated to the owner(s).
        if let LockableId::Page(p) = item {
            if mode == LockMode::Sh && self.cache.fully_cached(p) {
                self.complete_op(txn, None);
                return;
            }
            if mode == LockMode::Is {
                // A pure IS page intention never conflicts with anything
                // the server tracks beyond what object reads acquire.
                // (IX, in contrast, must reach the server so that
                // dummy-object callbacks revoke local-only SH page
                // coverage at other clients, §4.3.2.)
                self.complete_op(txn, None);
                return;
            }
        }
        // Page- and object-granularity locks go to the page's current
        // owner; file/volume locks must reach every owning site.
        let sites = match item {
            LockableId::Page(p) => match self.client_route(txn, p) {
                Some(s) => vec![s],
                None => return,
            },
            LockableId::Object(o) => match self.client_route(txn, o.page) {
                Some(s) => vec![s],
                None => return,
            },
            LockableId::File(_) | LockableId::Volume(_) => self.owners.owners(),
        };
        if !self.txns.home.contains_key(&txn) {
            return;
        }
        for site in sites {
            let req = self.issue(txn, site, ReqCont::Lock { item, mode });
            self.send_data(req);
        }
    }

    /// A `LockGranted` reply: the op completes when no requests remain.
    pub(crate) fn client_lock_granted(&mut self, req: ReqId) {
        let Some(Request {
            txn,
            cont: ReqCont::Lock { .. },
            ..
        }) = self.settle(req)
        else {
            return;
        };
        // Other explicit-lock requests may still be outstanding.
        let lock = |r: &Request| matches!(r.cont, ReqCont::Lock { .. });
        if self.txns.home.contains_key(&txn) && self.reqs_of(txn, lock).is_empty() {
            self.complete_op(txn, None);
        }
    }

    // ------------------------------------------------------------------
    // Replies
    // ------------------------------------------------------------------

    /// A shipped page arrived (paper §4.2.3 merge rules), with the slots
    /// its fetch's record marked raced (§4.2.4).
    pub(crate) fn client_read_reply(&mut self, req: ReqId, snapshot: PageSnapshot) {
        let record = self.settle(req);
        let page = snapshot.page;
        if let Some(r) = &record {
            let rtt = self.now.since(r.issued);
            self.obs.fetch_rtt.record(rtt);
            self.obs.stage_sample(r.txn, Stage::FetchRtt, rtt);
        }
        self.obs.record(pscc_obs::EventKind::FetchDone {
            from: self.owners.owner_of(page).unwrap_or(self.site),
            item: LockableId::Page(page),
        });
        // A fetch already retired (its transaction aborted, or this is a
        // duplicate) took its race marks with it: the owner's marks alone
        // could make a called-back object available again, so the copy
        // is dropped. No purge notice: the owner's entry for it is only
        // conservative, and a duplicate's `ship_seq` names the live copy.
        let Some(Request {
            txn,
            cont:
                ReqCont::Fetch {
                    oid,
                    then_write,
                    raced,
                },
            ..
        }) = record
        else {
            return;
        };
        if !raced.is_empty() {
            self.stats.callback_races += 1;
            self.obs.record(pscc_obs::EventKind::Race {
                item: LockableId::Page(page),
                kind: pscc_obs::event::RaceKind::CallbackLock,
            });
        }
        let evicted = self.cache.install(
            page,
            snapshot.image,
            snapshot.avail,
            snapshot.ship_seq,
            &raced,
        );
        self.send_purges(evicted);
        if !self.txn_is_running(txn) {
            return;
        }
        match then_write {
            None => {
                // `None` here legitimately means the object was deleted
                // (its slot is dead on the shipped page).
                let data = self.cache.read_object(oid);
                self.finish_read(txn, oid, data);
            }
            Some(bytes) => self.client_access_locked(txn, oid, true, bytes),
        }
    }

    /// Write permission arrived; apply the update. A grant covering the
    /// page is kept for the transaction's later writes to it, unless a
    /// deescalation race (§4.2.4) voided it.
    pub(crate) fn client_write_granted(&mut self, req: ReqId, adaptive: bool) {
        let Some(Request {
            txn,
            cont:
                ReqCont::Write {
                    oid,
                    bytes,
                    deescalated,
                },
            ..
        }) = self.settle_running(req)
        else {
            return;
        };
        if adaptive && !deescalated {
            if let Some(h) = self.txns.home.get_mut(&txn) {
                h.adaptive_pages.insert(oid.page);
            }
        }
        // The page may have been evicted while the request was in flight;
        // re-fetch before applying.
        if !self.cache.object_cached(oid) {
            self.fetch(txn, oid, Some(bytes));
            return;
        }
        self.finish_write(txn, oid, bytes);
    }

    /// The owner denied a request because the transaction was chosen as
    /// a victim: abort it here at its home.
    pub(crate) fn client_req_denied(&mut self, req: ReqId, reason: AbortReason) {
        let Some(r) = self.settle(req) else {
            return;
        };
        self.abort_txn_here(r.txn, reason);
    }

    /// The owner reports our transaction was aborted as a victim there.
    pub(crate) fn client_txn_aborted(&mut self, txn: TxnId, reason: AbortReason) {
        self.abort_txn_here(txn, reason);
    }

    // ------------------------------------------------------------------
    // Routing and migration redirects (DESIGN.md §10)
    // ------------------------------------------------------------------

    /// Routes a client-role request by the local ownership directory:
    /// the current owner of `page`, or `None` after refusing an unmapped
    /// page (no site can ever serve it, so the transaction aborts rather
    /// than retry forever).
    pub(crate) fn client_route(&mut self, txn: TxnId, page: PageId) -> Option<SiteId> {
        match self.owners.try_owner(page) {
            Ok(owner) => Some(owner),
            Err(_) => {
                self.obs
                    .record(pscc_obs::EventKind::OwnershipRefused { page });
                self.abort_txn_here(txn, AbortReason::Internal);
                None
            }
        }
    }

    /// The owner this request reached no longer holds its page: range
    /// `[lo, hi)` migrated away under `layout`. Apply the move if it is
    /// news, re-point the request's record, and retry — immediately when
    /// the redirect taught us something (a newer layout or a destination
    /// other than the refusing site), with backoff when it did not (the
    /// destination simply has not activated yet; blind immediate retries
    /// would ping-pong between disagreeing sites).
    pub(crate) fn client_wrong_owner(
        &mut self,
        from: SiteId,
        req: ReqId,
        lo: u32,
        hi: u32,
        layout: u64,
        new_owner: SiteId,
    ) {
        self.stats.wrong_owner_redirects += 1;
        if !self.requests.contains_key(&req) {
            return; // the transaction ended while the redirect was in flight
        }
        let fresh = self.owners.apply_move(lo, hi, new_owner, layout);
        let dest = if fresh {
            new_owner
        } else {
            // Stale redirect: our directory is at least as new — route
            // by it. (`lo` names a page in the moved range; the file id
            // is irrelevant to range lookups.)
            let probe = PageId::new(FileId::new(VolId(self.site.0), 0), lo);
            self.owners.owner_of(probe).unwrap_or(new_owner)
        };
        let Some(r) = self.requests.get_mut(&req).filter(|r| r.retry.is_some()) else {
            return;
        };
        r.to = dest;
        // The re-routed request will take locks at `dest`; commit must
        // release them there.
        if let Some(h) = self.txns.home.get_mut(&r.txn) {
            h.participants.insert(dest);
        }
        if fresh || dest != from {
            // The stall this migration imposed on the request ends now.
            if let Some(t0) = r.redirected.take() {
                let paused = self.now.since(t0);
                self.obs.stage_sample(r.txn, Stage::MigrationPause, paused);
            }
            self.send_data(req);
        } else {
            r.redirected.get_or_insert(self.now);
            self.client_busy(from, req, self.cfg.busy_retry_hint);
        }
    }

    // ------------------------------------------------------------------
    // Overload protection: Busy refusals and backoff (DESIGN.md §6)
    // ------------------------------------------------------------------

    /// An overloaded owner refused a data request with `Busy`: back off
    /// exponentially (with deterministic jitter derived from the request
    /// id) and arm a retry timer. The request's record keeps it
    /// replayable and resumable: the eventual reply resumes it exactly as
    /// a first-try reply would.
    pub(crate) fn client_busy(
        &mut self,
        from: SiteId,
        req: ReqId,
        retry_after: pscc_common::SimDuration,
    ) {
        // A request whose transaction ended while the refusal was in
        // flight has no record: nothing left to retry.
        let Some(r) = self.requests.get_mut(&req) else {
            return;
        };
        let Some(attempt) = r.retry.as_mut() else {
            return;
        };
        *attempt = attempt.saturating_add(1);
        let attempt = *attempt;
        // Busy backoff is queue time from the request's view; the
        // interval closes when the retry finally departs.
        r.stalled.get_or_insert(self.now);
        let base = retry_after.as_micros().max(1);
        let backoff = base.saturating_mul(1 << attempt.min(6) as u64);
        // Deterministic jitter (no RNG in the engine): spread retries of
        // different requests by up to a quarter of the backoff.
        let jitter = req.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) % (backoff / 4 + 1);
        let delay = (backoff + jitter).min(self.cfg.lock_timeout_ceiling.as_micros());
        let delay = pscc_common::SimDuration::from_micros(delay);
        self.arm(TimerKind::BusyRetry { req }, delay);
        self.obs.record(pscc_obs::EventKind::BusyBackoff {
            peer: from,
            attempt,
        });
    }

    /// A Busy-retry timer fired: re-send the request if its transaction
    /// still wants it (the send re-enters credit-based flow control, so
    /// it may queue locally instead of going out).
    pub(crate) fn busy_retry_fired(&mut self, req: ReqId) {
        let Some(r) = self.requests.get_mut(&req).filter(|r| r.retry.is_some()) else {
            return;
        };
        // A retry departing after a migration stall closes its pause
        // interval (re-stamped if the destination refuses again).
        if let Some(t0) = r.redirected.take() {
            let paused = self.now.since(t0);
            self.obs.stage_sample(r.txn, Stage::MigrationPause, paused);
        }
        self.stats.busy_retries += 1;
        self.obs
            .record(pscc_obs::EventKind::BusyRetry { peer: r.to });
        self.send_data(req);
    }

    // ------------------------------------------------------------------
    // Local updates and op completion
    // ------------------------------------------------------------------

    /// Completes a write whose permission is held: installs the update
    /// into the cached copy and logs it. `bytes: None` bumps a version
    /// counter in the object's first 8 bytes. Handles the two §4.4
    /// size-change paths: objects already *forwarded* off their home page
    /// are read-modified at the owner, and size-growing updates that no
    /// longer fit the page are early-shipped (the owner installs them
    /// with forwarding).
    pub(crate) fn finish_write(&mut self, txn: TxnId, oid: Oid, bytes: Option<Vec<u8>>) {
        let Some(cur) = self.cache.read_object(oid) else {
            // Permission granted but the copy vanished (e.g. eviction
            // race): refuse gracefully; the caller may retry.
            self.complete_op(txn, None);
            return;
        };
        if pscc_storage::forward_target(&cur).is_some() {
            // Forwarded object: fetch the current bytes from the owner,
            // then log the update against them (never client-cached).
            let Some(owner) = self.client_route(txn, oid.page) else {
                return;
            };
            let req = self.issue(txn, owner, ReqCont::ForwardWrite { oid, bytes });
            self.send(owner, Message::ReadForwarded { req, txn, oid });
            return;
        }
        let new_bytes = bytes.unwrap_or_else(|| bump_version(cur.to_vec()));
        // The slice shares the cached image: holding it across the
        // update would make the update copy the whole page.
        drop(cur);
        match self.cache.apply_update(oid, &new_bytes, txn) {
            Ok(before) => {
                if let Some(h) = self.txns.home.get_mut(&txn) {
                    h.updated.insert(oid);
                }
                self.log_cache
                    .append(LogRecord::update(txn, oid, before, new_bytes));
                self.complete_op(txn, None);
            }
            Err(before) => {
                // Size-growing update that overflows the page (§4.4):
                // log it, then early-ship the page's records by purging
                // the copy — the owner installs the update, forwarding
                // the object to an overflow page if needed.
                if let Some(h) = self.txns.home.get_mut(&txn) {
                    h.updated.insert(oid);
                }
                self.log_cache
                    .append(LogRecord::update(txn, oid, before, new_bytes));
                if let Some(cp) = self.cache.purge(oid.page) {
                    self.send_purges(vec![(oid.page, cp)]);
                }
                self.complete_op(txn, None);
            }
        }
    }

    /// Completes a read, following a §4.4 forwarding tombstone to the
    /// owner when needed.
    pub(crate) fn finish_read(&mut self, txn: TxnId, oid: Oid, data: Option<PageSlice>) {
        if let Some(d) = &data {
            if pscc_storage::forward_target(d).is_some() {
                let Some(owner) = self.client_route(txn, oid.page) else {
                    return;
                };
                let req = self.issue(txn, owner, ReqCont::ForwardRead);
                self.send(owner, Message::ReadForwarded { req, txn, oid });
                return;
            }
        }
        self.complete_op(txn, data);
    }

    /// The owner answered a forwarded-object point read.
    pub(crate) fn client_object_bytes(&mut self, req: ReqId, data: Option<Vec<u8>>) {
        let Some(Request { txn, cont, .. }) = self.settle_running(req) else {
            return;
        };
        match cont {
            ReqCont::ForwardRead => self.complete_op(txn, data.map(PageSlice::from)),
            ReqCont::ForwardWrite { oid, bytes } => {
                let Some(before) = data else {
                    self.complete_op(txn, None);
                    return;
                };
                let new_bytes = bytes.unwrap_or_else(|| bump_version(before.clone()));
                if let Some(h) = self.txns.home.get_mut(&txn) {
                    h.updated.insert(oid);
                }
                self.log_cache
                    .append(LogRecord::update(txn, oid, before, new_bytes));
                self.complete_op(txn, None);
            }
            _ => {}
        }
    }

    /// Creates an object on a cached page (paper §4.4 size-changing
    /// scope: creation). Requires an explicit EX page lock and the page
    /// cached; refuses (empty `Done`) otherwise.
    pub(crate) fn client_create(&mut self, txn: TxnId, page: PageId, bytes: Vec<u8>) {
        use pscc_common::LockMode;
        if !self
            .locks
            .held_covers(txn, pscc_common::LockableId::Page(page), LockMode::Ex)
            || !self.cache.contains(page)
        {
            self.complete_op(txn, None);
            return;
        }
        let Some(slot) = self.cache.apply_create(page, &bytes, txn) else {
            self.complete_op(txn, None); // page full
            return;
        };
        let oid = Oid::new(page, slot);
        if let Some(h) = self.txns.home.get_mut(&txn) {
            h.updated.insert(oid);
        }
        self.log_cache.append(pscc_wal::LogRecord {
            txn,
            payload: pscc_wal::LogPayload::Create { oid, body: bytes },
        });
        let header = crate::engine::large::encode_header_oid(oid);
        self.complete_op(txn, Some(header.into()));
    }

    /// Deletes an object. Requires an EX lock on it and the copy cached;
    /// completes with the deleted bytes, or empty on refusal.
    pub(crate) fn client_delete(&mut self, txn: TxnId, oid: Oid) {
        use pscc_common::LockMode;
        if !self
            .locks
            .held_covers(txn, pscc_common::LockableId::Object(oid), LockMode::Ex)
        {
            self.complete_op(txn, None);
            return;
        }
        let Some(before) = self.cache.apply_delete(oid, txn) else {
            self.complete_op(txn, None);
            return;
        };
        if let Some(h) = self.txns.home.get_mut(&txn) {
            h.updated.insert(oid);
        }
        self.log_cache.append(pscc_wal::LogRecord {
            txn,
            payload: pscc_wal::LogPayload::Delete {
                oid,
                before: before.clone(),
            },
        });
        self.complete_op(txn, Some(before.into()));
    }

    /// Answers the application for the transaction's current op.
    pub(crate) fn complete_op(&mut self, txn: TxnId, data: Option<PageSlice>) {
        let Some(h) = self.txns.home.get_mut(&txn) else {
            return;
        };
        let app = h.app;
        h.current_op = None;
        self.reply_app(AppReply::Done { app, txn, data });
    }

    pub(crate) fn txn_is_running(&self, txn: TxnId) -> bool {
        self.txns
            .home
            .get(&txn)
            .is_some_and(|h| h.status == crate::txn::TxnStatus::Active)
    }

    // ------------------------------------------------------------------
    // Eviction / purge notices
    // ------------------------------------------------------------------

    /// Sends purge notices for evicted pages, replicating locks held by
    /// active local transactions and shipping dirty objects' log records
    /// early (paper §4.1.1 / §3.3).
    pub(crate) fn send_purges(&mut self, evicted: Vec<(PageId, crate::cache::CachedPage)>) {
        for (page, copy) in evicted {
            self.stats.pages_purged += 1;
            let Some(owner) = self.owners.owner_of(page) else {
                // Unmapped page (should not occur): the copy dies with
                // its locks unreplicated; the refusal is traced.
                self.obs
                    .record(pscc_obs::EventKind::OwnershipRefused { page });
                continue;
            };
            // Locks to replicate: page- and object-level locks held by
            // transactions homed here.
            let mut replicate: Vec<(TxnId, LockableId, LockMode)> = Vec::new();
            for (t, m) in self.locks.holders(LockableId::Page(page)) {
                if t.site == self.site && self.txn_is_running(t) {
                    replicate.push((t, LockableId::Page(page), m));
                }
            }
            for (t, o, m) in self.locks.object_holders_on_page(page) {
                if t.site == self.site && self.txn_is_running(t) {
                    replicate.push((t, LockableId::Object(o), m));
                }
            }
            for (t, _, _) in &replicate {
                if let Some(h) = self.txns.home.get_mut(t) {
                    h.participants.insert(owner);
                }
            }
            let log_records = self.log_cache.drain_page(page);
            // Losing the page loses any page grants on it.
            for h in self.txns.home.values_mut() {
                h.adaptive_pages.remove(&page);
            }
            self.send(
                owner,
                Message::Purge {
                    client: self.site,
                    page,
                    ship_seq: copy.ship_seq,
                    replicate,
                    log_records,
                },
            );
        }
    }

    // ------------------------------------------------------------------
    // Callback threads (paper Fig. 3; §4.1.1, §4.3.2)
    // ------------------------------------------------------------------

    /// A callback request arrived: allocate a callback thread and run the
    /// three-case protocol.
    pub(crate) fn client_callback(
        &mut self,
        from: SiteId,
        cb: CbId,
        txn: TxnId,
        target: LockableId,
    ) {
        let key: CbKey = (from, cb);
        let mut ctx = CbCtx {
            txn,
            held: Vec::new(),
            waiting: None,
        };
        match target {
            LockableId::Object(oid) => {
                let page = LockableId::Page(oid.page);
                // Case 1: nobody here uses the page — purge it outright.
                if self.locks.try_acquire_single(txn, page, LockMode::Ex) {
                    ctx.held.push(page);
                    self.cb_ctxs.insert(key, ctx);
                    self.finish_cb_whole(key, page, true);
                    return;
                }
                // Hierarchical path: IX on the page (may block on a
                // local-only SH page lock, §4.3.2), then EX on the object.
                let (a, _) = self.locks.acquire_single(txn, page, LockMode::Ix);
                match a {
                    Acquire::Granted => {
                        ctx.held.push(page);
                        self.cb_ctxs.insert(key, ctx);
                        self.cb_ctx_page_locked(key, txn, oid);
                    }
                    Acquire::Wait(t) => {
                        ctx.waiting = Some(t);
                        self.cb_ctxs.insert(key, ctx);
                        self.cb_blocked_report(key, page, LockMode::Ix, txn);
                        self.park(t, txn, LockCont::CbCtxPage { key, txn, oid });
                    }
                }
            }
            LockableId::Page(_) | LockableId::File(_) | LockableId::Volume(_) => {
                self.cb_whole_acquire(key, ctx, txn, target);
            }
        }
    }

    fn cb_whole_acquire(&mut self, key: CbKey, mut ctx: CbCtx, txn: TxnId, target: LockableId) {
        let (a, _) = self.locks.acquire_single(txn, target, LockMode::Ex);
        match a {
            Acquire::Granted => {
                ctx.held.push(target);
                self.cb_ctxs.insert(key, ctx);
                self.finish_cb_whole(key, target, true);
            }
            Acquire::Wait(t) => {
                ctx.waiting = Some(t);
                self.cb_ctxs.insert(key, ctx);
                self.cb_blocked_report(key, target, LockMode::Ex, txn);
                self.park(t, txn, LockCont::CbCtxWhole { key, target });
            }
        }
    }

    /// Reports a blocked callback to the owner with the conflicting local
    /// holders (paper §4.1.1: "sends the server a list of all local
    /// transactions holding locks on X").
    fn cb_blocked_report(&mut self, key: CbKey, item: LockableId, mode: LockMode, txn: TxnId) {
        self.stats.callbacks_blocked += 1;
        let holders: Vec<(TxnId, LockableId, LockMode)> = self
            .locks
            .conflicting_holders(item, mode, txn)
            .into_iter()
            // Local, still-active transactions only: a committing
            // holder's locks are about to be released everywhere, and
            // replicating them after its commit reached the owner would
            // strand them there forever.
            .filter(|(t, _)| t.site == self.site && self.txn_is_running(*t))
            .map(|(t, m)| (t, item, m))
            .collect();
        let (owner, cb) = key;
        // The reported holders' locks are about to be replicated at the
        // owner; their commits must release them there, so the owner
        // becomes a participant of each.
        for (t, _, _) in &holders {
            if let Some(h) = self.txns.home.get_mut(t) {
                h.participants.insert(owner);
            }
        }
        self.send(owner, Message::CbBlocked { cb, holders });
    }

    /// IX page lock acquired; proceed to the object EX (§4.3.2).
    pub(crate) fn cb_ctx_page_locked(&mut self, key: CbKey, txn: TxnId, oid: Oid) {
        let Some(ctx) = self.cb_ctxs.get_mut(&key) else {
            return;
        };
        ctx.waiting = None;
        ctx.held.push(LockableId::Page(oid.page));
        let item = LockableId::Object(oid);
        let (a, _) = self.locks.acquire_single(txn, item, LockMode::Ex);
        match a {
            Acquire::Granted => self.cb_ctx_obj_locked(key, oid),
            Acquire::Wait(t) => {
                if let Some(ctx) = self.cb_ctxs.get_mut(&key) {
                    ctx.waiting = Some(t);
                }
                self.cb_blocked_report(key, item, LockMode::Ex, txn);
                self.park(t, txn, LockCont::CbCtxObj { key, oid });
            }
        }
    }

    /// Object EX acquired: register races, invalidate, acknowledge.
    pub(crate) fn cb_ctx_obj_locked(&mut self, key: CbKey, oid: Oid) {
        let Some(ctx) = self.cb_ctxs.get_mut(&key) else {
            return;
        };
        ctx.waiting = None;
        ctx.held.push(LockableId::Object(oid));
        self.mark_fetch_races(oid);
        self.cache.mark_unavailable(oid);
        self.stats.callbacks_object_only += 1;
        self.finish_cb(key, false);
    }

    /// Whole-granule EX acquired: purge and acknowledge.
    pub(crate) fn cb_ctx_whole_locked(&mut self, key: CbKey, target: LockableId) {
        let Some(ctx) = self.cb_ctxs.get_mut(&key) else {
            return;
        };
        ctx.waiting = None;
        ctx.held.push(target);
        self.finish_cb_whole(key, target, false);
    }

    /// Purges the target granule and completes the callback thread.
    /// `fast` marks the immediate whole-page grab of case 1.
    fn finish_cb_whole(&mut self, key: CbKey, target: LockableId, fast: bool) {
        match target {
            LockableId::Page(p) => self.purge_page(p),
            LockableId::File(f) => {
                for p in self.cache.pages_of_file(f) {
                    self.purge_page(p);
                }
            }
            LockableId::Volume(v) => {
                for p in self.cache.pages_of_volume(v) {
                    self.purge_page(p);
                }
            }
            LockableId::Object(_) => unreachable!("objects use finish_cb"),
        }
        if fast {
            self.stats.callbacks_purged_page += 1;
        }
        self.finish_cb(key, true);
    }

    /// Purges `page` from the cache; any page grants on it die with it.
    pub(crate) fn purge_page(&mut self, page: PageId) {
        if self.cache.purge(page).is_some() {
            self.stats.pages_purged += 1;
        }
        for h in self.txns.home.values_mut() {
            h.adaptive_pages.remove(&page);
        }
    }

    /// Releases the callback thread's locks and acks the owner (paper
    /// footnote 2: "any locks that have been acquired by the callback
    /// thread are released and the callback thread itself is
    /// deallocated").
    fn finish_cb(&mut self, key: CbKey, purged_page: bool) {
        let Some(ctx) = self.cb_ctxs.remove(&key) else {
            return;
        };
        if !ctx.held.is_empty() {
            self.obs
                .record(pscc_obs::EventKind::LocksReleased { txn: ctx.txn });
        }
        let mut grants = Vec::new();
        for item in ctx.held.iter().rev() {
            grants.extend(self.locks.release_one(ctx.txn, *item));
        }
        let (owner, cb) = key;
        self.send(owner, Message::CbOk { cb, purged_page });
        self.process_grants(grants);
    }

    /// Drops a callback thread without acknowledging (owner cancelled it
    /// or its wait timed out).
    pub(crate) fn cancel_cb_ctx(&mut self, key: CbKey) {
        let Some(ctx) = self.cb_ctxs.remove(&key) else {
            return;
        };
        let mut grants = Vec::new();
        if let Some(ticket) = ctx.waiting {
            self.unpark(ticket);
            grants.extend(self.locks.cancel(ticket));
        }
        if !ctx.held.is_empty() {
            self.obs
                .record(pscc_obs::EventKind::LocksReleased { txn: ctx.txn });
        }
        for item in ctx.held.iter().rev() {
            grants.extend(self.locks.release_one(ctx.txn, *item));
        }
        self.process_grants(grants);
    }

    // ------------------------------------------------------------------
    // Deescalation, client side (paper §4.1.2)
    // ------------------------------------------------------------------

    /// The owner asks this client to give up its adaptive locks on
    /// `page` and report local EX object locks.
    pub(crate) fn client_deescalate(&mut self, from: SiteId, de: DeId, page: PageId) {
        // All local transactions lose their adaptive grants on the page.
        let mut revoked: Vec<TxnId> = Vec::new();
        for (t, h) in &mut self.txns.home {
            if h.adaptive_pages.remove(&page) {
                revoked.push(*t);
            }
        }
        for t in revoked {
            self.obs.record(pscc_obs::EventKind::AdaptiveRevoke {
                txn: t,
                item: LockableId::Page(page),
            });
        }
        // Deescalation race: in-flight write requests for this page may
        // come back with a stale adaptive bit — void it (§4.2.4).
        for r in self.requests.values_mut() {
            if let ReqCont::Write {
                oid, deescalated, ..
            } = &mut r.cont
            {
                if oid.page == page {
                    *deescalated = true;
                }
            }
        }
        let ex_locks: Vec<(TxnId, Oid)> = self
            .locks
            .ex_object_holders_on_page(page)
            .into_iter()
            .filter(|(t, _)| t.site == self.site && self.txn_is_running(*t))
            .collect();
        // The replicated locks must be released at the owner when their
        // transactions end.
        for (t, _) in &ex_locks {
            if let Some(h) = self.txns.home.get_mut(t) {
                h.participants.insert(from);
            }
        }
        self.send(from, Message::DeescalateReply { de, page, ex_locks });
    }
}

/// Synthesized update: bump a little-endian counter in the first 8 bytes.
fn bump_version(mut bytes: Vec<u8>) -> Vec<u8> {
    if bytes.len() >= 8 {
        let mut v = u64::from_le_bytes(bytes[0..8].try_into().expect("8 bytes"));
        v = v.wrapping_add(1);
        bytes[0..8].copy_from_slice(&v.to_le_bytes());
    } else if !bytes.is_empty() {
        bytes[0] = bytes[0].wrapping_add(1);
    }
    bytes
}

#[cfg(test)]
mod tests {
    use super::bump_version;

    #[test]
    fn bump_version_increments_counter() {
        let b = bump_version(vec![0u8; 16]);
        assert_eq!(u64::from_le_bytes(b[0..8].try_into().unwrap()), 1);
        let b2 = bump_version(b);
        assert_eq!(u64::from_le_bytes(b2[0..8].try_into().unwrap()), 2);
    }

    #[test]
    fn bump_version_short_objects() {
        assert_eq!(bump_version(vec![7u8, 1]), vec![8u8, 1]);
        assert_eq!(bump_version(vec![]), Vec::<u8>::new());
    }
}
