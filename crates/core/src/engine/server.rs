//! Owner-role logic: fetch and write-permission requests, page shipping
//! with the §4.2.3 availability-marking rule, callback operations with
//! blocked-lock replication and deadlock detection (§4.2.1), adaptive
//! lock grants and deescalation (§4.1.2), hierarchical callbacks with
//! second-objective violation redo (§4.3.2), and purge handling with
//! purge-race detection (§4.2.4).

use super::{CbDone, CbOp, DeOp, DiskCont, LockCont, PeerServer, TimerKind};
use crate::msg::{CbId, DeId, DiskOp, Message, ReqId};
use pscc_common::hash::HashSet;
use pscc_common::{ids::DUMMY_SLOT, LockMode, LockableId, Oid, PageId, SiteId, Stage, TxnId};
use pscc_lockmgr::Acquire;
use pscc_storage::{AvailMask, PageSnapshot, SlottedPage};
use pscc_wal::LogRecord;

impl PeerServer {
    // ------------------------------------------------------------------
    // Ownership fence (DESIGN.md §10)
    // ------------------------------------------------------------------

    /// Gate at the top of every owner-role data path: is this site still
    /// the authoritative owner of `page`?
    ///
    /// * **Unmapped** page → typed refusal ([`Message::ReqDenied`]): no
    ///   retry can ever succeed, so the requesting transaction aborts.
    /// * **Owned elsewhere** (the range migrated away) → a remote
    ///   requester gets [`Message::WrongOwner`] carrying the newer
    ///   layout and re-routes; this site's own client role raced its
    ///   (already updated) directory, so the request is just forwarded.
    /// * **Mid-migration** (owned here, inside a frozen range) → local
    ///   work parks behind the migration; remote work is shed with
    ///   [`Message::Busy`], and the backed-off retry usually arrives
    ///   after commit and redirects.
    ///
    /// Returns `true` when the request may proceed here.
    pub(crate) fn server_owner_fence(
        &mut self,
        from: SiteId,
        req: ReqId,
        page: PageId,
        msg: Message,
    ) -> bool {
        match self.owners.try_owner(page) {
            Err(_) => {
                self.obs
                    .record(pscc_obs::EventKind::OwnershipRefused { page });
                self.send(
                    from,
                    Message::ReqDenied {
                        req,
                        reason: pscc_common::AbortReason::Internal,
                    },
                );
                false
            }
            Ok(owner) if owner != self.site => {
                if from == self.site {
                    // Our own request: its record now names the new
                    // owner, which joins the transaction's participant
                    // set so commit releases the locks taken there.
                    self.stats.wrong_owner_redirects += 1;
                    if let Some(r) = self.requests.get_mut(&req) {
                        r.to = owner;
                    }
                    if let Some(txn) = msg.txn_id() {
                        if let Some(h) = self.txns.home.get_mut(&txn) {
                            h.participants.insert(owner);
                        }
                    }
                    self.send(owner, msg);
                } else {
                    let (lo, hi, new_owner) =
                        self.owners.locate(page).expect("owned page has a range");
                    self.send(
                        from,
                        Message::WrongOwner {
                            req,
                            lo,
                            hi,
                            layout: self.owners.version(),
                            new_owner,
                        },
                    );
                }
                false
            }
            Ok(_) => {
                if from == self.site {
                    !self.queue_if_migrating(page, || crate::msg::Input::Msg { from, msg })
                } else if self
                    .migrating
                    .as_ref()
                    .is_some_and(|m| (m.lo..m.hi).contains(&page.page))
                {
                    // The freeze must drain; `Busy` (not a queue) keeps
                    // the source's admission table empty-able: like every
                    // verdict, it hands back the slot taken at admission.
                    self.stats.requests_shed += 1;
                    self.obs
                        .record(pscc_obs::EventKind::RequestShed { peer: from });
                    self.send(
                        from,
                        Message::Busy {
                            req,
                            retry_after: self.cfg.busy_retry_hint,
                        },
                    );
                    false
                } else {
                    true
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Reads (paper §4.1.1)
    // ------------------------------------------------------------------

    /// A fetch: SH on the protocol's granule for `oid`, then ship.
    pub(crate) fn server_read(&mut self, req: ReqId, from: SiteId, txn: TxnId, oid: Oid) {
        if !self.server_owner_fence(from, req, oid.page, Message::ReadObj { req, txn, oid }) {
            return;
        }
        self.txns.spread(txn);
        let work = || crate::msg::Input::Msg {
            from,
            msg: Message::ReadObj { req, txn, oid },
        };
        if self.queue_if_deescalating(oid.page, work)
            || self.start_deescalation_if_needed(oid.page, txn, work)
        {
            return;
        }
        let cont = LockCont::ServerRead {
            req,
            from,
            txn,
            oid,
        };
        self.lock_or_park(txn, self.cfg.protocol.granule(oid), LockMode::Sh, cont);
    }

    /// The read's lock is held: ship. Under PS the page ships with no
    /// requested object, because the §4.2.3 marking rule's condition 1
    /// and the §4.3.2 second-objective check are object-granularity
    /// rules.
    pub(crate) fn server_read_locked(&mut self, req: ReqId, from: SiteId, txn: TxnId, oid: Oid) {
        let requested = match self.cfg.protocol.granule(oid) {
            LockableId::Object(o) => Some(o),
            _ => None,
        };
        self.ship_or_read(req, from, txn, oid.page, requested);
    }

    /// Ships the page, going to disk first if it is not buffer-resident.
    fn ship_or_read(
        &mut self,
        req: ReqId,
        from: SiteId,
        txn: TxnId,
        page: PageId,
        requested: Option<Oid>,
    ) {
        if self.touch_resident(page, false) {
            self.server_ship(req, from, txn, page, requested);
        } else {
            self.disk(
                DiskOp::ReadPage(page),
                DiskCont::Ship {
                    req,
                    from,
                    txn,
                    page,
                    requested,
                },
            );
        }
    }

    /// Builds the snapshot under the §4.2.3 marking rule and ships it.
    pub(crate) fn server_ship(
        &mut self,
        req: ReqId,
        from: SiteId,
        txn: TxnId,
        page: PageId,
        requested: Option<Oid>,
    ) {
        if !self.txns.is_active(txn) {
            return; // aborted while waiting for the disk (slot released)
        }
        let Some(image) = self.volume.page(page).cloned() else {
            // No such page: the request dies silently (the requester's
            // lock timeout handles it), but its admission slot must not.
            self.admitted.remove(&(from, req));
            self.obs.record(pscc_obs::EventKind::StaleDrop {
                what: "ship of a missing page",
            });
            return;
        };
        let avail = self.ship_marks(&image, page, requested, txn.site);
        // Second-objective violation (§4.3.2): shipping the *requested*
        // object to a third client while a callback on it is pending
        // means the callback must be redone once its upgrade completes.
        if let Some(o) = requested {
            for cb in self.page_table.callbacks(page) {
                let op = self.cb_ops.get_mut(cb).expect("a listed callback is open");
                if op.target == LockableId::Object(o) && op.txn.site != txn.site {
                    op.violated = true;
                }
            }
        }
        let ship_seq = self.page_table.record_ship(page, from);
        self.stats.pages_shipped += 1;
        self.send(
            from,
            Message::ReadReply {
                req,
                snapshot: PageSnapshot {
                    page,
                    image,
                    avail,
                    ship_seq,
                },
            },
        );
    }

    /// The §4.2.3 availability marks of `page`'s `image` shipped to a
    /// transaction of `requester`. A live object (or the dummy, §4.3.2)
    /// other than the `requested` one ships unavailable when a
    /// transaction from another client holds it EX (condition 2) or has
    /// a callback pending on it (condition 3). Condition 2 is one pass
    /// over the page's objects that have lock state, condition 3 one over
    /// the page's open callbacks.
    pub(crate) fn ship_marks(
        &self,
        image: &SlottedPage,
        page: PageId,
        requested: Option<Oid>,
        requester: SiteId,
    ) -> AvailMask {
        let mut avail = AvailMask::all_available(image.slot_count());
        let marked =
            |o: Oid| requested != Some(o) && (o.slot == DUMMY_SLOT || image.get(o.slot).is_some());
        for (t, o) in self.locks.ex_object_locks_on_page(page) {
            if t.site != requester && marked(o) {
                avail.set_unavailable(o.slot);
            }
        }
        for op in self.page_callbacks(page) {
            if let LockableId::Object(o) = op.target {
                if op.txn.site != requester && marked(o) {
                    avail.set_unavailable(o.slot);
                }
            }
        }
        avail
    }

    /// The open callback operations on `page`'s objects.
    fn page_callbacks(&self, page: PageId) -> impl Iterator<Item = &CbOp> {
        let cbs = if self.cb_ops.is_empty() {
            &[]
        } else {
            self.page_table.callbacks(page)
        };
        cbs.iter().map(|cb| &self.cb_ops[cb])
    }

    // ------------------------------------------------------------------
    // Writes and callbacks (paper §4.1.1–4.1.2, Fig. 3)
    // ------------------------------------------------------------------

    /// A write-permission request: EX on the protocol's granule for
    /// `oid`, then call that granule back.
    pub(crate) fn server_write(&mut self, req: ReqId, from: SiteId, txn: TxnId, oid: Oid) {
        if !self.server_owner_fence(from, req, oid.page, Message::WriteObj { req, txn, oid }) {
            return;
        }
        self.txns.spread(txn);
        let work = || crate::msg::Input::Msg {
            from,
            msg: Message::WriteObj { req, txn, oid },
        };
        if self.queue_if_deescalating(oid.page, work)
            || self.start_deescalation_if_needed(oid.page, txn, work)
        {
            return;
        }
        let cont = LockCont::ServerWrite {
            req,
            from,
            txn,
            oid,
        };
        self.lock_or_park(txn, self.cfg.protocol.granule(oid), LockMode::Ex, cont);
    }

    pub(crate) fn server_write_locked(&mut self, req: ReqId, from: SiteId, txn: TxnId, oid: Oid) {
        if !self.txns.is_active(txn) {
            return;
        }
        self.start_callbacks(
            txn,
            self.cfg.protocol.granule(oid),
            CbDone::Write { req, to: from, oid },
        );
    }

    /// Fans out callbacks to every caching client except the requester's
    /// home; completes immediately when there are none.
    pub(crate) fn start_callbacks(&mut self, txn: TxnId, target: LockableId, done: CbDone) {
        let targets: Vec<SiteId> = match target {
            LockableId::Object(Oid { page, .. }) | LockableId::Page(page) => {
                self.page_table.clients_except(page, txn.site)
            }
            LockableId::File(f) => self
                .page_table
                .file_clients(f)
                .into_iter()
                .filter(|s| *s != txn.site)
                .collect(),
            LockableId::Volume(v) => self
                .page_table
                .volume_clients(v)
                .into_iter()
                .filter(|s| *s != txn.site)
                .collect(),
        };
        let cb = self.fresh_cb();
        let (remote, local): (Vec<SiteId>, Vec<SiteId>) =
            targets.into_iter().partition(|s| *s != self.site);
        let op = CbOp {
            txn,
            target,
            pending: remote.iter().copied().collect::<HashSet<_>>(),
            all_purged: true,
            violated: false,
            upgrade: None,
            done,
            started: self.now,
        };
        self.cb_ops.insert(cb, op);
        if let LockableId::Object(o) = target {
            self.page_table.open_callback(o.page, cb);
        }
        // This site's own cached copy (the owner in its client role) is
        // invalidated synchronously: the requester's EX lock in this very
        // table already excludes any conflicting local holder, so there
        // is nothing to wait for.
        if !local.is_empty() {
            let purged = self.self_callback(txn, target);
            if let Some(op) = self.cb_ops.get_mut(&cb) {
                op.all_purged &= purged;
            }
            if purged {
                self.drop_copies(target, self.site);
            }
        }
        if remote.is_empty() {
            self.try_finish_cb_op(cb);
            return;
        }
        self.stats.callbacks_sent += remote.len() as u64;
        if self.cfg.leases_enabled {
            // Bound the fan-out's response time: clients still pending
            // when this fires are declared crashed (they may heartbeat
            // yet be wedged mid-callback). This also caps how long one
            // stalled client can hold up the whole copy-table pass
            // (DESIGN.md §6).
            let delay = self.cfg.callback_response_timeout;
            self.arm(TimerKind::CbResponse { cb }, delay);
        }
        for site in remote {
            self.obs.record(pscc_obs::EventKind::CallbackSent {
                to: site,
                txn,
                item: target,
            });
            self.send(site, Message::Callback { cb, txn, target });
        }
    }

    /// Invalidates this site's own cached copy on behalf of `txn`'s
    /// callback. Returns whether the whole granule was purged.
    fn self_callback(&mut self, txn: TxnId, target: LockableId) -> bool {
        match target {
            LockableId::Object(oid) => {
                let in_use = self
                    .locks
                    .holders(LockableId::Page(oid.page))
                    .iter()
                    .map(|(t, _)| *t)
                    .chain(
                        self.locks
                            .object_holders_on_page(oid.page)
                            .iter()
                            .map(|(t, _, _)| *t),
                    )
                    .any(|t| t.site == self.site && t != txn);
                // A read reply already in flight to ourselves could
                // resurrect the object.
                self.mark_fetch_races(oid);
                if in_use {
                    self.cache.mark_unavailable(oid);
                    self.stats.callbacks_object_only += 1;
                    false
                } else {
                    self.purge_page(oid.page);
                    self.stats.callbacks_purged_page += 1;
                    true
                }
            }
            LockableId::Page(p) => {
                self.purge_page(p);
                true
            }
            LockableId::File(f) => {
                for p in self.cache.pages_of_file(f) {
                    self.cache.purge(p);
                    self.stats.pages_purged += 1;
                }
                true
            }
            LockableId::Volume(v) => {
                for p in self.cache.pages_of_volume(v) {
                    self.cache.purge(p);
                    self.stats.pages_purged += 1;
                }
                true
            }
        }
    }

    /// A callback acknowledgment (paper Fig. 3): update the copy table
    /// when the whole page (or file) was purged, and try to complete.
    pub(crate) fn server_cb_ok(&mut self, cb: CbId, from: SiteId, purged_page: bool) {
        let Some(op) = self.cb_ops.get_mut(&cb) else {
            return; // cancelled (calling-back transaction aborted)
        };
        if !op.pending.remove(&from) {
            return;
        }
        op.all_purged &= purged_page;
        let (cb_txn, cb_item) = (op.txn, op.target);
        let rtt = self.now.since(op.started);
        self.obs.callback_rtt.record(rtt);
        self.obs.stage_sample(cb_txn, Stage::CallbackRtt, rtt);
        self.obs.record(pscc_obs::EventKind::CallbackPurged {
            from,
            txn: cb_txn,
            item: cb_item,
            purged_page,
        });
        let Some(op) = self.cb_ops.get_mut(&cb) else {
            // The operation vanished mid-ack (e.g. cancelled by an abort
            // the tracing above interleaved with); drop, don't panic.
            self.obs.record(pscc_obs::EventKind::StaleDrop {
                what: "cb_ok without operation",
            });
            return;
        };
        if purged_page {
            let target = op.target;
            self.drop_copies(target, from);
            self.stats.callbacks_purged_page += 1;
        }
        self.try_finish_cb_op(cb);
    }

    /// Forgets `client`'s cached copies of `target` in the copy table
    /// (it purged them for a callback).
    fn drop_copies(&mut self, target: LockableId, client: SiteId) {
        match target {
            LockableId::Object(o) => self.page_table.drop_entry(o.page, client),
            LockableId::Page(p) => self.page_table.drop_entry(p, client),
            LockableId::File(f) => self.page_table.drop_file_entries(f, client),
            LockableId::Volume(v) => {
                for f in self.volume.files() {
                    if f.vol == v {
                        self.page_table.drop_file_entries(f, client);
                    }
                }
            }
        }
    }

    /// A callback blocked at a client: replicate the conflict at the
    /// server via the downgrade dance and invoke the deadlock detector
    /// (paper §4.2.1, §4.3.1, §4.3.2). Another client's earlier report
    /// may have the re-upgrade in flight already; the new holders are
    /// replicated all the same, and that upgrade covers re-acquisition.
    pub(crate) fn server_cb_blocked(
        &mut self,
        from: SiteId,
        cb: CbId,
        holders: Vec<(TxnId, LockableId, LockMode)>,
    ) {
        let Some(op) = self.cb_ops.get(&cb) else {
            return;
        };
        let (cbtxn, target) = (op.txn, op.target);
        self.obs.record(pscc_obs::EventKind::CallbackBlocked {
            from,
            txn: cbtxn,
            item: target,
        });
        let page_level = holders
            .iter()
            .any(|(_, item, _)| matches!(item, LockableId::Page(_)));
        match target {
            LockableId::Object(oid) if page_level => {
                // §4.3.2: page-level conflict. Downgrade page and object,
                // replicate the SH page locks, upgrade at the page level
                // only.
                let page = LockableId::Page(oid.page);
                self.downgrade_held(cbtxn, page, LockMode::Ix, LockMode::Is);
                self.downgrade_held(cbtxn, target, LockMode::Ex, LockMode::Sh);
                self.replicate(&holders, target);
                self.issue_upgrade(cb, cbtxn, page, LockMode::Ix);
                // The object queue may now admit a sneaker (§4.3.2).
                let grants = self.locks.rescan(target);
                self.process_grants(grants);
            }
            // Object-level conflict (Fig. 4) and a page callback: EX→SH,
            // replicate, upgrade — atomically, so nobody slips past.
            // §4.3.1: an EX file or volume goes to SIX instead.
            _ => {
                let to = match target {
                    LockableId::File(_) | LockableId::Volume(_) => LockMode::Six,
                    _ => LockMode::Sh,
                };
                self.downgrade_held(cbtxn, target, LockMode::Ex, to);
                self.replicate(&holders, target);
                self.issue_upgrade(cb, cbtxn, target, LockMode::Ex);
            }
        }
        self.check_deadlocks();
    }

    /// Downgrades `txn`'s lock on `item` to `to` if it is held in `from`.
    fn downgrade_held(&mut self, txn: TxnId, item: LockableId, from: LockMode, to: LockMode) {
        if self.locks.held_mode(txn, item) == Some(from) {
            self.locks.downgrade(txn, item, to);
            self.obs
                .record(pscc_obs::EventKind::LockDowngrade { txn, item });
        }
    }

    /// Replicates the reported local holders of a blocked callback on
    /// `target` here. Under a page or object callback a reading holder
    /// is replicated in SH, capped there: it only needs to carry the
    /// waits-for edge; a holder whose local lock is stronger has (or
    /// will have) its own request at the server (Fig. 4 grants "a SH
    /// lock on X on behalf of thread C1,S"). Under a file or volume
    /// callback (§4.3.1) every holder is replicated in IS, the one mode
    /// compatible with the caller's SIX: local-only file locks are
    /// intentions from cached reads.
    fn replicate(&mut self, holders: &[(TxnId, LockableId, LockMode)], target: LockableId) {
        let coarse = matches!(target, LockableId::File(_) | LockableId::Volume(_));
        for &(t, item, m) in holders {
            if self.replicable(t) {
                let m = if m.is_read() && !coarse {
                    LockMode::Sh
                } else {
                    LockMode::Is
                };
                self.locks.force_grant(t, item, m);
            }
        }
    }

    /// Whether a holder reported by a client can be replicated here (it
    /// must still be an active transaction we know or can spread).
    fn replicable(&mut self, t: TxnId) -> bool {
        if t.site == self.site {
            return self.txn_is_running(t);
        }
        self.txns.spread(t);
        true
    }

    /// Re-acquires `mode` on `item` for the callback operation `cb`'s
    /// transaction, unless the operation is gone or has an upgrade in
    /// flight already; a wait parks as `CbUpgrade`.
    fn issue_upgrade(&mut self, cb: CbId, txn: TxnId, item: LockableId, mode: LockMode) {
        if self.cb_ops.get(&cb).is_none_or(|o| o.upgrade.is_some()) {
            return;
        }
        let (a, _) = self.locks.acquire_single(txn, item, mode);
        match a {
            Acquire::Granted => {
                let _ = self.locks.release_one(txn, item); // undo count bump
                self.server_cb_upgrade_done(cb);
            }
            Acquire::Wait(t) => {
                self.park(t, txn, LockCont::CbUpgrade { cb });
                if let Some(o) = self.cb_ops.get_mut(&cb) {
                    o.upgrade = Some(t);
                }
            }
        }
    }

    /// A server-side re-upgrade finished. For the hierarchical page-level
    /// dance, the object lock must be re-upgraded next (§4.3.2).
    pub(crate) fn server_cb_upgrade_done(&mut self, cb: CbId) {
        let Some(op) = self.cb_ops.get_mut(&cb) else {
            return;
        };
        op.upgrade = None;
        let cbtxn = op.txn;
        let target = op.target;
        if let LockableId::Object(oid) = target {
            let obj = LockableId::Object(oid);
            if self.locks.held_mode(cbtxn, obj) != Some(LockMode::Ex) {
                self.issue_upgrade(cb, cbtxn, obj, LockMode::Ex);
                if self.cb_ops.get(&cb).is_some_and(|o| o.upgrade.is_some()) {
                    return;
                }
            }
        }
        self.try_finish_cb_op(cb);
    }

    /// Completes a callback operation once all acks are in and any
    /// re-upgrade is done; redoes it on a second-objective violation.
    pub(crate) fn try_finish_cb_op(&mut self, cb: CbId) {
        let (ready, violated) = match self.cb_ops.get(&cb) {
            Some(op) => (op.pending.is_empty() && op.upgrade.is_none(), op.violated),
            None => return,
        };
        if !ready {
            return;
        }
        let op = self.close_cb(cb).expect("checked above");
        if violated {
            // Redo the whole callback operation (paper §4.3.2).
            self.stats.callback_redos += 1;
            self.obs.record(pscc_obs::EventKind::Race {
                item: op.target,
                kind: pscc_obs::event::RaceKind::CallbackRedo,
            });
            self.start_callbacks(op.txn, op.target, op.done);
            return;
        }
        match op.done {
            CbDone::Write { req, to, oid } => {
                let adaptive = self.cfg.protocol.adaptive_locking()
                    && op.all_purged
                    && self.can_grant_adaptive(oid.page, op.txn);
                // A write at page granularity holds the EX page lock, so
                // its grant covers the page like an adaptive one.
                let page_lock = matches!(op.target, LockableId::Page(_));
                if adaptive {
                    self.locks.set_adaptive(op.txn, oid.page);
                    self.stats.adaptive_grants += 1;
                    self.obs.record(pscc_obs::EventKind::AdaptiveGrant {
                        txn: op.txn,
                        item: LockableId::Page(oid.page),
                    });
                }
                // Audited (crates/obs/src/audit.rs): a source must never
                // ack a write for a page it has committed away.
                self.obs
                    .record(pscc_obs::EventKind::WriteAck { page: oid.page, to });
                self.send(
                    to,
                    Message::WriteGranted {
                        req,
                        adaptive: adaptive || page_lock,
                    },
                );
            }
            CbDone::Lock { req, to } => {
                self.send(to, Message::LockGranted { req });
            }
        }
    }

    /// Retires callback operation `cb`: the one place an operation
    /// leaves `cb_ops` and its page's record.
    pub(crate) fn close_cb(&mut self, cb: CbId) -> Option<CbOp> {
        let op = self.cb_ops.remove(&cb)?;
        if let LockableId::Object(o) = op.target {
            self.page_table.close_callback(o.page, cb);
        }
        Some(op)
    }

    /// Adaptive grant precondition (§4.1.2): no other client caches the
    /// page, and no transaction from another client holds locks on the
    /// page or its objects.
    fn can_grant_adaptive(&self, page: PageId, txn: TxnId) -> bool {
        if self.page_table.cached_elsewhere(page, txn.site) {
            return false;
        }
        let other_site = |t: &TxnId| t.site != txn.site;
        if self
            .locks
            .holders(LockableId::Page(page))
            .iter()
            .any(|(t, m)| other_site(t) && !m.is_intention())
        {
            return false;
        }
        if self
            .locks
            .object_holders_on_page(page)
            .iter()
            .any(|(t, _, _)| other_site(t))
        {
            return false;
        }
        // A request from another client already *waiting* on the page or
        // one of its objects would, once granted, bypass the deescalation
        // check — so it also forbids the adaptive grant.
        if self.locks.waiters_on_page(page).iter().any(other_site) {
            return false;
        }
        // No pending callbacks on the page's objects by others.
        !self.page_callbacks(page).any(|op| other_site(&op.txn))
    }

    /// A callback wait timed out at a client: abort the calling-back
    /// transaction (SHORE's timeout resolution, §5.5).
    pub(crate) fn server_cb_timeout(&mut self, cb: CbId) {
        let Some(op) = self.cb_ops.get(&cb) else {
            return;
        };
        let txn = op.txn;
        self.abort_txn_here(txn, pscc_common::AbortReason::LockTimeout);
    }

    // ------------------------------------------------------------------
    // Deescalation, owner side (paper §4.1.2)
    // ------------------------------------------------------------------

    /// Queues the work item if a deescalation for its page is in flight.
    /// `work` is called only then.
    pub(crate) fn queue_if_deescalating(
        &mut self,
        page: PageId,
        work: impl FnOnce() -> crate::msg::Input,
    ) -> bool {
        if self.de_ops.is_empty() {
            return false;
        }
        let Some(de) = self.page_table.deescalation(page) else {
            return false;
        };
        let op = self
            .de_ops
            .get_mut(&de)
            .expect("a listed deescalation is open");
        op.queued.push(work());
        true
    }

    /// Starts deescalation when a transaction from another client holds
    /// adaptive locks on the page. Returns `true` if the work was
    /// deferred; `work` is called only then.
    pub(crate) fn start_deescalation_if_needed(
        &mut self,
        page: PageId,
        txn: TxnId,
        work: impl FnOnce() -> crate::msg::Input,
    ) -> bool {
        let holder_site = (self.locks.adaptive_locks(page))
            .map(|t| t.site)
            .find(|s| *s != txn.site);
        let Some(client) = holder_site else {
            return false;
        };
        let de = self.fresh_de();
        self.stats.deescalations += 1;
        self.obs.record(pscc_obs::EventKind::Deescalated {
            peer: client,
            item: LockableId::Page(page),
        });
        self.de_ops.insert(
            de,
            DeOp {
                page,
                client,
                queued: vec![work()],
            },
        );
        self.page_table.open_deescalation(page, de);
        if client == self.site {
            // The adaptive holder is this very site (its own local
            // transactions): deescalate synchronously — the EX object
            // locks are already in this table.
            for h in self.txns.home.values_mut() {
                h.adaptive_pages.remove(&page);
            }
            for t in self.locks.adaptive_holders(page) {
                self.locks.clear_adaptive(t, page);
            }
            self.finish_deescalation(de);
        } else {
            self.send(client, Message::Deescalate { de, page });
        }
        true
    }

    /// The deescalation reply: replicate the reported EX object locks and
    /// resume the queued requests.
    pub(crate) fn server_deescalate_reply(
        &mut self,
        de: DeId,
        page: PageId,
        ex_locks: Vec<(TxnId, Oid)>,
    ) {
        if self.page_table.deescalation(page) != Some(de) {
            return;
        }
        for (t, o) in ex_locks {
            if self.replicable(t) {
                self.locks
                    .force_grant(t, LockableId::Object(o), LockMode::Ex);
                self.locks
                    .force_grant(t, LockableId::Page(o.page), LockMode::Ix);
            }
        }
        for t in self.locks.adaptive_holders(page) {
            self.locks.clear_adaptive(t, page);
        }
        self.finish_deescalation(de);
    }

    fn finish_deescalation(&mut self, de: DeId) {
        let Some(op) = self.de_ops.remove(&de) else {
            return;
        };
        self.page_table.close_deescalation(op.page);
        for work in op.queued {
            self.internal.push_back(work);
        }
    }

    // ------------------------------------------------------------------
    // Explicit hierarchical locks, owner side (paper §4.3)
    // ------------------------------------------------------------------

    pub(crate) fn server_explicit(
        &mut self,
        req: ReqId,
        from: SiteId,
        txn: TxnId,
        item: LockableId,
        mode: LockMode,
    ) {
        // Page- and object-granularity locks are routed by page and so
        // pass the ownership fence; file/volume locks go to every owner
        // by design and need no routing check.
        let fence_page = match item {
            LockableId::Page(p) => Some(p),
            LockableId::Object(o) => Some(o.page),
            LockableId::File(_) | LockableId::Volume(_) => None,
        };
        if let Some(p) = fence_page {
            let msg = Message::LockItem {
                req,
                txn,
                item,
                mode,
            };
            if !self.server_owner_fence(from, req, p, msg) {
                return;
            }
        }
        self.txns.spread(txn);
        let cont = LockCont::ServerExplicit {
            req,
            from,
            txn,
            item,
            mode,
        };
        self.lock_or_park(txn, item, mode, cont);
    }

    pub(crate) fn server_explicit_locked(
        &mut self,
        req: ReqId,
        from: SiteId,
        txn: TxnId,
        item: LockableId,
        mode: LockMode,
    ) {
        if !self.txns.is_active(txn) {
            return;
        }
        let done = CbDone::Lock { req, to: from };
        match (item, mode) {
            // EX on any granule calls that granule back: an object (e.g.
            // a large-object header, §4.4) like a PS-OA write, a page
            // like a PS write, a file or volume purged everywhere
            // (§4.3.1).
            (_, LockMode::Ex) => self.start_callbacks(txn, item, done),
            // IX/SIX page: dummy-object callbacks invalidate local-only
            // SH page coverage at the clients (paper §4.3.2).
            (LockableId::Page(p), LockMode::Ix | LockMode::Six) => {
                self.start_callbacks(txn, LockableId::Object(Oid::dummy(p)), done)
            }
            // Shared/intention modes: the server lock suffices.
            _ => self.send(from, Message::LockGranted { req }),
        }
    }

    /// Point-read of a forwarded object (§4.4): resolve the tombstone
    /// and return the current bytes. Protection comes from the lock the
    /// requester already holds on the (original) object.
    pub(crate) fn server_read_forwarded(&mut self, req: ReqId, from: SiteId, txn: TxnId, oid: Oid) {
        // Forwarded point reads ride outside credit flow control, so the
        // client never resends one and a misroute cannot redirect:
        // refuse outright and let the transaction retry.
        if self.owners.owner_of(oid.page) != Some(self.site) {
            self.obs
                .record(pscc_obs::EventKind::OwnershipRefused { page: oid.page });
            self.send(
                from,
                Message::ReqDenied {
                    req,
                    reason: pscc_common::AbortReason::Internal,
                },
            );
            return;
        }
        self.txns.spread(txn);
        self.touch_resident(oid.page, false);
        let target = self.volume.resolve_forward(oid);
        if target.page != oid.page {
            self.touch_resident(target.page, false);
        }
        let bytes = self.volume.read_object(oid).map(<[u8]>::to_vec);
        self.send(from, Message::ObjectBytes { req, bytes });
    }

    // ------------------------------------------------------------------
    // Purges (paper §4.1.1, §4.2.4)
    // ------------------------------------------------------------------

    pub(crate) fn server_purge(
        &mut self,
        from: SiteId,
        page: PageId,
        ship_seq: u64,
        replicate: Vec<(TxnId, LockableId, LockMode)>,
        log_records: Vec<LogRecord>,
    ) {
        // A purge notice that chased a migrated range is forwarded to
        // the current owner, which holds the page's copy-table entry
        // (shipped with the transfer chunk) and its authoritative image.
        // `from` is the purging client carried in the message, so the
        // forward preserves it.
        match self.owners.owner_of(page) {
            Some(o) if o != self.site => {
                self.send(
                    o,
                    Message::Purge {
                        client: from,
                        page,
                        ship_seq,
                        replicate,
                        log_records,
                    },
                );
                return;
            }
            None => {
                self.obs
                    .record(pscc_obs::EventKind::OwnershipRefused { page });
                return;
            }
            Some(_) => {}
        }
        if !self.page_table.purge(page, from, ship_seq) {
            self.stats.purge_races += 1;
            self.obs.record(pscc_obs::EventKind::Race {
                item: LockableId::Page(page),
                kind: pscc_obs::event::RaceKind::PurgeInFlight,
            });
        }
        for (t, item, m) in replicate {
            if self.replicable(t) && self.locks.held_mode(t, item).is_none_or(|h| h.sup(m) != h) {
                // Only strengthen; never weaken an existing server lock.
                if self
                    .locks
                    .holders(item)
                    .iter()
                    .filter(|(ht, _)| *ht != t)
                    .all(|(_, hm)| hm.compatible(m))
                {
                    self.locks.force_grant(t, item, m);
                }
            }
        }
        // Adaptive locks held by that client's transactions die with the
        // cached copy.
        for t in self.locks.adaptive_holders(page) {
            if t.site == from {
                self.locks.clear_adaptive(t, page);
            }
        }
        // Early-shipped updates: install them (redo-at-server). Records
        // of transactions that have since ended here (e.g. aborted as a
        // victim while the purge was in flight) must NOT be applied —
        // there would be nobody left to undo them.
        let log_records: Vec<LogRecord> = log_records
            .into_iter()
            .filter(|r| self.txns.is_active(r.txn))
            .collect();
        if !log_records.is_empty() {
            let txn = log_records[0].txn;
            self.apply_records_async(
                txn,
                log_records,
                super::commit::CommitReplyKind::None,
                false,
                false,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{CbDone, CbOp};
    use super::*;
    use crate::owner_map::OwnerMap;
    use pscc_common::{FileId, SystemConfig, VolId};

    /// The marking `server_ship` did before [`PeerServer::ship_marks`]:
    /// one `holders` call per live slot and one for the dummy, and a
    /// scan of every open callback.
    fn marks_by_slot(
        s: &PeerServer,
        image: &SlottedPage,
        page: PageId,
        requested: Option<Oid>,
        requester_home: SiteId,
    ) -> AvailMask {
        let ex_other = |o: Oid| {
            (s.locks.holders(LockableId::Object(o)).into_iter())
                .any(|(t, m)| m == LockMode::Ex && t.site != requester_home)
        };
        let cb_other = |o: Oid| {
            (s.cb_ops.values())
                .any(|op| op.target == LockableId::Object(o) && op.txn.site != requester_home)
        };
        let mut avail = AvailMask::all_available(image.slot_count());
        for slot in image.live_slots() {
            let o = Oid::new(page, slot);
            if requested != Some(o) && (ex_other(o) || cb_other(o)) {
                avail.set_unavailable(slot);
            }
        }
        let dummy = Oid::dummy(page);
        if (cb_other(dummy) || ex_other(dummy)) && requested != Some(dummy) {
            avail.set_unavailable(DUMMY_SLOT);
        }
        avail
    }

    #[test]
    fn ship_marks_agree_with_the_per_slot_marking() {
        let cfg = SystemConfig::small();
        let page = PageId::new(FileId::new(VolId(0), 0), 3);
        // Knuth's LCG: the states only have to be varied and repeat.
        let mut state = 7u64;
        let mut below = |n: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % n
        };
        let mut compared = 0;
        for _ in 0..300 {
            let mut s = PeerServer::new(SiteId(0), cfg.clone(), OwnerMap::Single(SiteId(0)));
            let mut image = SlottedPage::new(512);
            let n = below(10) as u16 + 1;
            for _ in 0..n {
                image.insert(&[1u8; 16]).expect("ten records fit");
            }
            for _ in 0..below(3) {
                image.delete(below(n as u64) as u16);
            }
            // Slots past the last one and the dummy may have lock and
            // callback state too.
            let any_slot = |r: u64| match (r % (n as u64 + 3)) as u16 {
                s if s == n + 2 => DUMMY_SLOT,
                s => s,
            };
            for _ in 0..below(12) {
                let txn = TxnId::new(SiteId(below(3) as u32), below(4) + 1);
                let mode = [LockMode::Sh, LockMode::Ex][below(2) as usize];
                let o = LockableId::Object(Oid::new(page, any_slot(below(1 << 16))));
                s.locks.try_acquire_single(txn, o, mode);
            }
            for cb in 0..below(4) {
                let txn = TxnId::new(SiteId(below(3) as u32), below(4) + 1);
                let o = Oid::new(page, any_slot(below(1 << 16)));
                let op = CbOp {
                    txn,
                    target: LockableId::Object(o),
                    pending: HashSet::default(),
                    all_purged: false,
                    violated: false,
                    upgrade: None,
                    done: CbDone::Lock {
                        req: ReqId(cb),
                        to: txn.site,
                    },
                    started: pscc_common::SimTime::ZERO,
                };
                s.cb_ops.insert(CbId(cb), op);
                s.page_table.open_callback(page, CbId(cb));
            }
            for requester in (0..3).map(SiteId) {
                let picks = [None, Some(any_slot(below(1 << 16))), Some(DUMMY_SLOT)];
                for requested in picks.map(|p| p.map(|slot| Oid::new(page, slot))) {
                    assert_eq!(
                        s.ship_marks(&image, page, requested, requester),
                        marks_by_slot(&s, &image, page, requested, requester),
                        "requester {requester}, requested {requested:?}"
                    );
                    compared += 1;
                }
            }
        }
        assert_eq!(compared, 2_700);
    }
}
