//! Transaction termination: redo-at-server commit (paper §3.3),
//! two-phase commit for multi-owner transactions, and the abort
//! procedure (client purge + server undo + callback cancellation).

use super::{CbKey, DiskCont, PeerServer, ReqCont, Request};
use crate::msg::{AppReply, DiskOp, Input, Message, ReqId};
use crate::txn::TxnStatus;
use pscc_common::hash::HashMap;
use pscc_common::{AbortReason, SimTime, SiteId, Stage, TxnId};
use pscc_wal::{LogPayload, LogRecord};
use std::collections::VecDeque;

/// How a record-application pass finishes.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum CommitReplyKind {
    /// Nothing to send (early-shipped records from a purge).
    None,
    /// Single-round commit: ack with `CommitOk`.
    CommitOk { req: ReqId, to: SiteId },
    /// 2PC prepare: answer with a vote.
    Voted { req: ReqId, to: SiteId },
    /// 2PC decision applied: ack with `Decided`.
    Decided { to: SiteId },
}

/// The state machine applying shipped log records at an owner —
/// "redo-at-server": each record's page must be resident (disk reads are
/// charged for misses, §3.3), then the log is forced.
#[derive(Debug, Clone)]
pub(crate) struct CommitApply {
    pub txn: TxnId,
    pub records: VecDeque<LogRecord>,
    pub reply: CommitReplyKind,
    /// Release the transaction's locks and end it here afterwards.
    pub release: bool,
    /// Mark the remote transaction prepared (2PC phase one).
    pub prepare_mark: bool,
    /// When the final log force was issued (the `WalForce` stage's
    /// start), if one was.
    pub force_started: Option<SimTime>,
}

impl PeerServer {
    // ------------------------------------------------------------------
    // Home-side commit
    // ------------------------------------------------------------------

    /// The application asked to commit `txn`.
    pub(crate) fn client_commit(&mut self, txn: TxnId) {
        let records = self.log_cache.drain_txn(txn);
        let mut by_owner: HashMap<SiteId, Vec<LogRecord>> = HashMap::default();
        for rec in records {
            let owner = rec
                .payload
                .page()
                .and_then(|p| self.owners.owner_of(p))
                .unwrap_or(self.site);
            by_owner.entry(owner).or_default().push(rec);
        }
        let participants: Vec<SiteId> = {
            let Some(h) = self.txns.home.get_mut(&txn) else {
                return;
            };
            h.status = TxnStatus::Committing;
            h.commit_started = Some(self.now);
            for o in by_owner.keys() {
                h.participants.insert(*o);
            }
            let mut p: Vec<SiteId> = h.participants.iter().copied().collect();
            p.sort();
            if p.len() > 1 {
                h.prepare_started = Some(self.now);
            }
            p
        };
        self.obs.record(pscc_obs::EventKind::Commit {
            txn,
            stage: pscc_obs::event::CommitStage::Request,
        });
        if participants.is_empty() {
            // Purely local, read-only: nothing to ship or force.
            self.finish_home_commit(txn);
            return;
        }
        if participants.len() == 1 {
            let site = participants[0];
            let req = self.issue(txn, site, ReqCont::Commit);
            let records = by_owner.remove(&site).unwrap_or_default();
            self.send(site, Message::CommitReq { req, txn, records });
            return;
        }
        // Two-phase commit (paper §3.3).
        self.obs.record(pscc_obs::EventKind::Commit {
            txn,
            stage: pscc_obs::event::CommitStage::Prepare,
        });
        for site in participants {
            let req = self.issue(txn, site, ReqCont::Prepare);
            let records = by_owner.remove(&site).unwrap_or_default();
            self.send(site, Message::Prepare { req, txn, records });
        }
    }

    /// `CommitOk` from the single participant.
    pub(crate) fn client_commit_ok(&mut self, req: ReqId) {
        if let Some(r) = self.settle(req) {
            self.finish_home_commit(r.txn);
        }
    }

    /// A 2PC vote arrived — from the wire, or synthesized by recovery
    /// when a restarted participant's durable prepare stands in for a
    /// `Voted` message the crash swallowed.
    pub(crate) fn register_vote(&mut self, req: ReqId, txn: TxnId, yes: bool) {
        let Some(Request {
            txn: t, to: site, ..
        }) = self.settle(req)
        else {
            return;
        };
        debug_assert_eq!(t, txn);
        let decide: Option<(Vec<SiteId>, Option<SimTime>)> = {
            let Some(h) = self.txns.home.get_mut(&txn) else {
                return;
            };
            if !yes {
                None // a refused vote aborts (not reachable in practice)
            } else {
                h.votes.insert(site);
                if h.votes.len() == h.participants.len() {
                    let mut p: Vec<SiteId> = h.participants.iter().copied().collect();
                    p.sort();
                    h.decide_started = Some(self.now);
                    Some((p, h.prepare_started.take()))
                } else {
                    return;
                }
            }
        };
        match decide {
            Some((participants, prepare_started)) => {
                if let Some(t0) = prepare_started {
                    let voted = self.now.since(t0);
                    self.obs.stage_sample(txn, Stage::TwopcPrepare, voted);
                }
                self.obs.record(pscc_obs::EventKind::Commit {
                    txn,
                    stage: pscc_obs::event::CommitStage::Voted,
                });
                for site in participants {
                    self.send(site, Message::Decide { txn, commit: true });
                }
                self.obs.record(pscc_obs::EventKind::Commit {
                    txn,
                    stage: pscc_obs::event::CommitStage::Decided,
                });
            }
            None => {
                // Global abort: participants roll back on AbortTxn.
                self.home_abort(txn, AbortReason::Internal);
            }
        }
    }

    /// A 2PC decision acknowledgment arrived.
    pub(crate) fn client_decided(&mut self, from: SiteId, txn: TxnId) {
        let done = {
            let Some(h) = self.txns.home.get_mut(&txn) else {
                return;
            };
            h.decided_acks.insert(from);
            h.decided_acks.len() == h.participants.len()
        };
        if done {
            self.finish_home_commit(txn);
        }
    }

    /// All participants are done: release local locks, mark cached
    /// objects clean, answer the application.
    pub(crate) fn finish_home_commit(&mut self, txn: TxnId) {
        let Some(h) = self.txns.end_home(txn) else {
            return;
        };
        self.cache.clean_txn(txn);
        let grants = self.release_locks(txn);
        self.stats.commits += 1;
        if let Some(t0) = h.decide_started {
            let decided = self.now.since(t0);
            self.obs.stage_sample(txn, Stage::TwopcDecide, decided);
        }
        if let Some(t0) = h.commit_started {
            self.obs.commit_latency.record(self.now.since(t0));
        }
        self.obs.txn_latency.record(self.now.since(h.started));
        self.trace_txn_done(txn);
        self.obs.record(pscc_obs::EventKind::Commit {
            txn,
            stage: pscc_obs::event::CommitStage::Done,
        });
        self.reply_app(AppReply::Committed { app: h.app, txn });
        self.process_grants(grants);
    }

    // ------------------------------------------------------------------
    // Owner-side commit
    // ------------------------------------------------------------------

    pub(crate) fn server_commit_req(
        &mut self,
        req: ReqId,
        from: SiteId,
        txn: TxnId,
        records: Vec<LogRecord>,
    ) {
        self.txns.spread(txn);
        self.apply_records_async(
            txn,
            records,
            CommitReplyKind::CommitOk { req, to: from },
            true,
            false,
        );
    }

    pub(crate) fn server_prepare(
        &mut self,
        req: ReqId,
        from: SiteId,
        txn: TxnId,
        records: Vec<LogRecord>,
    ) {
        self.txns.spread(txn);
        self.apply_records_async(
            txn,
            records,
            CommitReplyKind::Voted { req, to: from },
            false,
            true,
        );
    }

    pub(crate) fn server_decide(&mut self, from: SiteId, txn: TxnId, commit: bool) {
        // Decisions must be idempotent: recovery retries the outcome
        // query (once from restart, once per rejoin handshake), so the
        // same decision can arrive more than once — and a retry that
        // reaches the coordinator after it has forgotten the transaction
        // comes back as a stale presumed abort. Once our commit record
        // is logged the authoritative decision was commit; anything
        // later only needs the ack re-sent.
        if self.log.was_committed(txn) {
            self.send(from, Message::Decided { txn });
            return;
        }
        if commit {
            self.apply_records_async(
                txn,
                Vec::new(),
                CommitReplyKind::Decided { to: from },
                true,
                false,
            );
        } else {
            self.server_abort_core(txn);
            self.send(from, Message::Decided { txn });
        }
    }

    /// Starts (or continues) applying records; suspension points are disk
    /// reads for non-resident pages and the final log force.
    pub(crate) fn apply_records_async(
        &mut self,
        txn: TxnId,
        records: Vec<LogRecord>,
        reply: CommitReplyKind,
        release: bool,
        prepare_mark: bool,
    ) {
        let state = CommitApply {
            txn,
            records: records.into(),
            reply,
            release,
            prepare_mark,
            force_started: None,
        };
        self.commit_apply_step(state);
    }

    /// Applies records until one needs a disk read, then suspends.
    pub(crate) fn commit_apply_step(&mut self, mut state: CommitApply) {
        loop {
            let Some(page) = state.records.front().and_then(|r| r.payload.page()) else {
                // Either no records left, or a control record (none are
                // shipped); move to finalization when empty.
                if state.records.pop_front().is_none() {
                    break;
                }
                continue;
            };
            if !self.touch_resident(page, true) {
                self.disk(DiskOp::ReadPage(page), DiskCont::CommitApply(state));
                return;
            }
            // Redo first, then the record moves into the log: it is
            // stored once, never copied.
            let rec = state.records.pop_front().expect("peeked above");
            let mut overflow = None;
            match pscc_wal::apply_redo(&mut self.volume, &rec) {
                Ok(()) => {}
                Err(pscc_common::PsccError::PageFull(_)) => {
                    // Size-growing update overflowing the home page:
                    // forward the object to an overflow page (paper §4.4,
                    // the System-R-style technique).
                    if let pscc_wal::LogPayload::Update { oid, after, .. } = &rec.payload {
                        let spill = self.overflow_page_for(after.len());
                        let fwd = self.volume.write_object_forwarding(*oid, after, spill);
                        debug_assert!(fwd.is_ok(), "forwarding failed: {fwd:?}");
                        self.touch_resident(spill, true);
                        overflow = Some(spill);
                    }
                }
                Err(e) => debug_assert!(false, "redo failed: {e:?}"),
            }
            let lsn = self.log.append(rec);
            // Stamp the page LSN so restart redo can skip records whose
            // effects are already in the checkpoint base (ARIES
            // idempotence).
            for page in std::iter::once(page).chain(overflow) {
                pscc_wal::stamp_page_lsn(&mut self.volume, page, lsn);
            }
        }
        // Finalize: write the control record and force the log, unless
        // this was a pure early-ship (purge) application.
        match state.reply {
            CommitReplyKind::None => self.commit_forced(state),
            _ => {
                let payload = if state.prepare_mark {
                    LogPayload::Prepare
                } else {
                    LogPayload::Commit
                };
                self.log.append(LogRecord {
                    txn: state.txn,
                    payload,
                });
                if self.log.force() {
                    state.force_started = Some(self.now);
                    self.disk(DiskOp::WriteLog, DiskCont::CommitForced(state));
                } else {
                    self.commit_forced(state);
                }
            }
        }
    }

    /// The log force completed: release (if commit), answer.
    pub(crate) fn commit_forced(&mut self, state: CommitApply) {
        if let Some(t0) = state.force_started {
            let forced = self.now.since(t0);
            self.obs.stage_sample(state.txn, Stage::WalForce, forced);
        }
        if state.prepare_mark {
            if let Some(r) = self.txns.remote.get_mut(&state.txn) {
                r.prepared = true;
            }
        }
        if state.release {
            // Edge tier (DESIGN.md §11): the pages this commit touched,
            // captured before `end_txn` drops the in-flight records.
            // Publishing streams invalidations to subscribed edge sites
            // and records per-page versions; a no-op when no tiers are
            // configured.
            if !self.cfg.edge_tiers.is_empty() {
                let pages: Vec<pscc_common::PageId> = self
                    .log
                    .in_flight_of(state.txn)
                    .iter()
                    .filter_map(|r| r.payload.page())
                    .collect();
                self.edge_publish_commit(pages);
            }
            self.log.end_txn(state.txn, false);
            let grants = self.release_locks(state.txn);
            self.txns.remote.remove(&state.txn);
            self.trace_txn_done(state.txn);
            self.process_grants(grants);
        }
        match state.reply {
            CommitReplyKind::None => {}
            CommitReplyKind::CommitOk { req, to } => self.send(to, Message::CommitOk { req }),
            CommitReplyKind::Voted { req, to } => self.send(
                to,
                Message::Voted {
                    req,
                    txn: state.txn,
                    yes: true,
                },
            ),
            CommitReplyKind::Decided { to } => self.send(to, Message::Decided { txn: state.txn }),
        }
    }

    // ------------------------------------------------------------------
    // Aborts
    // ------------------------------------------------------------------

    /// Aborts `txn` from wherever the decision was made: at its home,
    /// run the full abort procedure; at an owner, clean up locally and
    /// notify the home.
    pub(crate) fn abort_txn_here(&mut self, txn: TxnId, reason: AbortReason) {
        if txn.site == self.site {
            self.home_abort(txn, reason);
        } else {
            self.server_abort_core(txn);
            self.send(txn.site, Message::TxnAborted { txn, reason });
        }
    }

    /// The home-side abort procedure (paper §3.3): purge updated objects
    /// from the cache, discard the log cache, release locks, notify
    /// participants, answer the application.
    pub(crate) fn home_abort(&mut self, txn: TxnId, reason: AbortReason) {
        let (app, participants, reqs, updated) = {
            let Some(h) = self.txns.home.get_mut(&txn) else {
                return;
            };
            if h.status != TxnStatus::Active {
                return; // already committing or aborted: first wins
            }
            h.status = TxnStatus::Aborted;
            (
                h.app,
                h.participants.iter().copied().collect::<Vec<_>>(),
                h.outstanding_reqs.drain().collect::<Vec<_>>(),
                h.updated.iter().copied().collect::<Vec<_>>(),
            )
        };
        // Its requests die with it: each record leaves the table and the
        // pending-fetch index (the server cancelled it and will never
        // answer), and a request still queued for a credit leaves its
        // owner's queue. Then the ones in flight return their credit
        // (a late reply re-releases, but the pool is capped).
        let mut in_flight = Vec::new();
        for req in reqs {
            let Some(r) = self.settle(req) else {
                continue;
            };
            if let Some(peer) = self.peers.get_mut(&r.to) {
                peer.stalled.retain(|&queued| queued != req);
            }
            if r.retry.is_some() {
                in_flight.push(r.to);
            }
        }
        for site in in_flight {
            self.credit_release(site);
        }
        self.stats.aborts += 1;
        self.obs.record(pscc_obs::EventKind::Abort { txn, reason });
        self.cache.abort_txn(txn);
        // Objects updated earlier whose dirty marks were lost to an
        // eviction + re-fetch still hold uncommitted bytes: purge them.
        for oid in updated {
            self.cache.mark_unavailable(oid);
        }
        self.log_cache.discard_txn(txn);
        self.server_abort_core(txn);
        for p in participants {
            if p != self.site {
                self.send(p, Message::AbortTxn { txn });
            }
        }
        self.txns.end_home(txn);
        self.trace_txn_done(txn);
        self.reply_app(AppReply::Aborted { app, txn, reason });
    }

    /// Owner-side cleanup on abort (also run at the home for its own
    /// volume): cancel the transaction's callbacks, undo its shipped
    /// updates, release its locks.
    pub(crate) fn server_abort_core(&mut self, txn: TxnId) {
        // A remote transaction aborted here stays refusable: its late
        // requests (reordered onto a slower lane than the abort) must
        // not re-acquire state this cleanup just released.
        self.tombstone_txn(txn);
        // Cancel callback operations it initiated.
        let cbs: Vec<crate::msg::CbId> = self
            .cb_ops
            .iter()
            .filter(|(_, op)| op.txn == txn)
            .map(|(id, _)| *id)
            .collect();
        for cb in cbs {
            let op = self.close_cb(cb).expect("listed above");
            // The re-upgrade's ticket is cancelled with the transaction's
            // locks below; a grant before then resumes nothing.
            if let Some(t) = op.upgrade {
                self.unpark(t);
            }
            for site in op.pending {
                if site == self.site {
                    self.cancel_cb_ctx((self.site, cb));
                } else {
                    self.send(site, Message::CbCancel { cb });
                }
            }
        }
        // Drop deescalation-queued work from the aborted transaction: its
        // application accesses and its fetch and write requests.
        for op in self.de_ops.values_mut() {
            op.queued.retain(|w| {
                let owner = match w {
                    Input::App(req) => req.txn,
                    Input::Msg { msg, .. } => msg.txn_id(),
                    _ => None,
                };
                owner != Some(txn)
            });
        }
        // A durable Abort record lets restart analysis tell a
        // rolled-back transaction from an in-doubt one (it is not
        // forced — if it is lost, the transaction is a loser anyway).
        let was_prepared = self.txns.remote.get(&txn).is_some_and(|r| r.prepared);
        if was_prepared || !self.log.in_flight_of(txn).is_empty() {
            self.log.append(LogRecord {
                txn,
                payload: LogPayload::Abort,
            });
        }
        // Undo already-applied updates (before-images, §3.3). Disk reads
        // for non-resident pages are charged without blocking the abort.
        let undo = self.log.end_txn(txn, true);
        for rec in undo {
            if let Some(p) = rec.payload.page() {
                if !self.touch_resident(p, true) {
                    self.disk(DiskOp::ReadPage(p), DiskCont::Accounted);
                }
            }
            let _ = pscc_wal::apply_undo(&mut self.volume, &rec);
        }
        // Cancel any callback threads running here on the transaction's
        // behalf (client role).
        let keys: Vec<CbKey> = self
            .cb_ctxs
            .iter()
            .filter(|(_, c)| c.txn == txn)
            .map(|(k, _)| *k)
            .collect();
        for k in keys {
            self.cancel_cb_ctx(k);
        }
        // Admission slots held by the transaction's requests are void —
        // no verdict will ever depart for them.
        self.admitted.retain(|_, t| *t != txn);
        let grants = self.release_locks(txn);
        self.txns.remote.remove(&txn);
        self.trace_txn_done(txn);
        self.process_grants(grants);
    }

    /// `AbortTxn` from the home.
    pub(crate) fn server_abort_txn(&mut self, txn: TxnId) {
        self.server_abort_core(txn);
    }

    /// An overflow page with at least `len` bytes free, allocating a new
    /// one when needed (targets of §4.4 forwarding).
    pub(crate) fn overflow_page_for(&mut self, len: usize) -> pscc_common::PageId {
        if let Some(p) = self.overflow_page {
            if self.volume.page_fits(p, len) {
                return p;
            }
        }
        let file = self.volume.files()[0];
        let p = self.volume.allocate_page(file);
        self.overflow_page = Some(p);
        p
    }
}
