//! Server restart recovery and the rejoin/epoch protocol.
//!
//! **Restart** ([`PeerServer::recover`]) rebuilds a crashed owner from
//! the durable image its WAL left behind: `pscc_recovery::restart` runs
//! the ARIES-style analysis/redo/undo passes, then the engine
//! re-registers every in-doubt 2PC participant (records back in flight,
//! EX object locks re-acquired) and asks each coordinator for the
//! outcome with [`Message::QueryTxn`] — presumed abort when the
//! coordinator has forgotten the transaction.
//!
//! **Epochs** fence the recovered server from the stale world. Each
//! server carries an epoch (1 at first boot, +1 per restart) and keeps
//! in each peer's record the epoch it was admitted under. Because the
//! copy table and lock state died with the crash, a restarted server
//! cannot honor any pre-crash registration: every peer must complete
//! the rejoin handshake before new protocol work is served. The same
//! fence covers false suspicion (§4.2.4 hazard):
//! [`PeerServer::declare_site_dead`] marks the suspect with the
//! must-rejoin sentinel, so a revived or wrongly-suspected client —
//! possibly still holding an EX copy whose registration was revoked —
//! finds its requests refused with [`Message::RejoinRequired`] instead
//! of silently violating the one-exclusive-copy invariant.
//!
//! The **client half** reacts to `RejoinRequired` by treating the owner
//! as reborn: purge every cached page it owns (they are no longer
//! protected by callbacks), void adaptive/page write grants on them,
//! abort active transactions that touched the owner, resolve in-flight
//! commits against the owner's durable outcome (`QueryTxn` →
//! [`Message::TxnResolved`]), and finally send [`Message::Rejoin`].
//! Pages are re-fetched lazily afterwards — re-registration is implicit
//! in the normal fetch path.

use super::{Env, PeerServer, Request};
use crate::msg::Message;
use crate::owner_map::OwnerMap;
use crate::txn::TxnStatus;
use pscc_common::{AbortReason, LockMode, LockableId, Oid, PageId, SiteId, SystemConfig, TxnId};
use pscc_lockmgr::Acquire;
use pscc_obs::EventKind;
use pscc_wal::{DurableState, LogPayload};

impl PeerServer {
    /// Reconstructs a crashed owner from `durable` (the crash image of
    /// its [`pscc_wal::ServerLog`]) under epoch `prior_epoch + 1`.
    ///
    /// Runs restart recovery, re-registers in-doubt transactions and
    /// queries their coordinators, takes a fresh checkpoint so the
    /// durable image is self-contained again, hands the effects
    /// (queries, timer arms) to `env` and returns the server. The
    /// harness that restarts the site records how long this took in
    /// `obs.recovery_time`; the engine reads no clock.
    pub fn recover(
        site: SiteId,
        cfg: SystemConfig,
        owners: OwnerMap,
        durable: &DurableState,
        prior_epoch: u64,
        env: &mut impl Env,
    ) -> Self {
        let mut s = PeerServer::new(site, cfg, owners);
        let outcome = pscc_recovery::restart(s.volume.clone(), durable);
        s.volume = outcome.volume;
        s.log = outcome.log;

        // Rebuild the ownership directory: the boot map, then the
        // checkpoint's persisted layout, then any committed or landed
        // moves in the log tail, in LSN order (`apply_move` is monotone,
        // so stale replays are no-ops).
        if let Some(cp) = &durable.checkpoint {
            if let Some(img) = &cp.layout {
                s.owners.adopt_image(img);
            }
        }
        let (migration_records, _) = pscc_wal::decode_log(&durable.log);
        for (_, rec) in &migration_records {
            match &rec.payload {
                LogPayload::MigrateCommit { lo, hi, to, layout } => {
                    s.owners.apply_move(*lo, *hi, *to, *layout);
                }
                LogPayload::MigrateLand { lo, hi, layout, .. } => {
                    s.owners.apply_move(*lo, *hi, site, *layout);
                }
                _ => {}
            }
        }
        s.log.set_layout(s.owners.to_image());

        s.epoch = prior_epoch + 1;
        s.require_rejoin = true;
        s.stats.epoch_bumps += 1;
        s.stats.recovery_redo_records += outcome.report.redo_applied;
        s.stats.recovery_undo_records += outcome.report.undo_applied;

        // In-doubt 2PC participants: their updates were redone (repeat
        // history) and their undo records are back in flight. Re-acquire
        // the EX object locks so nothing reads or overwrites the
        // undecided state, then ask each coordinator for the outcome.
        for txn in &outcome.in_doubt {
            s.txns.spread(*txn).prepared = true;
            let oids: Vec<Oid> = s
                .log
                .in_flight_of(*txn)
                .iter()
                .filter_map(|r| match &r.payload {
                    LogPayload::Update { oid, .. }
                    | LogPayload::Create { oid, .. }
                    | LogPayload::Delete { oid, .. } => Some(*oid),
                    _ => None,
                })
                .collect();
            for oid in oids {
                let (a, _) = s.locks.acquire(*txn, LockableId::Object(oid), LockMode::Ex);
                debug_assert!(
                    matches!(a, Acquire::Granted),
                    "in-doubt relock blocked on an empty lock table"
                );
            }
            s.send(txn.site, Message::QueryTxn { txn: *txn });
        }

        // Resolve in-doubt migrations (engine/migration.rs): roll back
        // prepares that never committed, re-offer committed-but-unswept
        // ranges to their destination, and query the source about
        // half-landed inbound transfers.
        s.recover_migrations(&migration_records);

        // A fresh fuzzy checkpoint makes the durable image
        // self-contained: a second crash recovers from here, not from a
        // tail that no longer exists.
        s.log.checkpoint(s.volume.clone());
        s.stats.disk_writes += 1;

        s.obs.record(EventKind::Recovered {
            site,
            epoch: s.epoch,
            redo: outcome.report.redo_applied,
            undo: outcome.report.undo_applied,
            in_doubt: outcome.in_doubt.len(),
        });

        // Queries addressed to this very site (a 2PC transaction homed
        // here died with the crash) resolve synchronously — the fresh
        // home has no memory of them, so they become presumed aborts.
        s.run(env);
        s
    }

    // ------------------------------------------------------------------
    // The epoch fence
    // ------------------------------------------------------------------

    /// Gate run on every received message. Returns `true` when the
    /// message must be dropped: the sender has not (re)joined under the
    /// current epoch and the message would start new protocol work.
    /// Non-work traffic from an unjoined peer still passes, but also
    /// triggers a `RejoinRequired` nudge so recovery converges without
    /// waiting for the peer's next request.
    pub(crate) fn fence_check(&mut self, from: SiteId, msg: &Message) -> bool {
        if from == self.site {
            return false;
        }
        let joined = &mut self.peers.entry(from).or_default().joined;
        let current = match *joined {
            Some(e) => e == self.epoch,
            // First contact with a server that never restarted joins
            // implicitly; after a restart everyone must shake hands.
            None => !self.require_rejoin,
        };
        if current {
            joined.get_or_insert(self.epoch);
            return false;
        }
        if matches!(
            msg,
            Message::Rejoin { .. } | Message::RejoinOk { .. } | Message::RejoinRequired { .. }
        ) {
            return false;
        }
        self.send(from, Message::RejoinRequired { epoch: self.epoch });
        msg.meta().fenced
    }

    // ------------------------------------------------------------------
    // The rejoin handshake
    // ------------------------------------------------------------------

    /// Server side: a peer acknowledges the fence. Its cache is (now)
    /// clean of this server's pages, so any copy-table residue from a
    /// false suspicion is dropped and the peer is admitted under the
    /// epoch. Commits left hanging while the peer was suspected dead,
    /// and prepared transactions homed at it, resolve against its
    /// durable outcome now that it is reachable again.
    pub(crate) fn server_rejoin(&mut self, from: SiteId, epoch: u64) {
        if epoch != self.epoch {
            // Raced with another restart: demand the current epoch.
            self.send(from, Message::RejoinRequired { epoch: self.epoch });
            return;
        }
        self.page_table.drop_site_entries(from);
        self.peer(from).joined = Some(epoch);

        let mut stuck: Vec<TxnId> = self
            .txns
            .home
            .iter()
            .filter(|(_, h)| h.status == TxnStatus::Committing && h.participants.contains(&from))
            .map(|(t, _)| *t)
            .collect();
        stuck.sort();
        for txn in stuck {
            self.send(from, Message::QueryTxn { txn });
        }
        let mut in_doubt: Vec<TxnId> = self
            .txns
            .remote
            .iter()
            .filter(|(t, r)| t.site == from && r.prepared)
            .map(|(t, _)| *t)
            .collect();
        in_doubt.sort();
        for txn in in_doubt {
            self.send(from, Message::QueryTxn { txn });
        }
        self.send(from, Message::RejoinOk { epoch });
    }

    /// Client side: an owner refuses service until we rejoin — it
    /// restarted, or declared this site dead. Either way our
    /// registrations there are gone: purge its pages, void grants backed
    /// by its lock state, abort active transactions that touched it,
    /// query the outcome of in-flight commits, then acknowledge.
    pub(crate) fn client_rejoin_required(&mut self, server: SiteId, epoch: u64) {
        if server == self.site {
            return;
        }
        // Pages cached from the server are re-fetched lazily.
        self.owner_lost(server);
        let stale_large: Vec<PageId> = self
            .large_cache
            .keys()
            .copied()
            .filter(|p| self.owners.owner_of(*p) == Some(server))
            .collect();
        for p in stale_large {
            self.large_cache.remove(&p);
        }

        // Active transactions that touched the server lost their locks
        // and shipped state there: abort them. Committing ones may
        // already be durable at the server — resolve, don't guess.
        let mut doomed: Vec<TxnId> = self
            .txns
            .home
            .iter()
            .filter(|(_, h)| h.status == TxnStatus::Active && h.participants.contains(&server))
            .map(|(t, _)| *t)
            .collect();
        doomed.sort();
        for txn in doomed {
            self.home_abort(txn, AbortReason::Internal);
        }
        let mut stuck: Vec<TxnId> = self
            .txns
            .home
            .iter()
            .filter(|(_, h)| h.status == TxnStatus::Committing && h.participants.contains(&server))
            .map(|(t, _)| *t)
            .collect();
        stuck.sort();
        for txn in stuck {
            self.send(server, Message::QueryTxn { txn });
        }

        self.send(server, Message::Rejoin { epoch });
    }

    /// Client side: the handshake completed; requests flow again.
    pub(crate) fn client_rejoin_ok(&mut self, server: SiteId, epoch: u64) {
        self.obs.record(EventKind::Rejoined { server, epoch });
    }

    // ------------------------------------------------------------------
    // Outcome resolution
    // ------------------------------------------------------------------

    /// `QueryTxn` router. At the transaction's home this is a recovered
    /// participant asking for the 2PC outcome; anywhere else it is the
    /// coordinator asking whether our half durably committed (its ack
    /// was lost to a crash).
    pub(crate) fn handle_query_txn(&mut self, from: SiteId, txn: TxnId) {
        if txn.site == self.site {
            self.coordinator_query(from, txn);
        } else {
            let committed = self.log.was_committed(txn);
            self.send(from, Message::TxnResolved { txn, committed });
        }
    }

    /// Coordinator side of `QueryTxn`: a participant recovered with the
    /// transaction prepared and needs the decision.
    fn coordinator_query(&mut self, from: SiteId, txn: TxnId) {
        if !self.txns.home.contains_key(&txn) {
            // No memory of the transaction: presumed abort.
            self.send(from, Message::Decide { txn, commit: false });
            return;
        }
        let prepare_to_from = |r: &Request| r.is_prepare() && r.to == from;
        if let Some(&req) = self.reqs_of(txn, prepare_to_from).first() {
            // A durable prepare *is* the yes-vote whose `Voted` message
            // the crash swallowed; count it (this sends the decision if
            // the vote was the last one missing).
            self.register_vote(req, txn, true);
            return;
        }
        let decided = self.txns.home.get(&txn).is_some_and(|h| {
            h.status == TxnStatus::Committing
                && !h.participants.is_empty()
                && h.votes.len() == h.participants.len()
        });
        if decided {
            // The decision went out before the crash; resend it.
            self.send(from, Message::Decide { txn, commit: true });
        }
        // Otherwise other votes are still pending; the decision will
        // reach the recovered participant when it is made.
    }

    /// Coordinator side of `TxnResolved`: the participant's durable
    /// outcome for a commit left hanging by a crash or false suspicion.
    pub(crate) fn client_txn_resolved(&mut self, from: SiteId, txn: TxnId, committed: bool) {
        if txn.site != self.site || !self.txns.home.contains_key(&txn) {
            return;
        }
        let commit_req = self.reqs_of(txn, Request::is_commit).first().copied();
        match (commit_req, committed) {
            (Some(req), true) => {
                // Single-round commit whose `CommitOk` was lost: the
                // participant's force made it durable — finish.
                self.settle(req);
                self.finish_home_commit(txn);
            }
            (Some(req), false) => {
                // The commit request never became durable there: the
                // transaction did not happen — roll back at home.
                self.settle(req);
                if let Some(h) = self.txns.home.get_mut(&txn) {
                    h.status = TxnStatus::Active;
                }
                self.home_abort(txn, AbortReason::Internal);
            }
            (None, true) => {
                // 2PC: the participant's half is durably committed;
                // treat the answer as its lost `Decided` ack.
                self.client_decided(from, txn);
            }
            (None, false) => {
                // 2PC: if this participant's prepare never became
                // durable, its vote can never arrive — global abort.
                // (A participant that is merely in doubt resolves
                // through `QueryTxn` to us instead; its prepare
                // continuation is consumed by `coordinator_query`.)
                let prepares = self.reqs_of(txn, Request::is_prepare);
                if prepares.iter().any(|r| self.requests[r].to == from) {
                    for r in prepares {
                        self.settle(r);
                    }
                    if let Some(h) = self.txns.home.get_mut(&txn) {
                        h.status = TxnStatus::Active;
                    }
                    self.home_abort(txn, AbortReason::Internal);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Probes (harnesses, metrics export)
    // ------------------------------------------------------------------

    /// This server's epoch (1 at first boot, +1 per restart recovery).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The owner log's durable LSN (everything at or below survives a
    /// crash).
    pub fn durable_lsn(&self) -> u64 {
        self.log.durable_lsn().0
    }

    /// Log records appended since the last checkpoint — the redo work a
    /// crash right now would cost.
    pub fn checkpoint_age(&self) -> u64 {
        self.log.checkpoint_age()
    }

    /// Whether `txn` is prepared (2PC phase one durable) at this owner.
    pub fn txn_prepared(&self, txn: TxnId) -> bool {
        self.txns.remote.get(&txn).is_some_and(|r| r.prepared)
    }

    /// Whether `txn`'s commit record is in this owner's log — the
    /// transaction survives a crash at this instant (crash-test harness
    /// probe).
    pub fn txn_committed_durably(&self, txn: TxnId) -> bool {
        self.log.was_committed(txn)
    }

    /// Whether this coordinator has collected every prepare vote for its
    /// home transaction `txn` — phase one is complete and the commit
    /// decision is on the wire (crash-test harness probe).
    pub fn txn_all_votes_in(&self, txn: TxnId) -> bool {
        self.txns
            .home
            .get(&txn)
            .is_some_and(|h| !h.participants.is_empty() && h.votes.len() == h.participants.len())
    }

    /// The durable image a crash at this instant would leave for
    /// [`PeerServer::recover`] (crash-test harness probe).
    pub fn crash_image(&self) -> DurableState {
        self.log.crash_image()
    }

    /// Takes a fuzzy checkpoint (ATT + DPT + base snapshot) of the
    /// owner log, forcing the tail first. Returns whether the force
    /// wrote anything.
    pub fn checkpoint(&mut self) -> bool {
        let wrote = self.log.checkpoint(self.volume.clone());
        if wrote {
            self.stats.disk_writes += 1;
        }
        wrote
    }
}
