//! Crash detection and orphan cleanup.
//!
//! The paper's protocols assume clients never vanish: SHORE only times
//! out lock waits (§5.5), so a crashed client would strand its locks,
//! callbacks, and copy-table entries forever. This module adds the
//! failure handling the reproduction needs to run under fault
//! injection, in the spirit of lease-based self-invalidation:
//!
//! * **Leases** — when `SystemConfig::leases_enabled`, a server notes
//!   in the peer's record (`PeerServer::peers`) the virtual time of
//!   every message received from it, and keeps one lease timer armed,
//!   named by the record; if a full `lease_duration` passes in silence,
//!   the peer is declared crashed. The declaration retires the timer,
//!   so contact after a false suspicion starts one new lease, not a
//!   second chain beside the old one.
//! * **Heartbeats** — each site periodically sends
//!   [`Message::Heartbeat`] to every peer it has contacted, so healthy
//!   but idle clients keep their leases alive.
//! * **Callback-response bound** — a callback fan-out arms one extra
//!   timer; if responses are still pending when it fires, the stragglers
//!   are declared crashed even if their heartbeats still flow (they are
//!   wedged mid-callback).
//! * **Orphan cleanup** — [`PeerServer::declare_site_dead`] aborts the
//!   dead client's in-flight transactions through the WAL undo path,
//!   releases their (replicated) locks, revokes the client's copy-table
//!   entries, re-drives callbacks blocked on its acknowledgment, and
//!   completes deescalations addressed to it. Transactions the dead
//!   site *prepared* here are kept in doubt (2PC safety) and resolved
//!   by `QueryTxn` when their home rejoins.
//! * **Rejoin fencing** — declaring a site dead empties its record but
//!   for the must-rejoin sentinel in its `joined` epoch, so a revived or
//!   falsely-suspected client cannot act on stale registrations: its
//!   next request is refused with [`Message::RejoinRequired`] and it
//!   re-synchronizes through the handshake in `engine/recovery.rs`.
//!   Symmetrically, the declaring site self-invalidates its own cached
//!   pages owned by the suspect — callbacks from a dead (or
//!   partitioned-away) owner would never arrive to keep them
//!   consistent.
//!
//! All timers follow the engine's stale-fire idiom: a fire whose state
//! has moved on (for a lease, a timer its peer's record no longer
//! names) is a no-op. With leases disabled (the default) none of
//! this arms, so failure-free runs are unchanged.

use super::{CbKey, Peer, PeerServer, Request, TimerKind};
use crate::msg::{CbId, DeId, Message, TimerId};
use crate::txn::TxnStatus;
use pscc_common::{AbortReason, SiteId, TxnId};

impl PeerServer {
    /// Records a message received from `from`, renewing its lease and
    /// arming the lease timer on first contact. A message from a peer
    /// previously declared dead means it restarted: forget the
    /// declaration and lease it afresh.
    pub(crate) fn observe_peer(&mut self, from: SiteId) {
        let peer = self.peers.entry(from).or_default();
        peer.dead = false;
        if let Some((heard, _)) = &mut peer.lease {
            *heard = self.now;
            return;
        }
        let timer = self.arm(TimerKind::Lease { site: from }, self.cfg.lease_duration);
        self.peer(from).lease = Some((self.now, timer));
    }

    /// Records that this site sent a message to `to`; arms the periodic
    /// heartbeat tick on first remote contact.
    pub(crate) fn note_contact(&mut self, to: SiteId) {
        self.peer(to).heartbeat = true;
        if !self.hb_armed {
            self.hb_armed = true;
            self.arm(TimerKind::Heartbeat, self.cfg.heartbeat_interval);
        }
    }

    /// Lease timer `timer` on `site` fired: declare the peer crashed if
    /// it has been silent for a full lease, else re-arm for the
    /// remaining time. A timer the peer's record no longer names was
    /// retired by a declaration and fires stale.
    pub(crate) fn lease_fired(&mut self, timer: TimerId, site: SiteId) {
        let heard = match self.peers.get(&site).and_then(|p| p.lease) {
            Some((heard, armed)) if armed == timer => heard,
            _ => return,
        };
        let elapsed = self.now.since(heard);
        if elapsed >= self.cfg.lease_duration {
            self.declare_site_dead(site);
        } else {
            let rest = self.cfg.lease_duration.saturating_sub(elapsed);
            let timer = self.arm(TimerKind::Lease { site }, rest);
            self.peer(site).lease = Some((heard, timer));
        }
    }

    /// Client role: `owner` holds no registration of this site any more
    /// (it was declared dead here, or it asks this site to rejoin), so
    /// no callback keeps the pages cached from it consistent. Purge
    /// them, and void the page-wide write grants backed by its lock
    /// state.
    pub(crate) fn owner_lost(&mut self, owner: SiteId) {
        for page in self.cache.pages() {
            if self.owners.owner_of(page) == Some(owner) {
                self.cache.purge(page);
            }
        }
        let owners = &self.owners;
        for h in self.txns.home.values_mut() {
            h.adaptive_pages
                .retain(|p| owners.owner_of(*p) != Some(owner));
        }
    }

    /// The heartbeat tick fired: ping every contacted peer and re-arm.
    pub(crate) fn heartbeat_fired(&mut self) {
        let peers: Vec<SiteId> = (self.peers.iter())
            .filter(|(_, p)| p.heartbeat)
            .map(|(s, _)| *s)
            .collect();
        for p in peers {
            self.send(p, Message::Heartbeat);
        }
        self.arm(TimerKind::Heartbeat, self.cfg.heartbeat_interval);
    }

    /// The bounded callback-response timer fired: any client still
    /// pending on the operation is wedged — declare it crashed (which
    /// removes it from the pending set and re-drives the operation).
    pub(crate) fn cb_response_fired(&mut self, cb: CbId) {
        let Some(op) = self.cb_ops.get(&cb) else {
            return; // operation completed in time
        };
        let mut stragglers: Vec<SiteId> = op
            .pending
            .iter()
            .copied()
            .filter(|s| *s != self.site)
            .collect();
        stragglers.sort();
        for s in stragglers {
            self.declare_site_dead(s);
        }
    }

    /// Declares `dead` crashed and cleans up everything it stranded
    /// here. Idempotent until the site is heard from again (restart).
    /// Harnesses may call this directly; the lease and
    /// callback-response timers call it on expiry.
    pub fn declare_site_dead(&mut self, dead: SiteId) {
        if dead == self.site || self.peers.get(&dead).is_some_and(|p| p.dead) {
            return;
        }
        self.stats.crashes_detected += 1;
        self.obs
            .record(pscc_obs::EventKind::CrashDetected { site: dead });

        // Everything known about the peer goes: its lease (the timer
        // retires with it, so a later contact starts one chain, not a
        // second), its heartbeats, its credits and credit queue (the
        // stalled requests will never be answered; their transactions
        // are aborted below) and its edge watch. The record keeps the
        // declaration and fences the (possibly falsely-suspected) site:
        // its registrations here are about to be revoked, so it must
        // rejoin before any new work is served (engine/recovery.rs).
        let gone = std::mem::replace(
            self.peer(dead),
            Peer {
                dead: true,
                joined: Some(0),
                ..Peer::default()
            },
        );
        if let Some((_, timer)) = gone.lease {
            self.timers.remove(&timer);
        }

        // Client role: pages cached from the dead owner are no longer
        // protected by callbacks.
        self.owner_lost(dead);

        // Abort every in-flight transaction whose home is the dead site:
        // WAL undo, replicated-lock release, callback cancellation and
        // grant re-processing all happen in `server_abort_core`. The
        // exception is transactions the dead site durably *prepared*
        // here: presumed abort would race a decision its home may
        // already have sent, so they stay in doubt until the home
        // rejoins and answers `QueryTxn`.
        let mut orphans: Vec<TxnId> = self
            .txns
            .remote
            .iter()
            .filter(|(t, r)| t.site == dead && !r.prepared)
            .map(|(t, _)| *t)
            .collect();
        orphans.sort();
        for txn in orphans {
            self.stats.orphans_aborted += 1;
            self.obs
                .record(pscc_obs::EventKind::OrphanAborted { txn, dead });
            self.server_abort_core(txn);
        }

        // Its cache no longer exists: revoke its copy-table entries so
        // future callbacks and adaptive-grant checks skip it.
        self.page_table.drop_site_entries(dead);

        // Edge tier (DESIGN.md §11): drop its watch subscription here
        // (owner role), and purge everything *it* owned from the local
        // edge cache (edge role).
        self.edge_site_dead(dead);

        // Overload protection: admission slots its requests held are
        // void, and requests that left for it may not be sent again.
        self.admitted.retain(|(s, _), _| *s != dead);
        for r in self.requests.values_mut().filter(|r| r.to == dead) {
            r.retry = None;
        }

        // Re-drive callback operations blocked on its acknowledgment
        // (the purge is moot — the cache is gone).
        let mut blocked: Vec<CbId> = self
            .cb_ops
            .iter()
            .filter(|(_, op)| op.pending.contains(&dead))
            .map(|(id, _)| *id)
            .collect();
        blocked.sort();
        for cb in blocked {
            if let Some(op) = self.cb_ops.get_mut(&cb) {
                op.pending.remove(&dead);
            }
            self.try_finish_cb_op(cb);
        }

        // Deescalations addressed to the dead client complete with no
        // reported locks (its transactions were aborted above).
        let mut des: Vec<DeId> = self
            .de_ops
            .iter()
            .filter(|(_, op)| op.client == dead)
            .map(|(id, _)| *id)
            .collect();
        des.sort();
        for de in des {
            let page = self.de_ops[&de].page;
            self.server_deescalate_reply(de, page, Vec::new());
        }

        // Client role: drop callback threads running on behalf of the
        // dead owner — it will never collect the acknowledgment.
        let mut keys: Vec<CbKey> = self
            .cb_ctxs
            .keys()
            .copied()
            .filter(|(owner, _)| *owner == dead)
            .collect();
        keys.sort();
        for k in keys {
            self.cancel_cb_ctx(k);
        }

        // Home transactions that enlisted the dead site as a participant
        // cannot commit; abort the still-active ones now instead of
        // letting 2PC hang. Ones already committing need triage: if the
        // decision has not been made (a prepare is still outstanding),
        // presumed abort is safe; but a single-round `CommitReq` or a
        // sent `Decide` may already be durable at the dead site — those
        // are left to resolve via `QueryTxn` when it restarts.
        let mut doomed: Vec<TxnId> = self
            .txns
            .home
            .iter()
            .filter(|(_, h)| h.participants.contains(&dead))
            .map(|(t, _)| *t)
            .collect();
        doomed.sort();
        for txn in doomed {
            let committing = self
                .txns
                .home
                .get(&txn)
                .is_some_and(|h| h.status == TxnStatus::Committing);
            if !committing {
                self.abort_txn_here(txn, AbortReason::Internal);
                continue;
            }
            let commit_pending = !self.reqs_of(txn, Request::is_commit).is_empty();
            let prepare_pending = self.reqs_of(txn, Request::is_prepare);
            if commit_pending || prepare_pending.is_empty() {
                continue; // outcome possibly durable at the dead site
            }
            for r in prepare_pending {
                self.settle(r);
            }
            if let Some(h) = self.txns.home.get_mut(&txn) {
                h.status = TxnStatus::Active;
            }
            self.home_abort(txn, AbortReason::Internal);
        }
    }
}
