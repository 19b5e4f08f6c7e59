//! Per-transaction state, at the home site (master-thread side) and at
//! remote owners (remote-thread side). The paper's threads map onto
//! these records plus the engine's continuation tables.

use crate::msg::{AppOp, ReqId};
use pscc_common::hash::{HashMap, HashSet};
use pscc_common::{AppId, Oid, PageId, SimTime, SiteId, TxnId};

/// Lifecycle of a home-site transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnStatus {
    /// Running operations.
    Active,
    /// Commit in progress (single-round or 2PC).
    Committing,
    /// Abort in progress (waiting for nothing — aborts complete
    /// immediately at the home; remote cleanup is fire-and-forget).
    Aborted,
}

/// Home-site state of a transaction (the master thread's view).
#[derive(Debug)]
pub struct HomeTxn {
    /// The transaction.
    pub id: TxnId,
    /// The owning application.
    pub app: AppId,
    /// Lifecycle.
    pub status: TxnStatus,
    /// The operation currently being executed, if any (one at a time).
    pub current_op: Option<AppOp>,
    /// Remote owners this transaction has spread to (excluding the home
    /// site, whose data is handled locally).
    pub participants: HashSet<SiteId>,
    /// Pages on which this transaction holds a write grant covering the
    /// whole page: an adaptive page lock (PS-AA, §4.1.2) or the EX page
    /// lock of a PS write. Writes to their objects need no server.
    pub adaptive_pages: HashSet<PageId>,
    /// Outstanding requests this transaction has in flight, so an abort
    /// can retire them.
    pub outstanding_reqs: HashSet<ReqId>,
    /// Every object this transaction has updated, tracked independently
    /// of the cache: a dirty page may be evicted and re-fetched (losing
    /// its dirty marks), yet an abort must still invalidate the object's
    /// uncommitted bytes in the cache (paper §3.3).
    pub updated: HashSet<Oid>,
    /// 2PC bookkeeping: participants that have voted yes / acked.
    pub votes: HashSet<SiteId>,
    /// 2PC bookkeeping: acks to the decision.
    pub decided_acks: HashSet<SiteId>,
    /// Whether the local (home-owned) portion of the commit is done.
    pub local_commit_done: bool,
    /// When the application began it (the `txn_latency` start).
    pub started: SimTime,
    /// When the application asked to commit (the `commit_latency`
    /// start).
    pub commit_started: Option<SimTime>,
    /// When 2PC phase one began (the `TwopcPrepare` stage's start); taken
    /// when the last vote arrives.
    pub prepare_started: Option<SimTime>,
    /// When 2PC phase two began (the `TwopcDecide` stage's start).
    pub decide_started: Option<SimTime>,
}

impl HomeTxn {
    /// Creates home state for a transaction begun at `started`.
    pub fn new(id: TxnId, app: AppId, started: SimTime) -> Self {
        HomeTxn {
            id,
            app,
            status: TxnStatus::Active,
            current_op: None,
            participants: HashSet::default(),
            adaptive_pages: HashSet::default(),
            outstanding_reqs: HashSet::default(),
            updated: HashSet::default(),
            votes: HashSet::default(),
            decided_acks: HashSet::default(),
            local_commit_done: false,
            started,
            commit_started: None,
            prepare_started: None,
            decide_started: None,
        }
    }
}

/// Owner-site state of a spread transaction (the remote thread's view).
/// Lock state lives in the site's lock table; applied-but-uncommitted
/// log records live in the server log.
#[derive(Debug)]
pub struct RemoteTxn {
    /// The transaction.
    pub id: TxnId,
    /// Whether a 2PC prepare has been logged.
    pub prepared: bool,
}

impl RemoteTxn {
    /// Creates owner-side state on first contact ("transaction
    /// spreading", §3.2).
    pub fn new(id: TxnId) -> Self {
        RemoteTxn {
            id,
            prepared: false,
        }
    }
}

/// Registry of transactions known at a site, in both roles.
#[derive(Debug, Default)]
pub struct TxnRegistry {
    /// Transactions homed here.
    pub home: HashMap<TxnId, HomeTxn>,
    /// Transactions spread here from other sites.
    pub remote: HashMap<TxnId, RemoteTxn>,
    next_seq: u64,
    /// Emptied [`HomeTxn::updated`] sets of finished transactions, for
    /// the next ones to begin: a set keeps the room one transaction's
    /// writes grew it to, instead of regrowing 0 → 3 → 7 → 14 → 28 for
    /// every transaction.
    spare_updated: Vec<HashSet<Oid>>,
}

impl TxnRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates the next transaction id for `site`.
    pub fn next_txn_id(&mut self, site: SiteId) -> TxnId {
        self.next_seq += 1;
        TxnId::new(site, self.next_seq)
    }

    /// Registers home state for `txn`, begun by `app` at `started`.
    pub fn begin_home(&mut self, txn: TxnId, app: AppId, started: SimTime) {
        let mut home = HomeTxn::new(txn, app, started);
        if let Some(updated) = self.spare_updated.pop() {
            home.updated = updated;
        }
        self.home.insert(txn, home);
    }

    /// Removes the home state of `txn`, keeping its `updated` set for a
    /// later transaction.
    pub fn end_home(&mut self, txn: TxnId) -> Option<HomeTxn> {
        let mut home = self.home.remove(&txn)?;
        let mut updated = std::mem::take(&mut home.updated);
        updated.clear();
        self.spare_updated.push(updated);
        Some(home)
    }

    /// Ensures owner-side state exists for `txn` (spreading).
    pub fn spread(&mut self, txn: TxnId) -> &mut RemoteTxn {
        self.remote
            .entry(txn)
            .or_insert_with(|| RemoteTxn::new(txn))
    }

    /// Whether `txn` is known (either role) and not aborted.
    pub fn is_active(&self, txn: TxnId) -> bool {
        self.home
            .get(&txn)
            .map(|h| h.status != TxnStatus::Aborted)
            .unwrap_or_else(|| self.remote.contains_key(&txn))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_increasing() {
        let mut r = TxnRegistry::new();
        let a = r.next_txn_id(SiteId(1));
        let b = r.next_txn_id(SiteId(1));
        assert!(b.seq > a.seq);
    }

    #[test]
    fn spread_is_idempotent() {
        let mut r = TxnRegistry::new();
        let t = TxnId::new(SiteId(9), 1);
        r.spread(t);
        r.spread(t);
        assert_eq!(r.remote.len(), 1);
        assert!(r.is_active(t));
    }

    #[test]
    fn an_ended_transactions_updated_set_is_reused_empty() {
        let mut r = TxnRegistry::new();
        let a = r.next_txn_id(SiteId(1));
        r.begin_home(a, AppId(0), SimTime::ZERO);
        let home = r.home.get_mut(&a).unwrap();
        for slot in 0..20 {
            home.updated.insert(Oid::new(
                PageId::new(pscc_common::FileId::new(pscc_common::VolId(0), 0), 1),
                slot,
            ));
        }
        let room = home.updated.capacity();
        assert_eq!(r.end_home(a).map(|h| h.id), Some(a));
        let b = r.next_txn_id(SiteId(1));
        r.begin_home(b, AppId(0), SimTime::ZERO);
        let reused = &r.home[&b].updated;
        assert!(reused.is_empty());
        assert_eq!(reused.capacity(), room);
    }

    #[test]
    fn home_status_controls_activity() {
        let mut r = TxnRegistry::new();
        let t = r.next_txn_id(SiteId(1));
        r.home.insert(t, HomeTxn::new(t, AppId(0), SimTime::ZERO));
        assert!(r.is_active(t));
        r.home.get_mut(&t).unwrap().status = TxnStatus::Aborted;
        assert!(!r.is_active(t));
    }
}
