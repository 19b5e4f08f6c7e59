//! The peer-server engine: a deterministic state machine implementing the
//! paper's hierarchical, adaptive cache-consistency protocols (PS, PS-OA,
//! PS-AA) over the substrates (lock table, storage, WAL, page table).
//!
//! One [`PeerServer`] instance is one site of Fig. 1. It plays both
//! roles: *owner* of the pages its volume holds, and *client* for
//! everything else. Inputs (application requests, messages, disk
//! completions, timer fires) are handled synchronously; every suspension
//! point (a lock wait, a callback fan-out, a disk read) is a continuation
//! keyed by the event that resumes it. Messages a site sends to itself —
//! a peer server operating on its own data — are processed in the same
//! `handle` call at zero message cost, which is precisely how the
//! peer-servers architecture saves messages on locally owned data
//! (paper §5.5).

mod client;
mod commit;
pub mod drain;
mod drive;
mod edge;
pub mod large;
mod liveness;
pub mod migration;
mod recovery;
mod server;

pub use drain::DrainPhase;
pub use drive::Env;
pub use migration::MigrationPhase;

use crate::cache::ClientCache;
use crate::copy_table::PageTable;
use crate::fifo_map::BoundedFifoMap;
use crate::msg::{
    AppOp, AppReply, CbId, ControlOp, DeId, DiskOp, DiskReqId, Input, Message, Output, ReqId,
    TimerId,
};
use crate::owner_map::OwnerMap;
use crate::ownership::OwnershipDirectory;
use crate::residency::Residency;
use crate::timeout::TimeoutEstimator;
use crate::txn::{TxnRegistry, TxnStatus};
use pscc_common::hash::{HashMap, HashSet};
use pscc_common::{
    AbortReason, Counters, LockMode, LockableId, Oid, PageId, SimDuration, SimTime, SiteId, SpanId,
    Stage, SystemConfig, TraceCtx, TxnId,
};
use pscc_lockmgr::{Acquire, LockTable, Ticket};
use pscc_storage::Volume;
use pscc_wal::{LogCache, ServerLog};
use std::collections::VecDeque;

/// How many recently-aborted remote transactions a server remembers for
/// straggler refusal (see [`PeerServer::tombstone_txn`]). Transaction
/// ids are never reused, so the only cost of forgetting one early is a
/// reopened (tiny) race window; 4096 outlasts any realistic reorder.
const DEAD_TXN_MEMORY: usize = 4096;

/// How many parked request-contexts the tracer retains (see
/// [`PeerServer::trace_wrap`]). Entries normally retire when the reply
/// departs; a request that dies replyless (abort, crash) would leak its
/// entry, so the table is FIFO-bounded like the tombstone memory.
const REQ_CTX_MEMORY: usize = 4096;

/// What resumes when a lock ticket is granted.
#[derive(Debug, Clone)]
pub(crate) enum LockCont {
    /// Client role: local lock on an object access's granule acquired;
    /// continue the read/write.
    LocalAccess {
        txn: TxnId,
        oid: Oid,
        write: bool,
        bytes: Option<Vec<u8>>,
    },
    /// Client role: local lock for an explicit `Lock` op acquired.
    LocalExplicit {
        txn: TxnId,
        item: LockableId,
        mode: LockMode,
    },
    /// Owner role: SH lock on the read's granule granted; ship the page.
    ServerRead {
        req: ReqId,
        from: SiteId,
        txn: TxnId,
        oid: Oid,
    },
    /// Owner role: EX lock on the write's granule granted; start the
    /// callback operation.
    ServerWrite {
        req: ReqId,
        from: SiteId,
        txn: TxnId,
        oid: Oid,
    },
    /// Owner role: explicit lock granted at the server.
    ServerExplicit {
        req: ReqId,
        from: SiteId,
        txn: TxnId,
        item: LockableId,
        mode: LockMode,
    },
    /// Owner role: EX re-upgrade after a callback-blocked replication
    /// (paper §4.2.1) or during a callback redo (§4.3.2).
    CbUpgrade { cb: CbId },
    /// Client role, callback thread: page-level lock acquired; proceed to
    /// the object lock (hierarchical callbacks, §4.3.2).
    CbCtxPage { key: CbKey, txn: TxnId, oid: Oid },
    /// Client role, callback thread: object EX acquired; invalidate and
    /// acknowledge.
    CbCtxObj { key: CbKey, oid: Oid },
    /// Client role, callback thread: EX on a whole page/file/volume
    /// acquired; purge and acknowledge.
    CbCtxWhole { key: CbKey, target: LockableId },
}

impl LockCont {
    /// The callback thread this continuation resumes, if it is one
    /// (paper Fig. 3, footnote 2). Such a wait feeds neither the
    /// timeout estimator nor the `LockWait` stage, and its timeout
    /// cancels the thread rather than aborting a transaction here.
    fn cb_thread(&self) -> Option<CbKey> {
        match self {
            LockCont::CbCtxPage { key, .. }
            | LockCont::CbCtxObj { key, .. }
            | LockCont::CbCtxWhole { key, .. } => Some(*key),
            _ => None,
        }
    }
}

/// One parked lock wait, in any role: who waits, what resumes on the
/// grant, the timeout bounding it and when it began (DESIGN.md §13).
/// It lives exactly as long as its ticket is pending in the lock table.
#[derive(Debug)]
pub(crate) struct Wait {
    pub txn: TxnId,
    pub cont: LockCont,
    pub timer: TimerId,
    pub since: SimTime,
}

/// Client-side key of a callback operation (callback ids are only unique
/// per issuing owner).
pub(crate) type CbKey = (SiteId, CbId);

/// What resumes when a request's reply arrives.
#[derive(Debug)]
pub(crate) enum ReqCont {
    /// A page fetch for `oid`; optionally continue into a write.
    /// `raced` holds the slots of the page whose callbacks completed here
    /// while the fetch was in flight (the callback race, paper §4.2.4,
    /// Fig. 5): its reply installs them unavailable.
    Fetch {
        oid: Oid,
        then_write: Option<Option<Vec<u8>>>,
        raced: Vec<u16>,
    },
    /// A write-permission request. `deescalated` is set when the page
    /// was deescalated here while it was in flight (the deescalation
    /// race, §4.2.4): its grant's `adaptive` bit is then stale.
    Write {
        oid: Oid,
        bytes: Option<Vec<u8>>,
        deescalated: bool,
    },
    /// An explicit lock request.
    Lock { item: LockableId, mode: LockMode },
    /// A point-read of a forwarded object; completes the current op.
    ForwardRead,
    /// A point-read of a forwarded object that precedes an update of it
    /// (the before-image is needed for the log record).
    ForwardWrite { oid: Oid, bytes: Option<Vec<u8>> },
    /// Single-participant commit awaiting `CommitOk`.
    Commit,
    /// 2PC prepare awaiting the vote of the request's owner.
    Prepare,
    /// A large-object update awaiting `WriteLargeOk`.
    WriteLarge,
    /// A large-object creation awaiting `CreateLargeOk`.
    CreateLarge,
}

/// One outstanding request of a home transaction: what resumes on its
/// reply, where it is addressed, and the state its retries and stage
/// timings need (DESIGN.md §7). Issued by `PeerServer::issue`, retired
/// by `PeerServer::settle` or the transaction's abort.
#[derive(Debug)]
pub(crate) struct Request {
    pub txn: TxnId,
    /// The owner it is addressed to; a redirect re-points it.
    pub to: SiteId,
    pub cont: ReqCont,
    /// When it was issued: a fetch's round trip is measured from here,
    /// across any stall or retry.
    pub issued: SimTime,
    /// When it began waiting for a credit or backing off after `Busy`
    /// (the `QueueWait` stage's start); the first stall since its last
    /// departure wins, and the next departure takes it.
    pub stalled: Option<SimTime>,
    /// `Some` once a data request has left for a remote owner on a
    /// credit, so a `Busy` or `WrongOwner` verdict may send it again;
    /// counts its `Busy` refusals. The owner's death ends it.
    pub retry: Option<u32>,
    /// When a stale `WrongOwner` first stalled it (the `MigrationPause`
    /// stage's start); taken when it departs again.
    pub redirected: Option<SimTime>,
}

impl Request {
    /// The data request (the `credit` column) this record stands for,
    /// rebuilt for a retry or a credit-stalled departure.
    pub(crate) fn data_msg(&self, req: ReqId) -> Option<Message> {
        let txn = self.txn;
        Some(match self.cont {
            ReqCont::Fetch { oid, .. } => Message::ReadObj { req, txn, oid },
            ReqCont::Write { oid, .. } => Message::WriteObj { req, txn, oid },
            ReqCont::Lock { item, mode } => Message::LockItem {
                req,
                txn,
                item,
                mode,
            },
            _ => return None,
        })
    }

    pub(crate) fn is_commit(&self) -> bool {
        matches!(self.cont, ReqCont::Commit)
    }

    pub(crate) fn is_prepare(&self) -> bool {
        matches!(self.cont, ReqCont::Prepare)
    }
}

/// What resumes when a disk request completes.
#[derive(Debug, Clone)]
pub(crate) enum DiskCont {
    /// Ship `page` to the requester (read-path buffer miss at the owner).
    Ship {
        req: ReqId,
        from: SiteId,
        txn: TxnId,
        page: PageId,
        requested: Option<Oid>,
    },
    /// Continue applying commit/prepare records (redo-at-server re-read,
    /// §3.3).
    CommitApply(commit::CommitApply),
    /// The log force at the end of commit application completed.
    CommitForced(commit::CommitApply),
    /// The WAL force at the end of a graceful drain completed; the site
    /// is drained (engine/drain.rs).
    DrainForced,
    /// A migration's `MigrateBegin` force completed at the source; the
    /// range is prepared (engine/migration.rs).
    MigratePrepareForced,
    /// A migration's `MigrateCommit` force completed at the source;
    /// publish the new layout and offer activation.
    MigrateCommitForced,
    /// A migration's staging force (`MigrateIn*`) completed at the
    /// destination; ack the transfer.
    MigrateInForced,
    /// Ship `page` to edge site `to` (edge-fetch buffer miss at the
    /// owner, DESIGN.md §11).
    EdgeShip {
        req: ReqId,
        to: SiteId,
        page: PageId,
    },
    /// Pure accounting (dirty-page writeback); nothing resumes.
    Accounted,
}

/// Why a timer was armed.
#[derive(Debug, Clone)]
pub(crate) enum TimerKind {
    /// The lock wait parked under `ticket`, in any role (the SHORE
    /// timeout mechanism, §3.3/§5.5). Firing aborts the waiter, or, for
    /// a callback thread, drops the thread and notifies the owner to
    /// abort the calling-back transaction.
    LockWait { ticket: Ticket },
    /// A per-peer lease at a server (leases enabled only). Firing with no
    /// message heard from `site` for a full `lease_duration` declares the
    /// site crashed and triggers orphan cleanup; otherwise it re-arms for
    /// the remaining lease time.
    Lease { site: SiteId },
    /// The periodic client-side heartbeat tick (leases enabled only);
    /// firing sends [`Message::Heartbeat`] to every contacted peer and
    /// re-arms.
    Heartbeat,
    /// Bound on a callback fan-out's response time (leases enabled
    /// only). Firing while the operation still has pending clients
    /// declares those clients crashed — they may be heartbeating but
    /// wedged mid-callback.
    CbResponse { cb: CbId },
    /// Backoff before re-sending a request an overloaded owner refused
    /// with [`Message::Busy`] (admission control, DESIGN.md §6).
    BusyRetry { req: ReqId },
    /// Periodic check of a graceful drain's completion condition
    /// (engine/drain.rs); re-arms until the drain finishes or cancels.
    DrainCheck,
    /// Periodic check of a migrating range's quiescence during the
    /// prepare step (engine/migration.rs).
    MigrationCheck,
    /// The edge site's periodic watch renew toward `owner` (DESIGN.md
    /// §11); re-arms itself while any watch-based tier is configured.
    EdgeRenew { owner: SiteId },
}

/// State of a client-side callback thread (the per-callback thread of
/// paper Fig. 3, footnote 2).
#[derive(Debug)]
pub(crate) struct CbCtx {
    pub txn: TxnId,
    /// Locks this thread has acquired (released when it completes).
    pub held: Vec<LockableId>,
    /// Ticket it is currently waiting on, if blocked.
    pub waiting: Option<Ticket>,
}

/// State of a callback operation at its owning server.
#[derive(Debug)]
pub(crate) struct CbOp {
    pub txn: TxnId,
    pub target: LockableId,
    /// Clients whose acknowledgment is still pending.
    pub pending: HashSet<SiteId>,
    /// Whether every acked client purged the whole page (pre-condition
    /// for an adaptive grant, §4.1.2).
    pub all_purged: bool,
    /// Second-objective violation detected (§4.3.2): the called-back
    /// object was handed to another client mid-operation; the callback
    /// must be redone.
    pub violated: bool,
    /// Outstanding EX re-upgrade at the server, if any.
    pub upgrade: Option<Ticket>,
    /// What to do when the operation completes.
    pub done: CbDone,
    /// When the fan-out went out: each acknowledgment's round trip is
    /// measured from here.
    pub started: SimTime,
}

/// Completion action of a callback operation.
#[derive(Debug, Clone)]
pub(crate) enum CbDone {
    /// Grant write permission on `oid` (`WriteGranted`).
    Write { req: ReqId, to: SiteId, oid: Oid },
    /// Grant an explicit lock.
    Lock { req: ReqId, to: SiteId },
}

/// A deescalation operation at the owner (§4.1.2).
#[derive(Debug)]
pub(crate) struct DeOp {
    pub page: PageId,
    /// The adaptive-lock holder the request was sent to; if it crashes,
    /// the operation completes with no reported locks.
    pub client: SiteId,
    /// Work that arrived for this page while deescalation was in flight
    /// (remote requests and owner-local application accesses);
    /// re-processed afterwards.
    pub queued: Vec<Input>,
}

/// What this site knows about one other site, in every role it plays
/// toward it (DESIGN.md §13). A default record says no more than no
/// record.
#[derive(Debug, Default)]
pub(crate) struct Peer {
    /// When the peer was last heard from, and the lease timer armed on
    /// it (leases enabled only). A `Lease` fire counts only while its
    /// timer is this one.
    pub lease: Option<(SimTime, TimerId)>,
    /// This site has sent to the peer: it gets heartbeats.
    pub heartbeat: bool,
    /// Declared crashed here and not heard from since.
    pub dead: bool,
    /// Owner role: the epoch the peer last joined under. `Some(0)`
    /// (never a real epoch) marks a peer declared dead here, which must
    /// rejoin before new protocol work is served.
    pub joined: Option<u64>,
    /// Client role: data requests that left for the peer on a credit
    /// and are not yet answered (at most `fetch_credits`).
    pub credits_used: u32,
    /// Client role: data requests waiting for a credit, oldest first.
    pub stalled: VecDeque<ReqId>,
    /// Edge role: the watch on the peer's pages, while its renew loop
    /// runs: the send time of the last acked renew (`SimTime::ZERO` =
    /// never validated) and the current renew timer.
    pub watch: Option<(SimTime, TimerId)>,
    /// Edge role: the last epoch seen from the peer as an owner
    /// (restart detection).
    pub owner_epoch: Option<u64>,
}

/// An edge fetch in flight for one page (DESIGN.md §11): its request,
/// its send time (the installed copy's freshness anchor) and the reads
/// parked behind it.
#[derive(Debug)]
pub(crate) struct EdgeFetch {
    pub req: ReqId,
    pub sent: SimTime,
    pub waiters: Vec<(TxnId, Oid)>,
}

/// One peer server of the system.
///
/// Feed it each input event through [`PeerServer::drive`], which hands
/// the effects (sends, timer arms, "disk" waits, replies) to the
/// harness's [`Env`]. Every harness does exactly this.
#[derive(Debug)]
pub struct PeerServer {
    pub(crate) site: SiteId,
    pub(crate) cfg: SystemConfig,
    pub(crate) owners: OwnershipDirectory,
    pub(crate) now: SimTime,

    // One lock table serves both roles: at the owner of a granule, a
    // local transaction's lock *is* its server lock (the peer-servers
    // unification of §3.3).
    pub(crate) locks: LockTable,
    pub(crate) txns: TxnRegistry,

    // Owner role.
    pub(crate) volume: Volume,
    pub(crate) residency: Residency,
    /// One record per cached or called-back page: its copies, its open
    /// object callbacks and its deescalation, which index `cb_ops` and
    /// `de_ops` (DESIGN.md §13).
    pub(crate) page_table: PageTable,
    pub(crate) log: ServerLog,
    pub(crate) cb_ops: HashMap<CbId, CbOp>,
    pub(crate) de_ops: HashMap<DeId, DeOp>,
    /// Current overflow page for §4.4 forwarding.
    pub(crate) overflow_page: Option<PageId>,

    // Client role.
    pub(crate) cache: ClientCache,
    pub(crate) log_cache: LogCache,
    pub(crate) pending_fetches: HashMap<PageId, HashSet<ReqId>>,
    pub(crate) cb_ctxs: HashMap<CbKey, CbCtx>,

    // Large objects (paper §4.4).
    pub(crate) large: pscc_storage::LargeObjectStore,
    pub(crate) large_cache: HashMap<PageId, Vec<u8>>,
    pub(crate) large_reads: Vec<large::LargeRead>,
    pub(crate) large_invals: HashMap<ReqId, (SiteId, ReqId, HashSet<SiteId>)>,

    // Continuations.
    pub(crate) waits: HashMap<Ticket, Wait>,
    /// Client role: every outstanding request of a home transaction.
    /// `pending_fetches` and each `HomeTxn::outstanding_reqs` index it.
    pub(crate) requests: HashMap<ReqId, Request>,
    pub(crate) disk_conts: HashMap<DiskReqId, DiskCont>,
    pub(crate) timers: HashMap<TimerId, TimerKind>,

    // Timeout estimation (§5.5).
    pub(crate) timeout_est: TimeoutEstimator,

    // Peers: liveness (leases enabled only), join epochs, credits and
    // edge watches, one record per other site.
    /// Every other site this site has heard from or sent to, in site
    /// order, so heartbeats and per-peer sweeps go out in the same order
    /// under any hash seed.
    pub(crate) peers: std::collections::BTreeMap<SiteId, Peer>,
    /// Whether the periodic heartbeat timer is armed.
    pub(crate) hb_armed: bool,

    // Restart recovery and the rejoin/epoch protocol (server role).
    /// This server's epoch: 1 at first boot, bumped by every restart
    /// recovery. Carried in the rejoin handshake to fence stale clients.
    pub(crate) epoch: u64,
    /// Set by restart recovery: the copy table is gone, so *every* peer
    /// must rejoin — first contact no longer joins implicitly.
    pub(crate) require_rejoin: bool,

    // Overload protection (DESIGN.md §6).
    /// Server role: remote data requests currently admitted, keyed by
    /// requester and request id. Bounded by `cfg.admission_cap`; a
    /// request arriving over the cap is refused with [`Message::Busy`].
    pub(crate) admitted: HashMap<(SiteId, ReqId), TxnId>,
    /// High-water mark of `admitted` (exported as a gauge).
    pub(crate) admitted_peak: usize,
    /// Server role: remote transactions recently aborted here. Data
    /// requests and abort notices travel on different transport lanes,
    /// so a request can arrive *after* the abort that killed its
    /// transaction; admitting it would acquire locks nothing will ever
    /// release. Bounded FIFO memory (`DEAD_TXN_MEMORY`).
    pub(crate) dead_txns: BoundedFifoMap<TxnId, ()>,

    // Control plane (DESIGN.md §8).
    /// Where the site stands in a graceful drain. Unless `Active`, new
    /// remote data requests are refused with `Busy` (engine/drain.rs).
    pub(crate) drain: DrainPhase,

    // Ownership migration (DESIGN.md §10).
    /// In-progress outbound migration at this site as the source.
    pub(crate) migrating: Option<migration::MigrationState>,
    /// Staged (not yet landed) inbound migration at this site as the
    /// destination.
    pub(crate) migrating_in: Option<migration::MigrationInbound>,
    /// Committed-away ranges `(lo, hi, to, layout)` whose destination
    /// has not yet acknowledged activation; cleanup (`MigrateEnd`,
    /// image discard) runs when `MigrateActivated` arrives.
    pub(crate) migrated_out: Vec<(u32, u32, SiteId, u64)>,

    // Edge tier (DESIGN.md §11). All empty unless `cfg.edge_tiers` is
    // non-empty — strict-only runs never touch any of it.
    /// Edge role: the lock-free page store.
    pub(crate) edge_cache: pscc_edge::EdgeCache,
    /// Edge role: outstanding renews awaiting their ack, with send time.
    pub(crate) edge_renews: HashMap<ReqId, (SiteId, SimTime)>,
    /// Edge role: the fetch in flight per page.
    pub(crate) edge_fetches: HashMap<PageId, EdgeFetch>,
    /// Owner role: edge watch subscriptions (lease-reaped).
    pub(crate) edge_subs: pscc_edge::SubscriptionTable,
    /// Owner role: last published commit version per tiered page.
    pub(crate) edge_versions: HashMap<PageId, u64>,

    // Causal tracing (DESIGN.md §9). All empty/unused unless tracing
    // is enabled — untraced runs pay nothing on the hot path.
    /// The context of the traced message currently being handled, if
    /// any; outgoing sends become its children.
    pub(crate) cur_ctx: Option<TraceCtx>,
    /// Last span seen (or root span allocated) per transaction, the
    /// parent fallback for sends outside any message context.
    pub(crate) txn_spans: HashMap<TxnId, (SiteId, SpanId)>,
    /// Parked contexts of traced requests awaiting their reply, keyed
    /// by (requester, request id); FIFO-bounded by `REQ_CTX_MEMORY`.
    pub(crate) req_ctx: BoundedFifoMap<(SiteId, ReqId), TraceCtx>,
    /// Span id allocator (site id packed into the high bits).
    next_span: u64,

    // Id allocation.
    next_req: u64,
    next_cb: u64,
    next_de: u64,
    next_timer: u64,
    next_disk: u64,

    // Self-addressed messages processed within the current drive call,
    // the effects it produced so far, and the disks its env completed at
    // once (engine/drive.rs).
    pub(crate) internal: VecDeque<Input>,
    pub(crate) out: Vec<Output>,
    completed: VecDeque<DiskReqId>,

    /// Event counters.
    pub stats: Counters,

    /// Latency histograms and the (optional) protocol event trace.
    pub obs: crate::obs::SiteObs,
}

impl PeerServer {
    /// Creates a peer server owning the pages `owners` assigns to `site`.
    ///
    /// The volume holds only this site's partition; the client cache is
    /// sized per the configuration (`client_buf_frac` for a pure client,
    /// `peer_buf_frac` when the site owns data — pass the fraction
    /// through `cfg`).
    pub fn new(site: SiteId, cfg: SystemConfig, owners: OwnerMap) -> Self {
        let my_pages = owners.pages_of(site, cfg.database_pages);
        let volume = Volume::create_partition(pscc_common::VolId(site.0), &cfg, &my_pages);
        let owns_data = !my_pages.is_empty();
        let cache_pages = if owns_data && matches!(owners, OwnerMap::Ranges(_)) {
            cfg.peer_buf_pages() as usize
        } else {
            cfg.client_buf_pages() as usize
        };
        let residency_pages = if matches!(owners, OwnerMap::Ranges(_)) {
            cfg.peer_buf_pages() as usize
        } else {
            cfg.server_buf_pages() as usize
        };
        let timeout_est = TimeoutEstimator::new(&cfg);
        PeerServer {
            site,
            owners: OwnershipDirectory::new(owners),
            now: SimTime::ZERO,
            locks: LockTable::new(),
            txns: TxnRegistry::new(),
            volume,
            residency: Residency::new(residency_pages.max(1)),
            page_table: PageTable::new(),
            log: ServerLog::new(),
            cb_ops: HashMap::default(),
            de_ops: HashMap::default(),
            overflow_page: None,
            cache: ClientCache::new(cache_pages.max(1)),
            large: pscc_storage::LargeObjectStore::new(cfg.page_size),
            large_cache: HashMap::default(),
            large_reads: Vec::new(),
            large_invals: HashMap::default(),
            log_cache: LogCache::new(),
            pending_fetches: HashMap::default(),
            cb_ctxs: HashMap::default(),
            waits: HashMap::default(),
            requests: HashMap::default(),
            disk_conts: HashMap::default(),
            timers: HashMap::default(),
            timeout_est,
            peers: std::collections::BTreeMap::new(),
            hb_armed: false,
            epoch: 1,
            require_rejoin: false,
            admitted: HashMap::default(),
            admitted_peak: 0,
            dead_txns: BoundedFifoMap::new(DEAD_TXN_MEMORY),
            drain: DrainPhase::Active,
            migrating: None,
            migrating_in: None,
            migrated_out: Vec::new(),
            edge_cache: pscc_edge::EdgeCache::new(cache_pages.max(1)),
            edge_renews: HashMap::default(),
            edge_fetches: HashMap::default(),
            edge_subs: pscc_edge::SubscriptionTable::new(),
            edge_versions: HashMap::default(),
            cur_ctx: None,
            txn_spans: HashMap::default(),
            req_ctx: BoundedFifoMap::new(REQ_CTX_MEMORY),
            next_span: 0,
            next_req: 0,
            next_cb: 0,
            next_de: 0,
            next_timer: 0,
            next_disk: 0,
            internal: VecDeque::new(),
            out: Vec::new(),
            completed: VecDeque::new(),
            stats: Counters::default(),
            obs: crate::obs::SiteObs::default(),
            cfg,
        }
    }

    /// Turns protocol event tracing on (ring of `cap` events per site)
    /// and returns the handle the harness keeps for snapshots. The lock
    /// table shares the handle so lock events are stamped consistently.
    pub fn enable_trace(&mut self, cap: usize) -> pscc_obs::event::TraceHandle {
        let h = self.obs.enable_trace(self.site, cap);
        self.locks.set_trace(Some(h.clone()));
        h
    }

    /// This site's id.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// The adaptive lock-wait timeout estimator's current state (§5.5),
    /// for export as gauges.
    pub fn timeout_snapshot(&self) -> crate::timeout::TimeoutSnapshot {
        self.timeout_est.snapshot()
    }

    /// The configured protocol.
    pub fn protocol(&self) -> pscc_common::Protocol {
        self.cfg.protocol
    }

    /// Read-only access to the site's volume (tests and examples).
    pub fn volume(&self) -> &Volume {
        &self.volume
    }

    /// Transactions holding `id` in EX mode in this site's lock table.
    /// Chaos harnesses sum this across sites to check the one-exclusive-
    /// copy invariant while faults are in flight.
    pub fn ex_holders(&self, id: LockableId) -> Vec<TxnId> {
        self.locks
            .holders(id)
            .into_iter()
            .filter(|(_, m)| *m == LockMode::Ex)
            .map(|(t, _)| t)
            .collect()
    }

    /// Runs the lock table's full-scan self-check
    /// ([`pscc_lockmgr::LockTable::assert_consistent`]) and checks the
    /// wait table against it: each wait is a ticket still pending for
    /// its transaction, with a live `LockWait` timer naming it, and each
    /// pending ticket has its wait. Then checks the page table against
    /// the open operations, both ways, in time linear in the operations:
    /// each object callback and each deescalation is listed on its page,
    /// and the page table lists no more than those. The seeded harness
    /// calls it after every input.
    ///
    /// # Panics
    ///
    /// Panics with a description of the violated granule, index or
    /// wait.
    #[doc(hidden)]
    pub fn assert_locks_consistent(&self) {
        self.locks.assert_consistent();
        let site = self.site;
        for (ticket, w) in &self.waits {
            assert!(
                self.locks
                    .ticket_info(*ticket)
                    .is_some_and(|(t, _, _)| t == w.txn),
                "site {site}: wait {ticket} of {} is not pending for it",
                w.txn
            );
            assert!(
                matches!(self.timers.get(&w.timer), Some(TimerKind::LockWait { ticket: t }) if t == ticket),
                "site {site}: wait {ticket} has no live timer"
            );
        }
        for ticket in self.locks.pending_tickets() {
            assert!(
                self.waits.contains_key(&ticket),
                "site {site}: pending {ticket} has no wait"
            );
        }
        let mut object_cbs = 0;
        for (cb, op) in &self.cb_ops {
            if let LockableId::Object(o) = op.target {
                object_cbs += 1;
                assert!(
                    self.page_table.callbacks(o.page).contains(cb),
                    "site {site}: {cb} on {o} is not listed on its page"
                );
            }
        }
        for (de, op) in &self.de_ops {
            assert_eq!(
                self.page_table.deescalation(op.page),
                Some(*de),
                "site {site}: {de} is not {}'s deescalation",
                op.page
            );
        }
        assert_eq!(
            self.page_table.listed(),
            (object_cbs, self.de_ops.len()),
            "site {site}: the page table lists callbacks or deescalations that are not open"
        );
    }

    /// Asserts that no transaction state lingers: empty lock table, no
    /// callback/deescalation operations, no suspended continuations, no
    /// live transactions. Test harnesses call this after draining a
    /// workload — any leftover is a protocol leak.
    ///
    /// # Panics
    ///
    /// Panics with a description of the leaked state.
    pub fn assert_quiescent(&self) {
        assert!(
            self.locks.is_empty(),
            "site {}: lock table not empty ({} granules)",
            self.site,
            self.locks.len()
        );
        assert!(
            self.cb_ops.is_empty(),
            "site {}: callback ops leak",
            self.site
        );
        assert!(
            self.cb_ctxs.is_empty(),
            "site {}: callback ctx leak",
            self.site
        );
        assert!(
            self.de_ops.is_empty(),
            "site {}: deescalation leak",
            self.site
        );
        assert_eq!(
            self.page_table.listed(),
            (0, 0),
            "site {}: page records keep callbacks or deescalations",
            self.site
        );
        assert!(self.waits.is_empty(), "site {}: lock wait leak", self.site);
        assert!(
            self.disk_conts.is_empty(),
            "site {}: {} disk continuations leak",
            self.site,
            self.disk_conts.len()
        );
        assert!(
            self.large_reads.is_empty() && self.large_invals.is_empty(),
            "site {}: large-object reads or invalidations leak",
            self.site
        );
        assert!(
            self.requests.is_empty(),
            "site {}: {} outstanding requests leak",
            self.site,
            self.requests.len()
        );
        assert!(
            self.txns.home.is_empty() && self.txns.remote.is_empty(),
            "site {}: live transactions remain",
            self.site
        );
        assert!(
            self.pending_fetches.is_empty(),
            "site {}: pending fetches leak",
            self.site
        );
        assert!(
            self.admitted.is_empty(),
            "site {}: admitted requests leak ({} slots)",
            self.site,
            self.admitted.len()
        );
        assert!(
            self.peers.values().all(|p| p.stalled.is_empty()),
            "site {}: credit-stalled requests leak",
            self.site
        );
        assert!(
            self.migrating.is_none(),
            "site {}: outbound migration still in flight",
            self.site
        );
        assert!(
            self.migrating_in.is_none(),
            "site {}: staged inbound migration leak",
            self.site
        );
        assert!(
            self.migrated_out.is_empty(),
            "site {}: unacknowledged migrated-out ranges leak",
            self.site
        );
        assert!(
            self.edge_fetches.is_empty(),
            "site {}: in-flight edge fetches leak",
            self.site
        );
        // The per-transaction indexes behind commit and abort (DESIGN.md
        // §13) must empty with the last transaction; the lock table's
        // are rebuilt by full scan and compared.
        assert_eq!(
            self.cache.dirty_index_len(),
            0,
            "site {}: dirty-page index lists ended transactions",
            self.site
        );
        assert!(
            self.log_cache.is_empty(),
            "site {}: log cache keeps {} records of ended transactions",
            self.site,
            self.log_cache.len()
        );
        self.cache.assert_consistent();
        self.log_cache.assert_consistent();
        self.locks.assert_consistent();
    }

    /// Detailed dump of live transactions and their locks (diagnostics).
    pub fn debug_txns(&self) -> String {
        let mut out = String::new();
        for t in self.txns.remote.keys() {
            out.push_str(&format!(
                "  remote {t}: locks {:?}\n",
                self.locks.locks_of(*t)
            ));
        }
        for t in self.txns.home.keys() {
            out.push_str(&format!(
                "  home {t}: locks {:?}\n",
                self.locks.locks_of(*t)
            ));
        }
        out
    }

    /// A one-line state summary for diagnosing stuck systems.
    pub fn debug_summary(&self) -> String {
        format!(
            "site {}: locks={} home={} remote={} cb_ops={} cb_ctxs={} de_ops={} waits={} requests={} fetches={} waiting={:?}",
            self.site,
            self.locks.len(),
            self.txns.home.len(),
            self.txns.remote.len(),
            self.cb_ops.len(),
            self.cb_ctxs.len(),
            self.de_ops.len(),
            self.waits.len(),
            self.requests.len(),
            self.pending_fetches.len(),
            self.locks.waiting_txns(),
        )
    }

    fn dispatch(&mut self, input: Input) {
        // Each input establishes its own causal context; a traced
        // message re-sets it in `handle_msg`.
        self.cur_ctx = None;
        match input {
            Input::App(req) => self.handle_app(req),
            Input::Control(op) => match op {
                ControlOp::Drain => self.begin_drain(),
                ControlOp::Undrain => self.undrain(),
                ControlOp::MigratePrepare { lo, hi, to } => self.migrate_prepare(lo, hi, to),
                ControlOp::MigrateCommit => self.migrate_transfer(),
                ControlOp::MigrateAbort => self.migrate_abort(),
                ControlOp::SetTier { file, tier } => self.set_tier(file, tier),
            },
            Input::Msg { from, msg } => self.handle_msg(from, msg),
            Input::DiskDone { req } => self.handle_disk_done(req),
            Input::TimerFired { timer } => self.handle_timer(timer),
        }
    }

    // ------------------------------------------------------------------
    // Effect helpers
    // ------------------------------------------------------------------

    /// Sends `msg` to `to`; a self-send loops back internally for free.
    ///
    /// Remote sends run the overload-protection bookkeeping (DESIGN.md
    /// §7): a departing verdict retires its request's admission slot, and
    /// an outgoing data request spends one of the owner's credits — or
    /// waits locally when the credits are exhausted.
    pub(crate) fn send(&mut self, to: SiteId, msg: Message) {
        if to == self.site {
            self.internal.push_back(Input::Msg {
                from: self.site,
                msg,
            });
            return;
        }
        if let Some((req, _)) = msg.verdict() {
            self.admitted.remove(&(to, req));
        }
        if let Some((req, _)) = credit_request(&msg) {
            let peer = self.peers.entry(to).or_default();
            let record = self.requests.get_mut(&req);
            if peer.credits_used >= self.cfg.fetch_credits.max(1) {
                self.stats.credits_stalled += 1;
                self.obs
                    .record(pscc_obs::EventKind::CreditStalled { peer: to });
                // The queue holds the id; the record rebuilds the
                // message when a credit comes back.
                if let Some(r) = record {
                    r.stalled.get_or_insert(self.now);
                    peer.stalled.push_back(req);
                }
                return;
            }
            peer.credits_used += 1;
            if let Some(r) = record {
                r.retry.get_or_insert(0);
                // A request departing after a credit stall or busy
                // backoff closes its queue-wait interval.
                if let Some(t0) = r.stalled.take() {
                    let waited = self.now.since(t0);
                    self.obs.stage_sample(r.txn, Stage::QueueWait, waited);
                }
            }
        }
        let msg = self.trace_wrap(to, msg);
        self.stats.msgs_sent += 1;
        self.out.push(Output::Send { to, msg });
        if self.cfg.leases_enabled {
            self.note_contact(to);
        }
    }

    // ------------------------------------------------------------------
    // Causal tracing (DESIGN.md §9)
    // ------------------------------------------------------------------

    fn fresh_span(&mut self) -> SpanId {
        self.next_span += 1;
        SpanId((u64::from(self.site.0) << 40) | self.next_span)
    }

    /// Wraps a departing message in a [`Message::Traced`] envelope when
    /// tracing is enabled and a causal parent can be established:
    /// the context being handled right now, the parked context of the
    /// request this message replies to, or the transaction's own span
    /// chain (allocating a root span for a fresh home transaction).
    fn trace_wrap(&mut self, to: SiteId, msg: Message) -> Message {
        if self.obs.trace_handle().is_none() || matches!(msg, Message::Traced { .. }) {
            return msg;
        }
        let msg_txn = msg.txn_id();
        let parked = msg
            .req_of_reply()
            .and_then(|req| self.req_ctx.remove(&(to, req)));
        let (txn, origin, parent) = if let Some(c) = self.cur_ctx {
            // A message for a *different* transaction sent from this
            // context is a real causal edge (e.g. a commit's release
            // unblocking another transaction's grant) — keep the edge,
            // attribute the hop to the message's own transaction, or to
            // its request's for a reply that names none.
            let txn = msg_txn.or(parked.map(|p| p.txn)).unwrap_or(c.txn);
            let origin = if txn == c.txn { c.origin } else { txn.site };
            (txn, origin, c.span)
        } else if let Some(c) = parked {
            (c.txn, c.origin, c.span)
        } else if let Some(t) = msg_txn {
            let fresh = self.fresh_span();
            let (origin, parent) = *self
                .txn_spans
                .entry(t)
                .or_insert_with(|| (t.site, SpanId::NONE));
            let _ = fresh; // root span id reserved even when reused
            (t, origin, parent)
        } else {
            return msg; // no causal anchor: send untraced
        };
        let ctx = TraceCtx {
            txn,
            origin,
            span: self.fresh_span(),
            parent,
        };
        // The span just sent becomes the transaction's latest local
        // anchor, so follow-up sends outside any message context (disk
        // continuations, timer fires) chain rather than re-rooting.
        self.txn_spans.insert(txn, (origin, ctx.span));
        self.obs.record(pscc_obs::EventKind::MsgSend {
            ctx,
            to,
            label: msg.label(),
        });
        Message::Traced {
            ctx,
            inner: Box::new(msg),
        }
    }

    /// Books an arriving traced context: it becomes the current causal
    /// context, the transaction's latest span anchor, and — for a
    /// request expecting a reply — the parked context its (possibly
    /// asynchronous) reply will resume.
    fn trace_note_recv(&mut self, from: SiteId, ctx: TraceCtx, inner: &Message) {
        self.cur_ctx = Some(ctx);
        self.txn_spans.insert(ctx.txn, (ctx.origin, ctx.span));
        if let Some(req) = inner.req_of_request() {
            self.req_ctx.insert((from, req), ctx);
        }
        self.obs.record(pscc_obs::EventKind::MsgRecv {
            ctx,
            from,
            label: inner.label(),
        });
    }

    /// Drops a finished transaction's span anchor (commit or abort).
    pub(crate) fn trace_txn_done(&mut self, txn: TxnId) {
        self.txn_spans.remove(&txn);
    }

    /// The record of `site`, made empty on first use.
    pub(crate) fn peer(&mut self, site: SiteId) -> &mut Peer {
        self.peers.entry(site).or_default()
    }

    /// Returns one credit for `site` (capped at the configured pool) and
    /// releases the oldest request waiting on it, if any.
    pub(crate) fn credit_release(&mut self, site: SiteId) {
        let Some(peer) = self.peers.get_mut(&site) else {
            return;
        };
        peer.credits_used = peer.credits_used.saturating_sub(1);
        let next = peer.stalled.pop_front();
        if let Some(msg) = next.and_then(|req| self.requests.get(&req)?.data_msg(req)) {
            self.send(site, msg);
        }
    }

    /// Remembers a remote transaction aborted at this server, so a data
    /// request of its that was reordered behind the abort (the lanes
    /// differ: aborts ride the priority lane, data the bulk lane) is
    /// refused at admission instead of acquiring lock state nothing
    /// will ever release.
    pub(crate) fn tombstone_txn(&mut self, txn: TxnId) {
        if txn.site == self.site || self.dead_txns.insert(txn, ()).is_some() {
            return;
        }
        self.obs.record(pscc_obs::EventKind::TxnTombstoned { txn });
    }

    /// Tombstones currently remembered for aborted remote transactions
    /// (occupancy of the bounded dead-transaction filter).
    pub fn dead_txn_count(&self) -> usize {
        self.dead_txns.len()
    }

    /// Admits a remote data request, or refuses it with `Busy` when the
    /// server already has `admission_cap` requests in progress. Work
    /// re-driven from a deescalation queue is already admitted and
    /// passes unconditionally.
    pub(crate) fn admit(&mut self, from: SiteId, req: ReqId, txn: TxnId) -> bool {
        if self.dead_txns.contains(&txn) {
            // The home already aborted this transaction; the request
            // overtook nothing — its abort overtook *it*. Refusing with
            // the abort verdict (rather than `Busy`) stops the client
            // from retrying a transaction it has already forgotten.
            self.stats.stale_requests_refused += 1;
            self.send(
                from,
                Message::TxnAborted {
                    txn,
                    reason: AbortReason::Internal,
                },
            );
            return false;
        }
        if self.admitted.contains_key(&(from, req)) {
            return true;
        }
        if self.drain_refuses_admission() || self.admitted.len() >= self.cfg.admission_cap as usize
        {
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
            return false;
        }
        self.admitted.insert((from, req), txn);
        self.admitted_peak = self.admitted_peak.max(self.admitted.len());
        true
    }

    /// Server role: remote data requests currently admitted (the
    /// engine-level queue depth, exported as a gauge).
    pub fn queue_depth(&self) -> usize {
        self.admitted.len()
    }

    /// High-water mark of [`Self::queue_depth`] over the site's life.
    pub fn queue_depth_peak(&self) -> usize {
        self.admitted_peak
    }

    /// Fingerprint of this site's live non-Strict edge-tier map
    /// (DESIGN.md §11), exported so the control plane can watch a tier
    /// rollout converge.
    pub fn tiers_fingerprint(&self) -> u64 {
        self.cfg.tiers_fingerprint()
    }

    pub(crate) fn reply_app(&mut self, reply: AppReply) {
        self.out.push(Output::App(reply));
    }

    pub(crate) fn fresh_req(&mut self) -> ReqId {
        self.next_req += 1;
        ReqId(self.next_req)
    }

    pub(crate) fn fresh_cb(&mut self) -> CbId {
        self.next_cb += 1;
        CbId(self.next_cb)
    }

    pub(crate) fn fresh_de(&mut self) -> DeId {
        self.next_de += 1;
        DeId(self.next_de)
    }

    /// Arms a timer of `kind` to fire after `delay`; its fire comes back
    /// through [`PeerServer::handle_timer`], which finds the kind here.
    pub(crate) fn arm(&mut self, kind: TimerKind, delay: SimDuration) -> TimerId {
        self.next_timer += 1;
        let timer = TimerId(self.next_timer);
        self.timers.insert(timer, kind);
        self.out.push(Output::ArmTimer { timer, delay });
        timer
    }

    pub(crate) fn disk(&mut self, op: DiskOp, cont: DiskCont) {
        self.next_disk += 1;
        let req = DiskReqId(self.next_disk);
        match op {
            DiskOp::ReadPage(_) => self.stats.disk_reads += 1,
            DiskOp::WritePage(_) | DiskOp::WriteLog => self.stats.disk_writes += 1,
        }
        self.disk_conts.insert(req, cont);
        self.out.push(Output::Disk { req, op });
    }

    /// Touches a page in the owner-role buffer, charging writeback I/O
    /// for dirty evictions. Returns `true` if the page was resident (no
    /// read needed).
    pub(crate) fn touch_resident(&mut self, page: PageId, dirty: bool) -> bool {
        let t = self.residency.touch(page, dirty);
        if let Some(victim) = t.writeback {
            self.disk(DiskOp::WritePage(victim), DiskCont::Accounted);
        }
        !t.miss
    }

    /// Acquires `mode` on `item` for `txn`. Granted at once, `cont` runs
    /// now; blocked, it is parked (to run from
    /// [`PeerServer::process_grants`]) and the new wait is checked for
    /// deadlocks.
    pub(crate) fn lock_or_park(
        &mut self,
        txn: TxnId,
        item: LockableId,
        mode: LockMode,
        cont: LockCont,
    ) {
        let (a, _) = self.locks.acquire(txn, item, mode);
        match a {
            Acquire::Granted => self.resume_lock(cont),
            Acquire::Wait(t) => {
                self.park(t, txn, cont);
                self.check_deadlocks();
            }
        }
    }

    /// Parks `cont` under the blocked `ticket` of `txn` and arms the
    /// adaptive lock-wait timeout (§5.5) that bounds it. Every
    /// `Acquire::Wait` in the engine ends here.
    pub(crate) fn park(&mut self, ticket: Ticket, txn: TxnId, cont: LockCont) {
        if cont.cb_thread().is_none() {
            self.stats.lock_waits += 1;
        }
        let timer = self.arm(TimerKind::LockWait { ticket }, self.timeout_est.timeout());
        let since = self.now;
        let wait = Wait {
            txn,
            cont,
            timer,
            since,
        };
        self.waits.insert(ticket, wait);
    }

    /// Takes the wait parked under `ticket` out of the table with its
    /// timer (granted or cancelled); the lock table's side is the
    /// caller's.
    pub(crate) fn unpark(&mut self, ticket: Ticket) -> Option<Wait> {
        let w = self.waits.remove(&ticket)?;
        self.timers.remove(&w.timer);
        Some(w)
    }

    /// Releases every lock of `txn` and cancels its waits; returns the
    /// grants the release made, for [`PeerServer::process_grants`].
    pub(crate) fn release_locks(&mut self, txn: TxnId) -> Vec<pscc_lockmgr::Grant> {
        // Recorded before the release: the lock table records the grants
        // it hands the waiters inside `release_all` (DESIGN.md §9).
        self.obs.record(pscc_obs::EventKind::LocksReleased { txn });
        let out = self.locks.release_all(txn);
        for t in out.cancelled {
            self.unpark(t);
        }
        out.grants
    }

    // ------------------------------------------------------------------
    // Grant processing and deadlock handling
    // ------------------------------------------------------------------

    /// Dispatches lock grants produced by any lock-table mutation.
    pub(crate) fn process_grants(&mut self, grants: Vec<pscc_lockmgr::Grant>) {
        for g in grants {
            let Some(w) = self.unpark(g.ticket) else {
                continue;
            };
            if w.cont.cb_thread().is_none() {
                let waited = self.now.since(w.since);
                self.timeout_est.record_wait(waited);
                self.obs.lock_wait.record(waited);
                self.obs.stage_sample(w.txn, Stage::LockWait, waited);
            }
            self.resume_lock(w.cont);
        }
    }

    /// Runs one granted continuation.
    pub(crate) fn resume_lock(&mut self, cont: LockCont) {
        match cont {
            LockCont::LocalAccess {
                txn,
                oid,
                write,
                bytes,
            } => self.client_access_locked(txn, oid, write, bytes),
            LockCont::LocalExplicit { txn, item, mode } => {
                self.client_explicit_locked(txn, item, mode)
            }
            LockCont::ServerRead {
                req,
                from,
                txn,
                oid,
            } => self.server_read_locked(req, from, txn, oid),
            LockCont::ServerWrite {
                req,
                from,
                txn,
                oid,
            } => self.server_write_locked(req, from, txn, oid),
            LockCont::ServerExplicit {
                req,
                from,
                txn,
                item,
                mode,
            } => self.server_explicit_locked(req, from, txn, item, mode),
            LockCont::CbUpgrade { cb } => self.server_cb_upgrade_done(cb),
            LockCont::CbCtxPage { key, txn, oid } => self.cb_ctx_page_locked(key, txn, oid),
            LockCont::CbCtxObj { key, oid } => self.cb_ctx_obj_locked(key, oid),
            LockCont::CbCtxWhole { key, target } => self.cb_ctx_whole_locked(key, target),
        }
    }

    /// After any request blocks, check for deadlocks and abort the
    /// youngest member of each cycle (paper §4.2.1: the deadlock
    /// detector runs at the server holding the lock state).
    pub(crate) fn check_deadlocks(&mut self) {
        let cycles = self.locks.detect_deadlocks();
        for cycle in cycles {
            // Youngest = max (seq, site).
            if let Some(victim) = cycle.iter().max_by_key(|t| (t.seq, t.site.0)).copied() {
                self.stats.deadlock_aborts += 1;
                self.abort_txn_here(victim, AbortReason::Deadlock);
            }
        }
    }

    fn handle_timer(&mut self, timer: TimerId) {
        let Some(kind) = self.timers.remove(&timer) else {
            return; // stale fire
        };
        match kind {
            TimerKind::LockWait { ticket } => {
                // The wait leaves with its timer: no wait, a stale fire.
                let Some(w) = self.waits.remove(&ticket) else {
                    return;
                };
                self.stats.timeout_aborts += 1;
                match w.cont.cb_thread() {
                    // Drop the local callback thread and notify the
                    // owner, so the calling-back transaction gets aborted.
                    Some(key) => {
                        self.cancel_cb_ctx(key);
                        let (owner, cb) = key;
                        self.send(owner, Message::CbTimeout { cb });
                    }
                    None => self.abort_txn_here(w.txn, AbortReason::LockTimeout),
                }
            }
            TimerKind::Lease { site } => self.lease_fired(timer, site),
            TimerKind::Heartbeat => self.heartbeat_fired(),
            TimerKind::CbResponse { cb } => self.cb_response_fired(cb),
            TimerKind::BusyRetry { req } => self.busy_retry_fired(req),
            TimerKind::DrainCheck => self.drain_check_fired(),
            TimerKind::MigrationCheck => self.migration_check_fired(),
            TimerKind::EdgeRenew { owner } => self.edge_renew_fired(timer, owner),
        }
    }

    fn handle_disk_done(&mut self, req: DiskReqId) {
        let Some(cont) = self.disk_conts.remove(&req) else {
            return;
        };
        match cont {
            DiskCont::Ship {
                req,
                from,
                txn,
                page,
                requested,
            } => self.server_ship(req, from, txn, page, requested),
            DiskCont::CommitApply(state) => self.commit_apply_step(state),
            DiskCont::CommitForced(state) => self.commit_forced(state),
            DiskCont::DrainForced => self.drain_forced(),
            DiskCont::MigratePrepareForced => self.migrate_prepare_forced(),
            DiskCont::MigrateCommitForced => self.migrate_commit_forced(),
            DiskCont::MigrateInForced => self.migrate_in_forced(),
            DiskCont::EdgeShip { req, to, page } => self.server_edge_ship(req, to, page),
            DiskCont::Accounted => {}
        }
    }

    // ------------------------------------------------------------------
    // Input routing
    // ------------------------------------------------------------------

    fn handle_app(&mut self, req: crate::msg::AppRequest) {
        match (req.txn, req.op) {
            (None, AppOp::Begin) => {
                let txn = self.txns.next_txn_id(self.site);
                self.txns.begin_home(txn, req.app, self.now);
                self.reply_app(AppReply::Started { app: req.app, txn });
            }
            (Some(txn), op) => {
                let Some(home) = self.txns.home.get_mut(&txn) else {
                    return; // unknown (e.g. already aborted): drop
                };
                if home.status != TxnStatus::Active {
                    return;
                }
                home.current_op = Some(op.clone());
                match op {
                    AppOp::Begin => {}
                    AppOp::Read(oid) => {
                        // Tiered files may serve from the lock-free edge
                        // cache (DESIGN.md §11); everything else runs the
                        // serializable path.
                        if !self.edge_try_read(txn, oid) {
                            self.client_access(txn, oid, false, None)
                        }
                    }
                    AppOp::Write { oid, bytes } => self.client_access(txn, oid, true, bytes),
                    AppOp::Lock { item, mode } => self.client_explicit(txn, item, mode),
                    AppOp::Create { page, bytes } => self.client_create(txn, page, bytes),
                    AppOp::Delete(oid) => self.client_delete(txn, oid),
                    AppOp::CreateLarge {
                        header_page,
                        content,
                    } => self.client_create_large(txn, header_page, content),
                    AppOp::ReadLarge {
                        header,
                        offset,
                        len,
                    } => self.client_read_large(txn, header, offset, len),
                    AppOp::WriteLarge {
                        header,
                        offset,
                        bytes,
                    } => self.client_write_large(txn, header, offset, bytes),
                    AppOp::Commit => self.client_commit(txn),
                    AppOp::Abort => {
                        self.stats.aborts += 1;
                        self.abort_txn_here(txn, AbortReason::User);
                    }
                }
            }
            (None, _) => {}
        }
    }

    fn handle_msg(&mut self, from: SiteId, msg: Message) {
        // Peel the tracing envelope first: the inner message drives the
        // fence, admission, and credit machinery; the context anchors
        // every message this hop sends in turn.
        let msg = match msg {
            Message::Traced { ctx, inner } => {
                self.trace_note_recv(from, ctx, &inner);
                *inner
            }
            m => m,
        };
        if self.cfg.leases_enabled && from != self.site {
            self.observe_peer(from);
        }
        // Epoch fence: a peer that must rejoin (this server restarted,
        // or declared it dead) gets `RejoinRequired` and its new-work
        // requests dropped (see engine/recovery.rs).
        if self.fence_check(from, &msg) {
            return;
        }
        // Overload protection (DESIGN.md §6): data requests from remote
        // peers pass admission control; an incoming verdict returns the
        // credit its request consumed before normal processing.
        if from != self.site {
            if let Some((req, txn)) = credit_request(&msg) {
                if !self.admit(from, req, txn) {
                    return;
                }
            }
            if msg.verdict().is_some() {
                self.credit_release(from);
            }
        }
        match msg {
            Message::Heartbeat => (),
            // Owner role.
            Message::ReadObj { req, txn, oid } => self.server_read(req, from, txn, oid),
            Message::WriteObj { req, txn, oid } => self.server_write(req, from, txn, oid),
            Message::LockItem {
                req,
                txn,
                item,
                mode,
            } => self.server_explicit(req, from, txn, item, mode),
            Message::CbBlocked { cb, holders } => self.server_cb_blocked(from, cb, holders),
            Message::CbOk { cb, purged_page } => self.server_cb_ok(cb, from, purged_page),
            Message::CbTimeout { cb } => self.server_cb_timeout(cb),
            Message::DeescalateReply { de, page, ex_locks } => {
                self.server_deescalate_reply(de, page, ex_locks)
            }
            Message::Purge {
                client,
                page,
                ship_seq,
                replicate,
                log_records,
            } => self.server_purge(client, page, ship_seq, replicate, log_records),
            Message::CommitReq { req, txn, records } => {
                self.server_commit_req(req, from, txn, records)
            }
            Message::Prepare { req, txn, records } => self.server_prepare(req, from, txn, records),
            Message::Decide { txn, commit } => self.server_decide(from, txn, commit),
            Message::AbortTxn { txn } => self.server_abort_txn(txn),

            // Client role.
            Message::ReadReply { req, snapshot } => self.client_read_reply(req, snapshot),
            Message::WriteGranted { req, adaptive } => self.client_write_granted(req, adaptive),
            Message::LockGranted { req } => self.client_lock_granted(req),
            Message::ReqDenied { req, reason } => self.client_req_denied(req, reason),
            Message::Callback { cb, txn, target } => self.client_callback(from, cb, txn, target),
            Message::CbCancel { cb } => self.cancel_cb_ctx((from, cb)),
            Message::Deescalate { de, page } => self.client_deescalate(from, de, page),
            Message::Busy { req, retry_after } => self.client_busy(from, req, retry_after),
            Message::CommitOk { req } => self.client_commit_ok(req),
            Message::Voted { req, txn, yes } => self.register_vote(req, txn, yes),
            Message::Decided { txn } => self.client_decided(from, txn),
            Message::TxnAborted { txn, reason } => self.client_txn_aborted(txn, reason),

            // Restart recovery and the rejoin/epoch protocol.
            Message::RejoinRequired { epoch } => self.client_rejoin_required(from, epoch),
            Message::Rejoin { epoch } => self.server_rejoin(from, epoch),
            Message::RejoinOk { epoch } => self.client_rejoin_ok(from, epoch),
            Message::QueryTxn { txn } => self.handle_query_txn(from, txn),
            Message::TxnResolved { txn, committed } => {
                self.client_txn_resolved(from, txn, committed)
            }

            // Ownership migration (DESIGN.md §10).
            Message::TransferChunk {
                lo,
                hi,
                layout,
                pages,
                copies,
            } => self.server_transfer_chunk(from, lo, hi, layout, pages, copies),
            Message::TransferAck { lo, hi } => self.server_transfer_ack(from, lo, hi),
            Message::MigrateActivate { lo, hi, layout } => {
                self.server_migrate_activate(from, lo, hi, layout)
            }
            Message::MigrateActivated { lo, hi, layout } => {
                self.server_migrate_activated(from, lo, hi, layout)
            }
            Message::QueryMigration { lo, hi, layout } => {
                self.server_query_migration(from, lo, hi, layout)
            }
            Message::MigrationResolved {
                lo,
                hi,
                layout,
                committed,
            } => self.server_migration_resolved(from, lo, hi, layout, committed),
            Message::WrongOwner {
                req,
                lo,
                hi,
                layout,
                new_owner,
            } => self.client_wrong_owner(from, req, lo, hi, layout, new_owner),

            // Large objects (paper §4.4).
            Message::FetchLargePage { req, page } => self.server_fetch_large(req, from, page),
            Message::LargePageReply { req, page, bytes } => {
                self.client_large_page_reply(req, page, bytes)
            }
            Message::WriteLargeReq {
                req,
                txn,
                header,
                offset,
                bytes,
            } => self.server_write_large(req, from, txn, header, offset, bytes),
            Message::WriteLargeOk { req } => self.client_write_large_ok(req),
            Message::LargeInval { inv, pages } => self.client_large_inval(from, inv, pages),
            Message::LargeInvalOk { inv } => self.server_large_inval_ok(from, inv),
            Message::CreateLargeReq {
                req,
                txn,
                header_page,
                content,
            } => self.server_create_large(req, from, txn, header_page, content),
            Message::CreateLargeOk { req, header } => self.client_create_large_ok(req, header),

            // Forwarded (size-grown) objects, §4.4.
            Message::ReadForwarded { req, txn, oid } => {
                self.server_read_forwarded(req, from, txn, oid)
            }
            Message::ObjectBytes { req, bytes } => self.client_object_bytes(req, bytes),

            // Edge tier (DESIGN.md §11).
            Message::EdgeFetch {
                req,
                page,
                watch,
                lease,
            } => self.server_edge_fetch(from, req, page, watch, lease),
            Message::EdgePage {
                req,
                page,
                version,
                epoch,
                image,
            } => self.edge_page(from, req, page, version, epoch, image),
            Message::EdgeInvalidate { pages } => self.edge_invalidate(pages),
            Message::EdgeRenew { req, lease, files } => {
                self.server_edge_renew(from, req, lease, files)
            }
            Message::EdgeRenewOk {
                req,
                epoch,
                resubscribed,
            } => self.edge_renew_ok(from, req, epoch, resubscribed),

            // Unreachable: the envelope was peeled at the top of this
            // function (nested envelopes are never produced).
            Message::Traced { inner, .. } => {
                debug_assert!(false, "nested Traced envelope");
                self.handle_msg(from, *inner)
            }
        }
    }
}

/// The request and transaction ids of a data request subject to flow
/// and admission control (the `credit` column of the message table).
pub(crate) fn credit_request(msg: &Message) -> Option<(ReqId, TxnId)> {
    if !msg.meta().credit {
        return None;
    }
    Some((msg.req()?, msg.txn_id()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{AppReply, AppRequest};
    use pscc_common::{ids::DUMMY_SLOT, AppId, FileId, SimDuration, SimTime, VolId};

    /// An env that completes every disk at once and records every
    /// effect, disks included, in the order it receives them.
    #[derive(Default)]
    struct Record(Vec<Output>);

    impl Env for Record {
        fn send(&mut self, to: SiteId, msg: Message) {
            self.0.send(to, msg);
        }
        fn disk(&mut self, req: DiskReqId, op: DiskOp) -> bool {
            self.0.disk(req, op);
            true
        }
        fn arm_timer(&mut self, timer: TimerId, delay: SimDuration) {
            self.0.arm_timer(timer, delay);
        }
        fn reply(&mut self, reply: AppReply) {
            self.0.reply(reply);
        }
    }

    /// Feeds `input` to `s`, completing disk requests at once; returns
    /// every output produced.
    fn drive(s: &mut PeerServer, input: Input) -> Vec<Output> {
        let mut rec = Record::default();
        s.drive(SimTime::ZERO, input, &mut rec);
        rec.0
    }

    fn app(s: &mut PeerServer, app: u32, txn: Option<TxnId>, op: AppOp) -> Vec<Output> {
        let req = AppRequest {
            app: AppId(app),
            txn,
            op,
        };
        drive(s, Input::App(req))
    }

    fn begin(s: &mut PeerServer, a: u32) -> TxnId {
        match app(s, a, None, AppOp::Begin)[..] {
            [Output::App(AppReply::Started { txn, .. })] => txn,
            ref other => panic!("unexpected {other:?}"),
        }
    }

    fn done_for(outs: &[Output], t: TxnId) -> bool {
        outs.iter()
            .any(|o| matches!(o, Output::App(AppReply::Done { txn, .. }) if *txn == t))
    }

    fn owner() -> PeerServer {
        let site = SiteId(0);
        let cfg = pscc_common::SystemConfig::small();
        PeerServer::new(site, cfg, OwnerMap::Single(site))
    }

    fn page(n: u32) -> PageId {
        PageId::new(FileId::new(VolId(0), 0), n)
    }

    #[test]
    fn lock_or_park_parks_once_and_resumes_the_same_continuation() {
        let mut s = owner();
        let item = LockableId::File(FileId::new(VolId(0), 0));
        let lock = AppOp::Lock {
            item,
            mode: LockMode::Ex,
        };
        let (t1, t2) = (begin(&mut s, 1), begin(&mut s, 2));

        // Unblocked: the continuation runs at once, nothing is parked.
        let outs = app(&mut s, 1, Some(t1), lock.clone());
        assert!(done_for(&outs, t1));
        assert!(s.waits.is_empty() && s.timers.is_empty());

        // Blocked behind t1: one wait, one timer, no reply yet.
        let outs = app(&mut s, 2, Some(t2), lock);
        assert!(!done_for(&outs, t2));
        let parked: Vec<_> = s.waits.values().map(|w| &w.cont).collect();
        assert!(
            matches!(parked[..], [LockCont::LocalExplicit { txn, .. }] if *txn == t2),
            "{parked:?}"
        );
        assert_eq!(s.timers.len(), 1);
        let armed = outs
            .iter()
            .filter(|o| matches!(o, Output::ArmTimer { .. }))
            .count();
        assert_eq!(armed, 1);

        // t1's commit releases the lock; the grant resumes t2 into
        // `client_explicit_locked`, which answers exactly as it did for
        // the unblocked t1.
        let outs = app(&mut s, 1, Some(t1), AppOp::Commit);
        assert!(done_for(&outs, t2));
        assert!(s.waits.is_empty() && s.timers.is_empty());
    }

    fn armed(outs: &[Output]) -> Vec<TimerId> {
        outs.iter()
            .filter_map(|o| match o {
                Output::ArmTimer { timer, .. } => Some(*timer),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn a_granted_callback_wait_takes_its_timeout_with_it() {
        // A client with two local transactions: `a` holds SH on the page,
        // `b` SH on the object an owner's callback is about to take.
        let owner = SiteId(0);
        let mut s = PeerServer::new(SiteId(1), SystemConfig::small(), OwnerMap::Single(owner));
        let (a, b) = (begin(&mut s, 1), begin(&mut s, 2));
        let o = Oid::new(page(3), 0);
        s.locks.acquire(a, LockableId::Page(o.page), LockMode::Sh);
        s.locks.acquire(b, LockableId::Object(o), LockMode::Sh);

        // The callback thread's page IX waits behind `a`.
        let (cb, txn) = (CbId(7), TxnId::new(owner, 1));
        let target = LockableId::Object(o);
        let msg = Message::Callback { cb, txn, target };
        let page_wait = armed(&drive(&mut s, Input::Msg { from: owner, msg }));
        assert_eq!(page_wait.len(), 1);

        // `a`'s abort grants the page; the object EX then waits behind
        // `b` under a timer of its own.
        let outs = app(&mut s, 1, Some(a), AppOp::Abort);
        let obj_wait = armed(&outs);
        assert_eq!(obj_wait.len(), 1);
        assert_ne!(obj_wait, page_wait);

        // The page wait's timeout left with the page wait.
        let timer = page_wait[0];
        let outs = drive(&mut s, Input::TimerFired { timer });
        assert!(outs.is_empty(), "{outs:?}");
        assert!(s.cb_ctxs.contains_key(&(owner, cb)));

        // The object wait's own timeout drops the thread and tells the
        // owner.
        let timer = obj_wait[0];
        let outs = drive(&mut s, Input::TimerFired { timer });
        assert!(
            matches!(outs[..], [Output::Send { to, msg: Message::CbTimeout { cb: c } }] if to == owner && c == cb),
            "{outs:?}"
        );
        assert!(s.cb_ctxs.is_empty());
        s.assert_locks_consistent();
    }

    #[test]
    fn drive_hands_a_calls_effects_before_its_completions_in_issue_order() {
        let mut s = owner();
        let t = begin(&mut s, 1);
        // Two page ships wait on the disk, with a send issued between
        // them; a stale timer fire adds nothing of its own.
        let ship = |req, p| DiskCont::Ship {
            req: ReqId(req),
            from: SiteId(1),
            txn: t,
            page: page(p),
            requested: None,
        };
        s.disk(DiskOp::ReadPage(page(1)), ship(1, 1));
        s.send(SiteId(2), Message::Heartbeat);
        s.disk(DiskOp::ReadPage(page(2)), ship(2, 2));
        let timer = TimerId(u64::MAX);
        let seen: Vec<String> = drive(&mut s, Input::TimerFired { timer })
            .iter()
            .map(|o| match o {
                Output::Disk { req, .. } => format!("disk {}", req.0),
                Output::Send { msg, .. } => format!("{} {:?}", msg.label(), msg.req_of_reply()),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        let replies = ["read_reply Some(ReqId(1))", "read_reply Some(ReqId(2))"];
        assert_eq!(
            seen,
            ["disk 1", "heartbeat None", "disk 2", replies[0], replies[1]]
        );
    }

    /// Eight small transactions at the owner, fed input by input.
    fn workload(s: &mut PeerServer, mut feed: impl FnMut(&mut PeerServer, Input)) {
        for i in 0..8 {
            let t = Some(TxnId::new(SiteId(0), i + 1));
            let oid = Oid::new(page(i as u32 % 3), 0);
            let ops = [
                (None, AppOp::Begin),
                (t, AppOp::Read(oid)),
                (t, AppOp::Write { oid, bytes: None }),
                (t, AppOp::Commit),
            ];
            for (txn, op) in ops {
                let app = AppId(1);
                feed(s, Input::App(AppRequest { app, txn, op }));
            }
        }
    }

    #[test]
    fn handle_returns_what_drive_hands_a_vec() {
        let (mut a, mut b) = (owner(), owner());
        let (mut handled, mut driven) = (Vec::new(), Vec::new());
        workload(&mut a, |s, i| handled.extend(s.handle(SimTime::ZERO, i)));
        workload(&mut b, |s, i| s.drive(SimTime::ZERO, i, &mut driven));
        assert!(handled.iter().any(|o| matches!(o, Output::Disk { .. })));
        assert_eq!(handled, driven);
    }

    #[test]
    fn drive_reuses_the_engines_output_buffer() {
        let mut s = owner();
        let mut sink = Record::default();
        let mut feed = |s: &mut PeerServer, i| s.drive(SimTime::ZERO, i, &mut sink);
        workload(&mut s, &mut feed);
        let warm = (s.out.as_ptr(), s.out.capacity());
        assert!(warm.1 > 0);
        workload(&mut s, &mut feed);
        assert_eq!((s.out.as_ptr(), s.out.capacity()), warm);
    }

    /// A client's request lifecycle end to end: the owner (site 0) and a
    /// client (site 1) are fed by hand, each at its own virtual time, so
    /// the stage samples the request's record produces are exact.
    struct Pair {
        sites: [PeerServer; 2],
        /// Leave disk requests pending in `Effects::disks` instead of
        /// completing them at once.
        hold_disks: bool,
    }

    const OWNER: usize = 0;
    const CLIENT: usize = 1;

    impl Pair {
        fn new() -> Self {
            Self::with_owners(OwnerMap::Single(SiteId(0)))
        }

        fn with_owners(map: OwnerMap) -> Self {
            let cfg = pscc_common::SystemConfig::small();
            let site = |i| PeerServer::new(SiteId(i), cfg.clone(), map.clone());
            Pair {
                sites: [site(0), site(1)],
                hold_disks: false,
            }
        }

        /// Feeds `input` to site `i` at `at` µs, completing its disks at
        /// once unless they are held; returns what it sent, the timers
        /// it armed, its application replies and its held disks.
        fn step(&mut self, i: usize, at: u64, input: Input) -> Effects {
            let now = SimTime::from_micros(at);
            let s = &mut self.sites[i];
            let mut fx = Effects::default();
            let mut pending = VecDeque::from([input]);
            while let Some(input) = pending.pop_front() {
                for o in s.handle(now, input) {
                    match o {
                        Output::Send { to, msg } => fx.sent.push((to, msg)),
                        Output::ArmTimer { timer, .. } => fx.timers.push(timer),
                        Output::Disk { req, .. } if self.hold_disks => fx.disks.push(req),
                        Output::Disk { req, .. } => pending.push_back(Input::DiskDone { req }),
                        Output::App(r) => fx.replies.push(r),
                    }
                }
            }
            fx
        }

        fn app(&mut self, at: u64, txn: Option<TxnId>, op: AppOp) -> Effects {
            self.app_at(CLIENT, at, txn, op)
        }

        fn app_at(&mut self, i: usize, at: u64, txn: Option<TxnId>, op: AppOp) -> Effects {
            let req = AppRequest {
                app: AppId(1),
                txn,
                op,
            };
            self.step(i, at, Input::App(req))
        }

        /// Delivers `msg` from the other site of the pair to site `i`.
        fn deliver(&mut self, i: usize, at: u64, msg: Message) -> Effects {
            let from = SiteId(1 - i as u32);
            self.step(i, at, Input::Msg { from, msg })
        }

        /// Carries the one message site `i` sent in `fx` to the other
        /// site, and its answer back, all at `at` µs, until a step sends
        /// nothing; returns that step's effects.
        fn settle(&mut self, mut i: usize, at: u64, mut fx: Effects) -> Effects {
            while !fx.sent.is_empty() {
                i = 1 - i;
                fx = self.deliver(i, at, fx.msg());
            }
            fx
        }

        fn begin(&mut self) -> TxnId {
            self.begin_at(CLIENT)
        }

        /// Begins a transaction at site `i`, at its current time.
        fn begin_at(&mut self, i: usize) -> TxnId {
            let now = self.sites[i].now.as_micros();
            match self.app_at(i, now, None, AppOp::Begin).replies[..] {
                [AppReply::Started { txn, .. }] => txn,
                ref other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[derive(Default)]
    struct Effects {
        sent: Vec<(SiteId, Message)>,
        timers: Vec<TimerId>,
        replies: Vec<AppReply>,
        disks: Vec<DiskReqId>,
    }

    impl Effects {
        /// The one message sent.
        fn msg(mut self) -> Message {
            assert_eq!(self.sent.len(), 1, "{:?}", self.sent);
            self.sent.pop().unwrap().1
        }

        /// The one timer armed.
        fn timer(&self) -> TimerId {
            assert_eq!(self.timers.len(), 1);
            self.timers[0]
        }
    }

    fn oid() -> Oid {
        Oid::new(page(3), 0)
    }

    #[test]
    fn a_twice_refused_fetch_times_its_round_trip_from_issue_and_each_backoff_as_queue_wait() {
        let mut p = Pair::new();
        let t = p.begin();
        // The owner sheds every remote data request until its cap is
        // restored.
        p.sites[OWNER].cfg.admission_cap = 0;
        let read = p.app(0, Some(t), AppOp::Read(oid())).msg();
        let busy = p.deliver(OWNER, 100, read).msg();
        let timer = p.deliver(CLIENT, 200, busy).timer();
        let retry = p.step(CLIENT, 1_000, Input::TimerFired { timer }).msg();
        let busy = p.deliver(OWNER, 1_100, retry).msg();
        let timer = p.deliver(CLIENT, 1_200, busy).timer();
        let retry = p.step(CLIENT, 3_000, Input::TimerFired { timer }).msg();
        p.sites[OWNER].cfg.admission_cap = 256;
        let reply = p.deliver(OWNER, 3_100, retry).msg();
        assert!(matches!(reply, Message::ReadReply { .. }), "{reply:?}");
        let done = p.deliver(CLIENT, 3_200, reply);
        assert!(matches!(done.replies[..], [AppReply::Done { .. }]));

        let c = &p.sites[CLIENT];
        assert_eq!(c.stats.busy_retries, 2);
        assert_eq!(c.obs.fetch_rtt.count(), 1);
        assert_eq!(c.obs.fetch_rtt.sum_micros(), 3_200);
        assert_eq!(c.obs.stage_hist(Stage::FetchRtt).sum_micros(), 3_200);
        // Each refusal opens a queue-wait interval and the retry's
        // departure closes it: 200 → 1 000 and 1 200 → 3 000.
        let queued = c.obs.stage_hist(Stage::QueueWait);
        assert_eq!((queued.count(), queued.sum_micros()), (2, 2_600));

        let commit = p.app(4_000, Some(t), AppOp::Commit).msg();
        let ok = p.deliver(OWNER, 4_100, commit).msg();
        let done = p.deliver(CLIENT, 4_200, ok);
        assert!(matches!(done.replies[..], [AppReply::Committed { .. }]));
        p.sites.iter().for_each(PeerServer::assert_quiescent);
    }

    #[test]
    fn a_refused_request_of_an_aborted_transaction_is_never_resent() {
        let mut p = Pair::new();
        let t = p.begin();
        p.sites[OWNER].cfg.admission_cap = 0;
        let read = p.app(0, Some(t), AppOp::Read(oid())).msg();
        let busy = p.deliver(OWNER, 100, read).msg();
        let timer = p.deliver(CLIENT, 200, busy).timer();
        let abort = p.app(300, Some(t), AppOp::Abort);
        assert!(matches!(abort.replies[..], [AppReply::Aborted { .. }]));
        let abort = abort.msg();
        assert!(matches!(abort, Message::AbortTxn { .. }), "{abort:?}");
        let fired = p.step(CLIENT, 1_000, Input::TimerFired { timer });
        assert!(fired.sent.is_empty(), "{:?}", fired.sent);
        let c = &p.sites[CLIENT];
        assert_eq!(c.peers[&SiteId(0)].credits_used, 0);
        assert_eq!(c.stats.busy_retries, 0);
        assert!(p.deliver(OWNER, 1_100, abort).sent.is_empty());
        p.sites.iter().for_each(PeerServer::assert_quiescent);
    }

    #[test]
    fn a_stale_redirect_pauses_the_request_until_its_retry_departs() {
        let mut p = Pair::new();
        let t = p.begin();
        let read = p.app(0, Some(t), AppOp::Read(oid())).msg();
        let Message::ReadObj { req, .. } = read else {
            panic!("{read:?}")
        };
        // A redirect naming a layout no newer than the client's: it
        // routes by its own directory, back to the refusing owner, and
        // backs off instead of ping-ponging.
        let stale = Message::WrongOwner {
            req,
            lo: 0,
            hi: 8,
            layout: 1,
            new_owner: SiteId(2),
        };
        let timer = p.deliver(CLIENT, 500, stale).timer();
        let retry = p.step(CLIENT, 2_000, Input::TimerFired { timer }).msg();
        assert!(matches!(retry, Message::ReadObj { req: r, .. } if r == req));
        let pause = p.sites[CLIENT].obs.stage_hist(Stage::MigrationPause);
        assert_eq!((pause.count(), pause.sum_micros()), (1, 1_500));

        let reply = p.deliver(OWNER, 2_100, retry).msg();
        let done = p.deliver(CLIENT, 2_200, reply);
        assert!(matches!(done.replies[..], [AppReply::Done { .. }]));
        let c = &p.sites[CLIENT];
        assert_eq!(c.obs.stage_hist(Stage::MigrationPause).count(), 1);
        assert_eq!(c.obs.fetch_rtt.sum_micros(), 2_200);
        let commit = p.app(3_000, Some(t), AppOp::Commit).msg();
        let ok = p.deliver(OWNER, 3_100, commit).msg();
        p.deliver(CLIENT, 3_200, ok);
        p.sites.iter().for_each(PeerServer::assert_quiescent);
    }

    #[test]
    fn a_release_is_recorded_before_the_grant_it_causes() {
        use pscc_obs::EventKind as K;
        let mut s = owner();
        let ring = s.enable_trace(1024);
        let item = LockableId::File(FileId::new(VolId(0), 0));
        let mode = LockMode::Ex;
        let (t1, t2) = (begin(&mut s, 1), begin(&mut s, 2));
        app(&mut s, 1, Some(t1), AppOp::Lock { item, mode });
        app(&mut s, 2, Some(t2), AppOp::Lock { item, mode });
        app(&mut s, 1, Some(t1), AppOp::Commit);
        let kinds: Vec<K> = ring.snapshot().into_iter().map(|e| e.kind).collect();
        let released = kinds
            .iter()
            .position(|k| matches!(k, K::LocksReleased { txn } if *txn == t1));
        let granted = kinds
            .iter()
            .position(|k| matches!(k, K::LockGrant { txn, mode: LockMode::Ex, .. } if *txn == t2));
        assert!(released.unwrap() < granted.unwrap(), "{kinds:?}");
    }

    #[test]
    fn a_suspected_peer_keeps_one_lease_timer() {
        let mut cfg = SystemConfig::small();
        cfg.leases_enabled = true;
        let mut s = PeerServer::new(SiteId(0), cfg, OwnerMap::Single(SiteId(0)));
        let peer = SiteId(1);
        let heartbeat = || Input::Msg {
            from: peer,
            msg: Message::Heartbeat,
        };
        drive(&mut s, heartbeat());
        // Each false suspicion is followed by contact from the peer.
        for _ in 0..2 {
            s.declare_site_dead(peer);
            drive(&mut s, heartbeat());
        }
        let leases = (s.timers.values())
            .filter(|k| matches!(k, TimerKind::Lease { site } if *site == peer))
            .count();
        assert_eq!(leases, 1);
    }

    #[test]
    fn a_commit_is_timed_from_its_transactions_record() {
        let mut p = Pair::new();
        let t = p.begin();
        let read = p.app(0, Some(t), AppOp::Read(oid())).msg();
        let reply = p.deliver(OWNER, 10, read).msg();
        p.deliver(CLIENT, 20, reply);
        let commit = p.app(50, Some(t), AppOp::Commit).msg();
        let ok = p.deliver(OWNER, 100, commit).msg();
        let done = p.deliver(CLIENT, 250, ok);
        assert!(matches!(done.replies[..], [AppReply::Committed { .. }]));
        // An aborted transaction leaves no sample.
        let t = p.begin();
        p.app(300, Some(t), AppOp::Abort);

        let c = &p.sites[CLIENT];
        let commit = &c.obs.commit_latency;
        assert_eq!((commit.count(), commit.sum_micros()), (1, 200));
        let txn = &c.obs.txn_latency;
        assert_eq!((txn.count(), txn.sum_micros()), (1, 250));
        p.sites.iter().for_each(PeerServer::assert_quiescent);
    }

    #[test]
    fn a_callback_times_each_ack_of_its_fan_out() {
        let mut p = Pair::new();
        // The client and a third site cache the page, under transactions
        // that have committed.
        let t = p.begin();
        let fx = p.app(0, Some(t), AppOp::Read(oid()));
        p.settle(CLIENT, 0, fx);
        let fx = p.app(0, Some(t), AppOp::Commit);
        p.settle(CLIENT, 0, fx);
        let far = SiteId(2);
        let (req, txn) = (ReqId(1), TxnId::new(far, 1));
        for msg in [
            Message::ReadObj {
                req,
                txn,
                oid: oid(),
            },
            Message::CommitReq {
                req,
                txn,
                records: Vec::new(),
            },
        ] {
            p.step(OWNER, 0, Input::Msg { from: far, msg });
        }

        // An owner-local write calls both copies back at 100 µs; the
        // acknowledgments arrive at 110 and 130 µs.
        let w = p.begin_at(OWNER);
        let write = AppOp::Write {
            oid: oid(),
            bytes: None,
        };
        let fx = p.app_at(OWNER, 100, Some(w), write);
        let to: Vec<SiteId> = fx.sent.iter().map(|(to, _)| *to).collect();
        assert_eq!(to, [SiteId(1), far]);
        let callback = fx.sent.into_iter().next().unwrap().1;
        let Message::Callback { cb, .. } = callback else {
            panic!("{callback:?}")
        };
        let ack = p.deliver(CLIENT, 100, callback).msg();
        p.deliver(OWNER, 110, ack);
        let ack = || Message::CbOk {
            cb,
            purged_page: true,
        };
        let from_far = |msg| Input::Msg { from: far, msg };
        let done = p.step(OWNER, 130, from_far(ack()));
        assert!(matches!(done.replies[..], [AppReply::Done { .. }]));
        // A late duplicate of a closed operation is not measured.
        p.step(OWNER, 150, from_far(ack()));
        p.app_at(OWNER, 200, Some(w), AppOp::Commit);

        let o = &p.sites[OWNER];
        let rtt = &o.obs.callback_rtt;
        assert_eq!((rtt.count(), rtt.sum_micros()), (2, 40));
        assert_eq!(o.obs.stage_hist(Stage::CallbackRtt).sum_micros(), 40);
        p.sites.iter().for_each(PeerServer::assert_quiescent);
    }

    #[test]
    fn a_two_phase_commit_times_its_force_prepare_and_decide() {
        // The client owns the upper half of the database.
        let split = vec![(0, 225, SiteId(0)), (225, 450, SiteId(1))];
        let mut p = Pair::with_owners(OwnerMap::Ranges(split));
        let own = Oid::new(PageId::new(FileId::new(VolId(1), 0), 300), 0);
        let t = p.begin();
        for oid in [oid(), own] {
            let fx = p.app(0, Some(t), AppOp::Write { oid, bytes: None });
            let done = p.settle(CLIENT, 0, fx);
            assert!(matches!(done.replies[..], [AppReply::Done { .. }]));
        }

        // Phase one from 1 000 µs: the client votes at once, the owner
        // forces its prepare from 1 100 to 1 190 µs, and its vote lands
        // at 1 500 µs.
        let prepare = p.app(1_000, Some(t), AppOp::Commit).msg();
        p.hold_disks = true;
        let fx = p.deliver(OWNER, 1_100, prepare);
        p.hold_disks = false;
        assert!(fx.sent.is_empty() && !fx.disks.is_empty());
        let mut voted = Vec::new();
        for req in fx.disks {
            voted.extend(p.step(OWNER, 1_190, Input::DiskDone { req }).sent);
        }
        let [(_, vote)] = &voted[..] else {
            panic!("{voted:?}")
        };
        // Phase two from 1 500 µs; the owner's ack lands at 1 700 µs.
        let decide = p.deliver(CLIENT, 1_500, vote.clone()).msg();
        let decided = p.deliver(OWNER, 1_600, decide).msg();
        let done = p.deliver(CLIENT, 1_700, decided);
        assert!(matches!(done.replies[..], [AppReply::Committed { .. }]));

        let (o, c) = (&p.sites[OWNER].obs, &p.sites[CLIENT].obs);
        assert_eq!(o.stage_hist(Stage::WalForce).sum_micros(), 90);
        let prepare = c.stage_hist(Stage::TwopcPrepare);
        assert_eq!((prepare.count(), prepare.sum_micros()), (1, 500));
        let decide = c.stage_hist(Stage::TwopcDecide);
        assert_eq!((decide.count(), decide.sum_micros()), (1, 200));
        p.sites.iter().for_each(PeerServer::assert_quiescent);
    }

    #[test]
    fn two_dummy_callbacks_on_one_page_both_mark_the_dummy() {
        let mut s = owner();
        let (p3, far) = (page(3), SiteId(3));
        let from = |site, msg| Input::Msg { from: site, msg };
        let read = |req, seq| Message::ReadObj {
            req: ReqId(req),
            txn: TxnId::new(far, seq),
            oid: Oid::new(p3, 0),
        };
        drive(&mut s, from(far, read(1, 1)));
        // Two IX page locks from two clients open two dummy callbacks to
        // the caching site (§4.3.2).
        let mut cbs = Vec::new();
        for txn in [TxnId::new(SiteId(1), 1), TxnId::new(SiteId(2), 1)] {
            let item = LockableId::Page(p3);
            let mode = LockMode::Ix;
            let msg = Message::LockItem {
                req: ReqId(1),
                txn,
                item,
                mode,
            };
            for out in drive(&mut s, from(txn.site, msg)) {
                if let Output::Send {
                    to,
                    msg: Message::Callback { cb, .. },
                } = out
                {
                    assert_eq!(to, far);
                    cbs.push(cb);
                }
            }
        }
        assert_eq!(cbs.len(), 2);
        let ack = Message::CbOk {
            cb: cbs[0],
            purged_page: false,
        };
        drive(&mut s, from(far, ack));
        s.assert_locks_consistent();
        assert_eq!(s.page_table.callbacks(p3), [cbs[1]]);

        // The second callback is still pending at the caching site, so
        // its next copy ships the dummy unavailable (§4.2.3 condition 3).
        let shipped = drive(&mut s, from(far, read(2, 2)))
            .into_iter()
            .find_map(|o| match o {
                Output::Send {
                    msg: Message::ReadReply { snapshot, .. },
                    ..
                } => Some(snapshot.avail),
                _ => None,
            });
        assert!(!shipped.expect("a ship").is_available(DUMMY_SLOT));
    }

    fn obj(slot: u16) -> Oid {
        Oid::new(page(3), slot)
    }

    /// An owner-local transaction writes `slot` of page 3 at `at` µs;
    /// its callback reaches the client, whose ack completes the write.
    fn owner_writes(p: &mut Pair, w: TxnId, at: u64, slot: u16) {
        let write = AppOp::Write {
            oid: obj(slot),
            bytes: None,
        };
        let callback = p.app_at(OWNER, at, Some(w), write).msg();
        assert!(matches!(callback, Message::Callback { .. }), "{callback:?}");
        let ack = p.deliver(CLIENT, at, callback).msg();
        let done = p.deliver(OWNER, at, ack);
        assert!(matches!(done.replies[..], [AppReply::Done { .. }]));
    }

    /// A client transaction's fetch of page 3 for object 0, delivered to
    /// the owner at `at` µs; returns it and the reply, still in flight.
    fn fetch_in_flight(p: &mut Pair, at: u64) -> (TxnId, Message) {
        let t = p.begin();
        let read = p.app(at, Some(t), AppOp::Read(oid())).msg();
        (t, p.deliver(OWNER, at, read).msg())
    }

    #[test]
    fn a_late_reply_of_an_aborted_fetch_does_not_resurrect_a_called_back_object() {
        let mut p = Pair::new();
        let (t, reply) = fetch_in_flight(&mut p, 0);
        let w = p.begin_at(OWNER);
        owner_writes(&mut p, w, 10, 1);
        let abort = p.app(20, Some(t), AppOp::Abort).msg();
        p.deliver(OWNER, 20, abort);
        p.deliver(CLIENT, 30, reply);
        assert!(!p.sites[CLIENT].cache.object_cached(obj(1)));
        p.app_at(OWNER, 40, Some(w), AppOp::Commit);
        p.sites.iter().for_each(PeerServer::assert_quiescent);
    }

    #[test]
    fn a_duplicate_read_reply_does_not_undo_its_race_override() {
        let mut p = Pair::new();
        let (t, reply) = fetch_in_flight(&mut p, 0);
        let w = p.begin_at(OWNER);
        owner_writes(&mut p, w, 10, 1);
        let done = p.deliver(CLIENT, 20, reply.clone());
        assert!(matches!(done.replies[..], [AppReply::Done { .. }]));
        assert!(!p.sites[CLIENT].cache.object_cached(obj(1)));
        assert!(p.deliver(CLIENT, 30, reply).sent.is_empty());
        assert!(!p.sites[CLIENT].cache.object_cached(obj(1)));
        assert!(p.sites[CLIENT].cache.object_cached(obj(0)));
        p.app_at(OWNER, 40, Some(w), AppOp::Commit);
        let fx = p.app(50, Some(t), AppOp::Commit);
        p.settle(CLIENT, 50, fx);
        p.sites.iter().for_each(PeerServer::assert_quiescent);
    }

    #[test]
    fn a_callback_race_marks_only_the_fetches_already_in_flight() {
        let mut p = Pair::new();
        let (_, first) = fetch_in_flight(&mut p, 0);
        let w = p.begin_at(OWNER);
        owner_writes(&mut p, w, 10, 1);
        // A fetch issued after the callback completed is not marked.
        let t2 = p.begin();
        let second = p.app(20, Some(t2), AppOp::Read(oid())).msg();
        p.deliver(CLIENT, 30, first);
        assert!(!p.sites[CLIENT].cache.object_cached(obj(1)));
        // The write commits, so the owner ships object 1 available.
        p.app_at(OWNER, 40, Some(w), AppOp::Commit);
        let reply = p.deliver(OWNER, 50, second).msg();
        p.deliver(CLIENT, 60, reply);
        let c = &p.sites[CLIENT];
        assert!(c.cache.object_cached(obj(1)));
        assert_eq!(c.stats.callback_races, 1);
    }

    #[test]
    fn a_callback_race_marks_every_fetch_in_flight() {
        let mut p = Pair::new();
        let (_, first) = fetch_in_flight(&mut p, 0);
        let (_, second) = fetch_in_flight(&mut p, 0);
        let w = p.begin_at(OWNER);
        owner_writes(&mut p, w, 10, 1);
        for (at, reply) in [(20, first), (30, second)] {
            p.deliver(CLIENT, at, reply);
            assert!(!p.sites[CLIENT].cache.object_cached(obj(1)));
        }
        assert_eq!(p.sites[CLIENT].stats.callback_races, 2);
    }

    #[test]
    fn a_callback_race_marks_every_slot_on_its_fetch() {
        let mut p = Pair::new();
        let (_, reply) = fetch_in_flight(&mut p, 0);
        let w = p.begin_at(OWNER);
        owner_writes(&mut p, w, 10, 1);
        owner_writes(&mut p, w, 20, 2);
        p.deliver(CLIENT, 30, reply);
        let c = &p.sites[CLIENT];
        assert!(c.cache.object_cached(obj(0)));
        assert!(!c.cache.object_cached(obj(1)) && !c.cache.object_cached(obj(2)));
        assert_eq!(c.stats.callback_races, 1);
    }

    #[test]
    fn a_deescalation_voids_the_adaptive_bit_of_one_grant_once() {
        let mut p = Pair::new();
        let t = p.begin();
        let write = |slot| AppOp::Write {
            oid: obj(slot),
            bytes: None,
        };
        let read = p.app(0, Some(t), write(0)).msg();
        let reply = p.deliver(OWNER, 10, read).msg();
        let request = p.deliver(CLIENT, 20, reply).msg();
        let grant = p.deliver(OWNER, 30, request).msg();
        assert!(matches!(
            grant,
            Message::WriteGranted { adaptive: true, .. }
        ));
        // A deescalation of the page reaches the client while the grant
        // is in flight: the grant's adaptive bit is stale.
        let de = Message::Deescalate {
            de: DeId(1),
            page: page(3),
        };
        p.deliver(CLIENT, 40, de);
        p.deliver(CLIENT, 50, grant);
        // So the next write asks again, and its grant's bit holds.
        let request = p.app(60, Some(t), write(1)).msg();
        let grant = p.deliver(OWNER, 70, request).msg();
        assert!(matches!(
            grant,
            Message::WriteGranted { adaptive: true, .. }
        ));
        p.deliver(CLIENT, 80, grant);
        let fx = p.app(90, Some(t), write(2));
        assert!(fx.sent.is_empty() && matches!(fx.replies[..], [AppReply::Done { .. }]));
        assert_eq!(p.sites[CLIENT].stats.adaptive_hits, 1);
        let fx = p.app(100, Some(t), AppOp::Commit);
        p.settle(CLIENT, 100, fx);
        p.sites.iter().for_each(PeerServer::assert_quiescent);
    }
}
