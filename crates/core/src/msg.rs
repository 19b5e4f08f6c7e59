//! The engine's event vocabulary: application requests/replies, the
//! peer-to-peer wire protocol, disk and timer events, and the engine's
//! [`Input`]/[`Output`] types.
//!
//! The protocol messages map 1:1 onto the paper's flows: fetch (read)
//! requests and page-shipping replies (§4.1.1), write-permission requests
//! and grants carrying the adaptive bit (§4.1.2), callbacks with their
//! blocked/ok replies (§4.1.1, Fig. 3), lock deescalation (§4.1.2),
//! explicit hierarchical lock requests (§4.3), purge notices with
//! piggybacked lock replication (§4.1.1), and redo-at-server commit
//! traffic with two-phase commit for multi-owner transactions (§3.3).

use pscc_common::wire::{Wire, WireError};
use pscc_common::{
    AbortReason, AppId, LockMode, LockableId, Oid, PageId, SimDuration, SiteId, TxnId,
};
pub use pscc_common::{SpanId, TraceCtx};
use pscc_storage::{PageSlice, PageSnapshot, SlottedPage};
use pscc_wal::LogRecord;
use std::fmt;

macro_rules! id_newtype {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub u64);

        pscc_common::impl_wire!(struct $name { 0 });

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_newtype!(
    /// A request issued by one site to another; echoed in the reply.
    ReqId,
    "req"
);
id_newtype!(
    /// A callback operation at its owning server.
    CbId,
    "cb"
);
id_newtype!(
    /// A deescalation operation at its owning server.
    DeId,
    "de"
);
id_newtype!(
    /// A timer armed by the engine.
    TimerId,
    "tm"
);
id_newtype!(
    /// A disk request issued by the engine.
    DiskReqId,
    "io"
);

/// Peer-to-peer protocol messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client → owner: fetch the page containing `oid` for reading. The
    /// owner takes an SH lock on the protocol's granule for `oid` (the
    /// object, or its page under PS) on behalf of `txn` and ships the
    /// page.
    ReadObj {
        /// Request id echoed in the reply.
        req: ReqId,
        /// Requesting transaction.
        txn: TxnId,
        /// The needed object.
        oid: Oid,
    },
    /// Owner → client: the shipped page copy.
    ReadReply {
        /// The request this answers.
        req: ReqId,
        /// The page image plus proposed availability (paper §4.2.3).
        snapshot: PageSnapshot,
    },
    /// Client → owner: request write permission on an object (paper
    /// Fig. 3). The owner takes an EX lock on the protocol's granule for
    /// `oid` and calls that granule back.
    WriteObj {
        /// Request id echoed in the reply.
        req: ReqId,
        /// Requesting transaction.
        txn: TxnId,
        /// Object to update.
        oid: Oid,
    },
    /// Owner → client: write permission granted; `adaptive` reports
    /// whether the grant covers the whole page — an adaptive page lock
    /// (PS-AA, §4.1.2) or the EX page lock of a PS write.
    WriteGranted {
        /// The request this answers.
        req: ReqId,
        /// Whether the grant covers the page, so later writes to it need
        /// no server interaction.
        adaptive: bool,
    },
    /// Client → owner: explicit hierarchical lock request (file, volume,
    /// or page level; §4.3).
    LockItem {
        /// Request id echoed in the reply.
        req: ReqId,
        /// Requesting transaction.
        txn: TxnId,
        /// The granule.
        item: LockableId,
        /// Requested mode.
        mode: LockMode,
    },
    /// Owner → client: explicit lock granted.
    LockGranted {
        /// The request this answers.
        req: ReqId,
    },
    /// Owner → client: the requesting transaction was chosen as a victim
    /// while its request waited (deadlock or timeout); it must abort.
    ReqDenied {
        /// The denied request.
        req: ReqId,
        /// Why.
        reason: AbortReason,
    },
    /// Owner → caching client: invalidate `target` on behalf of `txn`
    /// (paper Fig. 3). An object target (a page's *dummy object* too,
    /// §4.3.2) invalidates that object; a page, file or volume target
    /// purges every cached page it covers (PS writes, explicit EX locks,
    /// §4.3.1). The client takes `target` in EX before it acts.
    Callback {
        /// Callback operation id.
        cb: CbId,
        /// The calling-back transaction (the callback thread at the
        /// client runs on its behalf).
        txn: TxnId,
        /// What to invalidate.
        target: LockableId,
    },
    /// Client → owner: the callback blocked on local locks; the listed
    /// holders are replicated at the server for deadlock detection
    /// (paper §4.2.1). The callback remains pending at the client.
    CbBlocked {
        /// The blocked callback.
        cb: CbId,
        /// Local holders conflicting with the callback, with the granule
        /// and mode each holds.
        holders: Vec<(TxnId, LockableId, LockMode)>,
    },
    /// Client → owner: callback complete. `purged_page` reports whether
    /// the whole page was invalidated (enables adaptive grants, §4.1.2).
    CbOk {
        /// The completed callback.
        cb: CbId,
        /// Whether the whole page (or file/volume) was purged.
        purged_page: bool,
    },
    /// Client → owner: the callback's local lock wait timed out; the
    /// calling-back transaction should be aborted (SHORE's lock-wait
    /// timeout resolution of distributed deadlocks, §3.3/§5.5).
    CbTimeout {
        /// The timed-out callback.
        cb: CbId,
    },
    /// Owner → client: the calling-back transaction aborted; drop the
    /// pending callback.
    CbCancel {
        /// The cancelled callback.
        cb: CbId,
    },
    /// Owner → client: give up all adaptive page locks on `page` and
    /// report the EX object locks held by local transactions (paper
    /// §4.1.2).
    Deescalate {
        /// Deescalation operation id.
        de: DeId,
        /// The page losing its adaptive locks.
        page: PageId,
    },
    /// Client → owner: deescalation reply.
    DeescalateReply {
        /// The deescalation this answers.
        de: DeId,
        /// The page.
        page: PageId,
        /// EX object locks held by local transactions on the page's
        /// objects; the server replicates them.
        ex_locks: Vec<(TxnId, Oid)>,
    },
    /// Client → owner: `page` was evicted from the client cache. Carries
    /// the ship sequence number for purge-race detection (§4.2.4), any
    /// local locks on the page's granules that must be replicated, and
    /// early-shipped log records for dirty objects (§3.3, §4.1.1).
    Purge {
        /// The client that purged its copy. Carried explicitly (not
        /// inferred from the transport sender) so a stale-routed purge
        /// can be forwarded to the page's post-migration owner intact.
        client: SiteId,
        /// The purged page.
        page: PageId,
        /// The `ship_seq` of the purged copy.
        ship_seq: u64,
        /// Locks held by active local transactions on the page and its
        /// objects, to replicate at the server.
        replicate: Vec<(TxnId, LockableId, LockMode)>,
        /// Log records for dirty objects on the page, shipped early.
        log_records: Vec<LogRecord>,
    },
    /// Client → owner: single-participant commit (prepare+commit in one
    /// round). The owner applies the records (redo-at-server), forces
    /// the log, releases the transaction's locks, and acks.
    CommitReq {
        /// Request id echoed in the reply.
        req: ReqId,
        /// Committing transaction.
        txn: TxnId,
        /// Its remaining log records for data this owner holds.
        records: Vec<LogRecord>,
    },
    /// Owner → client: commit applied and durable.
    CommitOk {
        /// The request this answers.
        req: ReqId,
    },
    /// Coordinator → participant: 2PC phase one (multi-owner
    /// transactions, §3.3).
    Prepare {
        /// Request id echoed in the vote.
        req: ReqId,
        /// The transaction.
        txn: TxnId,
        /// Log records for data this participant owns.
        records: Vec<LogRecord>,
    },
    /// Participant → coordinator: 2PC vote.
    Voted {
        /// The prepare this answers.
        req: ReqId,
        /// The transaction.
        txn: TxnId,
        /// Whether the participant prepared successfully.
        yes: bool,
    },
    /// Coordinator → participant: 2PC decision.
    Decide {
        /// The transaction.
        txn: TxnId,
        /// Commit (`true`) or abort.
        commit: bool,
    },
    /// Participant → coordinator: decision applied.
    Decided {
        /// The transaction.
        txn: TxnId,
    },
    /// Home → owner: abort `txn` (release its locks, undo shipped
    /// updates, cancel its callbacks).
    AbortTxn {
        /// The aborting transaction.
        txn: TxnId,
    },
    /// Owner → home: `txn` was chosen as a victim at this owner; its
    /// home must run the abort procedure.
    TxnAborted {
        /// The victim.
        txn: TxnId,
        /// Why.
        reason: AbortReason,
    },
    /// Any site → any peer it talks to: "I am alive". Sent periodically
    /// when leases are enabled (`SystemConfig::leases_enabled`) so the
    /// receiver can keep the sender's lease from expiring while the
    /// sender is idle. Carries no payload — receipt of *any* message
    /// renews the lease; this one just guarantees a floor on frequency.
    Heartbeat,
    /// Client → owner: fetch one large-object data page (paper §4.4 —
    /// cached large-object pages are valid without locks; the header
    /// lock provides all access protection).
    FetchLargePage {
        /// Request id echoed in the reply.
        req: ReqId,
        /// The data page.
        page: PageId,
    },
    /// Owner → client: a large-object data page.
    LargePageReply {
        /// The request this answers.
        req: ReqId,
        /// The page.
        page: PageId,
        /// Its content.
        bytes: Vec<u8>,
    },
    /// Client → owner: apply a byte-range update to a large object. The
    /// client must hold an EX lock on the header (acquired through the
    /// ordinary PS-AA object path), which serializes all access.
    WriteLargeReq {
        /// Request id echoed in the reply.
        req: ReqId,
        /// The updating transaction.
        txn: TxnId,
        /// The large object's header.
        header: Oid,
        /// Byte offset within the object.
        offset: u64,
        /// Replacement bytes.
        bytes: Vec<u8>,
    },
    /// Owner → client: the large-object update is applied and all other
    /// cached copies of the touched data pages are invalidated.
    WriteLargeOk {
        /// The request this answers.
        req: ReqId,
    },
    /// Owner → caching client: drop these large-object data pages.
    LargeInval {
        /// Invalidation id (acked).
        inv: ReqId,
        /// Pages to drop.
        pages: Vec<PageId>,
    },
    /// Client → owner: invalidation applied.
    LargeInvalOk {
        /// The invalidation this answers.
        inv: ReqId,
    },
    /// Client → owner: create a large object; its header is stored as a
    /// small object on `header_page` (the client must hold an explicit
    /// EX lock on that page).
    CreateLargeReq {
        /// Request id echoed in the reply.
        req: ReqId,
        /// The creating transaction.
        txn: TxnId,
        /// Page to hold the header object.
        header_page: PageId,
        /// Initial content.
        content: Vec<u8>,
    },
    /// Owner → client: large object created.
    CreateLargeOk {
        /// The request this answers.
        req: ReqId,
        /// The new header's id.
        header: Oid,
    },
    /// Client → owner: point-read an object that has been *forwarded*
    /// off its home page by a size-growing update (paper §4.4). The
    /// owner resolves the tombstone and returns the bytes directly;
    /// forwarded objects are never client-cached (each access round
    /// trips — the usual forwarding penalty).
    ReadForwarded {
        /// Request id echoed in the reply.
        req: ReqId,
        /// The requesting transaction (must hold a lock on the object).
        txn: TxnId,
        /// The object (original, home-page id).
        oid: Oid,
    },
    /// Owner → client: the forwarded object's current bytes (`None` if
    /// it no longer exists).
    ObjectBytes {
        /// The request this answers.
        req: ReqId,
        /// The bytes.
        bytes: Option<Vec<u8>>,
    },

    // Restart recovery and the rejoin/epoch protocol (DESIGN.md §6).
    /// Server → client: the sender will not serve protocol requests
    /// until the client rejoins under the carried epoch — the server
    /// restarted (its copy table is gone) or had declared the client
    /// dead (its registrations were revoked). The fenced request was
    /// dropped; the client must treat its cached pages from this owner
    /// as suspect.
    RejoinRequired {
        /// The server's current epoch.
        epoch: u64,
    },
    /// Client → server: rejoin handshake. The client has invalidated
    /// its cached pages from this owner and aborted the transactions
    /// they supported; register it under `epoch`.
    Rejoin {
        /// The epoch the client is acknowledging (from
        /// [`Message::RejoinRequired`]).
        epoch: u64,
    },
    /// Server → client: rejoin accepted; subsequent requests are
    /// served. Pages are re-fetched lazily on demand.
    RejoinOk {
        /// The epoch the client is now registered under.
        epoch: u64,
    },
    /// Either direction: "what do you know about `txn`'s outcome?".
    /// A recovered participant sends it to the coordinator for each
    /// in-doubt prepared transaction (answered with
    /// [`Message::Decide`], presumed abort when the coordinator has
    /// forgotten the transaction); a coordinator sends it to a restarted
    /// participant whose `CommitOk` was lost (answered with
    /// [`Message::TxnResolved`] from the recovered winner set).
    QueryTxn {
        /// The transaction in question.
        txn: TxnId,
    },
    /// Participant → coordinator: the queried transaction's durable
    /// outcome at the participant.
    TxnResolved {
        /// The transaction queried.
        txn: TxnId,
        /// Whether its commit record survived (`false` means its
        /// effects were never durably applied or were rolled back).
        committed: bool,
    },

    // Overload protection (DESIGN.md §6).
    /// Server → client: the request was *shed* — the server's admitted
    /// in-flight work is at `SystemConfig::admission_cap`. The client
    /// must hold the request and retry after roughly `retry_after`
    /// (exponentially backed off and jittered on repeated sheds). The
    /// request is not failed: shed work must eventually succeed.
    Busy {
        /// The shed request.
        req: ReqId,
        /// Suggested base delay before retrying.
        retry_after: SimDuration,
    },

    // Ownership migration (DESIGN.md §10).
    /// Source → destination: the migrating range's page images and
    /// copy-table entries (retained callback obligations travel as the
    /// copy entries that would induce them). Bulk traffic: it is the
    /// one migration message big enough to queue behind ordinary page
    /// ships without harm.
    TransferChunk {
        /// First page number of the range (inclusive).
        lo: u32,
        /// One past the last page number (exclusive).
        hi: u32,
        /// The layout version the commit will install.
        layout: u64,
        /// Page images in the range present at the source.
        pages: Vec<(PageId, SlottedPage)>,
        /// Copy-table entries for the range: who caches each page, at
        /// which ship sequence.
        copies: Vec<(PageId, SiteId, u64)>,
    },
    /// Destination → source: the transferred range is staged durably
    /// (its `MigrateIn` records are forced); the source may commit.
    TransferAck {
        /// Range lo (echoed).
        lo: u32,
        /// Range hi (echoed).
        hi: u32,
    },
    /// Source → destination: the source's `MigrateCommit` record is
    /// durable — install the staged range, adopt `layout`, and start
    /// serving it.
    MigrateActivate {
        /// Range lo.
        lo: u32,
        /// Range hi.
        hi: u32,
        /// The layout version to adopt.
        layout: u64,
    },
    /// Destination → source: the range is installed and served under
    /// `layout`; the source may discard its images.
    MigrateActivated {
        /// Range lo.
        lo: u32,
        /// Range hi.
        hi: u32,
        /// The adopted layout version.
        layout: u64,
    },
    /// Destination → source (recovery): "did the migration of `[lo,hi)`
    /// at `layout` commit?". A destination that restarts with staged
    /// `MigrateIn` records but no `MigrateLand` asks the source which
    /// way to resolve; answered with [`Message::MigrationResolved`].
    QueryMigration {
        /// Range lo.
        lo: u32,
        /// Range hi.
        hi: u32,
        /// The in-doubt layout version.
        layout: u64,
    },
    /// Source → destination: the in-doubt migration's durable outcome
    /// at the source (also sent unsolicited after a source-side
    /// rollback so a waiting destination discards its staging).
    MigrationResolved {
        /// Range lo.
        lo: u32,
        /// Range hi.
        hi: u32,
        /// The layout version queried.
        layout: u64,
        /// Whether the source's commit record survived.
        committed: bool,
    },
    /// Owner → client: the request named a page this site no longer
    /// owns — the range migrated away under `layout`. The client
    /// applies the layout delta, re-points the request's record to
    /// `new_owner`, and retries; the request is not failed.
    WrongOwner {
        /// The misrouted request.
        req: ReqId,
        /// Migrated range lo.
        lo: u32,
        /// Migrated range hi.
        hi: u32,
        /// The layout version that moved it.
        layout: u64,
        /// Where the range lives now.
        new_owner: SiteId,
    },

    /// Edge → owner: fetch a page image for the lock-free edge cache.
    /// Carries no transaction and takes no locks; the owner answers
    /// with the current committed image. `watch` asks the owner to
    /// (re)subscribe the edge for the page's file under `lease`.
    EdgeFetch {
        /// Echoed in the reply.
        req: ReqId,
        /// The page wanted.
        page: PageId,
        /// Whether to piggyback a watch subscription for the file.
        watch: bool,
        /// Subscription lease duration (ignored unless `watch`).
        lease: SimDuration,
    },
    /// Owner → edge: the committed page image for an [`Message::EdgeFetch`].
    EdgePage {
        /// The fetch answered.
        req: ReqId,
        /// The page shipped.
        page: PageId,
        /// Owner commit version (WAL LSN) the image reflects.
        version: u64,
        /// The owner's current epoch; a bump since the edge's last
        /// contact means invalidations were lost across a restart.
        epoch: u64,
        /// The page image.
        image: SlottedPage,
    },
    /// Owner → edge: pages committed since the subscriber's copies were
    /// shipped, batched per commit. One-way; the edge strikes matching
    /// cache entries and refetches on next read.
    EdgeInvalidate {
        /// `(page, committed version)` pairs.
        pages: Vec<(PageId, u64)>,
    },
    /// Edge → owner: subscribe or renew the invalidation watch for
    /// `files`. Idempotent; replaces the previous subscription.
    EdgeRenew {
        /// Echoed in the reply.
        req: ReqId,
        /// Lease duration from the owner's receipt.
        lease: SimDuration,
        /// File numbers watched.
        files: Vec<u32>,
    },
    /// Owner → edge: the renew is recorded; the watch is live as of the
    /// renew's send time.
    EdgeRenewOk {
        /// The renew answered.
        req: ReqId,
        /// The owner's current epoch (same fencing role as in
        /// [`Message::EdgePage`]).
        epoch: u64,
        /// `true` when this renew *created* coverage instead of
        /// extending it — the previous subscription had lease-expired
        /// (or never existed), so invalidations published during the
        /// gap are lost and the edge must purge its watch-based copies.
        resubscribed: bool,
    },

    /// A causal-tracing envelope: any message wrapped with the
    /// [`TraceCtx`] of the hop that carries it. Engines wrap outgoing
    /// messages only while tracing is enabled and unwrap on receipt, so
    /// untraced runs never see (or pay for) the envelope. The codec
    /// serializes it like any other variant.
    Traced {
        /// The hop's causal context.
        ctx: TraceCtx,
        /// The wrapped protocol message.
        inner: Box<Message>,
    },
}

/// Which mailbox lane a message rides. Transports drain the consistency
/// lane ahead of bulk fetch traffic and never shed it — dropping a
/// callback, a commit decision or a flow-control verdict can wedge a
/// writer waiting on a callback or stall 2PC (the §4.2.4 failure mode
/// induced by load).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Lane {
    /// Lossless, drained first.
    Consistency,
    /// Page fetches, write-permission traffic, page-image transfers.
    Bulk,
}

/// The FIFO path a message travels on. The transport orders messages per
/// `(from, to, path)` only, which is what keeps the §4.2.4 races
/// (callback vs purge, deescalation vs request) possible and what the
/// edge tier's staleness bound is proved from (DESIGN.md §11). Harnesses
/// send on `PathId(msg.path() as u8)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FifoPath {
    /// Client → owner traffic: requests, purge notices, callback
    /// replies, commit traffic — FIFO end to end, which is what SHORE's
    /// piggybacking guarantees. Also everything no other path claims.
    Request = 0,
    /// Owner → client replies and verdicts.
    Reply = 1,
    /// Owner → client callbacks, cancels and deescalations, and the whole
    /// edge protocol.
    Callback = 2,
}

/// A message's part in a request/reply exchange keyed by its `req`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Role {
    /// A request answered by a reply echoing its `req`: the tracer parks
    /// the request's context under it so the (possibly much later) reply
    /// joins the same span tree.
    Asks,
    /// A reply: the tracer recovers the parked request context from its
    /// `req`.
    Answers,
    /// Neither.
    OneWay,
}

/// What a reply decides about the data request it answers, as flow and
/// admission control see it (DESIGN.md §7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// The request is done: the owner retires its admission slot, the
    /// client gets its credit back and settles the request's record.
    Final,
    /// The request must be sent again (shed, or routed to the wrong
    /// owner): the owner retires its admission slot, the client gets its
    /// credit back and keeps the record to rebuild the request from.
    Redirect,
}

/// Everything about a [`Message`] variant that does not depend on its
/// payload: one row of the table in [`Message::meta`].
#[derive(Debug)]
pub(crate) struct MsgMeta {
    /// A short static label for trace events and Perfetto span names.
    pub(crate) label: &'static str,
    pub(crate) lane: Lane,
    pub(crate) path: FifoPath,
    pub(crate) role: Role,
    /// Starts new protocol work at an owner, so the epoch fence drops it
    /// from a peer that has not rejoined. Everything else (replies, acks,
    /// decisions, heartbeats, the rejoin handshake itself, and outcome
    /// queries) must keep flowing or recovery could never converge.
    pub(crate) fenced: bool,
    /// A data request subject to flow and admission control; the rest —
    /// callbacks, commit, 2PC, rejoin — is exempt so overload can never
    /// wedge transaction termination.
    pub(crate) credit: bool,
    /// A reply that decides a data request.
    pub(crate) verdict: Option<Verdict>,
}

/// The table that says what each [`Message`] variant is. One row per
/// variant, no wildcard: a variant without a row does not compile, so a
/// new message cannot silently land on the bulk lane, path 0, unfenced,
/// uncredited and without a verdict.
///
/// The table is also the wire encoding (DESIGN.md §1): a row's position
/// is the variant's tag byte and its field list the order its fields are
/// written in, so moving a row or a field changes the bytes and must
/// bump [`WIRE_VERSION`](pscc_common::wire::WIRE_VERSION). The tracing
/// envelope, which has no row, is tag [`ENVELOPE_TAG`].
macro_rules! msg_table {
    (@fenced fenced) => { true };
    (@fenced -) => { false };
    (@credit credit) => { true };
    (@credit -) => { false };
    (@verdict final) => { Some(Verdict::Final) };
    (@verdict redirect) => { Some(Verdict::Redirect) };
    (@verdict -) => { None };
    // `@pick name; field field ...` is the row's `name` field, or `None`.
    // Each field comes twice: the first copy is matched against the
    // literal name, the second is the caller's own binding, so the
    // expansion names the variable the match arm bound.
    (@pick req; req $f:ident $($rest:ident)*) => { Some(*$f) };
    (@pick txn; txn $f:ident $($rest:ident)*) => { Some(*$f) };
    (@pick $name:ident; $other:ident $f:ident $($rest:ident)*) => {
        msg_table!(@pick $name; $($rest)*)
    };
    (@pick $name:ident;) => { None };
    ($(
        $variant:ident => $label:literal, $lane:ident, $path:ident, $role:ident,
        $fenced:tt, $credit:tt, $verdict:tt { $($field:ident),* };
    )*) => {
        /// A row of the table, by position: a variant's tag byte.
        enum MsgTag {
            $($variant),*
        }

        impl MsgTag {
            const ALL: &'static [MsgTag] = &[$(MsgTag::$variant),*];
        }

        const _: () = assert!(MsgTag::ALL.len() < ENVELOPE_TAG as usize);

        impl Message {
            /// This variant's row. A tracing envelope is whatever its
            /// payload is.
            pub(crate) fn meta(&self) -> &'static MsgMeta {
                match self {
                    Message::Traced { inner, .. } => inner.meta(),
                    $(Message::$variant { .. } => {
                        const ROW: MsgMeta = MsgMeta {
                            label: $label,
                            lane: Lane::$lane,
                            path: FifoPath::$path,
                            role: Role::$role,
                            fenced: msg_table!(@fenced $fenced),
                            credit: msg_table!(@credit $credit),
                            verdict: msg_table!(@verdict $verdict),
                        };
                        &ROW
                    })*
                }
            }

            /// The transaction this message works on behalf of, when
            /// its row has a `txn` field (used to root a trace span when
            /// no incoming context exists).
            #[allow(unused_variables)]
            pub fn txn_id(&self) -> Option<TxnId> {
                match self {
                    Message::Traced { inner, .. } => inner.txn_id(),
                    $(Message::$variant { $($field),* } => {
                        msg_table!(@pick txn; $($field $field)*)
                    })*
                }
            }

            /// The request id this message carries, when its row has a
            /// `req` field.
            #[allow(unused_variables)]
            pub(crate) fn req(&self) -> Option<ReqId> {
                match self {
                    Message::Traced { inner, .. } => inner.req(),
                    $(Message::$variant { $($field),* } => {
                        msg_table!(@pick req; $($field $field)*)
                    })*
                }
            }

            /// Decodes one message. A tracing envelope is accepted only
            /// where `envelope` says, so an envelope inside an envelope is
            /// refused before it can nest any deeper.
            fn get_wire(input: &mut &[u8], envelope: bool) -> Result<Self, WireError> {
                let tag = u8::get(input)?;
                match MsgTag::ALL.get(usize::from(tag)) {
                    $(Some(MsgTag::$variant) => Ok(Message::$variant {
                        $($field: Wire::get(input)?),*
                    }),)*
                    None if tag == ENVELOPE_TAG && envelope => Ok(Message::Traced {
                        ctx: Wire::get(input)?,
                        inner: Box::new(Message::get_wire(input, false)?),
                    }),
                    None if tag == ENVELOPE_TAG => {
                        Err(WireError::Invalid("a tracing envelope inside another"))
                    }
                    None => Err(WireError::Tag { ty: "Message", tag }),
                }
            }
        }

        impl Wire for Message {
            fn put(&self, out: &mut Vec<u8>) {
                match self {
                    $(Message::$variant { $($field),* } => {
                        out.push(MsgTag::$variant as u8);
                        $(Wire::put($field, out);)*
                    })*
                    Message::Traced { ctx, inner } => {
                        out.push(ENVELOPE_TAG);
                        ctx.put(out);
                        inner.put(out);
                    }
                }
            }

            fn get(input: &mut &[u8]) -> Result<Self, WireError> {
                Message::get_wire(input, true)
            }
        }
    };
}

/// The tag byte of [`Message::Traced`], outside the table's range.
const ENVELOPE_TAG: u8 = u8::MAX;

msg_table! {
    // variant           label                 lane         path      role     fenced  credit  verdict   fields, in wire order
    // Data requests and their verdicts.
    ReadObj           => "read_obj",           Bulk,        Request,  Asks,    fenced, credit, -         { req, txn, oid };
    ReadReply         => "read_reply",         Bulk,        Reply,    Answers, -,      -,      final     { req, snapshot };
    WriteObj          => "write_obj",          Bulk,        Request,  Asks,    fenced, credit, -         { req, txn, oid };
    WriteGranted      => "write_granted",      Bulk,        Reply,    Answers, -,      -,      final     { req, adaptive };
    LockItem          => "lock_item",          Bulk,        Request,  Asks,    fenced, credit, -         { req, txn, item, mode };
    LockGranted       => "lock_granted",       Bulk,        Reply,    Answers, -,      -,      final     { req };
    ReqDenied         => "req_denied",         Consistency, Reply,    Answers, -,      -,      final     { req, reason };
    // Callbacks and deescalation: the owner's side rides its own path,
    // the client's answers share the request path with purge notices
    // (§4.2.4).
    Callback          => "callback",           Consistency, Callback, OneWay,  -,      -,      -         { cb, txn, target };
    CbBlocked         => "cb_blocked",         Consistency, Request,  OneWay,  -,      -,      -         { cb, holders };
    CbOk              => "cb_ok",              Consistency, Request,  OneWay,  -,      -,      -         { cb, purged_page };
    CbTimeout         => "cb_timeout",         Consistency, Request,  OneWay,  -,      -,      -         { cb };
    CbCancel          => "cb_cancel",          Consistency, Callback, OneWay,  -,      -,      -         { cb };
    Deescalate        => "deescalate",         Consistency, Callback, OneWay,  -,      -,      -         { de, page };
    DeescalateReply   => "deescalate_reply",   Consistency, Request,  OneWay,  -,      -,      -         { de, page, ex_locks };
    Purge             => "purge",              Bulk,        Request,  OneWay,  fenced, -,      -         { client, page, ship_seq, replicate, log_records };
    // Commit, 2PC, abort, liveness.
    CommitReq         => "commit_req",         Consistency, Request,  Asks,    fenced, -,      -         { req, txn, records };
    CommitOk          => "commit_ok",          Consistency, Reply,    Answers, -,      -,      -         { req };
    Prepare           => "prepare",            Consistency, Request,  Asks,    fenced, -,      -         { req, txn, records };
    Voted             => "voted",              Consistency, Reply,    Answers, -,      -,      -         { req, txn, yes };
    Decide            => "decide",             Consistency, Request,  OneWay,  -,      -,      -         { txn, commit };
    Decided           => "decided",            Consistency, Reply,    OneWay,  -,      -,      -         { txn };
    AbortTxn          => "abort_txn",          Consistency, Request,  OneWay,  -,      -,      -         { txn };
    TxnAborted        => "txn_aborted",        Consistency, Reply,    OneWay,  -,      -,      -         { txn, reason };
    Heartbeat         => "heartbeat",          Consistency, Request,  OneWay,  -,      -,      -         {};
    // Large and forwarded objects (§4.4).
    FetchLargePage    => "fetch_large_page",   Bulk,        Request,  Asks,    fenced, -,      -         { req, page };
    LargePageReply    => "large_page_reply",   Bulk,        Request,  Answers, -,      -,      -         { req, page, bytes };
    WriteLargeReq     => "write_large_req",    Bulk,        Request,  Asks,    fenced, -,      -         { req, txn, header, offset, bytes };
    WriteLargeOk      => "write_large_ok",     Bulk,        Request,  Answers, -,      -,      -         { req };
    LargeInval        => "large_inval",        Bulk,        Request,  OneWay,  -,      -,      -         { inv, pages };
    LargeInvalOk      => "large_inval_ok",     Bulk,        Request,  OneWay,  -,      -,      -         { inv };
    CreateLargeReq    => "create_large_req",   Bulk,        Request,  Asks,    fenced, -,      -         { req, txn, header_page, content };
    CreateLargeOk     => "create_large_ok",    Bulk,        Request,  Answers, -,      -,      -         { req, header };
    ReadForwarded     => "read_forwarded",     Bulk,        Request,  Asks,    fenced, -,      -         { req, txn, oid };
    ObjectBytes       => "object_bytes",       Bulk,        Request,  Answers, -,      -,      -         { req, bytes };
    // Restart recovery and the rejoin/epoch protocol; a shed `Busy` must
    // not itself be shed.
    RejoinRequired    => "rejoin_required",    Consistency, Reply,    OneWay,  -,      -,      -         { epoch };
    Rejoin            => "rejoin",             Consistency, Request,  OneWay,  -,      -,      -         { epoch };
    RejoinOk          => "rejoin_ok",          Consistency, Reply,    OneWay,  -,      -,      -         { epoch };
    QueryTxn          => "query_txn",          Consistency, Request,  OneWay,  -,      -,      -         { txn };
    TxnResolved       => "txn_resolved",       Consistency, Reply,    OneWay,  -,      -,      -         { txn, committed };
    Busy              => "busy",               Consistency, Reply,    Answers, -,      -,      redirect  { req, retry_after };
    // Migration transfer and fencing verdicts must never queue behind the
    // bulk lane: a shed WrongOwner wedges the redirected client, a
    // delayed MigrateActivate leaves the range ownerless. Only the
    // page-image TransferChunk is bulk.
    TransferChunk     => "transfer_chunk",     Bulk,        Request,  OneWay,  -,      -,      -         { lo, hi, layout, pages, copies };
    TransferAck       => "transfer_ack",       Consistency, Reply,    OneWay,  -,      -,      -         { lo, hi };
    MigrateActivate   => "migrate_activate",   Consistency, Reply,    OneWay,  -,      -,      -         { lo, hi, layout };
    MigrateActivated  => "migrate_activated",  Consistency, Reply,    OneWay,  -,      -,      -         { lo, hi, layout };
    QueryMigration    => "query_migration",    Consistency, Reply,    OneWay,  -,      -,      -         { lo, hi, layout };
    MigrationResolved => "migration_resolved", Consistency, Reply,    OneWay,  -,      -,      -         { lo, hi, layout, committed };
    WrongOwner        => "wrong_owner",        Consistency, Reply,    Answers, -,      -,      redirect  { req, lo, hi, layout, new_owner };
    // The whole edge protocol rides the consistency lane on ONE path: an
    // `EdgeRenewOk` must not overtake the `EdgeInvalidate`s published
    // before it, and an `EdgePage` must not overtake the invalidation
    // that supersedes it (DESIGN.md §11). They share the callback path,
    // which already carries the owner-to-client consistency traffic.
    EdgeFetch         => "edge_fetch",         Consistency, Callback, Asks,    -,      -,      -         { req, page, watch, lease };
    EdgePage          => "edge_page",          Consistency, Callback, Answers, -,      -,      -         { req, page, version, epoch, image };
    EdgeInvalidate    => "edge_invalidate",    Consistency, Callback, OneWay,  -,      -,      -         { pages };
    EdgeRenew         => "edge_renew",         Consistency, Callback, Asks,    -,      -,      -         { req, lease, files };
    EdgeRenewOk       => "edge_renew_ok",      Consistency, Callback, Answers, -,      -,      -         { req, epoch, resubscribed };
}

impl Message {
    /// Approximate wire size in bytes, for the network cost model. Page
    /// ships dominate; everything else is small and fixed-ish.
    pub fn wire_size(&self) -> usize {
        match self {
            // The envelope itself costs one context's worth of bytes.
            Message::Traced { inner, .. } => 32 + inner.wire_size(),
            Message::ReadReply { snapshot, .. } => snapshot.wire_size(),
            Message::CommitReq { records, .. } | Message::Prepare { records, .. } => {
                64 + records.iter().map(LogRecord::wire_size).sum::<usize>()
            }
            Message::Purge {
                replicate,
                log_records,
                ..
            } => {
                64 + replicate.len() * 24
                    + log_records.iter().map(LogRecord::wire_size).sum::<usize>()
            }
            Message::CbBlocked { holders, .. } => 32 + holders.len() * 24,
            Message::DeescalateReply { ex_locks, .. } => 32 + ex_locks.len() * 24,
            Message::LargePageReply { bytes, .. } => 64 + bytes.len(),
            Message::WriteLargeReq { bytes, .. } => 64 + bytes.len(),
            Message::CreateLargeReq { content, .. } => 64 + content.len(),
            Message::ObjectBytes { bytes, .. } => 64 + bytes.as_ref().map(Vec::len).unwrap_or(0),
            Message::TransferChunk { pages, copies, .. } => {
                64 + pages
                    .iter()
                    .map(|(_, img)| img.as_bytes().len())
                    .sum::<usize>()
                    + copies.len() * 16
            }
            Message::EdgePage { image, .. } => 64 + image.as_bytes().len(),
            Message::EdgeInvalidate { pages } => 32 + pages.len() * 24,
            Message::EdgeRenew { files, .. } => 32 + files.len() * 4,
            _ => 64,
        }
    }

    /// Whether this message is *consistency traffic*: callbacks and
    /// their resolutions, deescalations, commit/2PC control, aborts,
    /// liveness, rejoin/epoch handshakes, and flow-control verdicts.
    /// Transports drain this lane ahead of bulk fetch traffic and never
    /// shed it.
    pub fn is_consistency(&self) -> bool {
        self.meta().lane == Lane::Consistency
    }

    /// The FIFO path this message travels on.
    pub fn path(&self) -> FifoPath {
        self.meta().path
    }

    /// For a *request* that will be answered by a reply echoing its
    /// `req`, that id.
    pub fn req_of_request(&self) -> Option<ReqId> {
        self.req().filter(|_| self.meta().role == Role::Asks)
    }

    /// For a *reply*, the request id it answers.
    pub fn req_of_reply(&self) -> Option<ReqId> {
        self.req().filter(|_| self.meta().role == Role::Answers)
    }

    /// For a verdict on a data request (the `verdict` column), the
    /// request it decides and how.
    pub(crate) fn verdict(&self) -> Option<(ReqId, Verdict)> {
        Some((self.req()?, self.meta().verdict?))
    }

    /// A short static label for trace events and Perfetto span names.
    pub fn label(&self) -> &'static str {
        self.meta().label
    }
}

/// Application-level operations, submitted one at a time per transaction.
#[derive(Debug, Clone, PartialEq)]
pub enum AppOp {
    /// Start a transaction; the engine assigns and returns its id.
    Begin,
    /// Read an object; completes once the object is locked and cached.
    Read(Oid),
    /// Update an object. `bytes: None` asks the engine to bump a version
    /// counter in the object's first 8 bytes (what the workload driver
    /// uses); `Some` installs the given (same-length) payload.
    Write {
        /// The object.
        oid: Oid,
        /// Replacement bytes, or `None` for a synthesized update.
        bytes: Option<Vec<u8>>,
    },
    /// Explicitly lock a granule (hierarchical locking, §4.3).
    Lock {
        /// The granule.
        item: LockableId,
        /// The mode.
        mode: LockMode,
    },
    /// Create a large object (paper §4.4). The transaction must hold an
    /// explicit EX lock on `header_page`. Completes with `Done` whose
    /// `data` is the 14-byte encoded header [`Oid`] (see
    /// `pscc_core::decode_header_oid`).
    CreateLarge {
        /// Page to hold the header object.
        header_page: PageId,
        /// Initial content.
        content: Vec<u8>,
    },
    /// Read a byte range of a large object. The transaction must have
    /// `Read` the header first (SH header lock + cached header).
    ReadLarge {
        /// The header object.
        header: Oid,
        /// Byte offset.
        offset: u64,
        /// Length to read.
        len: u32,
    },
    /// Update a byte range of a large object. The transaction must hold
    /// an EX lock on the header (e.g. via [`AppOp::Lock`]).
    WriteLarge {
        /// The header object.
        header: Oid,
        /// Byte offset.
        offset: u64,
        /// Replacement bytes.
        bytes: Vec<u8>,
    },
    /// Create a (small) object on a page. The transaction must hold an
    /// explicit EX lock on the page and have it cached. Completes with
    /// `Done` carrying the 14-byte encoded [`Oid`].
    Create {
        /// The page to create on.
        page: PageId,
        /// Initial bytes.
        bytes: Vec<u8>,
    },
    /// Delete an object. The transaction must hold an EX lock on it
    /// (e.g. via [`AppOp::Lock`]) and have it cached.
    Delete(Oid),
    /// Commit the transaction.
    Commit,
    /// Abort the transaction.
    Abort,
}

/// A cluster supervisor's instruction to one site (DESIGN.md §8, §10,
/// §11). The harness hands it to the engine as [`Input::Control`]: the
/// supervisor is not a peer, so an op never crosses a transport and is
/// never answered. The supervisor observes each op's effect in the
/// site's probes (drain phase, migration phase, layout, tiers), and a
/// repeated op finds that state and does nothing twice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ControlOp {
    /// Begin a graceful drain: shed new remote data requests with
    /// [`Message::Busy`], let admitted work reach its verdict, force the
    /// log, then stand drained until [`ControlOp::Undrain`] or a restart.
    Drain,
    /// Reopen admission: cancel a drain, or reopen a drained site.
    Undrain,
    /// Begin migrating the page-number range `[lo, hi)` to `to`: fence
    /// new work on it, let in-flight work on it drain, and force a
    /// durable `MigrateBegin` record (the source is then `Prepared`).
    MigratePrepare {
        /// First page number of the range (inclusive).
        lo: u32,
        /// One past the last page number (exclusive).
        hi: u32,
        /// The destination owner.
        to: SiteId,
    },
    /// Ship the prepared range to the destination; the engine runs
    /// transfer, commit and activation from there on its own.
    MigrateCommit,
    /// Abandon the in-flight migration: roll it back, unless its
    /// `MigrateCommit` record is already durable, in which case it
    /// completes forward.
    MigrateAbort,
    /// Adopt `tier` for file number `file` (an online tier roll).
    SetTier {
        /// The file whose tier changes.
        file: u32,
        /// The tier to adopt.
        tier: pscc_common::ConsistencyTier,
    },
}

/// A request from an application to its local peer server.
#[derive(Debug, Clone, PartialEq)]
pub struct AppRequest {
    /// The issuing application.
    pub app: AppId,
    /// The transaction (`None` only for [`AppOp::Begin`]).
    pub txn: Option<TxnId>,
    /// The operation.
    pub op: AppOp,
}

/// The engine's answer to an application request.
#[derive(Debug, Clone, PartialEq)]
pub enum AppReply {
    /// [`AppOp::Begin`] done; here is the transaction id.
    Started {
        /// The application.
        app: AppId,
        /// The new transaction.
        txn: TxnId,
    },
    /// A read/write/lock op completed. For reads, `data` carries the
    /// object bytes.
    Done {
        /// The application.
        app: AppId,
        /// The transaction.
        txn: TxnId,
        /// Object bytes for reads: a slice of the page they were read
        /// from, not a copy.
        data: Option<PageSlice>,
    },
    /// The transaction committed.
    Committed {
        /// The application.
        app: AppId,
        /// The transaction.
        txn: TxnId,
    },
    /// The transaction aborted (the driver re-executes it).
    Aborted {
        /// The application.
        app: AppId,
        /// The transaction.
        txn: TxnId,
        /// Why.
        reason: AbortReason,
    },
}

impl AppReply {
    /// The application this reply addresses.
    pub fn app(&self) -> AppId {
        match self {
            AppReply::Started { app, .. }
            | AppReply::Done { app, .. }
            | AppReply::Committed { app, .. }
            | AppReply::Aborted { app, .. } => *app,
        }
    }
}

/// What a disk request does (for cost accounting; data is in memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskOp {
    /// Read a data page into the buffer.
    ReadPage(PageId),
    /// Write a data page out.
    WritePage(PageId),
    /// Force the log.
    WriteLog,
}

/// An input event delivered to a peer server.
#[derive(Debug, Clone, PartialEq)]
pub enum Input {
    /// A local application request.
    App(AppRequest),
    /// A cluster supervisor's instruction.
    Control(ControlOp),
    /// A network message.
    Msg {
        /// Sending site.
        from: SiteId,
        /// The message.
        msg: Message,
    },
    /// A previously issued disk request completed.
    DiskDone {
        /// Which request.
        req: DiskReqId,
    },
    /// A previously armed timer fired.
    TimerFired {
        /// Which timer.
        timer: TimerId,
    },
}

/// An output effect requested by a peer server.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    /// Send a message to another site. (The engine never emits sends to
    /// itself — those loop back internally at zero message cost, which is
    /// how peer servers save messages on locally owned data.)
    Send {
        /// Destination.
        to: SiteId,
        /// The message.
        msg: Message,
    },
    /// Issue a disk request; a [`Input::DiskDone`] must follow.
    Disk {
        /// Request id.
        req: DiskReqId,
        /// What it does.
        op: DiskOp,
    },
    /// Arm a timer; an [`Input::TimerFired`] follows after `delay`
    /// unless the engine has since forgotten the timer (stale fires are
    /// ignored).
    ArmTimer {
        /// Timer id.
        timer: TimerId,
        /// Delay from now.
        delay: SimDuration,
    },
    /// Answer an application.
    App(AppReply),
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscc_common::{FileId, VolId};
    use pscc_storage::{AvailMask, SlottedPage};

    #[test]
    fn ids_display() {
        assert_eq!(format!("{}", ReqId(3)), "req3");
        assert_eq!(format!("{}", CbId(4)), "cb4");
        assert_eq!(format!("{}", DeId(5)), "de5");
    }

    #[test]
    fn wire_sizes_reflect_payload() {
        let page = PageId::new(FileId::new(VolId(0), 0), 1);
        let big = Message::ReadReply {
            req: ReqId(1),
            snapshot: PageSnapshot {
                page,
                image: SlottedPage::new(4096),
                avail: AvailMask::all_available(1),
                ship_seq: 1,
            },
        };
        let small = Message::CbOk {
            cb: CbId(1),
            purged_page: true,
        };
        assert!(big.wire_size() > 4000);
        assert!(small.wire_size() <= 64);
    }

    #[test]
    fn consistency_lane_classification() {
        let t = TxnId {
            site: SiteId(1),
            seq: 1,
        };
        // Consistency lane: callbacks, commit control, flow verdicts.
        assert!(Message::CbCancel { cb: CbId(1) }.is_consistency());
        assert!(Message::Decide {
            txn: t,
            commit: true
        }
        .is_consistency());
        assert!(Message::Busy {
            req: ReqId(1),
            retry_after: SimDuration::from_millis(10),
        }
        .is_consistency());
        assert!(Message::Heartbeat.is_consistency());
        // The migration handshake between peers is consistency traffic;
        // only the page-image chunk is bulk.
        let act = Message::MigrateActivate {
            lo: 0,
            hi: 8,
            layout: 2,
        };
        assert!(act.is_consistency());
        let wrong = Message::WrongOwner {
            req: ReqId(9),
            lo: 0,
            hi: 8,
            layout: 2,
            new_owner: SiteId(2),
        };
        assert!(wrong.is_consistency());
        assert_eq!(wrong.req_of_reply(), Some(ReqId(9)));
        let chunk = Message::TransferChunk {
            lo: 0,
            hi: 8,
            layout: 2,
            pages: vec![(
                PageId::new(FileId::new(VolId(0), 0), 1),
                SlottedPage::new(4096),
            )],
            copies: vec![],
        };
        assert!(!chunk.is_consistency());
        assert!(chunk.wire_size() > 4000);
        // Bulk lane: fetches and write-permission traffic.
        let p = PageId::new(FileId::new(VolId(0), 0), 1);
        assert!(!Message::ReadObj {
            req: ReqId(1),
            txn: t,
            oid: Oid::new(p, 0),
        }
        .is_consistency());
        assert!(!Message::WriteObj {
            req: ReqId(1),
            txn: t,
            oid: Oid::new(p, 0),
        }
        .is_consistency());
        // The whole edge protocol is consistency traffic (the staleness
        // bound depends on FIFO between fetches and invalidations).
        let fetch = Message::EdgeFetch {
            req: ReqId(3),
            page: p,
            watch: true,
            lease: SimDuration::from_millis(100),
        };
        assert!(fetch.is_consistency());
        assert_eq!(fetch.req_of_request(), Some(ReqId(3)));
        let epage = Message::EdgePage {
            req: ReqId(3),
            page: p,
            version: 1,
            epoch: 0,
            image: SlottedPage::new(4096),
        };
        assert!(epage.is_consistency());
        assert_eq!(epage.req_of_reply(), Some(ReqId(3)));
        assert!(epage.wire_size() > 4000);
        assert!(Message::EdgeInvalidate {
            pages: vec![(p, 2)]
        }
        .is_consistency());
        let renew = Message::EdgeRenew {
            req: ReqId(4),
            lease: SimDuration::from_millis(100),
            files: vec![0],
        };
        assert!(renew.is_consistency());
        assert_eq!(renew.req_of_request(), Some(ReqId(4)));
        assert!(Message::EdgeRenewOk {
            req: ReqId(4),
            epoch: 0,
            resubscribed: false
        }
        .is_consistency());
    }

    #[test]
    fn traced_envelope_delegates() {
        let t = TxnId {
            site: SiteId(2),
            seq: 9,
        };
        let inner = Message::Decide {
            txn: t,
            commit: true,
        };
        let wrapped = Message::Traced {
            ctx: TraceCtx {
                txn: t,
                origin: SiteId(2),
                span: SpanId(5),
                parent: SpanId::NONE,
            },
            inner: Box::new(inner.clone()),
        };
        assert!(wrapped.is_consistency());
        assert_eq!(wrapped.txn_id(), Some(t));
        assert_eq!(wrapped.label(), "decide");
        assert_eq!(wrapped.wire_size(), inner.wire_size() + 32);
        let req = Message::ReadObj {
            req: ReqId(3),
            txn: t,
            oid: Oid::new(PageId::new(FileId::new(VolId(0), 0), 1), 0),
        };
        assert_eq!(req.req_of_request(), Some(ReqId(3)));
        assert_eq!(req.req_of_reply(), None);
        assert_eq!(
            Message::CommitOk { req: ReqId(3) }.req_of_reply(),
            Some(ReqId(3))
        );
    }

    #[test]
    fn traced_envelope_survives_wire_framing() {
        // The trace context must round-trip through the real codec so
        // cross-site spans line up when engines run over TCP.
        let t = TxnId {
            site: SiteId(1),
            seq: 4,
        };
        let msg = Message::Traced {
            ctx: TraceCtx {
                txn: t,
                origin: SiteId(1),
                span: SpanId(0x0100_0000_0007),
                parent: SpanId(0x0200_0000_0003),
            },
            inner: Box::new(Message::Decide {
                txn: t,
                commit: false,
            }),
        };
        let mut buf = bytes::BytesMut::new();
        pscc_net::codec::encode_frame(&msg, &mut buf).expect("encode");
        let got: Message = pscc_net::codec::decode_frame(&mut buf)
            .expect("decode")
            .expect("complete frame");
        match got {
            Message::Traced { ctx, inner } => {
                assert_eq!(ctx.txn, t);
                assert_eq!(ctx.span, SpanId(0x0100_0000_0007));
                assert_eq!(ctx.parent, SpanId(0x0200_0000_0003));
                assert_eq!(inner.label(), "decide");
            }
            other => panic!("expected Traced, got {other:?}"),
        }
    }

    #[test]
    fn page_ship_survives_wire_framing() {
        // The biggest frame there is: a full page image, which the codec
        // writes as its length and one copy of its bytes.
        let page = PageId::new(FileId::new(VolId(0), 0), 42);
        let mut image = SlottedPage::new(4096);
        for slot in 0..20u8 {
            let body: Vec<u8> = (0..180).map(|i| slot.wrapping_mul(31) ^ i).collect();
            image.insert(&body).expect("room for the object");
        }
        let msg = Message::ReadReply {
            req: ReqId(7),
            snapshot: PageSnapshot {
                page,
                image,
                avail: pscc_storage::AvailMask::all_available(20),
                ship_seq: 3,
            },
        };
        let mut buf = bytes::BytesMut::new();
        pscc_net::codec::encode_frame(&msg, &mut buf).expect("encode");
        // Length prefix, tag, req, page id, image length, image, mask,
        // ship sequence.
        assert_eq!(buf.len(), 4 + 1 + 8 + 12 + 4 + 4096 + 8 + 8);
        let got: Message = pscc_net::codec::decode_frame(&mut buf)
            .expect("decode")
            .expect("complete frame");
        assert_eq!(got, msg);
        assert!(buf.is_empty());
    }

    /// Every variant's name, in `samples()` order. The match below has no
    /// wildcard, so a new variant must be named here, and the coverage
    /// test then fails until `samples()` has a value of it at that index.
    macro_rules! variants {
        ($($v:ident),* $(,)?) => {
            const VARIANTS: &[&str] = &[$(stringify!($v)),*];
            fn variant_name(m: &Message) -> &'static str {
                match m {
                    $(Message::$v { .. } => stringify!($v)),*
                }
            }
        };
    }
    variants!(
        ReadObj,
        ReadReply,
        WriteObj,
        WriteGranted,
        LockItem,
        LockGranted,
        ReqDenied,
        Callback,
        CbBlocked,
        CbOk,
        CbTimeout,
        CbCancel,
        Deescalate,
        DeescalateReply,
        Purge,
        CommitReq,
        CommitOk,
        Prepare,
        Voted,
        Decide,
        Decided,
        AbortTxn,
        TxnAborted,
        Heartbeat,
        FetchLargePage,
        LargePageReply,
        WriteLargeReq,
        WriteLargeOk,
        LargeInval,
        LargeInvalOk,
        CreateLargeReq,
        CreateLargeOk,
        ReadForwarded,
        ObjectBytes,
        RejoinRequired,
        Rejoin,
        RejoinOk,
        QueryTxn,
        TxnResolved,
        Busy,
        TransferChunk,
        TransferAck,
        MigrateActivate,
        MigrateActivated,
        QueryMigration,
        MigrationResolved,
        WrongOwner,
        EdgeFetch,
        EdgePage,
        EdgeInvalidate,
        EdgeRenew,
        EdgeRenewOk,
        Traced
    );

    /// One value of every variant, payload fields filled.
    fn samples() -> Vec<Message> {
        let t = TxnId {
            site: SiteId(1),
            seq: 7,
        };
        let file = FileId::new(VolId(0), 3);
        let page = PageId::new(file, 5);
        let oid = Oid::new(page, 2);
        let req = ReqId(11);
        let cb = CbId(12);
        let de = DeId(13);
        let lease = SimDuration::from_millis(100);
        let mut image = SlottedPage::new(4096);
        image.insert(b"object body").expect("room for the object");
        let records = vec![LogRecord::update(t, oid, vec![1, 2], vec![3, 4])];
        let (lo, hi, layout) = (0, 8, 2);
        vec![
            Message::ReadObj { req, txn: t, oid },
            Message::ReadReply {
                req,
                snapshot: PageSnapshot {
                    page,
                    image: image.clone(),
                    avail: AvailMask::all_available(1),
                    ship_seq: 4,
                },
            },
            Message::WriteObj { req, txn: t, oid },
            Message::WriteGranted {
                req,
                adaptive: true,
            },
            Message::LockItem {
                req,
                txn: t,
                item: LockableId::File(file),
                mode: LockMode::Ex,
            },
            Message::LockGranted { req },
            Message::ReqDenied {
                req,
                reason: AbortReason::Deadlock,
            },
            Message::Callback {
                cb,
                txn: t,
                target: LockableId::Object(oid),
            },
            Message::CbBlocked {
                cb,
                holders: vec![(t, LockableId::Object(oid), LockMode::Sh)],
            },
            Message::CbOk {
                cb,
                purged_page: true,
            },
            Message::CbTimeout { cb },
            Message::CbCancel { cb },
            Message::Deescalate { de, page },
            Message::DeescalateReply {
                de,
                page,
                ex_locks: vec![(t, oid)],
            },
            Message::Purge {
                client: SiteId(2),
                page,
                ship_seq: 4,
                replicate: vec![(t, LockableId::Page(page), LockMode::Sh)],
                log_records: records.clone(),
            },
            Message::CommitReq {
                req,
                txn: t,
                records: records.clone(),
            },
            Message::CommitOk { req },
            Message::Prepare {
                req,
                txn: t,
                records,
            },
            Message::Voted {
                req,
                txn: t,
                yes: true,
            },
            Message::Decide {
                txn: t,
                commit: true,
            },
            Message::Decided { txn: t },
            Message::AbortTxn { txn: t },
            Message::TxnAborted {
                txn: t,
                reason: AbortReason::LockTimeout,
            },
            Message::Heartbeat,
            Message::FetchLargePage { req, page },
            Message::LargePageReply {
                req,
                page,
                bytes: vec![9; 32],
            },
            Message::WriteLargeReq {
                req,
                txn: t,
                header: oid,
                offset: 100,
                bytes: vec![8; 16],
            },
            Message::WriteLargeOk { req },
            Message::LargeInval {
                inv: req,
                pages: vec![page],
            },
            Message::LargeInvalOk { inv: req },
            Message::CreateLargeReq {
                req,
                txn: t,
                header_page: page,
                content: vec![7; 64],
            },
            Message::CreateLargeOk { req, header: oid },
            Message::ReadForwarded { req, txn: t, oid },
            Message::ObjectBytes {
                req,
                bytes: Some(vec![6; 8]),
            },
            Message::RejoinRequired { epoch: 3 },
            Message::Rejoin { epoch: 3 },
            Message::RejoinOk { epoch: 3 },
            Message::QueryTxn { txn: t },
            Message::TxnResolved {
                txn: t,
                committed: true,
            },
            Message::Busy {
                req,
                retry_after: SimDuration::from_millis(10),
            },
            Message::TransferChunk {
                lo,
                hi,
                layout,
                pages: vec![(page, image.clone())],
                copies: vec![(page, SiteId(2), 4)],
            },
            Message::TransferAck { lo, hi },
            Message::MigrateActivate { lo, hi, layout },
            Message::MigrateActivated { lo, hi, layout },
            Message::QueryMigration { lo, hi, layout },
            Message::MigrationResolved {
                lo,
                hi,
                layout,
                committed: true,
            },
            Message::WrongOwner {
                req,
                lo,
                hi,
                layout,
                new_owner: SiteId(2),
            },
            Message::EdgeFetch {
                req,
                page,
                watch: true,
                lease,
            },
            Message::EdgePage {
                req,
                page,
                version: 9,
                epoch: 3,
                image,
            },
            Message::EdgeInvalidate {
                pages: vec![(page, 10)],
            },
            Message::EdgeRenew {
                req,
                lease,
                files: vec![3],
            },
            Message::EdgeRenewOk {
                req,
                epoch: 3,
                resubscribed: true,
            },
            traced(Message::Decide {
                txn: t,
                commit: false,
            }),
        ]
    }

    fn traced(inner: Message) -> Message {
        let txn = TxnId {
            site: SiteId(1),
            seq: 7,
        };
        Message::Traced {
            ctx: TraceCtx {
                txn,
                origin: SiteId(1),
                span: SpanId(0x0100_0000_0007),
                parent: SpanId::NONE,
            },
            inner: Box::new(inner),
        }
    }

    #[test]
    fn samples_cover_every_variant() {
        let names: Vec<_> = samples().iter().map(variant_name).collect();
        assert_eq!(names, VARIANTS);
    }

    #[test]
    fn table_agrees_with_the_lists_it_replaced() {
        for m in samples() {
            let row = m.meta();
            let name = variant_name(&m);
            assert_eq!(m.path() as u8, old::path_for(&m).0, "{name} path");
            assert_eq!(m.is_consistency(), old::is_consistency(&m), "{name} lane");
            let w = traced(m.clone());
            assert_eq!(w.path() as u8, old::path_for(&w).0, "traced {name} path");
            assert_eq!(w.is_consistency(), old::is_consistency(&w), "traced {name}");
            // The fence and the credit check always saw the peeled
            // message, so their old bodies never looked inside an
            // envelope; the lookup does, once, for every column.
            assert!(
                std::ptr::eq(w.meta(), row),
                "traced {name} has its payload's row"
            );
            // The field extractions derived from the rows' field lists.
            assert_eq!(m.req(), old::req(&m), "{name} req");
            assert_eq!(m.txn_id(), old::txn_id(&m), "{name} txn");
            assert_eq!(w.req(), m.req(), "traced {name} req");
            assert_eq!(w.txn_id(), m.txn_id(), "traced {name} txn");
            if let Message::Traced { .. } = m {
                continue;
            }
            assert_eq!(row.fenced, old::fenced(&m), "{name} fenced");
            assert_eq!(
                row.credit,
                old::credit_request(&m).is_some(),
                "{name} credit"
            );
            assert_eq!(
                crate::engine::credit_request(&m),
                old::credit_request(&m),
                "{name} credit ids"
            );
            // A role names a `req` to park or recover a context under.
            assert_eq!(
                row.role != Role::OneWay,
                m.req_of_request().or(m.req_of_reply()).is_some()
            );
            assert_eq!(w.req_of_request(), m.req_of_request());
            assert_eq!(w.req_of_reply(), m.req_of_reply());
            // The verdict column is the arrival list; the departure list
            // lacked only `Busy`, whose one unlisted send retired its
            // admission slot by hand.
            let verdict = m.verdict();
            assert_eq!(
                verdict.map(|(_, v)| v),
                old::on_arrival(&m),
                "{name} verdict"
            );
            assert_eq!(
                verdict.is_some(),
                old::on_departure(&m).is_some() || matches!(m, Message::Busy { .. }),
                "{name} departure"
            );
            if let Some((req, _)) = verdict {
                assert_eq!(Some(req), m.req_of_reply(), "{name} decides its request");
            }
        }
    }

    #[test]
    fn every_variant_survives_wire_framing() {
        for m in samples() {
            // Every payload alone and in an envelope; the envelope sample
            // is already one, and an envelope never wraps another.
            let wrapped = match m {
                Message::Traced { .. } => None,
                _ => Some(traced(m.clone())),
            };
            for msg in wrapped.into_iter().chain([m]) {
                let mut buf = frame_of(&msg);
                let got: Message = pscc_net::codec::decode_frame(&mut buf)
                    .expect("decode")
                    .expect("complete frame");
                assert_eq!(got, msg);
                assert!(buf.is_empty());
            }
        }
    }

    fn frame_of(msg: &Message) -> bytes::BytesMut {
        let mut buf = bytes::BytesMut::new();
        pscc_net::codec::encode_frame(msg, &mut buf).expect("encode");
        buf
    }

    fn decode(frame: &[u8]) -> Result<Option<Message>, pscc_net::codec::CodecError> {
        pscc_net::codec::decode_frame(&mut bytes::BytesMut::from(frame))
    }

    #[test]
    fn every_strict_prefix_of_a_frame_waits_for_more() {
        for m in samples() {
            let frame = frame_of(&m);
            for cut in 0..frame.len() {
                assert!(
                    matches!(decode(&frame[..cut]), Ok(None)),
                    "{} cut at {cut}",
                    variant_name(&m)
                );
            }
        }
    }

    #[test]
    fn tags_are_table_rows() {
        for (row, m) in samples().iter().enumerate() {
            let mut bytes = Vec::new();
            m.put(&mut bytes);
            let expected = if row + 1 == VARIANTS.len() {
                ENVELOPE_TAG
            } else {
                row as u8
            };
            assert_eq!(bytes[0], expected, "{}", variant_name(m));
        }
    }

    #[test]
    fn unknown_tags_and_nested_envelopes_are_refused() {
        let rows = VARIANTS.len() as u8 - 1;
        for tag in rows..ENVELOPE_TAG {
            assert!(matches!(
                pscc_common::wire::decode::<Message>(&[tag]),
                Err(WireError::Tag { ty: "Message", tag: t }) if t == tag
            ));
        }
        let nested = traced(traced(Message::Heartbeat));
        let mut bytes = Vec::new();
        nested.put(&mut bytes);
        assert_eq!(
            pscc_common::wire::decode::<Message>(&bytes),
            Err(WireError::Invalid("a tracing envelope inside another"))
        );
        // Ten thousand envelopes deep: refused at the second one, not by
        // overflowing the reader's stack.
        let mut deep = Vec::new();
        for _ in 0..10_000 {
            deep.push(ENVELOPE_TAG);
            deep.extend_from_slice(&[0; 32]);
        }
        assert!(pscc_common::wire::decode::<Message>(&deep).is_err());
    }

    #[test]
    fn a_huge_inner_length_is_refused() {
        // A 20-byte frame: ObjectBytes whose byte vector claims u32::MAX.
        let mut frame = vec![0, 0, 0, 16];
        let mut payload = Vec::new();
        Message::ObjectBytes {
            req: ReqId(1),
            bytes: Some(Vec::new()),
        }
        .put(&mut payload);
        let len_at = payload.len() - 4;
        payload[len_at..].copy_from_slice(&u32::MAX.to_le_bytes());
        payload.extend_from_slice(&[1, 2]);
        frame.extend_from_slice(&payload);
        assert_eq!(frame.len(), 20);
        assert!(matches!(
            decode(&frame),
            Err(pscc_net::codec::CodecError::Malformed(WireError::Truncated))
        ));
    }

    #[test]
    fn a_short_page_image_is_refused_not_a_panic() {
        // A peer's 3-byte image would panic `lsn()` at the client.
        let msg = Message::ReadReply {
            req: ReqId(7),
            snapshot: PageSnapshot {
                page: PageId::new(FileId::new(VolId(0), 0), 1),
                image: SlottedPage::from_bytes(vec![1, 2, 3]),
                avail: AvailMask::all_available(1),
                ship_seq: 1,
            },
        };
        assert!(matches!(
            decode(&frame_of(&msg)),
            Err(pscc_net::codec::CodecError::Malformed(WireError::Invalid(
                _
            )))
        ));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Flipped bytes in any variant's frame, and random payloads,
        /// decode to a message or an error, never a panic.
        #[test]
        fn damaged_frames_never_panic(
            pick in 0usize..53,
            flips in proptest::collection::vec(
                (proptest::prelude::any::<u32>(), proptest::prelude::any::<u8>()),
                1..6,
            ),
            junk in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..120),
        ) {
            let msgs = samples();
            let mut frame = frame_of(&msgs[pick % msgs.len()]).to_vec();
            for (at, value) in flips {
                // Leave the length prefix alone: a longer one only waits.
                let at = 4 + at as usize % (frame.len() - 4);
                frame[at] ^= value | 1;
            }
            let _ = decode(&frame);
            let _ = pscc_common::wire::decode::<Message>(&junk);
        }
    }

    #[test]
    fn small_frames_are_pinned() {
        // A changed encoding must fail here, and bump `WIRE_VERSION`.
        let t = TxnId::new(SiteId(1), 7);
        let oid = Oid::new(PageId::new(FileId::new(VolId(0), 3), 5), 2);
        #[rustfmt::skip]
        let read_obj = [
            0, 0, 0, 35,                 // frame length, big-endian
            0,                           // tag: row 0, ReadObj
            11, 0, 0, 0, 0, 0, 0, 0,     // req
            1, 0, 0, 0,                  // txn.site
            7, 0, 0, 0, 0, 0, 0, 0,      // txn.seq
            0, 0, 0, 0, 3, 0, 0, 0,      // oid.page.file (vol, file)
            5, 0, 0, 0, 2, 0,            // oid.page.page, oid.slot
        ];
        let msg = Message::ReadObj {
            req: ReqId(11),
            txn: t,
            oid,
        };
        assert_eq!(&frame_of(&msg)[..], read_obj);
        #[rustfmt::skip]
        let cb_ok = [
            0, 0, 0, 10,                 // frame length
            9,                           // tag: row 9, CbOk
            12, 0, 0, 0, 0, 0, 0, 0,     // cb
            1,                           // purged_page
        ];
        let msg = Message::CbOk {
            cb: CbId(12),
            purged_page: true,
        };
        assert_eq!(&frame_of(&msg)[..], cb_ok);
        #[rustfmt::skip]
        let commit_req = [
            0, 0, 0, 64,                 // frame length
            15,                          // tag: row 15, CommitReq
            11, 0, 0, 0, 0, 0, 0, 0,     // req
            1, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, // txn
            1, 0, 0, 0,                  // one record
            1, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, // record txn
            0,                           // LogPayload::Update
            0, 0, 0, 0, 3, 0, 0, 0, 5, 0, 0, 0, 2, 0, // oid
            2, 0, 0, 0, 1, 2,            // before
            2, 0, 0, 0, 3, 4,            // after
        ];
        let msg = Message::CommitReq {
            req: ReqId(11),
            txn: t,
            records: vec![LogRecord::update(t, oid, vec![1, 2], vec![3, 4])],
        };
        assert_eq!(&frame_of(&msg)[..], commit_req);
    }

    #[test]
    fn page_ship_header_is_pinned() {
        let mut image = SlottedPage::new(4096);
        image.insert(b"object body").expect("room for the object");
        let msg = Message::ReadReply {
            req: ReqId(11),
            snapshot: PageSnapshot {
                page: PageId::new(FileId::new(VolId(0), 3), 5),
                image: image.clone(),
                avail: AvailMask::all_available(1),
                ship_seq: 4,
            },
        };
        let frame = frame_of(&msg);
        #[rustfmt::skip]
        let head = [
            0, 0, 0x10, 0x29,            // frame length 4 137
            1,                           // tag: row 1, ReadReply
            11, 0, 0, 0, 0, 0, 0, 0,     // req
            0, 0, 0, 0, 3, 0, 0, 0, 5, 0, 0, 0, // snapshot.page
            0, 0x10, 0, 0,               // image length 4 096
        ];
        #[rustfmt::skip]
        let tail = [
            1, 0, 0, 0, 0, 0, 0, 0x80,   // avail: slot 0 and the dummy
            4, 0, 0, 0, 0, 0, 0, 0,      // ship_seq
        ];
        assert_eq!(frame[..head.len()], head);
        assert_eq!(frame[head.len()..head.len() + 4096], *image.as_bytes());
        assert_eq!(frame[head.len() + 4096..], tail);
    }

    #[test]
    fn every_variant_encoding_is_pinned() {
        // One FNV-1a over all of `samples()`' frames: catches a moved
        // field of the same type (lo/hi) that the round trip cannot. A
        // deliberate change re-pins this and bumps `WIRE_VERSION`.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for m in samples() {
            for b in frame_of(&m).iter() {
                h ^= u64::from(*b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert_eq!(
            h, 0x3eec_436c_835c_0c2d,
            "the wire encoding of some variant changed"
        );
    }

    /// The classification functions as they stood before the message
    /// table, kept as the reference the table is checked against.
    mod old {
        use super::*;
        use pscc_net::PathId;

        pub(super) fn path_for(msg: &Message) -> PathId {
            // A tracing envelope rides whatever path its payload would.
            if let Message::Traced { inner, .. } = msg {
                return path_for(inner);
            }
            match msg {
                Message::ReadReply { .. }
                | Message::WriteGranted { .. }
                | Message::LockGranted { .. }
                | Message::ReqDenied { .. }
                | Message::CommitOk { .. }
                | Message::Voted { .. }
                | Message::Decided { .. }
                | Message::TxnAborted { .. }
                | Message::RejoinRequired { .. }
                | Message::RejoinOk { .. }
                | Message::TxnResolved { .. }
                | Message::Busy { .. }
                | Message::WrongOwner { .. }
                | Message::TransferAck { .. }
                | Message::MigrateActivate { .. }
                | Message::MigrateActivated { .. }
                | Message::QueryMigration { .. }
                | Message::MigrationResolved { .. } => PathId(1),
                // The edge tier's staleness proof needs every edge message on
                // ONE lane: an `EdgeRenewOk` must not overtake the
                // `EdgeInvalidate`s published before it, and an `EdgePage` must
                // not overtake the invalidation that supersedes it
                // (DESIGN.md §11). They share the callback lane, which already
                // carries the owner-to-client consistency traffic.
                Message::Callback { .. }
                | Message::CbCancel { .. }
                | Message::Deescalate { .. }
                | Message::EdgeFetch { .. }
                | Message::EdgePage { .. }
                | Message::EdgeInvalidate { .. }
                | Message::EdgeRenew { .. }
                | Message::EdgeRenewOk { .. } => PathId(2),
                _ => PathId(0),
            }
        }

        pub(super) fn fenced(msg: &Message) -> bool {
            matches!(
                msg,
                Message::ReadObj { .. }
                    | Message::WriteObj { .. }
                    | Message::LockItem { .. }
                    | Message::Purge { .. }
                    | Message::CommitReq { .. }
                    | Message::Prepare { .. }
                    | Message::ReadForwarded { .. }
                    | Message::FetchLargePage { .. }
                    | Message::WriteLargeReq { .. }
                    | Message::CreateLargeReq { .. }
            )
        }

        pub(super) fn credit_request(msg: &Message) -> Option<(ReqId, TxnId)> {
            match msg {
                Message::ReadObj { req, txn, .. }
                | Message::WriteObj { req, txn, .. }
                | Message::LockItem { req, txn, .. } => Some((*req, *txn)),
                _ => None,
            }
        }

        /// The verdicts whose departure retired an admission slot
        /// (`PeerServer::send`).
        pub(super) fn on_departure(msg: &Message) -> Option<ReqId> {
            match msg {
                Message::ReadReply { req, .. }
                | Message::WriteGranted { req, .. }
                | Message::LockGranted { req }
                | Message::ReqDenied { req, .. }
                | Message::WrongOwner { req, .. } => Some(*req),
                _ => None,
            }
        }

        /// What an arriving verdict did in `PeerServer::handle_msg`: a
        /// final one dropped the retained copy and returned the credit, a
        /// redirect only returned the credit.
        pub(super) fn on_arrival(msg: &Message) -> Option<Verdict> {
            match msg {
                Message::ReadReply { .. }
                | Message::WriteGranted { .. }
                | Message::LockGranted { .. }
                | Message::ReqDenied { .. } => Some(Verdict::Final),
                Message::Busy { .. } | Message::WrongOwner { .. } => Some(Verdict::Redirect),
                _ => None,
            }
        }

        pub(super) fn txn_id(msg: &Message) -> Option<TxnId> {
            match msg {
                Message::Traced { inner, .. } => txn_id(inner),
                Message::ReadObj { txn, .. }
                | Message::WriteObj { txn, .. }
                | Message::LockItem { txn, .. }
                | Message::Callback { txn, .. }
                | Message::CommitReq { txn, .. }
                | Message::Prepare { txn, .. }
                | Message::Voted { txn, .. }
                | Message::Decide { txn, .. }
                | Message::Decided { txn }
                | Message::AbortTxn { txn }
                | Message::TxnAborted { txn, .. }
                | Message::WriteLargeReq { txn, .. }
                | Message::CreateLargeReq { txn, .. }
                | Message::ReadForwarded { txn, .. }
                | Message::QueryTxn { txn }
                | Message::TxnResolved { txn, .. } => Some(*txn),
                _ => None,
            }
        }

        pub(super) fn req(msg: &Message) -> Option<ReqId> {
            match msg {
                Message::Traced { inner, .. } => req(inner),
                Message::ReadObj { req, .. }
                | Message::ReadReply { req, .. }
                | Message::WriteObj { req, .. }
                | Message::WriteGranted { req, .. }
                | Message::LockItem { req, .. }
                | Message::LockGranted { req }
                | Message::ReqDenied { req, .. }
                | Message::CommitReq { req, .. }
                | Message::CommitOk { req }
                | Message::Prepare { req, .. }
                | Message::Voted { req, .. }
                | Message::FetchLargePage { req, .. }
                | Message::LargePageReply { req, .. }
                | Message::WriteLargeReq { req, .. }
                | Message::WriteLargeOk { req }
                | Message::CreateLargeReq { req, .. }
                | Message::CreateLargeOk { req, .. }
                | Message::ReadForwarded { req, .. }
                | Message::ObjectBytes { req, .. }
                | Message::Busy { req, .. }
                | Message::WrongOwner { req, .. }
                | Message::EdgeFetch { req, .. }
                | Message::EdgePage { req, .. }
                | Message::EdgeRenew { req, .. }
                | Message::EdgeRenewOk { req, .. } => Some(*req),
                _ => None,
            }
        }

        pub(super) fn is_consistency(msg: &Message) -> bool {
            if let Message::Traced { inner, .. } = msg {
                return is_consistency(inner);
            }
            matches!(
                msg,
                // Callbacks/deescalations, commit/2PC/abort control,
                // liveness and rejoin/epoch fencing, and flow-control
                // verdicts (a shed `Busy` must not itself be shed).
                Message::Callback { .. }
                    | Message::CbBlocked { .. }
                    | Message::CbOk { .. }
                    | Message::CbTimeout { .. }
                    | Message::CbCancel { .. }
                    | Message::Deescalate { .. }
                    | Message::DeescalateReply { .. }
                    | Message::CommitReq { .. }
                    | Message::CommitOk { .. }
                    | Message::Prepare { .. }
                    | Message::Voted { .. }
                    | Message::Decide { .. }
                    | Message::Decided { .. }
                    | Message::AbortTxn { .. }
                    | Message::TxnAborted { .. }
                    | Message::Heartbeat
                    | Message::RejoinRequired { .. }
                    | Message::Rejoin { .. }
                    | Message::RejoinOk { .. }
                    | Message::QueryTxn { .. }
                    | Message::TxnResolved { .. }
                    | Message::Busy { .. }
                    | Message::ReqDenied { .. }
                    // Migration transfer and fencing verdicts must never
                    // queue behind the bulk lane: a shed WrongOwner wedges
                    // the redirected client, a delayed MigrateActivate
                    // leaves the range ownerless. Only the page-image
                    // TransferChunk is bulk.
                    | Message::TransferAck { .. }
                    | Message::MigrateActivate { .. }
                    | Message::MigrateActivated { .. }
                    | Message::QueryMigration { .. }
                    | Message::MigrationResolved { .. }
                    | Message::WrongOwner { .. }
                    // The entire edge protocol rides the consistency lane:
                    // staleness bounds are proved from per-(from,to,path)
                    // FIFO between fetches, renews, and invalidations, so
                    // none of them may be shed or queue behind bulk pages.
                    | Message::EdgeFetch { .. }
                    | Message::EdgePage { .. }
                    | Message::EdgeInvalidate { .. }
                    | Message::EdgeRenew { .. }
                    | Message::EdgeRenewOk { .. }
            )
        }
    }
}
