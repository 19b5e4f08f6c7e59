//! Structured protocol event tracing.
//!
//! Every site keeps a bounded ring of typed [`TraceEvent`]s stamped with
//! both virtual time ([`SimTime`]) and wall-clock micros. When a test or
//! stress run goes wrong, the per-site rings are merged into one
//! chronological dump so the §4.2.4 callback/purge interleavings (and
//! deadlock/timeout postmortems) can be reconstructed across sites.

use pscc_common::{AbortReason, LockMode, LockableId, SimTime, SiteId, Stage, TraceCtx, TxnId};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The §4.2.4 race shapes the engine distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaceKind {
    /// A callback arrived for an object the local site holds a
    /// conflicting lock on (callback blocked on a racing writer).
    CallbackLock,
    /// A callback crossed an in-flight purge/ship of the same page.
    PurgeInFlight,
    /// A callback had to be re-driven after a racing install (redo).
    CallbackRedo,
}

impl fmt::Display for RaceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RaceKind::CallbackLock => "callback_race",
            RaceKind::PurgeInFlight => "purge_race",
            RaceKind::CallbackRedo => "callback_redo",
        };
        f.write_str(s)
    }
}

/// Commit protocol phases (single-site fast path and 2PC).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitStage {
    /// The application's commit request reached the engine.
    Request,
    /// Prepare messages went out (2PC phase 1).
    Prepare,
    /// All votes arrived.
    Voted,
    /// The decision was logged/sent.
    Decided,
    /// The commit finished and the application was told.
    Done,
}

impl fmt::Display for CommitStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CommitStage::Request => "request",
            CommitStage::Prepare => "prepare",
            CommitStage::Voted => "voted",
            CommitStage::Decided => "decided",
            CommitStage::Done => "done",
        };
        f.write_str(s)
    }
}

/// One typed protocol event.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A transaction asked the (local or owner) lock table for a lock.
    LockRequest {
        txn: TxnId,
        item: LockableId,
        mode: LockMode,
    },
    /// The lock table granted a lock (immediately or after a wait).
    LockGrant {
        txn: TxnId,
        item: LockableId,
        mode: LockMode,
    },
    /// The lock table queued the requester behind conflicting holders.
    LockWait {
        txn: TxnId,
        item: LockableId,
        mode: LockMode,
    },
    /// A callback was sent to `to` on behalf of `txn`.
    CallbackSent {
        to: SiteId,
        txn: TxnId,
        item: LockableId,
    },
    /// A remote site answered a callback with "blocked" (§4.2.2).
    CallbackBlocked {
        from: SiteId,
        txn: TxnId,
        item: LockableId,
    },
    /// A remote site purged the copy in response to a callback.
    CallbackPurged {
        from: SiteId,
        txn: TxnId,
        item: LockableId,
        purged_page: bool,
    },
    /// A §4.2.4 race interleaving was detected and resolved.
    Race { item: LockableId, kind: RaceKind },
    /// A peer answered a deescalation request (PS-AA §5.3).
    Deescalated { peer: SiteId, item: LockableId },
    /// An adaptive (optimistic) grant was taken without global locks.
    AdaptiveGrant { txn: TxnId, item: LockableId },
    /// An adaptive grant was revoked/confirmed-late by the owner.
    AdaptiveRevoke { txn: TxnId, item: LockableId },
    /// A page/object fetch was sent to the owner.
    FetchSent { to: SiteId, item: LockableId },
    /// The fetch reply installed data locally.
    FetchDone { from: SiteId, item: LockableId },
    /// The commit path crossed a phase boundary.
    Commit { txn: TxnId, stage: CommitStage },
    /// A transaction aborted.
    Abort { txn: TxnId, reason: AbortReason },
    /// The chaos harness injected a fault on the path `from -> to`
    /// (`what` is the fault's short label: drop/dup/delay/reorder/
    /// partition/crash).
    FaultInjected {
        from: SiteId,
        to: SiteId,
        what: &'static str,
    },
    /// A server declared `site` crashed (lease expiry or bounded
    /// callback-response timeout).
    CrashDetected { site: SiteId },
    /// An in-flight transaction of a crashed client was aborted and its
    /// locks/callbacks released.
    OrphanAborted { txn: TxnId, dead: SiteId },
    /// A restarted server finished ARIES-style restart recovery and
    /// bumped its epoch; clients must rejoin before being served.
    Recovered {
        site: SiteId,
        epoch: u64,
        redo: u64,
        undo: u64,
        in_doubt: usize,
    },
    /// A client completed the rejoin handshake with a restarted (or
    /// falsely-suspecting) server, invalidating its stale cached pages.
    Rejoined { server: SiteId, epoch: u64 },
    /// A transport connection died (read error, bad frame, or peer
    /// close) and its error was surfaced rather than swallowed.
    NetDisconnect { peer: SiteId },
    /// The transport retried a connect/send after a failure.
    NetRetry { peer: SiteId, attempt: u32 },
    /// An overloaded server refused `peer`'s data request with `Busy`
    /// (admission control, DESIGN.md §6).
    RequestShed { peer: SiteId },
    /// A client received `Busy` and armed an exponential-backoff retry.
    BusyBackoff { peer: SiteId, attempt: u32 },
    /// A backoff timer fired and the refused request was re-sent.
    BusyRetry { peer: SiteId },
    /// A data request waited locally because the owner's credit pool was
    /// exhausted (credit-based flow control).
    CreditStalled { peer: SiteId },
    /// A message or acknowledgment referencing state that no longer
    /// exists was dropped (traced instead of panicking).
    StaleDrop { what: &'static str },
    /// A site began a graceful drain on behalf of the control plane: new
    /// remote data requests are refused while in-flight work retires.
    DrainBegin { site: SiteId },
    /// A draining site retired its admitted work and forced its WAL: it
    /// is drained.
    DrainDone { site: SiteId },
    /// The cluster supervisor issued one reconciliation step against a
    /// site (`step` names it: drain/stop/restart/rejoin/undrain).
    ConvergeStep { site: SiteId, step: &'static str },
    /// A reconciliation run finished: `steps` actions were executed and
    /// `ok` says whether the cluster converged to the manifest.
    ConvergeDone { steps: u64, ok: bool },

    // Causal tracing and auditing (DESIGN.md §9).
    /// A traced message departed for `to` under `ctx` (span start).
    MsgSend {
        ctx: TraceCtx,
        to: SiteId,
        label: &'static str,
    },
    /// A traced message arrived from `from` under `ctx` (span end).
    MsgRecv {
        ctx: TraceCtx,
        from: SiteId,
        label: &'static str,
    },
    /// The engine measured `micros` of `stage` latency ending now, on
    /// behalf of `txn` (the critical-path analyzer's raw material).
    StageSample {
        txn: TxnId,
        stage: Stage,
        micros: u64,
    },
    /// All of `txn`'s locks at this site were released (commit or
    /// abort cleanup finished here).
    LocksReleased { txn: TxnId },
    /// A lock was downgraded in place (the §4.3.2 callback dance).
    LockDowngrade { txn: TxnId, item: LockableId },
    /// A remote transaction was tombstoned here: any of its straggler
    /// data requests will be refused from now on.
    TxnTombstoned { txn: TxnId },
    /// A drained site re-opened admission (control-plane rollback or
    /// rolling-step completion).
    Undrained { site: SiteId },

    // Ownership migration (DESIGN.md §10).
    /// A source owner froze `[lo, hi)` and durably began migrating it
    /// to `to`.
    MigrationBegin {
        site: SiteId,
        lo: u32,
        hi: u32,
        to: SiteId,
    },
    /// The source's `MigrateCommit` record is durable: `to` is the one
    /// authoritative owner of `[lo, hi)` under `layout`.
    MigrationCommitted {
        site: SiteId,
        lo: u32,
        hi: u32,
        to: SiteId,
        layout: u64,
    },
    /// A destination installed and activated a migrated range.
    MigrationLanded {
        site: SiteId,
        from: SiteId,
        lo: u32,
        hi: u32,
        layout: u64,
    },
    /// An in-flight migration rolled back before its commit point; the
    /// source stays authoritative.
    MigrationAborted { site: SiteId, lo: u32, hi: u32 },
    /// An owner acknowledged a page write to `to` (granted write
    /// permission or applied commit records). The auditor checks no
    /// such ack is issued for a range this site migrated away.
    WriteAck {
        page: pscc_common::PageId,
        to: SiteId,
    },
    /// A lookup hit a page no layout range covers; the request was
    /// refused (typed `OwnershipError`) instead of panicking.
    OwnershipRefused { page: pscc_common::PageId },

    // Edge tier (DESIGN.md §11).
    /// An owner committed a new version of `page` visible to edge
    /// subscribers (the page's publish version is the commit's WAL
    /// LSN). This is the auditor's ground truth for staleness: an edge
    /// read at `t` must not return a version older than the newest one
    /// committed at or before `t - bound`.
    EdgePageCommitted {
        page: pscc_common::PageId,
        version: u64,
    },
    /// An edge site answered a read lock-free from its local copy.
    EdgeRead {
        page: pscc_common::PageId,
        /// Owner commit version served.
        version: u64,
        /// Conservative age of the copy at serve time (µs): now minus
        /// the copy's validation instant.
        age_us: u64,
        /// The tier's hard staleness bound (µs).
        bound_us: u64,
    },
    /// An edge read fell through to an owner fetch (cold, expired,
    /// severed watch, or invalidated).
    EdgeMiss { page: pscc_common::PageId },
    /// An owner published invalidations for one commit to one
    /// subscriber.
    EdgeInvalidated { to: SiteId, pages: usize },
    /// An owner recorded or renewed an edge watch subscription.
    EdgeSubscribed { site: SiteId, files: usize },
    /// An owner dropped an edge subscription (lease expiry at publish
    /// time, or the subscriber was declared dead).
    EdgeSubReaped { site: SiteId },
    /// An edge purged every copy from `owner` (owner epoch bump or
    /// death: invalidations may have been lost, the copies are no
    /// longer trustworthy).
    EdgePurgedOwner { owner: SiteId, pages: usize },
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventKind::LockRequest { txn, item, mode } => {
                write!(f, "lock_request txn={txn:?} item={item:?} mode={mode:?}")
            }
            EventKind::LockGrant { txn, item, mode } => {
                write!(f, "lock_grant txn={txn:?} item={item:?} mode={mode:?}")
            }
            EventKind::LockWait { txn, item, mode } => {
                write!(f, "lock_wait txn={txn:?} item={item:?} mode={mode:?}")
            }
            EventKind::CallbackSent { to, txn, item } => {
                write!(f, "callback_sent to={to:?} txn={txn:?} item={item:?}")
            }
            EventKind::CallbackBlocked { from, txn, item } => {
                write!(
                    f,
                    "callback_blocked from={from:?} txn={txn:?} item={item:?}"
                )
            }
            EventKind::CallbackPurged {
                from,
                txn,
                item,
                purged_page,
            } => write!(
                f,
                "callback_purged from={from:?} txn={txn:?} item={item:?} page={purged_page}"
            ),
            EventKind::Race { item, kind } => write!(f, "{kind} item={item:?}"),
            EventKind::Deescalated { peer, item } => {
                write!(f, "deescalated peer={peer:?} item={item:?}")
            }
            EventKind::AdaptiveGrant { txn, item } => {
                write!(f, "adaptive_grant txn={txn:?} item={item:?}")
            }
            EventKind::AdaptiveRevoke { txn, item } => {
                write!(f, "adaptive_revoke txn={txn:?} item={item:?}")
            }
            EventKind::FetchSent { to, item } => {
                write!(f, "fetch_sent to={to:?} item={item:?}")
            }
            EventKind::FetchDone { from, item } => {
                write!(f, "fetch_done from={from:?} item={item:?}")
            }
            EventKind::Commit { txn, stage } => {
                write!(f, "commit_{stage} txn={txn:?}")
            }
            EventKind::Abort { txn, reason } => {
                write!(f, "abort txn={txn:?} reason={reason}")
            }
            EventKind::FaultInjected { from, to, what } => {
                write!(f, "fault_injected {what} from={from:?} to={to:?}")
            }
            EventKind::CrashDetected { site } => {
                write!(f, "crash_detected site={site:?}")
            }
            EventKind::OrphanAborted { txn, dead } => {
                write!(f, "orphan_aborted txn={txn:?} dead={dead:?}")
            }
            EventKind::Recovered {
                site,
                epoch,
                redo,
                undo,
                in_doubt,
            } => write!(
                f,
                "recovered site={site:?} epoch={epoch} redo={redo} undo={undo} in_doubt={in_doubt}"
            ),
            EventKind::Rejoined { server, epoch } => {
                write!(f, "rejoined server={server:?} epoch={epoch}")
            }
            EventKind::NetDisconnect { peer } => {
                write!(f, "net_disconnect peer={peer:?}")
            }
            EventKind::NetRetry { peer, attempt } => {
                write!(f, "net_retry peer={peer:?} attempt={attempt}")
            }
            EventKind::RequestShed { peer } => {
                write!(f, "request_shed peer={peer:?}")
            }
            EventKind::BusyBackoff { peer, attempt } => {
                write!(f, "busy_backoff peer={peer:?} attempt={attempt}")
            }
            EventKind::BusyRetry { peer } => {
                write!(f, "busy_retry peer={peer:?}")
            }
            EventKind::CreditStalled { peer } => {
                write!(f, "credit_stalled peer={peer:?}")
            }
            EventKind::StaleDrop { what } => {
                write!(f, "stale_drop {what}")
            }
            EventKind::DrainBegin { site } => {
                write!(f, "drain_begin site={site:?}")
            }
            EventKind::DrainDone { site } => {
                write!(f, "drain_done site={site:?}")
            }
            EventKind::ConvergeStep { site, step } => {
                write!(f, "converge_step site={site:?} step={step}")
            }
            EventKind::ConvergeDone { steps, ok } => {
                write!(f, "converge_done steps={steps} ok={ok}")
            }
            EventKind::MsgSend { ctx, to, label } => {
                write!(f, "msg_send {label} to={to:?} {ctx}")
            }
            EventKind::MsgRecv { ctx, from, label } => {
                write!(f, "msg_recv {label} from={from:?} {ctx}")
            }
            EventKind::StageSample { txn, stage, micros } => {
                write!(f, "stage_sample {stage} txn={txn:?} micros={micros}")
            }
            EventKind::LocksReleased { txn } => {
                write!(f, "locks_released txn={txn:?}")
            }
            EventKind::LockDowngrade { txn, item } => {
                write!(f, "lock_downgrade txn={txn:?} item={item:?}")
            }
            EventKind::TxnTombstoned { txn } => {
                write!(f, "txn_tombstoned txn={txn:?}")
            }
            EventKind::Undrained { site } => {
                write!(f, "undrained site={site:?}")
            }
            EventKind::MigrationBegin { site, lo, hi, to } => {
                write!(
                    f,
                    "migration_begin site={site:?} range=[{lo},{hi}) to={to:?}"
                )
            }
            EventKind::MigrationCommitted {
                site,
                lo,
                hi,
                to,
                layout,
            } => write!(
                f,
                "migration_committed site={site:?} range=[{lo},{hi}) to={to:?} layout={layout}"
            ),
            EventKind::MigrationLanded {
                site,
                from,
                lo,
                hi,
                layout,
            } => write!(
                f,
                "migration_landed site={site:?} from={from:?} range=[{lo},{hi}) layout={layout}"
            ),
            EventKind::MigrationAborted { site, lo, hi } => {
                write!(f, "migration_aborted site={site:?} range=[{lo},{hi})")
            }
            EventKind::WriteAck { page, to } => {
                write!(f, "write_ack page={page:?} to={to:?}")
            }
            EventKind::OwnershipRefused { page } => {
                write!(f, "ownership_refused page={page:?}")
            }
            EventKind::EdgePageCommitted { page, version } => {
                write!(f, "edge_page_committed page={page:?} version={version}")
            }
            EventKind::EdgeRead {
                page,
                version,
                age_us,
                bound_us,
            } => write!(
                f,
                "edge_read page={page:?} version={version} age={age_us}µs bound={bound_us}µs"
            ),
            EventKind::EdgeMiss { page } => {
                write!(f, "edge_miss page={page:?}")
            }
            EventKind::EdgeInvalidated { to, pages } => {
                write!(f, "edge_invalidated to={to:?} pages={pages}")
            }
            EventKind::EdgeSubscribed { site, files } => {
                write!(f, "edge_subscribed site={site:?} files={files}")
            }
            EventKind::EdgeSubReaped { site } => {
                write!(f, "edge_sub_reaped site={site:?}")
            }
            EventKind::EdgePurgedOwner { owner, pages } => {
                write!(f, "edge_purged_owner owner={owner:?} pages={pages}")
            }
        }
    }
}

/// A recorded event with its stamps.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Per-site monotone sequence number (total order within a site).
    pub seq: u64,
    /// Site that recorded the event.
    pub site: SiteId,
    /// Virtual time at recording.
    pub at: SimTime,
    /// Wall-clock microseconds since the ring was created.
    pub wall_micros: u64,
    pub kind: EventKind,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[t={:>12}µs site={} #{:<6}] {}",
            self.at.as_micros(),
            self.site.0,
            self.seq,
            self.kind
        )
    }
}

/// A bounded, allocation-stable ring of trace events.
#[derive(Debug)]
pub struct EventRing {
    cap: usize,
    next_seq: u64,
    dropped: u64,
    epoch: Instant,
    buf: VecDeque<TraceEvent>,
}

impl EventRing {
    /// Ring capacity used by the engines unless configured otherwise.
    pub const DEFAULT_CAPACITY: usize = 4096;

    #[must_use]
    pub fn new(cap: usize) -> Self {
        EventRing {
            cap: cap.max(1),
            next_seq: 0,
            dropped: 0,
            epoch: Instant::now(),
            buf: VecDeque::with_capacity(cap.clamp(1, 1024)),
        }
    }

    /// Records one event, evicting the oldest when full.
    pub fn record(&mut self, site: SiteId, at: SimTime, kind: EventKind) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.buf.push_back(TraceEvent {
            seq,
            site,
            at,
            wall_micros: self.epoch.elapsed().as_micros() as u64,
            kind,
        });
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.iter()
    }

    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events evicted so far because the ring was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// A cloneable, thread-safe handle to one site's ring plus a shared
/// virtual-time clock, so components that don't receive `now` in their
/// call signatures (e.g. the lock table inside the engine) can still
/// stamp events consistently.
#[derive(Clone)]
pub struct TraceHandle {
    site: SiteId,
    clock_micros: Arc<AtomicU64>,
    ring: Arc<Mutex<EventRing>>,
}

impl fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TraceHandle(site={})", self.site.0)
    }
}

impl TraceHandle {
    #[must_use]
    pub fn new(site: SiteId, cap: usize) -> Self {
        TraceHandle {
            site,
            clock_micros: Arc::new(AtomicU64::new(0)),
            ring: Arc::new(Mutex::new(EventRing::new(cap))),
        }
    }

    /// Advances the shared virtual clock (called once per engine step).
    pub fn set_now(&self, now: SimTime) {
        self.clock_micros.store(now.as_micros(), Ordering::Relaxed);
    }

    /// Records `kind` at the current virtual time.
    pub fn record(&self, kind: EventKind) {
        let at = SimTime::from_micros(self.clock_micros.load(Ordering::Relaxed));
        self.ring
            .lock()
            .expect("trace ring poisoned")
            .record(self.site, at, kind);
    }

    /// Copies out the retained events, oldest first.
    #[must_use]
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.ring
            .lock()
            .expect("trace ring poisoned")
            .events()
            .cloned()
            .collect()
    }

    /// Events evicted from the ring so far.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.ring.lock().expect("trace ring poisoned").dropped()
    }
}

/// Merges per-site event snapshots into one chronological trace,
/// ordered by (virtual time, site, per-site sequence).
#[must_use]
pub fn merge_traces(per_site: Vec<Vec<TraceEvent>>) -> Vec<TraceEvent> {
    let mut all: Vec<TraceEvent> = per_site.into_iter().flatten().collect();
    all.sort_by_key(|e| (e.at, e.site.0, e.seq));
    all
}

/// Renders a merged trace as a line-per-event postmortem dump.
#[must_use]
pub fn render_dump(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "=== merged protocol trace ({} events) ===\n",
        events.len()
    ));
    for e in events {
        out.push_str(&e.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscc_common::{FileId, PageId, VolId};

    fn item(page: u32) -> LockableId {
        LockableId::Page(PageId::new(FileId::new(VolId(0), 0), page))
    }

    #[test]
    fn ring_bounds_and_drops() {
        let mut r = EventRing::new(3);
        for i in 0..5u32 {
            r.record(
                SiteId(0),
                SimTime::from_micros(u64::from(i)),
                EventKind::FetchSent {
                    to: SiteId(1),
                    item: item(i),
                },
            );
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let seqs: Vec<u64> = r.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
    }

    #[test]
    fn merge_orders_by_time_then_site() {
        let h0 = TraceHandle::new(SiteId(0), 16);
        let h1 = TraceHandle::new(SiteId(1), 16);
        h1.set_now(SimTime::from_micros(5));
        h1.record(EventKind::Race {
            item: item(1),
            kind: RaceKind::PurgeInFlight,
        });
        h0.set_now(SimTime::from_micros(2));
        h0.record(EventKind::Race {
            item: item(1),
            kind: RaceKind::CallbackLock,
        });
        let merged = merge_traces(vec![h0.snapshot(), h1.snapshot()]);
        assert_eq!(merged.len(), 2);
        assert!(merged[0].at <= merged[1].at);
        let dump = render_dump(&merged);
        assert!(dump.contains("callback_race"), "{dump}");
        assert!(dump.contains("purge_race"), "{dump}");
    }

    #[test]
    fn merge_breaks_timestamp_ties_by_site_then_seq() {
        // Three sites log at the identical instant: the merged order must
        // be deterministic (site id, then per-site seq), not map order.
        let t = SimTime::from_micros(7);
        let handles: Vec<TraceHandle> = (0..3).map(|s| TraceHandle::new(SiteId(s), 16)).collect();
        // Interleave recording in reverse site order to ensure the sort,
        // not insertion order, produces the result.
        for h in handles.iter().rev() {
            h.set_now(t);
            h.record(EventKind::Race {
                item: item(0),
                kind: RaceKind::PurgeInFlight,
            });
            h.record(EventKind::Race {
                item: item(1),
                kind: RaceKind::PurgeInFlight,
            });
        }
        let merged = merge_traces(handles.iter().map(TraceHandle::snapshot).collect());
        let order: Vec<(u32, u64)> = merged.iter().map(|e| (e.site.0, e.seq)).collect();
        assert_eq!(
            order,
            vec![(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)],
            "equal timestamps must tie-break by site then seq"
        );
    }

    #[test]
    fn merge_after_ring_wrap_keeps_surviving_suffix_in_order() {
        // One site's ring wraps (old events evicted) while another's does
        // not; the merge must interleave the surviving suffix correctly
        // and the wrap must be visible via dropped().
        let small = TraceHandle::new(SiteId(0), 4);
        let big = TraceHandle::new(SiteId(1), 64);
        for i in 0..10u64 {
            small.set_now(SimTime::from_micros(i * 10));
            small.record(EventKind::Race {
                item: item(i as u32),
                kind: RaceKind::CallbackLock,
            });
            big.set_now(SimTime::from_micros(i * 10 + 5));
            big.record(EventKind::Race {
                item: item(i as u32),
                kind: RaceKind::PurgeInFlight,
            });
        }
        assert_eq!(small.dropped(), 6);
        assert_eq!(big.dropped(), 0);
        let merged = merge_traces(vec![small.snapshot(), big.snapshot()]);
        // 4 survivors from the wrapped ring + all 10 from the big one.
        assert_eq!(merged.len(), 14);
        // Globally non-decreasing in time, and the wrapped ring's
        // survivors are exactly its latest 4 events, still in seq order.
        assert!(merged.windows(2).all(|w| w[0].at <= w[1].at));
        let small_seqs: Vec<u64> = merged
            .iter()
            .filter(|e| e.site == SiteId(0))
            .map(|e| e.seq)
            .collect();
        assert_eq!(small_seqs, vec![6, 7, 8, 9]);
    }
}
