//! Causal-tracing vocabulary shared by the engine, the wire codec, and
//! the observability crate.
//!
//! A [`TraceCtx`] is the compact context stamped on every traced
//! protocol message: which transaction the message works for, the site
//! that originated the transaction, and a (span, parent-span) pair that
//! reconstructs the cross-site causal tree — each message hop is one
//! span whose parent is the span the sender was handling when it sent.
//! [`Stage`] names the latency stages the critical-path analyzer
//! attributes commit latency to.

use crate::ids::{SiteId, TxnId};
use std::fmt;

/// A causal span identifier, unique across the cluster (the allocating
/// site's id is packed into the high bits). `SpanId::NONE` (zero) marks
/// a root span's absent parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The absent parent of a root span.
    pub const NONE: SpanId = SpanId(0);

    /// Whether this is the absent-parent sentinel.
    #[must_use]
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sp{:x}", self.0)
    }
}

/// The compact causal context carried on every traced [`Message`]
/// (`pscc_core::Message::Traced`) and propagated through the engine's
/// lock/callback/fetch/commit/2PC/drain paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceCtx {
    /// The transaction this message works on behalf of.
    pub txn: TxnId,
    /// The site where `txn` originated (its home).
    pub origin: SiteId,
    /// This message hop's span.
    pub span: SpanId,
    /// The span the sender was executing under when it sent this
    /// message ([`SpanId::NONE`] for a transaction's root hop).
    pub parent: SpanId,
}

impl fmt::Display for TraceCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "txn={} origin={} span={} parent={}",
            self.txn, self.origin, self.span, self.parent
        )
    }
}

crate::impl_wire!(struct SpanId { 0 });
crate::impl_wire!(struct TraceCtx {
    txn,
    origin,
    span,
    parent,
});

/// A latency stage of a transaction's critical path. Engines emit one
/// `StageSample` event per measured interval; the analyzer sweeps the
/// samples into a per-transaction commit-latency attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Blocked in a lock queue (any role).
    LockWait,
    /// A callback fan-out round trip at the owner.
    CallbackRtt,
    /// A page/object fetch round trip at the client.
    FetchRtt,
    /// A commit-path WAL force at an owner.
    WalForce,
    /// 2PC phase one at the home: prepare fan-out to all votes.
    TwopcPrepare,
    /// 2PC phase two at the home: decide fan-out to all acks.
    TwopcDecide,
    /// Waiting in an overload queue: credit stall or busy backoff.
    QueueWait,
    /// Stalled behind an ownership migration: the target range was
    /// frozen (Busy) or mid-re-home (`WrongOwner` redirect + retry).
    MigrationPause,
}

impl Stage {
    /// All stages, in *attribution priority* order: when intervals of
    /// different stages overlap on the critical-path sweep, the
    /// earlier (inner-most) stage wins the overlapped time. A WAL
    /// force inside a 2PC prepare window is attributed to the force,
    /// not double-counted.
    pub const ALL: [Stage; 8] = [
        Stage::WalForce,
        Stage::TwopcDecide,
        Stage::TwopcPrepare,
        Stage::CallbackRtt,
        Stage::FetchRtt,
        Stage::LockWait,
        Stage::QueueWait,
        Stage::MigrationPause,
    ];

    /// Number of stages.
    pub const COUNT: usize = Self::ALL.len();

    /// Stable metric/label name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::LockWait => "lock_wait",
            Stage::CallbackRtt => "callback_rtt",
            Stage::FetchRtt => "fetch_rtt",
            Stage::WalForce => "wal_force",
            Stage::TwopcPrepare => "2pc_prepare",
            Stage::TwopcDecide => "2pc_decide",
            Stage::QueueWait => "queue_wait",
            Stage::MigrationPause => "migration_pause",
        }
    }

    /// Dense index (histogram array slot).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Stage::LockWait => 0,
            Stage::CallbackRtt => 1,
            Stage::FetchRtt => 2,
            Stage::WalForce => 3,
            Stage::TwopcPrepare => 4,
            Stage::TwopcDecide => 5,
            Stage::QueueWait => 6,
            Stage::MigrationPause => 7,
        }
    }

    /// Attribution priority: lower wins overlapped time on the sweep.
    #[must_use]
    pub fn priority(self) -> usize {
        Self::ALL
            .iter()
            .position(|s| *s == self)
            .expect("every stage is in ALL")
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_tables_agree() {
        assert_eq!(Stage::ALL.len(), Stage::COUNT);
        let mut seen = [false; Stage::COUNT];
        for s in Stage::ALL {
            assert!(!seen[s.index()], "duplicate index for {s}");
            seen[s.index()] = true;
            assert_eq!(Stage::ALL[s.priority()], s);
        }
        assert!(seen.iter().all(|b| *b));
    }

    #[test]
    fn span_none_sentinel() {
        assert!(SpanId::NONE.is_none());
        assert!(!SpanId(7).is_none());
        assert_eq!(format!("{}", SpanId(255)), "spff");
    }
}
