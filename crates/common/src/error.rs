//! Error and abort-reason types shared across the workspace.

use crate::ids::{LockableId, Oid, PageId, TxnId};
use std::error::Error;
use std::fmt;

/// Why a transaction was aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbortReason {
    /// Chosen as the victim of a locally detected deadlock.
    Deadlock,
    /// A lock wait exceeded the (adaptive) timeout interval — the
    /// mechanism SHORE uses against distributed deadlocks (paper §3.3,
    /// §5.5).
    LockTimeout,
    /// The application requested the abort.
    User,
    /// An internal invariant forced the abort (should not occur; kept for
    /// fault-injection tests).
    Internal,
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AbortReason::Deadlock => "deadlock victim",
            AbortReason::LockTimeout => "lock-wait timeout",
            AbortReason::User => "user abort",
            AbortReason::Internal => "internal abort",
        };
        f.write_str(s)
    }
}

crate::impl_wire!(
    enum AbortReason {
        Deadlock,
        LockTimeout,
        User,
        Internal,
    }
);

/// Errors surfaced by the PSCC crates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PsccError {
    /// A transaction was aborted; the reason says why.
    Aborted {
        /// The aborted transaction.
        txn: TxnId,
        /// Why it was aborted.
        reason: AbortReason,
    },
    /// The referenced transaction is not active at this site.
    UnknownTxn(TxnId),
    /// The referenced object does not exist.
    NoSuchObject(Oid),
    /// The referenced page does not exist.
    NoSuchPage(PageId),
    /// A page has insufficient free space for an insert or a size-growing
    /// update (the caller must forward, paper §4.4).
    PageFull(PageId),
    /// An operation referenced a granule this site does not own.
    NotOwner(LockableId),
    /// An operation was invalid in the current state (e.g. read before
    /// begin); the string names the violated rule.
    InvalidOperation(&'static str),
}

impl fmt::Display for PsccError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PsccError::Aborted { txn, reason } => write!(f, "transaction {txn} aborted: {reason}"),
            PsccError::UnknownTxn(t) => write!(f, "unknown transaction {t}"),
            PsccError::NoSuchObject(o) => write!(f, "no such object {o}"),
            PsccError::NoSuchPage(p) => write!(f, "no such page {p}"),
            PsccError::PageFull(p) => write!(f, "page {p} has insufficient free space"),
            PsccError::NotOwner(i) => write!(f, "this site does not own {i}"),
            PsccError::InvalidOperation(s) => write!(f, "invalid operation: {s}"),
        }
    }
}

impl Error for PsccError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::SiteId;

    #[test]
    fn errors_display_and_are_send_sync() {
        fn assert_traits<T: Error + Send + Sync + 'static>() {}
        assert_traits::<PsccError>();
        let e = PsccError::Aborted {
            txn: TxnId::new(SiteId(1), 2),
            reason: AbortReason::Deadlock,
        };
        assert_eq!(format!("{e}"), "transaction T1.2 aborted: deadlock victim");
    }
}
