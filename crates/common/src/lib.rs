//! # pscc-common
//!
//! Shared vocabulary types for the PSCC page-server OODBMS — a from-scratch
//! reproduction of *Zaharioudakis & Carey, "Hierarchical, Adaptive Cache
//! Consistency in a Page Server OODBMS"* (ICDCS 1997 / IEEE TC 47(4) 1998).
//!
//! This crate defines the identifiers for the four-level locking hierarchy
//! (volume / file / page / object), the five multigranularity lock modes
//! (`IS`, `IX`, `SH`, `SIX`, `EX`) together with their compatibility and
//! supremum tables, site and transaction identifiers, virtual time, the
//! protocol selector (`PS`, `PS-OA`, `PS-AA`), the error types shared by
//! every other crate in the workspace, and [`wire`], the one binary
//! encoding of messages and log records.
//!
//! # Examples
//!
//! ```
//! use pscc_common::{LockMode, Oid, PageId, FileId, VolId, LockableId};
//!
//! assert!(LockMode::Is.compatible(LockMode::Ix));
//! assert!(!LockMode::Sh.compatible(LockMode::Ex));
//! assert_eq!(LockMode::Ix.sup(LockMode::Sh), LockMode::Six);
//!
//! let oid = Oid::new(PageId::new(FileId::new(VolId(1), 2), 7), 3);
//! let page: LockableId = oid.page.into();
//! assert_eq!(LockableId::from(oid).parent(), Some(page));
//! ```

pub mod config;
pub mod error;
pub mod hash;
pub mod ids;
pub mod lock;
pub mod stats;
pub mod time;
pub mod trace;
pub mod wire;

pub use config::{
    tiers_fingerprint, ConfigError, ConsistencyTier, EdgeTierSpec, Protocol, SystemConfig,
    MAX_TIER_TTL, MIN_MAILBOX_CAPACITY,
};
pub use error::{AbortReason, PsccError};
pub use ids::{AppId, FileId, LockLevel, LockableId, Oid, PageId, SiteId, TxnId, VolId};
pub use lock::LockMode;
pub use stats::Counters;
pub use time::Duration as SimDuration;
pub use time::Time as SimTime;
pub use trace::{SpanId, Stage, TraceCtx};
