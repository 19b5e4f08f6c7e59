//! # pscc-core
//!
//! The primary contribution of *Zaharioudakis & Carey, "Hierarchical,
//! Adaptive Cache Consistency in a Page Server OODBMS"* (ICDCS 1997 /
//! IEEE TC 47(4) 1998), re-implemented from scratch: a page-server
//! OODBMS engine with inter-transaction client caching kept consistent by
//! **callback locking**, at a granularity that adapts between pages and
//! objects.
//!
//! Three protocols are selectable via
//! [`SystemConfig::protocol`](pscc_common::SystemConfig):
//!
//! * **PS** — the basic page server: page-level locking, page-level
//!   callbacks;
//! * **PS-OA** — object-level locking with adaptive callbacks (a callback
//!   invalidates the whole page when nobody at the client uses it, and
//!   deescalates to the single object otherwise);
//! * **PS-AA** — PS-OA plus *adaptive page locks*: in the absence of
//!   conflicts a writer is granted permission to update any object of
//!   the page with no further server interaction, deescalating (and
//!   later re-escalating) as contention appears and dissipates.
//!
//! The engine also implements the paper's hierarchical locking (explicit
//! volume/file/page locks with dummy-object callbacks), the callback /
//! purge / deescalation race handling of §4.2.4, redo-at-server update
//! propagation with two-phase commit, and lock-wait timeouts with the
//! adaptive interval of §5.5.
//!
//! The central type is [`PeerServer`], an event-driven state machine: it
//! consumes [`Input`]s and hands its effects to an [`Env`] through
//! [`PeerServer::drive`], so the identical protocol code runs on real
//! threads (see `pscc-net`) and under the discrete-event harness
//! (`pscc-sim`) that regenerates the paper's figures.
//!
//! # Examples
//!
//! A one-site system executing a transaction against its own volume,
//! its effects staged in a `Vec<Output>` (the simplest [`Env`]):
//!
//! ```
//! use pscc_core::{AppOp, AppReply, AppRequest, Input, Output, OwnerMap, PeerServer};
//! use pscc_common::{AppId, Oid, PageId, FileId, SiteId, SimTime, SystemConfig, VolId};
//!
//! let cfg = SystemConfig::small();
//! let site = SiteId(0);
//! let mut server = PeerServer::new(site, cfg, OwnerMap::Single(site));
//! let mut outs: Vec<Output> = Vec::new();
//!
//! // Begin a transaction.
//! server.drive(SimTime::ZERO, Input::App(AppRequest {
//!     app: AppId(0), txn: None, op: AppOp::Begin,
//! }), &mut outs);
//! let txn = match outs.pop() {
//!     Some(Output::App(AppReply::Started { txn, .. })) => txn,
//!     other => panic!("unexpected {other:?}"),
//! };
//!
//! // Read object 0 of page 0 (self-owned: no messages, maybe one disk read).
//! let oid = Oid::new(PageId::new(FileId::new(VolId(0), 0), 0), 0);
//! server.drive(SimTime::ZERO, Input::App(AppRequest {
//!     app: AppId(0), txn: Some(txn), op: AppOp::Read(oid),
//! }), &mut outs);
//! assert!(!outs.is_empty());
//! ```

pub mod cache;
pub mod copy_table;
mod engine;
mod fifo_map;
mod lru;
pub mod msg;
pub mod obs;
pub mod owner_map;
pub mod ownership;
pub mod residency;
pub mod timeout;
pub mod txn;

pub use engine::large::{decode_header_oid, encode_header_oid};
pub use engine::{DrainPhase, Env, MigrationPhase, PeerServer};
pub use msg::{
    AppOp, AppReply, AppRequest, CbId, ControlOp, DeId, DiskOp, DiskReqId, FifoPath, Input,
    Message, Output, ReqId, TimerId,
};
pub use owner_map::{OwnerMap, OwnershipError};
pub use ownership::{LayoutImage, OwnershipDirectory};
pub use timeout::TimeoutSnapshot;
