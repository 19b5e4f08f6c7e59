//! # pscc-control
//!
//! The declarative cluster control plane (DESIGN.md §8): a
//! [`ClusterManifest`] describes the *desired* state of a peer-server
//! cluster (which sites exist, whether each should be up, and — for
//! rolling restarts — the minimum epoch each must have been reborn
//! into), and a [`Supervisor`] reconciles it against the *observed*
//! state (a [`ClusterView`] assembled from the engines' liveness
//! signals and probes), emitting a bounded plan of safe steps:
//!
//! ```text
//! Drain → Stop → Restart (Recover + Rejoin) → Undrain
//! ```
//!
//! At most `max_unavailable` sites are in flight at a time. Declared
//! ownership moves (Prepare → Commit) and per-file tier rows (SetTier)
//! follow, one at a time. Every step of every program is one flight
//! through one step table: a deadline, a bounded retry budget with
//! widening backoff, and a rollback path (undrain what was draining,
//! restart what was stopped, abort the migration) if the cluster
//! refuses to converge.
//!
//! The crate is sans-IO in the same spirit as `pscc-core`: the
//! supervisor never talks to a network or clock. A [`Harness`] gives it
//! views stamped with the harness's time, executes the
//! [`ControlAction`]s it returns and lets time pass, and
//! [`Supervisor::converge`] is the one loop over it. Both harnesses run
//! it: `Simulation::converge` under virtual time, and the
//! threaded cluster's `spawn_converge` on a supervisor thread under wall
//! time.
//!
//! # Examples
//!
//! ```
//! use pscc_common::{SimDuration, SimTime, SiteId};
//! use pscc_control::{
//!     ClusterManifest, ClusterView, ControlAction, ControlStatus, MigrationObs, ObservedSite,
//!     SitePhase, Supervisor,
//! };
//!
//! // Desired: site 0 restarted into an epoch >= 2.
//! let manifest =
//!     ClusterManifest::rolling_restart(&[(SiteId(0), 1)], 1, SimDuration::from_secs(1));
//! let mut sup = Supervisor::new(manifest).unwrap();
//!
//! // Observed: site 0 up in epoch 1 → first step is a drain.
//! let view = ClusterView {
//!     now: SimTime::ZERO,
//!     sites: vec![ObservedSite {
//!         site: SiteId(0),
//!         up: true,
//!         epoch: 1,
//!         phase: SitePhase::Active,
//!         queue_depth: 0,
//!         layout: 1,
//!         migration: MigrationObs::Idle,
//!         tiers_fp: pscc_common::tiers_fingerprint([]),
//!     }],
//! };
//! let tick = sup.tick(&view);
//! assert_eq!(tick.actions, vec![ControlAction::Drain(SiteId(0))]);
//! assert_eq!(tick.status, ControlStatus::InProgress);
//! ```

pub mod converge;
pub mod manifest;
pub mod reconcile;
pub mod view;

pub use converge::{ConvergeError, ConvergeReport, Harness};
pub use manifest::{
    ClusterManifest, DesiredState, ManifestError, MoveRange, SiteSpec, TierAssignment,
};
pub use reconcile::{ControlAction, ControlStatus, StepKind, Supervisor, TickResult};
pub use view::{ClusterView, MigrationObs, ObservedSite, SitePhase};
