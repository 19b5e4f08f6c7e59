//! # pscc-sim
//!
//! The experimental platform: a discrete-event simulation of the paper's
//! IBM SP2 testbed that drives the *real* `pscc-core` protocol engine
//! under a virtual clock.
//!
//! Substitution note (see DESIGN.md): the paper measured SHORE on an
//! 11-node SP2. We model each node as a CPU with an FCFS task queue, a
//! data disk and a log disk (FCFS, fixed service time), and the switch as
//! a fixed-latency network with per-message CPU costs at both endpoints.
//! Everything else — locking, callbacks, adaptivity, caching, commits,
//! aborts — is the identical production engine, so the simulated curves
//! inherit the protocol behaviour rather than a model of it.
//!
//! The crate provides:
//!
//! * [`CostModel`] — calibrated per-event costs (Table 1 scale);
//! * [`WorkloadSpec`] / [`TxnScript`] — the HOTCOLD / UNIFORM / HICON
//!   generators of the paper's Table 2;
//! * [`Simulation`] — the one virtual-time harness, binding peer servers,
//!   applications, disks and the network under a delivery policy:
//!   `Timed` ([`Simulation::new`]), the cost-model DES with CPU and disk
//!   queues, or `Seeded` ([`Simulation::seeded`]), instant delivery in a
//!   seeded order for race exploration. Crashes, [`chaos::FaultPlan`]s,
//!   tracing, the audit and metrics work under both;
//! * [`testkit`] — its step-wise API: run one operation, drain one path,
//!   drive the control plane;
//! * [`threaded`] — the same engines on OS threads over real transports;
//! * [`experiment`] — per-figure experiment specs and the sweep runner
//!   that regenerates Figures 6–15.
//!
//! # Examples
//!
//! ```
//! use pscc_sim::experiment::{quick_spec, Figure};
//!
//! // A tiny, seconds-long variant of Figure 6's first point:
//! let spec = quick_spec(Figure::Fig6, 0.02);
//! let point = pscc_sim::experiment::run_point(&spec);
//! assert!(point.report.throughput > 0.0);
//! ```

pub mod chaos;
pub mod cost;
pub mod driver;
pub mod experiment;
pub mod sim;
pub mod testkit;
pub mod threaded;
pub mod workload;

pub use cost::CostModel;
pub use driver::{AppDriver, TxnScript};
pub use sim::{SimReport, Simulation};
pub use workload::{WorkloadKind, WorkloadSpec};
