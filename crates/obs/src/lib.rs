//! # pscc-obs
//!
//! Observability substrate for the peer-server stack: structured
//! protocol event traces, fixed log-bucket latency histograms, a
//! metrics registry with Prometheus-text and JSON exporters, causal
//! cross-site span trees with a Perfetto exporter, critical-path
//! attribution of commit latency, and an online invariant auditor
//! over merged multi-site traces (DESIGN.md §9).

pub mod audit;
pub mod critical_path;
pub mod event;
pub mod hist;
pub mod registry;
pub mod timeline;
pub mod trace;

pub use audit::{audit_events, InvariantAuditor, Violation};
pub use critical_path::TxnBreakdown;
pub use event::{EventKind, EventRing, TraceEvent};
pub use hist::Histogram;
pub use registry::MetricsRegistry;
pub use timeline::{AvailabilityTimeline, AvailabilityWindow};
pub use trace::{build_span_trees, render_perfetto, SpanTree};
