//! Per-site observability state carried by the engine: an optional
//! protocol trace handle and always-on latency histograms. The stamps
//! that turn a request, callback, commit or 2PC pair into a latency
//! live in the engine records they time. Recording is O(1) and
//! allocation-free on the hot path; the trace is off unless
//! [`crate::PeerServer::enable_trace`] is called.
//!
//! Stage attribution (DESIGN.md §9): every measured interval is also
//! recorded into a per-[`Stage`] histogram and — when tracing is on —
//! emitted as a `StageSample` event stamped with the transaction it
//! served, which is what the critical-path analyzer in `pscc-obs`
//! sweeps into per-transaction commit-latency breakdowns.

use pscc_common::{SimDuration, SimTime, SiteId, Stage, TxnId};
use pscc_obs::event::{EventKind, TraceHandle};
use pscc_obs::Histogram;

/// Observability state of one [`crate::PeerServer`].
#[derive(Debug, Default)]
pub struct SiteObs {
    trace: Option<TraceHandle>,
    /// Blocked lock acquisitions: queueing to grant.
    pub lock_wait: Histogram,
    /// Callback round trips: issue at the owner to each acknowledgment.
    pub callback_rtt: Histogram,
    /// Fetch round trips: request sent to page installed.
    pub fetch_rtt: Histogram,
    /// Commit latency: application commit to committed.
    pub commit_latency: Histogram,
    /// Whole-transaction latency: begin to committed. Unlike
    /// `commit_latency` (whose commit phase is dominated by
    /// protocol-independent WAL/2PC costs) this includes the
    /// execution-phase lock, fetch, and callback waits where the
    /// consistency protocols actually differ.
    pub txn_latency: Histogram,
    /// Restart recovery duration (analysis + redo + undo wall clock,
    /// one sample per completed recovery). The harness that restarts
    /// the site records it; the engine reads no clock.
    pub recovery_time: Histogram,
    /// Ownership-migration pause: range freeze (`MigratePrepare`
    /// accepted) to the source's commit record going durable — the
    /// window in which traffic on the moving range is held off.
    pub migration_pause: Histogram,
    /// Staleness of lock-free edge reads at serve time: now minus the
    /// copy's validation instant (fetch send time, or last acked watch
    /// renew). Always below the tier's bound when the protocol is
    /// honest — the auditor's check 6 cross-checks it from the trace.
    pub edge_staleness: Histogram,
    /// Per-stage latency histograms (indexed by [`Stage::index`]).
    stage_hists: [Histogram; Stage::COUNT],
}

impl SiteObs {
    /// Turns event tracing on with a ring of `cap` events, returning a
    /// handle the harness keeps for snapshots/merging.
    pub fn enable_trace(&mut self, site: SiteId, cap: usize) -> TraceHandle {
        let h = TraceHandle::new(site, cap);
        self.trace = Some(h.clone());
        h
    }

    /// The trace handle, if tracing is enabled.
    pub fn trace_handle(&self) -> Option<&TraceHandle> {
        self.trace.as_ref()
    }

    /// Records a protocol event (no-op when tracing is off).
    pub fn record(&self, kind: EventKind) {
        if let Some(t) = &self.trace {
            t.record(kind);
        }
    }

    /// Advances the shared virtual clock used to stamp events.
    pub fn set_now(&self, now: SimTime) {
        if let Some(t) = &self.trace {
            t.set_now(now);
        }
    }

    /// The per-stage latency histogram for `stage`.
    pub fn stage_hist(&self, stage: Stage) -> &Histogram {
        &self.stage_hists[stage.index()]
    }

    /// Records one measured `stage` interval ending now on behalf of
    /// `txn`: always into the per-stage histogram, and into the event
    /// ring when tracing is on (the analyzer's raw material).
    pub(crate) fn stage_sample(&mut self, txn: TxnId, stage: Stage, d: SimDuration) {
        self.stage_hists[stage.index()].record(d);
        self.record(EventKind::StageSample {
            txn,
            stage,
            micros: d.as_micros(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscc_common::SimDuration;

    fn txn(seq: u64) -> TxnId {
        TxnId::new(SiteId(0), seq)
    }

    #[test]
    fn stage_samples_emit_events_when_traced() {
        let mut o = SiteObs::default();
        let h = o.enable_trace(SiteId(0), 64);
        o.set_now(SimTime::from_micros(5));
        o.stage_sample(txn(1), Stage::LockWait, SimDuration::from_micros(42));
        let events = h.snapshot();
        assert_eq!(events.len(), 1);
        assert!(matches!(
            events[0].kind,
            EventKind::StageSample {
                stage: Stage::LockWait,
                micros: 42,
                ..
            }
        ));
    }

    #[test]
    fn trace_records_only_when_enabled() {
        let mut o = SiteObs::default();
        o.record(EventKind::Commit {
            txn: txn(1),
            stage: pscc_obs::event::CommitStage::Request,
        });
        let h = o.enable_trace(SiteId(0), 64);
        o.set_now(SimTime::from_micros(5));
        o.record(EventKind::Commit {
            txn: txn(1),
            stage: pscc_obs::event::CommitStage::Done,
        });
        let events = h.snapshot();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].at, SimTime::from_micros(5));
    }
}
