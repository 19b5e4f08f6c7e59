//! The step-wise API of a [`Simulation`], for examples, integration
//! tests and interactive exploration: submit one operation and pump to
//! completion, drive the control plane a tick at a time, or run
//! [`Supervisor::converge`] over virtual time.
//!
//! It works under either delivery policy; under
//! [`Simulation::seeded`], every schedule is reproducible from its seed
//! and [`Simulation::drain`] stages deliveries for §4.2.4 races.

use crate::sim::Simulation;
use pscc_common::{AppId, PsccError, SimDuration, SiteId, TxnId};
use pscc_control::{
    ClusterManifest, ClusterView, ControlAction, ControlStatus, ConvergeError, ConvergeReport,
    Harness, MigrationObs, ObservedSite, SitePhase, Supervisor,
};
use pscc_core::{
    AppOp, AppReply, AppRequest, ControlOp, DrainPhase, Input, MigrationPhase, PeerServer,
};
use pscc_obs::EventKind;

impl Simulation {
    /// Submits an application request without waiting.
    pub fn submit(&mut self, site: SiteId, app: AppId, txn: Option<TxnId>, op: AppOp) {
        self.accept(site.0 as usize, Input::App(AppRequest { app, txn, op }));
    }

    /// Runs until fully idle, letting timers fire (timeout scenarios).
    ///
    /// Not usable once leases are enabled: heartbeat and lease timers
    /// re-arm forever, so the system never goes idle — chaos tests use
    /// [`Self::pump_for`] instead.
    ///
    /// # Panics
    ///
    /// Panics if the system does not go idle within 500 000 steps.
    pub fn pump_with_timers(&mut self) {
        self.pump_until(500_000, "cluster did not quiesce", |_| false);
    }

    /// Runs for `dur` of virtual time (or until fully idle), firing
    /// every timer that comes due — the chaos-test pump, bounded so the
    /// perpetual heartbeat/lease timers of `leases_enabled` cannot spin
    /// it forever.
    ///
    /// # Panics
    ///
    /// Panics if the deadline is not reached within 2 000 000 steps.
    pub fn pump_for(&mut self, dur: SimDuration) {
        let deadline = self.now + dur;
        self.pump_until(
            2_000_000,
            "cluster did not reach the pump_for deadline",
            |s| s.now >= deadline,
        );
    }

    /// Takes all application replies collected so far.
    pub fn take_replies(&mut self) -> Vec<(SiteId, AppReply)> {
        std::mem::take(&mut self.replies)
    }

    /// Pops the first reply addressed to `txn` at `site`, if any.
    pub fn find_reply(&mut self, site: SiteId, txn: TxnId) -> Option<AppReply> {
        let pos = self.replies.iter().position(|(s, r)| {
            *s == site
                && match r {
                    AppReply::Done { txn: t, .. }
                    | AppReply::Committed { txn: t, .. }
                    | AppReply::Aborted { txn: t, .. } => *t == txn,
                    AppReply::Started { .. } => false,
                }
        })?;
        Some(self.replies.remove(pos).1)
    }

    /// Begins a transaction at `site` and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the engine does not answer (cannot happen for `Begin`).
    pub fn begin(&mut self, site: SiteId, app: AppId) -> TxnId {
        self.submit(site, app, None, AppOp::Begin);
        self.pump();
        let pos = self
            .replies
            .iter()
            .position(|(s, r)| {
                *s == site && matches!(r, AppReply::Started { app: a, .. } if *a == app)
            })
            .expect("Begin must answer");
        match self.replies.remove(pos).1 {
            AppReply::Started { txn, .. } => txn,
            _ => unreachable!(),
        }
    }

    /// Runs one operation to completion and returns its terminal reply.
    ///
    /// # Errors
    ///
    /// Returns [`PsccError::Aborted`] if the transaction aborted instead
    /// of completing the operation.
    pub fn run_op(
        &mut self,
        site: SiteId,
        app: AppId,
        txn: TxnId,
        op: AppOp,
    ) -> Result<AppReply, PsccError> {
        self.submit(site, app, Some(txn), op);
        self.pump();
        let reply = self.find_reply(site, txn).or_else(|| {
            // Blocked on a lock: let timers resolve it.
            self.pump_with_timers();
            self.find_reply(site, txn)
        });
        match reply {
            Some(AppReply::Aborted { txn, reason, .. }) => Err(PsccError::Aborted { txn, reason }),
            Some(r) => Ok(r),
            None => Err(PsccError::InvalidOperation("operation never completed")),
        }
    }

    /// Reads an object's bytes.
    ///
    /// # Errors
    ///
    /// Propagates aborts.
    pub fn read(
        &mut self,
        site: SiteId,
        app: AppId,
        txn: TxnId,
        oid: pscc_common::Oid,
    ) -> Result<Vec<u8>, PsccError> {
        match self.run_op(site, app, txn, AppOp::Read(oid))? {
            AppReply::Done { data: Some(d), .. } => Ok(d.to_vec()),
            _ => Err(PsccError::NoSuchObject(oid)),
        }
    }

    /// Updates an object (synthesized version bump when `bytes` is
    /// `None`).
    ///
    /// # Errors
    ///
    /// Propagates aborts.
    pub fn write(
        &mut self,
        site: SiteId,
        app: AppId,
        txn: TxnId,
        oid: pscc_common::Oid,
        bytes: Option<Vec<u8>>,
    ) -> Result<(), PsccError> {
        self.run_op(site, app, txn, AppOp::Write { oid, bytes })?;
        Ok(())
    }

    /// Commits the transaction.
    ///
    /// # Errors
    ///
    /// Propagates aborts.
    pub fn commit(&mut self, site: SiteId, app: AppId, txn: TxnId) -> Result<(), PsccError> {
        match self.run_op(site, app, txn, AppOp::Commit)? {
            AppReply::Committed { .. } => Ok(()),
            _ => Err(PsccError::InvalidOperation("commit did not commit")),
        }
    }

    // ------------------------------------------------------------------
    // The control plane (DESIGN.md §8)
    // ------------------------------------------------------------------

    /// Hands a control op to `site`'s engine and routes the outputs. An
    /// op for a crashed site is lost.
    pub fn send_control(&mut self, to: SiteId, op: ControlOp) {
        if !self.is_crashed(to) {
            self.accept(to.0 as usize, Input::Control(op));
        }
    }

    /// A point-in-time [`ClusterView`] of every site: liveness from the
    /// harness's crash set, everything else from the engine probes.
    pub fn observe(&self) -> ClusterView {
        ClusterView {
            now: self.now,
            sites: self
                .sites
                .iter()
                .map(|s| observe_site(s, !self.is_crashed(s.site())))
                .collect(),
        }
    }

    /// Installs a manifest: subsequent [`Self::converge_step`] /
    /// [`Self::converge`] calls reconcile the system toward it.
    ///
    /// # Errors
    ///
    /// Returns the manifest's validation error.
    pub fn apply_manifest(
        &mut self,
        manifest: ClusterManifest,
    ) -> Result<(), pscc_control::ManifestError> {
        self.supervisor = Some(Supervisor::new(manifest)?);
        Ok(())
    }

    /// One reconciliation tick: observe, diff, execute the emitted
    /// actions. Does **not** pump — callers interleave their own
    /// traffic and pumping between ticks (see [`Self::converge`] for
    /// the batteries-included loop).
    ///
    /// # Panics
    ///
    /// Panics if no manifest was applied.
    pub fn converge_step(&mut self) -> ControlStatus {
        let mut sup = self
            .supervisor
            .take()
            .expect("converge_step: no manifest applied");
        let tick = sup.tick(&self.observe());
        self.supervisor = Some(sup);
        for action in tick.actions {
            self.execute(action);
        }
        tick.status
    }

    /// [`Supervisor::converge`] over this system, pumping `poll` of
    /// virtual time (timers included) between ticks, for at most
    /// `budget` of virtual time; a `converge_done` event records the
    /// outcome.
    ///
    /// # Errors
    ///
    /// As [`Supervisor::converge`].
    ///
    /// # Panics
    ///
    /// Panics if no manifest was applied.
    pub fn converge(
        &mut self,
        poll: SimDuration,
        budget: SimDuration,
    ) -> Result<ConvergeReport, ConvergeError> {
        let mut sup = self
            .supervisor
            .take()
            .expect("converge: no manifest applied");
        let outcome = sup.converge(self, poll, budget);
        let steps = sup.steps_executed();
        self.supervisor = Some(sup);
        if outcome != Err(ConvergeError::BudgetExhausted) {
            let first_live = self.sites.iter().position(|s| !self.is_crashed(s.site()));
            if let Some(i) = first_live {
                let ok = outcome.is_ok();
                self.sites[i]
                    .obs
                    .record(EventKind::ConvergeDone { steps, ok });
            }
        }
        outcome
    }
}

impl Harness for Simulation {
    fn observe(&self) -> ClusterView {
        Simulation::observe(self)
    }

    fn execute(&mut self, action: ControlAction) {
        let site = action.site();
        if !self.is_crashed(site) {
            self.sites[site.0 as usize]
                .obs
                .record(EventKind::ConvergeStep {
                    site,
                    step: action.name(),
                });
        }
        // Illegal transitions (e.g. stopping a site that crashed on its
        // own mid-step) are probed, not fatal: the reconciler re-plans
        // from the next observation.
        match control_op(action) {
            Some(op) => self.send_control(site, op),
            None if matches!(action, ControlAction::Stop(_)) => {
                let _ = self.try_crash_site(site);
            }
            None => {
                let _ = self.try_restart_site(site);
            }
        }
    }

    /// Pumps `dur` of virtual time; a fully idle system has its clock
    /// advanced by hand, so step deadlines (and the budget) can lapse.
    fn wait(&mut self, dur: SimDuration) {
        let before = self.now;
        self.pump_for(dur);
        if self.now == before {
            self.now = before + dur;
        }
    }
}

/// What the control plane observes of one engine, `up` being the
/// harness's liveness signal: the one mapping from the engine's probes
/// to an [`ObservedSite`], for both harnesses.
pub(crate) fn observe_site(s: &PeerServer, up: bool) -> ObservedSite {
    ObservedSite {
        site: s.site(),
        up,
        epoch: s.epoch(),
        phase: match s.drain_phase() {
            DrainPhase::Active => SitePhase::Active,
            DrainPhase::Draining => SitePhase::Draining,
            DrainPhase::Drained => SitePhase::Drained,
        },
        queue_depth: s.queue_depth(),
        layout: s.layout_version(),
        migration: match s.migration_phase() {
            MigrationPhase::Idle => MigrationObs::Idle,
            MigrationPhase::Preparing => MigrationObs::Preparing,
            MigrationPhase::Prepared => MigrationObs::Prepared,
            MigrationPhase::Transferring => MigrationObs::Transferring,
            MigrationPhase::Committing => MigrationObs::Committing,
        },
        tiers_fp: s.tiers_fingerprint(),
    }
}

/// The engine op that carries `action`: the one mapping, for both
/// harnesses. `None` for `Stop` and `Restart`, which act on the site's
/// process, not its engine.
pub(crate) fn control_op(action: ControlAction) -> Option<ControlOp> {
    Some(match action {
        ControlAction::Drain(_) => ControlOp::Drain,
        ControlAction::Undrain(_) => ControlOp::Undrain,
        ControlAction::MigratePrepare { lo, hi, to, .. } => {
            ControlOp::MigratePrepare { lo, hi, to }
        }
        ControlAction::MigrateCommit { .. } => ControlOp::MigrateCommit,
        ControlAction::MigrateAbort { .. } => ControlOp::MigrateAbort,
        ControlAction::SetTier { file, tier, .. } => ControlOp::SetTier { file, tier },
        ControlAction::Stop(_) | ControlAction::Restart(_) => return None,
    })
}

/// Extracts the version counter of a synthesized object (first 8 bytes).
pub fn version_of(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[0..8].try_into().expect("at least 8 bytes"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscc_common::{FileId, Oid, PageId, SystemConfig, VolId};
    use pscc_core::OwnerMap;

    #[test]
    fn end_to_end_roundtrip() {
        let cfg = SystemConfig::small();
        let mut c = Simulation::seeded(2, cfg, OwnerMap::Single(SiteId(0)), 5);
        let t = c.begin(SiteId(1), AppId(0));
        let oid = Oid::new(PageId::new(FileId::new(VolId(0), 0), 3), 1);
        let v0 = c.read(SiteId(1), AppId(0), t, oid).unwrap();
        assert_eq!(version_of(&v0), 0);
        c.write(SiteId(1), AppId(0), t, oid, None).unwrap();
        c.commit(SiteId(1), AppId(0), t).unwrap();
        assert_eq!(version_of(c.sites[0].volume().read_object(oid).unwrap()), 1);
    }
}
