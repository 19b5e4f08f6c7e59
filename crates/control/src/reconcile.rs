//! The reconciler: diff desired vs. observed, emit bounded safe steps.
//!
//! [`Supervisor::tick`] is a pure state-machine transition: given the
//! latest [`ClusterView`], it advances the operation's three programs —
//! the site walk, then the declared moves, then the tier rollout. Every
//! step in flight is one `Flight`, and every program runs on the same
//! two pieces: the step table (`Supervisor::row`: what a step sends,
//! when the view shows it done, which step follows) and one poll
//! (`Supervisor::poll`: deadlines with a widening retry backoff, the
//! give-up, the step count). New sites are admitted into the walk while
//! fewer than `max_unavailable` are in flight; if any step exhausts its
//! retries, the whole operation aborts and the program that owns it
//! emits the rollback that returns the cluster to service (undrain what
//! was draining, restart what was stopped, abort the migration).

use crate::manifest::{ClusterManifest, DesiredState, ManifestError, MoveRange, SiteSpec};
use crate::view::{ClusterView, MigrationObs, ObservedSite, SitePhase};
use pscc_common::{ConsistencyTier, SimTime, SiteId};

/// One step of a program, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepKind {
    /// Ask the site to drain (graceful admission close + WAL force).
    Drain,
    /// Stop the drained site's process. Done once the site is observed
    /// down — or, for an `Up` spec, up again in an epoch that satisfies
    /// it (a harness whose stop is a restart in place never shows the
    /// site down).
    Stop,
    /// Start the site again (restart recovery bumps its epoch).
    Restart,
    /// Reopen admission (auto-skipped when the site came back active).
    Undrain,
    /// Ask a move's source to prepare the migration (freeze + drain the
    /// range, log `MigrateBegin`).
    MigratePrepare,
    /// Ask the prepared source to transfer and commit the migration.
    MigrateCommit,
    /// Retune one site's per-file consistency tiers (one `SetTier`
    /// action per manifest tier row; applied online, no drain).
    SetTier,
}

/// An instruction for the harness executing the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlAction {
    /// Drain the site.
    Drain(SiteId),
    /// Stop (crash) the site's process.
    Stop(SiteId),
    /// Restart the site (restart recovery + rejoin happen inside).
    Restart(SiteId),
    /// Undrain the site.
    Undrain(SiteId),
    /// Prepare the source site to migrate `[lo, hi)` to `to`.
    MigratePrepare {
        /// Source (current owner) driving the migration.
        from: SiteId,
        /// First page of the range.
        lo: u32,
        /// One past the last page.
        hi: u32,
        /// New owner.
        to: SiteId,
    },
    /// Tell the prepared source to transfer the range (the engine runs
    /// Transfer → Commit → Activate from there on its own).
    MigrateCommit {
        /// Source driving the migration.
        from: SiteId,
    },
    /// Tell the source to roll the migration back (a migration already
    /// past its commit point completes forward instead).
    MigrateAbort {
        /// Source driving the migration.
        from: SiteId,
    },
    /// Set `file`'s consistency tier at the site.
    SetTier {
        /// The owner site whose tier map changes.
        site: SiteId,
        /// File number the tier applies to.
        file: u32,
        /// The new consistency dial.
        tier: ConsistencyTier,
    },
}

impl ControlAction {
    /// The site the action targets.
    pub fn site(self) -> SiteId {
        match self {
            ControlAction::Drain(s)
            | ControlAction::Stop(s)
            | ControlAction::Restart(s)
            | ControlAction::Undrain(s)
            | ControlAction::MigratePrepare { from: s, .. }
            | ControlAction::MigrateCommit { from: s }
            | ControlAction::MigrateAbort { from: s }
            | ControlAction::SetTier { site: s, .. } => s,
        }
    }

    /// The action's name as it appears in `converge_step` events.
    pub fn name(self) -> &'static str {
        match self {
            ControlAction::Drain(_) => "drain",
            ControlAction::Stop(_) => "stop",
            ControlAction::Restart(_) => "restart",
            ControlAction::Undrain(_) => "undrain",
            ControlAction::MigratePrepare { .. } => "migrate_prepare",
            ControlAction::MigrateCommit { .. } => "migrate_commit",
            ControlAction::MigrateAbort { .. } => "migrate_abort",
            ControlAction::SetTier { .. } => "set_tier",
        }
    }
}

/// Where the operation stands after a tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlStatus {
    /// Observed state matches the manifest; nothing in flight.
    Converged,
    /// Steps are in flight or still to be admitted.
    InProgress,
    /// A step exhausted its retries; rollback actions were emitted and
    /// the supervisor will make no further progress.
    Aborted {
        /// The site whose step gave up.
        site: SiteId,
        /// The step that could not complete.
        step: StepKind,
    },
}

/// The output of one reconciliation tick.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TickResult {
    /// Where the operation stands now.
    pub status: ControlStatus,
    /// Actions the harness must execute, in order.
    pub actions: Vec<ControlAction>,
}

/// One step in flight, whichever program it belongs to.
#[derive(Debug, Clone, Copy)]
struct Flight {
    /// The site the step targets (a move's source).
    site: SiteId,
    /// The step.
    step: StepKind,
    /// When the step is next retried (or given up).
    deadline: SimTime,
    /// Retries the step has used.
    retries: u32,
}

impl Flight {
    /// A flight about to be issued for the first time.
    fn new(site: SiteId, step: StepKind) -> Self {
        Flight {
            site,
            step,
            deadline: SimTime::ZERO,
            retries: 0,
        }
    }
}

/// One row of the step table: what executing the step sends, whether
/// the view shows it done, and the step after it in its program.
type Row = (Vec<ControlAction>, bool, Option<StepKind>);

/// Where a program stands after [`Supervisor::poll`].
enum Progress {
    /// Its flight is still out.
    Running,
    /// Its last step is done.
    Done,
    /// Its step exhausted its retries.
    GaveUp,
}

/// The reconciling cluster supervisor. See the crate docs for the
/// model; see [`ClusterManifest`] for the safety envelope.
#[derive(Debug, Clone)]
pub struct Supervisor {
    manifest: ClusterManifest,
    /// The sites being walked through their programs (at most
    /// `max_unavailable`).
    walk: Vec<Flight>,
    /// Sites with tier rows, in first-appearance order.
    tier_sites: Vec<SiteId>,
    /// The next (or current) sequential operation: an index over the
    /// manifest's moves, then over `tier_sites`.
    op_idx: usize,
    /// The move or tier rollout in flight, if any.
    op: Option<Flight>,
    /// The layout version both endpoints of the move in flight must
    /// reach (the source's at prepare time + 1).
    move_layout: u64,
    status: ControlStatus,
    steps_executed: u64,
    last_draining: u64,
    last_down: u64,
}

impl Supervisor {
    /// Builds a supervisor for `manifest`, validating it first.
    pub fn new(manifest: ClusterManifest) -> Result<Self, ManifestError> {
        manifest.validate()?;
        let tier_sites = manifest.tier_sites();
        Ok(Supervisor {
            manifest,
            walk: Vec::new(),
            tier_sites,
            op_idx: 0,
            op: None,
            move_layout: 0,
            status: ControlStatus::InProgress,
            steps_executed: 0,
            last_draining: 0,
            last_down: 0,
        })
    }

    /// Steps issued so far, retries included (the `converge_done`
    /// event's step count). A give-up's rollback is not a step.
    pub fn steps_executed(&self) -> u64 {
        self.steps_executed
    }

    /// Sites observed draining at the last tick (`sites_draining`
    /// gauge).
    pub fn sites_draining(&self) -> u64 {
        self.last_draining
    }

    /// Sites observed down at the last tick (`rolling_unavailable`
    /// gauge).
    pub fn rolling_unavailable(&self) -> u64 {
        self.last_down
    }

    /// The first step of the program that takes `spec.site` from its
    /// observation to its desired state; the steps after it follow from
    /// the step table. `None` when the site is already there.
    fn plan_for(spec: &SiteSpec, view: &ClusterView) -> Option<StepKind> {
        // Unobserved sites cannot be reconciled; no plan keeps them out
        // of flight (the operation will not converge, and the caller's
        // budget surfaces that).
        let obs = view.get(spec.site)?;
        match spec.desired {
            DesiredState::Down => obs.up.then_some(StepKind::Drain),
            DesiredState::Up { min_epoch } => {
                if !obs.up {
                    Some(StepKind::Restart)
                } else if obs.epoch < min_epoch {
                    Some(StepKind::Drain)
                } else if obs.phase != SitePhase::Active {
                    Some(StepKind::Undrain)
                } else {
                    None
                }
            }
        }
    }

    fn spec_of(&self, site: SiteId) -> &SiteSpec {
        self.manifest
            .sites
            .iter()
            .find(|s| s.site == site)
            .expect("a walking site is always from the manifest")
    }

    /// The move in flight (only asked while `op_idx` points at a move).
    fn current_move(&self) -> MoveRange {
        self.manifest.moves[self.op_idx]
    }

    /// The step table: what `f.step` sends, whether `view` shows it
    /// done, and the step after it in its program.
    fn row(&self, f: &Flight, view: &ClusterView) -> Row {
        let site = f.site;
        let obs = view.get(site);
        let up = obs.filter(|o| o.up);
        // Reborn: up in an epoch the site's spec accepts. A `Down` spec
        // accepts none, and its program ends at Stop.
        let min_epoch = || match self.spec_of(site).desired {
            DesiredState::Up { min_epoch } => Some(min_epoch),
            DesiredState::Down => None,
        };
        let reborn = |o: &ObservedSite| min_epoch().is_some_and(|m| o.epoch >= m);
        match f.step {
            StepKind::Drain => (
                vec![ControlAction::Drain(site)],
                up.is_some_and(|o| o.phase == SitePhase::Drained),
                Some(StepKind::Stop),
            ),
            StepKind::Stop => (
                vec![ControlAction::Stop(site)],
                obs.is_some_and(|o| !o.up || reborn(o)),
                min_epoch().map(|_| StepKind::Restart),
            ),
            StepKind::Restart => (
                vec![ControlAction::Restart(site)],
                up.is_some_and(reborn),
                Some(StepKind::Undrain),
            ),
            StepKind::Undrain => (
                vec![ControlAction::Undrain(site)],
                up.is_some_and(|o| o.phase == SitePhase::Active),
                None,
            ),
            StepKind::MigratePrepare => {
                let mv = self.current_move();
                (
                    vec![ControlAction::MigratePrepare {
                        from: mv.from,
                        lo: mv.lo,
                        hi: mv.hi,
                        to: mv.to,
                    }],
                    up.is_some_and(|o| o.migration == MigrationObs::Prepared),
                    Some(StepKind::MigrateCommit),
                )
            }
            StepKind::MigrateCommit => {
                // Committed and landed: both endpoints at the new
                // layout, the source back to idle.
                let landed = |s| {
                    view.get(s)
                        .is_some_and(|o| o.up && o.layout >= self.move_layout)
                };
                (
                    vec![ControlAction::MigrateCommit { from: site }],
                    up.is_some_and(|o| o.migration == MigrationObs::Idle)
                        && landed(site)
                        && landed(self.current_move().to),
                    None,
                )
            }
            StepKind::SetTier => (
                self.manifest
                    .tiers
                    .iter()
                    .filter(|t| t.site == site)
                    .map(|t| ControlAction::SetTier {
                        site,
                        file: t.file,
                        tier: t.tier,
                    })
                    .collect(),
                up.is_some_and(|o| o.tiers_fp == self.manifest.tiers_fp_for(site)),
                None,
            ),
        }
    }

    /// Ticks one program's flight. Steps the view shows done hand over
    /// to the step after them, which is issued at once (as is `f`
    /// itself when `fresh`). A step still out past its deadline is
    /// issued again with a widening deadline, `step_timeout × (retries
    /// + 1)`, until `max_step_retries` retries are spent.
    fn poll(
        &mut self,
        f: &mut Flight,
        view: &ClusterView,
        mut fresh: bool,
        actions: &mut Vec<ControlAction>,
    ) -> Progress {
        while let (_, true, next) = self.row(f, view) {
            let Some(next) = next else {
                return Progress::Done;
            };
            f.step = next;
            fresh = true;
        }
        if fresh {
            f.retries = 0;
        } else if view.now < f.deadline {
            return Progress::Running;
        } else if f.retries >= self.manifest.max_step_retries {
            return Progress::GaveUp;
        } else {
            f.retries += 1;
        }
        f.deadline = view.now
            + self
                .manifest
                .step_timeout
                .mul_f64(f64::from(f.retries) + 1.0);
        actions.extend(self.row(f, view).0);
        self.steps_executed += 1;
        Progress::Running
    }

    /// The flight that starts the next move or tier rollout, once the
    /// sites it needs are observed up. `None` while they are not, or
    /// when nothing is left.
    fn start_op(&mut self, view: &ClusterView) -> Option<Flight> {
        let up = |s| view.get(s).filter(|o| o.up);
        if self.op_idx < self.manifest.moves.len() {
            let mv = self.current_move();
            up(mv.to)?;
            self.move_layout = up(mv.from)?.layout + 1;
            Some(Flight::new(mv.from, StepKind::MigratePrepare))
        } else {
            let site = *self
                .tier_sites
                .get(self.op_idx - self.manifest.moves.len())?;
            up(site)?;
            Some(Flight::new(site, StepKind::SetTier))
        }
    }

    /// Drives the declared moves, then the tier rollout site by site,
    /// one at a time, once the site walk has nothing in flight:
    /// migration needs both endpoints stable, and a fingerprint is not
    /// judged against a site mid-restart. Returns the site and step of
    /// an operation that gave up.
    fn drive_ops(
        &mut self,
        view: &ClusterView,
        actions: &mut Vec<ControlAction>,
    ) -> Option<(SiteId, StepKind)> {
        loop {
            let (mut f, fresh) = match self.op.take() {
                Some(f) => (f, false),
                None => (self.start_op(view)?, true),
            };
            // A source that crashed before its commit recovered with the
            // migration rolled back: the retry starts over from the
            // prepare.
            if f.step == StepKind::MigrateCommit
                && view.get(f.site).is_some_and(|o| {
                    o.up && o.migration == MigrationObs::Idle && o.layout < self.move_layout
                })
            {
                f.step = StepKind::MigratePrepare;
            }
            match self.poll(&mut f, view, fresh, actions) {
                Progress::Running => {
                    self.op = Some(f);
                    return None;
                }
                // Walk on in the same tick.
                Progress::Done => self.op_idx += 1,
                Progress::GaveUp => {
                    // A migration that will not finish is rolled back,
                    // never left half-done: the source either aborts
                    // (pre-commit) or reports the commit already durable.
                    if self.op_idx < self.manifest.moves.len() {
                        actions.push(ControlAction::MigrateAbort { from: f.site });
                    }
                    return Some((f.site, f.step));
                }
            }
        }
    }

    fn abort(&mut self, site: SiteId, step: StepKind, actions: Vec<ControlAction>) -> TickResult {
        self.status = ControlStatus::Aborted { site, step };
        TickResult {
            status: self.status,
            actions,
        }
    }

    /// One reconciliation transition. Pure with respect to IO: reads
    /// the view, mutates supervisor state, returns actions to execute.
    pub fn tick(&mut self, view: &ClusterView) -> TickResult {
        self.last_draining = view.sites_draining();
        self.last_down = view.sites_down();
        if let ControlStatus::Aborted { .. } = self.status {
            // Terminal: rollback was already emitted.
            return TickResult {
                status: self.status,
                actions: Vec::new(),
            };
        }

        let mut actions = Vec::new();
        let mut aborted: Option<(SiteId, StepKind)> = None;

        // Advance (or time out) every walking site.
        for mut f in std::mem::take(&mut self.walk) {
            let mut fresh = false;
            // A site that died while we were draining (or reopening) it
            // cannot answer the step in flight; re-plan from what is
            // actually there (typically straight to Restart) instead of
            // retrying a handshake with a corpse.
            if matches!(f.step, StepKind::Drain | StepKind::Undrain)
                && view.get(f.site).is_some_and(|o| !o.up)
            {
                let Some(first) = Self::plan_for(self.spec_of(f.site), view) else {
                    continue; // nothing left to do; site leaves the walk
                };
                f.step = first;
                fresh = true;
            }
            match self.poll(&mut f, view, fresh, &mut actions) {
                Progress::Running => self.walk.push(f),
                Progress::Done => {}
                Progress::GaveUp => {
                    aborted = Some((f.site, f.step));
                    self.walk.push(f);
                }
            }
        }

        if let Some((site, step)) = aborted {
            // Roll back: reopen every site the walk touched. A
            // draining/drained site is undrained; a stopped site is
            // restarted (best effort — it may itself be the stuck one).
            let rollback = self
                .walk
                .drain(..)
                .filter_map(|f| {
                    let obs = view.get(f.site)?;
                    if !obs.up {
                        Some(ControlAction::Restart(f.site))
                    } else if obs.phase != SitePhase::Active {
                        Some(ControlAction::Undrain(f.site))
                    } else {
                        None
                    }
                })
                .collect();
            return self.abort(site, step, rollback);
        }

        // Admit new sites while the unavailability budget allows.
        for i in 0..self.manifest.sites.len() {
            if self.walk.len() >= self.manifest.max_unavailable {
                break;
            }
            let spec = self.manifest.sites[i];
            if self.walk.iter().any(|f| f.site == spec.site) {
                continue;
            }
            let Some(first) = Self::plan_for(&spec, view) else {
                continue; // already at desired state
            };
            let mut f = Flight::new(spec.site, first);
            if let Progress::Running = self.poll(&mut f, view, true, &mut actions) {
                self.walk.push(f);
            }
        }

        if self.walk.is_empty() {
            if let Some((site, step)) = self.drive_ops(view, &mut actions) {
                return self.abort(site, step, actions);
            }
        }

        let all_satisfied = self
            .manifest
            .sites
            .iter()
            .all(|s| Self::plan_for(s, view).is_none());
        self.status = if self.walk.is_empty()
            && all_satisfied
            && self.op_idx >= self.manifest.moves.len() + self.tier_sites.len()
        {
            ControlStatus::Converged
        } else {
            ControlStatus::InProgress
        };
        TickResult {
            status: self.status,
            actions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::ObservedSite;
    use pscc_common::SimDuration;

    fn obs(site: u32, up: bool, epoch: u64, phase: SitePhase) -> ObservedSite {
        ObservedSite {
            site: SiteId(site),
            up,
            epoch,
            phase,
            queue_depth: 0,
            layout: 1,
            migration: MigrationObs::Idle,
            tiers_fp: pscc_common::tiers_fingerprint([]),
        }
    }

    fn obs_m(site: u32, layout: u64, migration: MigrationObs) -> ObservedSite {
        ObservedSite {
            site: SiteId(site),
            up: true,
            epoch: 1,
            phase: SitePhase::Active,
            queue_depth: 0,
            layout,
            migration,
            tiers_fp: pscc_common::tiers_fingerprint([]),
        }
    }

    fn view(now_us: u64, sites: Vec<ObservedSite>) -> ClusterView {
        ClusterView {
            now: SimTime::from_micros(now_us),
            sites,
        }
    }

    fn rolling(n: u32, max_unavailable: usize) -> Supervisor {
        let current: Vec<(SiteId, u64)> = (0..n).map(|i| (SiteId(i), 1)).collect();
        Supervisor::new(ClusterManifest::rolling_restart(
            &current,
            max_unavailable,
            SimDuration::from_millis(100),
        ))
        .unwrap()
    }

    #[test]
    fn one_at_a_time_walk() {
        let mut sup = rolling(2, 1);

        // Both up in epoch 1: drain the first site only.
        let t = sup.tick(&view(
            0,
            vec![
                obs(0, true, 1, SitePhase::Active),
                obs(1, true, 1, SitePhase::Active),
            ],
        ));
        assert_eq!(t.actions, vec![ControlAction::Drain(SiteId(0))]);
        assert_eq!(t.status, ControlStatus::InProgress);

        // Site 0 drained → stop it. Site 1 must stay untouched.
        let t = sup.tick(&view(
            10,
            vec![
                obs(0, true, 1, SitePhase::Drained),
                obs(1, true, 1, SitePhase::Active),
            ],
        ));
        assert_eq!(t.actions, vec![ControlAction::Stop(SiteId(0))]);

        // Site 0 down → restart it.
        let t = sup.tick(&view(
            20,
            vec![
                obs(0, false, 1, SitePhase::Active),
                obs(1, true, 1, SitePhase::Active),
            ],
        ));
        assert_eq!(t.actions, vec![ControlAction::Restart(SiteId(0))]);

        // Site 0 reborn in epoch 2 and active: undrain auto-skips, its
        // program finishes, and site 1 is admitted in the same tick.
        let t = sup.tick(&view(
            30,
            vec![
                obs(0, true, 2, SitePhase::Active),
                obs(1, true, 1, SitePhase::Active),
            ],
        ));
        assert_eq!(t.actions, vec![ControlAction::Drain(SiteId(1))]);

        // Walk site 1 the same way; after its rebirth the plan is done.
        sup.tick(&view(
            40,
            vec![
                obs(0, true, 2, SitePhase::Active),
                obs(1, true, 1, SitePhase::Drained),
            ],
        ));
        sup.tick(&view(
            50,
            vec![
                obs(0, true, 2, SitePhase::Active),
                obs(1, false, 1, SitePhase::Active),
            ],
        ));
        let t = sup.tick(&view(
            60,
            vec![
                obs(0, true, 2, SitePhase::Active),
                obs(1, true, 2, SitePhase::Active),
            ],
        ));
        assert_eq!(t.status, ControlStatus::Converged);
        assert!(t.actions.is_empty());
    }

    #[test]
    fn max_unavailable_bounds_the_flight() {
        let mut sup = rolling(3, 2);
        let t = sup.tick(&view(
            0,
            vec![
                obs(0, true, 1, SitePhase::Active),
                obs(1, true, 1, SitePhase::Active),
                obs(2, true, 1, SitePhase::Active),
            ],
        ));
        assert_eq!(
            t.actions,
            vec![
                ControlAction::Drain(SiteId(0)),
                ControlAction::Drain(SiteId(1)),
            ]
        );
    }

    #[test]
    fn timeout_retries_then_aborts_with_rollback() {
        let mut sup = rolling(1, 1);
        let stuck = |now: u64| view(now, vec![obs(0, true, 1, SitePhase::Draining)]);

        let t = sup.tick(&view(0, vec![obs(0, true, 1, SitePhase::Active)]));
        assert_eq!(t.actions, vec![ControlAction::Drain(SiteId(0))]);

        // Deadline passes (100ms steps): three widening retries.
        let mut now = 150_000;
        for _ in 0..3 {
            let t = sup.tick(&stuck(now));
            assert_eq!(t.actions, vec![ControlAction::Drain(SiteId(0))]);
            assert_eq!(t.status, ControlStatus::InProgress);
            now += 500_000;
        }

        // Fourth miss: abort, and the stuck-draining site is reopened.
        let t = sup.tick(&stuck(now));
        assert_eq!(
            t.status,
            ControlStatus::Aborted {
                site: SiteId(0),
                step: StepKind::Drain
            }
        );
        assert_eq!(t.actions, vec![ControlAction::Undrain(SiteId(0))]);

        // Terminal: further ticks do nothing.
        let t = sup.tick(&stuck(now + 1));
        assert!(t.actions.is_empty());
        assert!(matches!(t.status, ControlStatus::Aborted { .. }));
    }

    #[test]
    fn down_desired_drains_then_stops() {
        let manifest = ClusterManifest {
            sites: vec![SiteSpec {
                site: SiteId(0),
                desired: DesiredState::Down,
            }],
            max_unavailable: 1,
            step_timeout: SimDuration::from_millis(100),
            max_step_retries: 1,
            moves: Vec::new(),
            tiers: Vec::new(),
        };
        let mut sup = Supervisor::new(manifest).unwrap();
        let t = sup.tick(&view(0, vec![obs(0, true, 1, SitePhase::Active)]));
        assert_eq!(t.actions, vec![ControlAction::Drain(SiteId(0))]);
        let t = sup.tick(&view(1, vec![obs(0, true, 1, SitePhase::Drained)]));
        assert_eq!(t.actions, vec![ControlAction::Stop(SiteId(0))]);
        let t = sup.tick(&view(2, vec![obs(0, false, 1, SitePhase::Active)]));
        assert_eq!(t.status, ControlStatus::Converged);
    }

    #[test]
    fn crashed_while_draining_replans_to_restart() {
        // The site dies mid-drain: the Drain handshake can never finish,
        // so the reconciler re-plans from the observation instead of
        // retrying a handshake with a corpse — straight to Restart, and
        // the operation still converges.
        let mut sup = rolling(1, 1);
        sup.tick(&view(0, vec![obs(0, true, 1, SitePhase::Active)]));
        let t = sup.tick(&view(10, vec![obs(0, false, 1, SitePhase::Active)]));
        assert_eq!(t.actions, vec![ControlAction::Restart(SiteId(0))]);
        assert_eq!(t.status, ControlStatus::InProgress);
        let t = sup.tick(&view(20, vec![obs(0, true, 2, SitePhase::Active)]));
        assert_eq!(t.status, ControlStatus::Converged);
    }

    /// A manifest whose sites are already satisfied plus one move.
    fn move_manifest(retries: u32) -> ClusterManifest {
        let mut m = ClusterManifest::rolling_restart(
            &[(SiteId(0), 0), (SiteId(1), 0)],
            1,
            SimDuration::from_millis(100),
        );
        m.max_step_retries = retries;
        m.moves = vec![MoveRange {
            lo: 0,
            hi: 100,
            from: SiteId(0),
            to: SiteId(1),
        }];
        m
    }

    #[test]
    fn move_walks_prepare_then_commit_then_converges() {
        let mut sup = Supervisor::new(move_manifest(3)).unwrap();

        // Both endpoints up and idle: issue the prepare.
        let t = sup.tick(&view(
            0,
            vec![
                obs_m(0, 1, MigrationObs::Idle),
                obs_m(1, 1, MigrationObs::Idle),
            ],
        ));
        assert_eq!(
            t.actions,
            vec![ControlAction::MigratePrepare {
                from: SiteId(0),
                lo: 0,
                hi: 100,
                to: SiteId(1),
            }]
        );
        assert_eq!(t.status, ControlStatus::InProgress);

        // Source prepared: issue the commit.
        let t = sup.tick(&view(
            10,
            vec![
                obs_m(0, 1, MigrationObs::Prepared),
                obs_m(1, 1, MigrationObs::Idle),
            ],
        ));
        assert_eq!(
            t.actions,
            vec![ControlAction::MigrateCommit { from: SiteId(0) }]
        );

        // Both endpoints at the new layout, source idle: converged.
        let t = sup.tick(&view(
            20,
            vec![
                obs_m(0, 2, MigrationObs::Idle),
                obs_m(1, 2, MigrationObs::Idle),
            ],
        ));
        assert!(t.actions.is_empty());
        assert_eq!(t.status, ControlStatus::Converged);
    }

    #[test]
    fn crashed_source_resets_commit_retry_to_prepare() {
        let mut sup = Supervisor::new(move_manifest(3)).unwrap();
        sup.tick(&view(
            0,
            vec![
                obs_m(0, 1, MigrationObs::Idle),
                obs_m(1, 1, MigrationObs::Idle),
            ],
        ));
        sup.tick(&view(
            10,
            vec![
                obs_m(0, 1, MigrationObs::Prepared),
                obs_m(1, 1, MigrationObs::Idle),
            ],
        ));
        // The source crashed and recovered with the migration rolled
        // back (idle, old layout). Past the deadline, the retry must
        // restart from the prepare, not re-send the commit.
        let t = sup.tick(&view(
            200_000,
            vec![
                obs_m(0, 1, MigrationObs::Idle),
                obs_m(1, 1, MigrationObs::Idle),
            ],
        ));
        assert_eq!(
            t.actions,
            vec![ControlAction::MigratePrepare {
                from: SiteId(0),
                lo: 0,
                hi: 100,
                to: SiteId(1),
            }]
        );
        assert_eq!(t.status, ControlStatus::InProgress);
    }

    #[test]
    fn stuck_move_aborts_with_migrate_abort() {
        let mut sup = Supervisor::new(move_manifest(1)).unwrap();
        let stuck = |now: u64| {
            view(
                now,
                vec![
                    obs_m(0, 1, MigrationObs::Preparing),
                    obs_m(1, 1, MigrationObs::Idle),
                ],
            )
        };
        let t = sup.tick(&stuck(0));
        assert_eq!(t.actions.len(), 1);

        // One widening retry...
        let t = sup.tick(&stuck(150_000));
        assert_eq!(
            t.actions,
            vec![ControlAction::MigratePrepare {
                from: SiteId(0),
                lo: 0,
                hi: 100,
                to: SiteId(1),
            }]
        );

        // ...then the move gives up: abort the migration, terminal.
        let t = sup.tick(&stuck(500_000));
        assert_eq!(
            t.actions,
            vec![ControlAction::MigrateAbort { from: SiteId(0) }]
        );
        assert_eq!(
            t.status,
            ControlStatus::Aborted {
                site: SiteId(0),
                step: StepKind::MigratePrepare
            }
        );
        let t = sup.tick(&stuck(600_000));
        assert!(t.actions.is_empty());
    }

    /// A manifest whose sites are already satisfied plus one tier row.
    fn tier_manifest(retries: u32) -> (ClusterManifest, ConsistencyTier) {
        let tier = ConsistencyTier::BoundedStale {
            ttl: SimDuration::from_millis(5),
        };
        let mut m = ClusterManifest::rolling_restart(
            &[(SiteId(0), 0), (SiteId(1), 0)],
            1,
            SimDuration::from_millis(100),
        );
        m.max_step_retries = retries;
        m.tiers = vec![crate::manifest::TierAssignment {
            site: SiteId(0),
            file: 0,
            tier,
        }];
        (m, tier)
    }

    fn obs_t(site: u32, tiers_fp: u64) -> ObservedSite {
        ObservedSite {
            tiers_fp,
            ..obs(site, true, 1, SitePhase::Active)
        }
    }

    #[test]
    fn tier_rollout_sets_then_converges_on_fingerprint() {
        let (m, tier) = tier_manifest(3);
        let expect = m.tiers_fp_for(SiteId(0));
        let empty = pscc_common::tiers_fingerprint([]);
        let mut sup = Supervisor::new(m).unwrap();

        // Sites satisfied, fingerprint stale: issue the SetTier.
        let t = sup.tick(&view(0, vec![obs_t(0, empty), obs_t(1, empty)]));
        assert_eq!(
            t.actions,
            vec![ControlAction::SetTier {
                site: SiteId(0),
                file: 0,
                tier,
            }]
        );
        assert_eq!(t.status, ControlStatus::InProgress);

        // Fingerprint landed: converged, no further actions.
        let t = sup.tick(&view(10, vec![obs_t(0, expect), obs_t(1, empty)]));
        assert!(t.actions.is_empty());
        assert_eq!(t.status, ControlStatus::Converged);
    }

    #[test]
    fn stuck_tier_rollout_retries_then_aborts() {
        let (m, tier) = tier_manifest(1);
        let empty = pscc_common::tiers_fingerprint([]);
        let mut sup = Supervisor::new(m).unwrap();
        let stuck = |now: u64| view(now, vec![obs_t(0, empty), obs_t(1, empty)]);

        let t = sup.tick(&stuck(0));
        assert_eq!(t.actions.len(), 1);

        // One widening retry re-sends the row...
        let t = sup.tick(&stuck(150_000));
        assert_eq!(
            t.actions,
            vec![ControlAction::SetTier {
                site: SiteId(0),
                file: 0,
                tier,
            }]
        );
        assert_eq!(t.status, ControlStatus::InProgress);

        // ...then the rollout gives up: terminal.
        let t = sup.tick(&stuck(500_000));
        assert_eq!(
            t.status,
            ControlStatus::Aborted {
                site: SiteId(0),
                step: StepKind::SetTier
            }
        );
        let t = sup.tick(&stuck(600_000));
        assert!(t.actions.is_empty());
    }

    #[test]
    fn gauges_reflect_last_view() {
        let mut sup = rolling(2, 2);
        sup.tick(&view(
            0,
            vec![
                obs(0, true, 1, SitePhase::Draining),
                obs(1, false, 1, SitePhase::Active),
            ],
        ));
        assert_eq!(sup.sites_draining(), 1);
        assert_eq!(sup.rolling_unavailable(), 1);
    }

    /// The deadline of the one flight `sup` has out.
    fn deadline(sup: &Supervisor) -> SimTime {
        sup.walk.iter().chain(&sup.op).next().unwrap().deadline
    }

    #[test]
    fn every_program_retries_on_one_schedule() {
        const RETRIES: u32 = 3;
        let t = SimDuration::from_millis(100);
        let mut walk = rolling(1, 1);
        walk.manifest.max_step_retries = RETRIES;
        let empty = pscc_common::tiers_fingerprint([]);
        // Each program, with the observation that keeps its step stuck.
        let cases = [
            (
                "site walk stuck draining",
                walk,
                vec![obs(0, true, 1, SitePhase::Draining)],
            ),
            (
                "move stuck preparing",
                Supervisor::new(move_manifest(RETRIES)).unwrap(),
                vec![
                    obs_m(0, 1, MigrationObs::Preparing),
                    obs_m(1, 1, MigrationObs::Idle),
                ],
            ),
            (
                "tier roll stuck on its fingerprint",
                Supervisor::new(tier_manifest(RETRIES).0).unwrap(),
                vec![obs_t(0, empty), obs_t(1, empty)],
            ),
        ];
        for (name, mut sup, sites) in cases {
            let stuck = |now| ClusterView {
                now,
                sites: sites.clone(),
            };
            let start = SimTime::from_micros(1_000);
            let t0 = sup.tick(&stuck(start));
            assert_eq!(t0.actions.len(), 1, "{name}: first issue");
            assert_eq!(deadline(&sup), start + t, "{name}: first deadline");
            for retry in 1..=RETRIES {
                // Nothing happens before the deadline...
                let due = deadline(&sup);
                let quiet = sup.tick(&stuck(SimTime::from_micros(due.as_micros() - 1)));
                assert!(quiet.actions.is_empty(), "{name}: early retry");
                // ...a late tick re-issues the step with a deadline
                // widened to (retries + 1) × T from that tick.
                let now = due + SimDuration::from_micros(7);
                let r = sup.tick(&stuck(now));
                assert_eq!(r.actions, t0.actions, "{name}: retry {retry}");
                assert_eq!(r.status, ControlStatus::InProgress);
                assert_eq!(
                    deadline(&sup),
                    now + t.mul_f64(f64::from(retry) + 1.0),
                    "{name}: deadline after retry {retry}"
                );
            }
            let gave_up = sup.tick(&stuck(deadline(&sup)));
            assert!(
                matches!(gave_up.status, ControlStatus::Aborted { site, .. } if site == SiteId(0)),
                "{name}: {:?}",
                gave_up.status
            );
            assert_eq!(
                sup.steps_executed(),
                1 + u64::from(RETRIES),
                "{name}: steps executed"
            );
        }
    }

    #[test]
    fn stop_is_done_for_a_site_already_reborn() {
        // A harness whose stop restarts the site in place never shows it
        // down: up again in the spec's epoch, the walk is finished.
        let mut sup = rolling(1, 1);
        sup.tick(&view(0, vec![obs(0, true, 1, SitePhase::Active)]));
        let t = sup.tick(&view(10, vec![obs(0, true, 1, SitePhase::Drained)]));
        assert_eq!(t.actions, vec![ControlAction::Stop(SiteId(0))]);
        let t = sup.tick(&view(20, vec![obs(0, true, 2, SitePhase::Active)]));
        assert!(t.actions.is_empty(), "{:?}", t.actions);
        assert_eq!(t.status, ControlStatus::Converged);
    }
}
