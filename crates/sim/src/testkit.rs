//! A small, deterministic, in-process cluster for examples, integration
//! tests, and interactive exploration — the synchronous counterpart of
//! the discrete-event [`Simulation`](crate::Simulation).
//!
//! Messages travel over a seeded [`pscc_net::SeededNet`] with the
//! production path discipline (client→owner traffic on one FIFO path;
//! replies and callbacks on separate paths, so the §4.2.4 races remain
//! possible); disks complete after a fixed latency; timers fire at their
//! due times. All scheduling is driven by a seed, so every run is
//! reproducible.

use crate::chaos::{FaultDecision, FaultPlan};
use pscc_common::hash::{HashMap, HashSet};
use pscc_common::{AppId, PsccError, SimDuration, SimTime, SiteId, SystemConfig, TxnId};
use pscc_control::{
    ClusterManifest, ClusterView, ControlAction, ControlStatus, ConvergeError, ConvergeReport,
    Harness, MigrationObs, ObservedSite, SitePhase, Supervisor,
};
use pscc_core::{
    AppOp, AppReply, AppRequest, DiskOp, DiskReqId, DrainPhase, Env, Input, Message,
    MigrationPhase, Output, OwnerMap, PeerServer, ReqId, TimerId,
};
use pscc_net::{PathId, SeededNet};
use pscc_obs::EventKind;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The pseudo-site the cluster supervisor speaks as. It runs no engine:
/// control messages *from* it are injected directly into a site's
/// inbox, and replies *to* it are intercepted by the harness before
/// routing (no site index exists for it).
pub const CONTROLLER: SiteId = SiteId(u32::MAX);

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Sched {
    Disk(u32, DiskReqId),
    Timer(u32, TimerId),
}

/// A deterministic in-process cluster of peer servers.
pub struct Cluster {
    /// The peer servers, indexed by site id.
    pub sites: Vec<PeerServer>,
    /// The message pool (exposed for targeted race construction).
    pub net: SeededNet<Message>,
    rng: StdRng,
    now: SimTime,
    sched: BinaryHeap<(Reverse<SimTime>, Sched)>,
    replies: Vec<(SiteId, AppReply)>,
    disk_latency: SimDuration,
    cfg: SystemConfig,
    owners: OwnerMap,
    faults: Option<FaultPlan>,
    crashed: HashSet<SiteId>,
    /// Messages held by a delay/partition fault until their due time.
    delayed: Vec<(SimTime, SiteId, SiteId, PathId, Message)>,
    /// Messages held by a reorder fault until later same-link traffic.
    reorder_held: HashMap<(SiteId, SiteId, PathId), Vec<Message>>,
    /// Replies addressed to [`CONTROLLER`], intercepted before routing.
    control_inbox: Vec<(SiteId, Message)>,
    /// The active manifest's reconciler, installed by
    /// [`Self::apply_manifest`].
    supervisor: Option<Supervisor>,
    /// Request-id allocator for control messages sent as [`CONTROLLER`].
    next_ctl_req: u64,
    /// Trace handles of every ring enabled over the cluster's life (a
    /// restarted site gets a fresh ring; the old one is kept for the
    /// merged postmortem stream).
    traces: Vec<pscc_obs::event::TraceHandle>,
    /// The engines' effects, staged here for routing (reused).
    outs: Vec<Output>,
}

impl Cluster {
    /// Builds `n` sites with the given configuration and data placement.
    ///
    /// # Panics
    ///
    /// Panics if [`SystemConfig::validate`] rejects the configuration —
    /// a misconfigured cluster wedges instead of failing, so the entry
    /// point refuses it up front.
    pub fn new(n: u32, cfg: SystemConfig, owners: OwnerMap, seed: u64) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid SystemConfig: {e}");
        }
        let mut sites: Vec<PeerServer> = (0..n)
            .map(|i| PeerServer::new(SiteId(i), cfg.clone(), owners.clone()))
            .collect();
        // Every cluster runs traced: causal contexts on the wire, and
        // the invariant auditor over the merged stream for free in
        // [`Self::assert_survivors_quiescent`].
        let traces = sites
            .iter_mut()
            .map(|s| s.enable_trace(Self::TRACE_CAP))
            .collect();
        Cluster {
            sites,
            net: SeededNet::new(),
            rng: StdRng::seed_from_u64(seed),
            now: SimTime::ZERO,
            sched: BinaryHeap::new(),
            replies: Vec::new(),
            disk_latency: SimDuration::from_millis(1),
            cfg,
            owners,
            faults: None,
            crashed: HashSet::default(),
            delayed: Vec::new(),
            reorder_held: HashMap::default(),
            control_inbox: Vec::new(),
            supervisor: None,
            next_ctl_req: 0,
            traces,
            outs: Vec::new(),
        }
    }

    /// Default per-site event-ring capacity. Large enough that short
    /// integration runs keep their whole history (the auditor skips
    /// itself when any ring overflowed — a truncated stream has grants
    /// whose releases were evicted).
    pub const TRACE_CAP: usize = 32_768;

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Installs a fault plan; every subsequent send consults it.
    pub fn install_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
    }

    /// The installed fault plan, if any (e.g. to read `injected`).
    pub fn faults(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// Whether `site` is currently crashed.
    pub fn is_crashed(&self, site: SiteId) -> bool {
        self.crashed.contains(&site)
    }

    /// Crashes `site`: it stops executing, its pending disk and timer
    /// events are discarded, and messages addressed to it are dropped.
    /// Messages it already put on the wire still deliver (they left the
    /// NIC before the crash). The dead state machine is kept around
    /// untouched so post-mortem inspection and counter totals still see
    /// it; only [`Self::restart_site`] replaces it.
    ///
    /// # Errors
    ///
    /// Returns [`PsccError::InvalidOperation`] if the site is unknown or
    /// already crashed, so reconcilers and chaos tests can probe illegal
    /// transitions without aborting the process.
    pub fn try_crash_site(&mut self, site: SiteId) -> Result<(), PsccError> {
        let i = site.0 as usize;
        if i >= self.sites.len() {
            return Err(PsccError::InvalidOperation("crash_site: no such site"));
        }
        if self.crashed.contains(&site) {
            return Err(PsccError::InvalidOperation(
                "crash_site: site is already crashed",
            ));
        }
        self.sites[i].stats.faults_injected += 1;
        self.sites[i].obs.record(EventKind::FaultInjected {
            from: site,
            to: site,
            what: "crash",
        });
        if let Some(plan) = &mut self.faults {
            plan.injected += 1;
        }
        self.crashed.insert(site);
        Ok(())
    }

    /// Crashes `site`, panicking on an illegal transition (the original
    /// assert-style API; see [`Self::try_crash_site`]).
    ///
    /// # Panics
    ///
    /// Panics if the site is unknown or already crashed.
    pub fn crash_site(&mut self, site: SiteId) {
        if let Err(e) = self.try_crash_site(site) {
            panic!("crash_site({site}): {e}");
        }
    }

    /// Restarts a crashed site through [`PeerServer::restart`]: ARIES
    /// restart recovery over the crash image its WAL left behind (the
    /// model of a surviving log device), with its recovery effects routed,
    /// or a fresh state machine for a site with nothing durable.
    ///
    /// # Errors
    ///
    /// Returns [`PsccError::InvalidOperation`] if the site is unknown or
    /// not crashed.
    pub fn try_restart_site(&mut self, site: SiteId) -> Result<(), PsccError> {
        let i = site.0 as usize;
        if i >= self.sites.len() {
            return Err(PsccError::InvalidOperation("restart_site: no such site"));
        }
        if !self.crashed.remove(&site) {
            return Err(PsccError::InvalidOperation(
                "restart_site: site is not crashed",
            ));
        }
        let mut outs = std::mem::take(&mut self.outs);
        self.sites[i] = self.sites[i].restart(self.cfg.clone(), self.owners.clone(), &mut outs);
        // The replacement engine records into a fresh ring; the old one
        // stays in `traces` so the merged stream spans the crash.
        self.traces
            .push(self.sites[i].enable_trace(Self::TRACE_CAP));
        self.sites[i].stats.faults_injected += 1;
        self.sites[i].obs.record(EventKind::FaultInjected {
            from: site,
            to: site,
            what: "restart",
        });
        self.run_outputs(site, outs);
        Ok(())
    }

    /// Restarts a crashed site, panicking on an illegal transition (the
    /// original assert-style API; see [`Self::try_restart_site`]).
    ///
    /// # Panics
    ///
    /// Panics if the site is unknown or not crashed.
    pub fn restart_site(&mut self, site: SiteId) {
        if let Err(e) = self.try_restart_site(site) {
            panic!("restart_site({site}): {e}");
        }
    }

    /// Takes a fuzzy checkpoint of `site`'s owner log (ATT + DPT + base
    /// snapshot). Returns whether the preceding log force wrote
    /// anything.
    pub fn checkpoint_site(&mut self, site: SiteId) -> bool {
        self.sites[site.0 as usize].checkpoint()
    }

    /// Asserts [`PeerServer::assert_quiescent`] on every live site, then
    /// runs the [`pscc_obs::InvariantAuditor`] over the merged
    /// multi-site trace — every chaos/recovery/rolling suite that ends
    /// on this call is audited for free. The audit is skipped when any
    /// ring overflowed (a truncated stream has grants whose releases
    /// were evicted, which would be unsound to judge).
    ///
    /// # Panics
    ///
    /// Panics with the leaking site's description, or with the list of
    /// invariant violations.
    pub fn assert_survivors_quiescent(&self) {
        for s in &self.sites {
            if !self.crashed.contains(&s.site()) {
                s.assert_quiescent();
            }
        }
        if self.trace_dropped() == 0 {
            let violations = pscc_obs::audit_events(&self.merged_trace());
            assert!(
                violations.is_empty(),
                "invariant audit failed ({} violations):\n{}",
                violations.len(),
                violations
                    .iter()
                    .map(std::string::ToString::to_string)
                    .collect::<Vec<_>>()
                    .join("\n")
            );
        }
    }

    /// The merged multi-site event stream (chronological across every
    /// ring ever enabled, crashes included).
    #[must_use]
    pub fn merged_trace(&self) -> Vec<pscc_obs::TraceEvent> {
        pscc_obs::event::merge_traces(self.traces.iter().map(|t| t.snapshot()).collect())
    }

    /// Total events evicted across all rings (0 means the merged
    /// stream is complete).
    #[must_use]
    pub fn trace_dropped(&self) -> u64 {
        self.traces.iter().map(|t| t.dropped()).sum()
    }

    /// Runs the invariant auditor over the merged stream.
    #[must_use]
    pub fn audit(&self) -> Vec<pscc_obs::Violation> {
        pscc_obs::audit_events(&self.merged_trace())
    }

    fn note_fault(&mut self, from: SiteId, to: SiteId, what: &'static str) {
        self.sites[from.0 as usize].stats.faults_injected += 1;
        self.sites[from.0 as usize]
            .obs
            .record(EventKind::FaultInjected { from, to, what });
    }

    /// Routes one send through the fault plan (if any) into the net.
    fn route(&mut self, from: SiteId, to: SiteId, path: PathId, msg: Message) {
        if to == CONTROLLER {
            // The supervisor runs no engine; its replies are intercepted
            // here (there is no site index to deliver to). Anything that
            // is not a control-plane verdict — e.g. a heartbeat from a
            // site that somehow learned the address — is dropped.
            if msg.is_control_plane() {
                self.control_inbox.push((from, msg));
            }
            return;
        }
        let decision = match &mut self.faults {
            Some(plan) => plan.decide(self.now, from, to, path),
            None => FaultDecision::Deliver,
        };
        match decision {
            FaultDecision::Deliver => {}
            FaultDecision::Drop => {
                self.note_fault(from, to, "drop");
                return;
            }
            FaultDecision::Duplicate => {
                self.note_fault(from, to, "duplicate");
                self.net.send(from, to, path, msg.clone());
            }
            FaultDecision::Delay { by, what } => {
                self.note_fault(from, to, what);
                self.delayed.push((self.now + by, from, to, path, msg));
                return;
            }
            FaultDecision::Reorder => {
                self.note_fault(from, to, "reorder");
                self.reorder_held
                    .entry((from, to, path))
                    .or_default()
                    .push(msg);
                return;
            }
        }
        self.net.send(from, to, path, msg);
        // Anything held for reordering on this link now goes behind.
        if let Some(held) = self.reorder_held.remove(&(from, to, path)) {
            for m in held {
                self.net.send(from, to, path, m);
            }
        }
    }

    /// Moves due delayed messages into the net (in insertion order).
    fn release_due_delayed(&mut self) {
        let now = self.now;
        let mut i = 0;
        while i < self.delayed.len() {
            if self.delayed[i].0 <= now {
                let (_, from, to, path, msg) = self.delayed.remove(i);
                self.net.send(from, to, path, msg);
            } else {
                i += 1;
            }
        }
    }

    /// Feeds `input` to `site`'s engine and routes its effects; with
    /// `inline_disks` its disks complete at once, not after the latency.
    fn feed(&mut self, site: SiteId, input: Input, inline_disks: bool) {
        let mut outs = std::mem::take(&mut self.outs);
        let env = &mut Staged(&mut outs, inline_disks);
        self.sites[site.0 as usize].drive(self.now, input, env);
        self.run_outputs(site, outs);
    }

    /// Routes staged effects, then keeps the buffer for the next feed.
    fn run_outputs(&mut self, site: SiteId, mut outs: Vec<Output>) {
        for o in outs.drain(..) {
            match o {
                Output::Send { to, msg } => {
                    let path = PathId(msg.path() as u8);
                    self.route(site, to, path, msg);
                }
                Output::Disk { req, .. } => {
                    self.sched.push((
                        Reverse(self.now + self.disk_latency),
                        Sched::Disk(site.0, req),
                    ));
                }
                Output::ArmTimer { timer, delay } => {
                    self.sched
                        .push((Reverse(self.now + delay), Sched::Timer(site.0, timer)));
                }
                Output::App(reply) => self.replies.push((site, reply)),
            }
        }
        self.outs = outs;
    }

    /// Submits an application request without waiting.
    pub fn submit(&mut self, site: SiteId, app: AppId, txn: Option<TxnId>, op: AppOp) {
        self.feed(site, Input::App(AppRequest { app, txn, op }), false);
    }

    /// Delivers every message queued from `from` to `to` on `path` in FIFO
    /// order, disks completing at once: staged delivery for §4.2.4 races.
    pub fn drain(&mut self, from: SiteId, to: SiteId, path: PathId) {
        while let Some(env) = self.net.deliver_from(from, to, path) {
            if !self.crashed.contains(&to) {
                self.feed(to, Input::Msg { from, msg: env.msg }, true);
            }
        }
    }

    /// Delivers one pending message (seeded choice) or the earliest
    /// scheduled disk/timer/delayed-release event. Returns `false` when
    /// idle. Events of a crashed site are consumed without executing.
    pub fn step(&mut self) -> bool {
        self.release_due_delayed();
        if let Some(env) = self.net.deliver_next(&mut self.rng) {
            if self.crashed.contains(&env.to) {
                // The receiver is down; the frame is lost. Frames *from*
                // a crashed site still deliver — they left its NIC
                // before the crash.
                return true;
            }
            let input = Input::Msg {
                from: env.from,
                msg: env.msg,
            };
            self.feed(env.to, input, false);
            return true;
        }
        // The net is drained; reorder holds can no longer get "behind"
        // anything, so flush them rather than strand the protocol.
        if !self.reorder_held.is_empty() {
            let mut keys: Vec<_> = self.reorder_held.keys().copied().collect();
            keys.sort();
            for k in keys {
                if let Some(held) = self.reorder_held.remove(&k) {
                    for m in held {
                        self.net.send(k.0, k.1, k.2, m);
                    }
                }
            }
            return true;
        }
        // Advance time to whichever comes first: a scheduled event or a
        // delayed message's release.
        let next_delayed = self.delayed.iter().map(|d| d.0).min();
        let next_sched = self.sched.peek().map(|(Reverse(t), _)| *t);
        if let Some(td) = next_delayed {
            if next_sched.is_none_or(|ts| td <= ts) {
                self.now = self.now.max(td);
                self.release_due_delayed();
                return true;
            }
        }
        if let Some((Reverse(t), ev)) = self.sched.pop() {
            self.now = self.now.max(t);
            let (s, input) = match ev {
                Sched::Disk(s, req) => (s, Input::DiskDone { req }),
                Sched::Timer(s, timer) => (s, Input::TimerFired { timer }),
            };
            if !self.crashed.contains(&SiteId(s)) {
                self.feed(SiteId(s), input, false);
            }
            return true;
        }
        false
    }

    /// Runs until no messages or disk completions remain (unfired timers
    /// are left pending — they only matter for timeout scenarios).
    pub fn pump(&mut self) {
        for _ in 0..500_000 {
            if self.net.is_empty() && self.delayed.is_empty() && self.reorder_held.is_empty() {
                let only_timers = self
                    .sched
                    .iter()
                    .all(|(_, e)| matches!(e, Sched::Timer(..)));
                if only_timers {
                    return;
                }
            }
            if !self.step() {
                return;
            }
        }
        panic!("cluster did not quiesce");
    }

    /// Runs until fully idle, letting timers fire (timeout scenarios).
    ///
    /// Not usable once leases are enabled: heartbeat and lease timers
    /// re-arm forever, so the cluster never goes idle — chaos tests use
    /// [`Self::pump_for`] instead.
    pub fn pump_with_timers(&mut self) {
        for _ in 0..500_000 {
            if !self.step() {
                return;
            }
        }
        panic!("cluster did not quiesce");
    }

    /// Runs for `dur` of virtual time (or until fully idle), firing
    /// every timer that comes due — the chaos-test pump, bounded so the
    /// perpetual heartbeat/lease timers of `leases_enabled` cannot spin
    /// it forever.
    pub fn pump_for(&mut self, dur: SimDuration) {
        let deadline = self.now + dur;
        for _ in 0..2_000_000 {
            if self.now >= deadline {
                return;
            }
            if !self.step() {
                return;
            }
        }
        panic!("cluster did not reach the pump_for deadline");
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
        match self.find_reply(site, txn) {
            Some(AppReply::Aborted { txn, reason, .. }) => Err(PsccError::Aborted { txn, reason }),
            Some(r) => Ok(r),
            None => {
                // Blocked on a lock: let timers resolve it.
                self.pump_with_timers();
                match self.find_reply(site, txn) {
                    Some(AppReply::Aborted { txn, reason, .. }) => {
                        Err(PsccError::Aborted { txn, reason })
                    }
                    Some(r) => Ok(r),
                    None => Err(PsccError::InvalidOperation("operation never completed")),
                }
            }
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
            AppReply::Done { data: Some(d), .. } => Ok(d),
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

    /// Sum of all sites' counters.
    pub fn total_stats(&self) -> pscc_common::Counters {
        pscc_common::Counters::total(self.sites.iter().map(|s| s.stats))
    }

    // ------------------------------------------------------------------
    // The control plane (DESIGN.md §8)
    // ------------------------------------------------------------------

    /// Injects a control message from [`CONTROLLER`] into `site`'s
    /// engine and routes the outputs. A message to a crashed site is
    /// lost, exactly like a network frame.
    pub fn send_control(&mut self, to: SiteId, msg: Message) {
        if self.crashed.contains(&to) {
            return;
        }
        let input = Input::Msg {
            from: CONTROLLER,
            msg,
        };
        self.feed(to, input, false);
    }

    /// Control-plane verdicts (`DrainOk`/`UndrainOk`) collected so far.
    pub fn take_control_replies(&mut self) -> Vec<(SiteId, Message)> {
        std::mem::take(&mut self.control_inbox)
    }

    /// A point-in-time [`ClusterView`] of every site: liveness from the
    /// harness's crash set, everything else from the engine probes.
    pub fn observe(&self) -> ClusterView {
        ClusterView {
            now: self.now,
            sites: self
                .sites
                .iter()
                .map(|s| observe_site(s, !self.crashed.contains(&s.site())))
                .collect(),
        }
    }

    /// Installs a manifest: subsequent [`Self::converge_step`] /
    /// [`Self::converge`] calls reconcile the cluster toward it.
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

    /// [`Supervisor::converge`] over this cluster, pumping `poll` of
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
            self.record_converge_done(steps, outcome.is_ok());
        }
        outcome
    }

    fn record_converge_done(&mut self, steps: u64, ok: bool) {
        if let Some(first_live) = self
            .sites
            .iter()
            .map(PeerServer::site)
            .find(|s| !self.crashed.contains(s))
        {
            self.sites[first_live.0 as usize]
                .obs
                .record(EventKind::ConvergeDone { steps, ok });
        }
    }
}

impl Harness for Cluster {
    fn observe(&self) -> ClusterView {
        Cluster::observe(self)
    }

    fn execute(&mut self, action: ControlAction) {
        let site = action.site();
        if !self.crashed.contains(&site) {
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
        match control_message(action, ReqId(self.next_ctl_req + 1)) {
            Some(msg) => {
                self.next_ctl_req += 1;
                self.send_control(site, msg);
            }
            None if matches!(action, ControlAction::Stop(_)) => {
                let _ = self.try_crash_site(site);
            }
            None => {
                let _ = self.try_restart_site(site);
            }
        }
    }

    /// Pumps `dur` of virtual time; a fully idle cluster has its clock
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

/// The control message that carries `action`, sent as [`CONTROLLER`]
/// with request id `req`: the one mapping, for both harnesses. `None`
/// for `Stop` and `Restart`, which act on the site's process, not its
/// engine.
pub(crate) fn control_message(action: ControlAction, req: ReqId) -> Option<Message> {
    Some(match action {
        ControlAction::Drain(_) => Message::DrainReq { req },
        ControlAction::Undrain(_) => Message::UndrainReq { req },
        ControlAction::MigratePrepare { lo, hi, to, .. } => {
            Message::MigratePrepare { req, lo, hi, to }
        }
        ControlAction::MigrateCommit { .. } => Message::MigrateTransfer { req },
        ControlAction::MigrateAbort { .. } => Message::MigrateAbortReq { req },
        ControlAction::SetTier { file, tier, .. } => Message::SetTierReq { req, file, tier },
        ControlAction::Stop(_) | ControlAction::Restart(_) => return None,
    })
}

/// The testkit's env: the `Vec<Output>` env, except that disks complete
/// at once when the flag is set ([`Cluster::drain`]).
struct Staged<'a>(&'a mut Vec<Output>, bool);

impl Env for Staged<'_> {
    fn send(&mut self, to: SiteId, msg: Message) {
        self.0.send(to, msg);
    }
    fn disk(&mut self, req: DiskReqId, op: DiskOp) -> bool {
        self.1 || self.0.disk(req, op)
    }
    fn arm_timer(&mut self, timer: TimerId, delay: SimDuration) {
        self.0.arm_timer(timer, delay);
    }
    fn reply(&mut self, reply: AppReply) {
        self.0.reply(reply);
    }
}

/// Extracts the version counter of a synthesized object (first 8 bytes).
pub fn version_of(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[0..8].try_into().expect("at least 8 bytes"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscc_common::{FileId, Oid, PageId, VolId};

    #[test]
    fn end_to_end_roundtrip() {
        let cfg = SystemConfig::small();
        let mut c = Cluster::new(2, cfg, OwnerMap::Single(SiteId(0)), 5);
        let t = c.begin(SiteId(1), AppId(0));
        let oid = Oid::new(PageId::new(FileId::new(VolId(0), 0), 3), 1);
        let v0 = c.read(SiteId(1), AppId(0), t, oid).unwrap();
        assert_eq!(version_of(&v0), 0);
        c.write(SiteId(1), AppId(0), t, oid, None).unwrap();
        c.commit(SiteId(1), AppId(0), t).unwrap();
        assert_eq!(version_of(c.sites[0].volume().read_object(oid).unwrap()), 1);
    }
}
