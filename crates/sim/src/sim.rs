//! The one virtual-time harness: real [`PeerServer`] engines on a
//! virtual clock, under one of two delivery policies (DESIGN.md §12).
//!
//! * **Timed** ([`Simulation::new`]) is the paper's simulated SP2: per-site
//!   CPUs with FCFS task queues, FCFS data and log disks, a fixed-latency
//!   network with per-message CPU costs at both ends, all priced by a
//!   [`CostModel`], and the [`AppDriver`]s of the figure runner.
//! * **Seeded** ([`Simulation::seeded`]) is the race explorer: delivery is
//!   instant, and a seeded choice among the pending `(from, to, path)`
//!   queues of a [`SeededNet`] is the SP2's loose cross-path ordering
//!   (§4.2.4). Disks take 1 ms; nothing else takes time. The step-wise
//!   API over it (`step`, `drain`, `run_op`, the control plane) is in
//!   [`crate::testkit`].
//!
//! Everything else exists once and works under both: the event heap,
//! effect routing out of [`PeerServer::drive`], the crash set, the
//! [`FaultPlan`], the trace rings, the audit and the metrics.

use crate::chaos::{FaultDecision, FaultPlan};
use crate::cost::CostModel;
use crate::driver::{AppDriver, DriverAction};
use pscc_common::hash::HashMap;
use pscc_common::{AppId, Counters, PsccError, SimDuration, SimTime, SiteId, SystemConfig};
use pscc_control::Supervisor;
use pscc_core::{
    AppReply, DiskOp, DiskReqId, Env, Input, Message, Output, OwnerMap, PeerServer, TimerId,
};
use pscc_net::{PathId, SeededNet};
use pscc_obs::event::TraceHandle;
use pscc_obs::EventKind;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::time::Instant;

/// How messages travel and what work costs.
enum Policy {
    /// The paper's platform, priced by the cost model.
    Timed { cost: CostModel, nodes: Vec<Node> },
    /// Instant delivery in a seeded order.
    Seeded {
        net: SeededNet<Message>,
        rng: StdRng,
    },
}

/// One simulated machine under the Timed policy.
#[derive(Debug, Default)]
struct Node {
    busy: bool,
    queue: VecDeque<Task>,
    data_disk_free: SimTime,
    log_disk_free: SimTime,
}

#[derive(Debug)]
enum Task {
    Input(Input),
    Think(AppId),
}

/// A disk request under the Seeded policy completes this long after it
/// is issued, however many are outstanding.
const SEEDED_DISK: SimDuration = SimDuration::from_millis(1);

/// One FIFO path: `(from, to, path)`.
type Link = (SiteId, SiteId, PathId);

#[derive(Debug)]
enum Event {
    /// A CPU finished its current task (Timed).
    CpuDone { site: usize, after: Option<AppId> },
    /// A message arrives at `to` (Timed).
    Deliver {
        to: usize,
        from: SiteId,
        msg: Message,
    },
    /// A disk request completed.
    DiskDone { site: usize, req: DiskReqId },
    /// A timer fired.
    Timer { site: usize, timer: TimerId },
    /// A message held by a delay or partition fault comes free and
    /// enters the policy's queue.
    Release(Link, Message),
}

/// A scheduled event's place in the heap; the event itself waits in
/// its `slot` of the slab, so the heap moves small keys.
struct Key {
    at: SimTime,
    /// Orders same-time events: the scheduling sequence, or
    /// [`seeded_tie`] for Seeded timers and disks.
    tie: u128,
    slot: usize,
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.tie == other.tie
    }
}
impl Eq for Key {}
impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap by (time, tie); the slot is not part of the order.
        (other.at, other.tie).cmp(&(self.at, self.tie))
    }
}

/// The scheduled events: a min-heap of keys over a slab of events whose
/// emptied slots are reused, so the slab holds no more slots than the
/// heap's peak length.
#[derive(Default)]
struct Events {
    heap: BinaryHeap<Key>,
    slab: Vec<Option<Event>>,
    free: Vec<usize>,
    /// The most keys the heap has held at once.
    #[cfg(test)]
    peak: usize,
}

impl Events {
    fn push(&mut self, at: SimTime, tie: u128, event: Event) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot] = Some(event);
                slot
            }
            None => {
                self.slab.push(Some(event));
                self.slab.len() - 1
            }
        };
        self.heap.push(Key { at, tie, slot });
        #[cfg(test)]
        {
            self.peak = self.peak.max(self.heap.len());
        }
    }

    /// The earliest event's time and the event.
    fn peek(&self) -> Option<(SimTime, &Event)> {
        let key = self.heap.peek()?;
        Some((key.at, self.slab[key.slot].as_ref().expect("a keyed slot")))
    }

    fn pop(&mut self) -> Option<(SimTime, Event)> {
        let key = self.heap.pop()?;
        self.free.push(key.slot);
        Some((key.at, self.slab[key.slot].take().expect("a keyed slot")))
    }

    /// Every scheduled event, in no particular order.
    fn iter(&self) -> impl Iterator<Item = &Event> {
        self.slab.iter().flatten()
    }
}

/// The tie-break of same-time timer and disk events under the Seeded
/// policy: released messages first, in release order (`rank` 0 takes the
/// sequence number), then timers (`rank` 1), then disks (`rank` 2), each
/// by descending site and then descending id. Every pinned seeded
/// schedule depends on this order.
fn seeded_tie(rank: u128, site: usize, id: u64) -> u128 {
    rank << 96 | u128::from(u32::MAX - site as u32) << 64 | u128::from(u64::MAX - id)
}

/// Results of a simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Committed transactions per second over the measurement window.
    pub throughput: f64,
    /// Commits inside the window.
    pub commits: u64,
    /// Aborted attempts inside the window.
    pub aborts: u64,
    /// Virtual measurement window length (seconds).
    pub window_secs: f64,
    /// Engine counters summed over all sites (whole run).
    pub counters: Counters,
}

/// A complete simulated system.
pub struct Simulation {
    /// The peer servers, indexed by site id.
    pub sites: Vec<PeerServer>,
    policy: Policy,
    /// `apps[i]` drives `AppId(i)`.
    apps: Vec<AppDriver>,
    cfg: SystemConfig,
    owners: OwnerMap,
    pub(crate) now: SimTime,
    seq: u64,
    events: Events,
    crashed: Vec<bool>,
    faults: Option<FaultPlan>,
    /// Messages held by a reorder fault until later same-link traffic.
    reorder_held: HashMap<Link, Vec<Message>>,
    /// Replies to applications no driver runs, for `take_replies`.
    pub(crate) replies: Vec<(SiteId, AppReply)>,
    /// The active manifest's reconciler (`apply_manifest`).
    pub(crate) supervisor: Option<Supervisor>,
    /// Every trace ring enabled over the run: a restarted site records
    /// into a fresh ring, and the old one stays for the merged stream.
    traces: Vec<TraceHandle>,
    /// Ring capacity for restarted sites; 0 while tracing is off.
    trace_cap: usize,
    /// A task's effects, staged until it ends (reused).
    outs: Vec<Output>,
}

impl Simulation {
    /// Builds a system of `n_sites` peer servers under the Timed policy,
    /// with the given drivers. Each driver's `site` indexes into the site
    /// vector.
    ///
    /// # Panics
    ///
    /// Panics if [`SystemConfig::validate`] rejects the configuration.
    pub fn new(
        cfg: SystemConfig,
        owners: OwnerMap,
        n_sites: u32,
        apps: Vec<AppDriver>,
        cost: CostModel,
    ) -> Self {
        let nodes = (0..n_sites).map(|_| Node::default()).collect();
        Self::with_policy(cfg, owners, n_sites, apps, Policy::Timed { cost, nodes })
    }

    /// Builds `n` sites under the Seeded policy, delivering in the order
    /// `seed` picks, with every site traced (rings of
    /// [`Self::TRACE_CAP`]), so [`Self::assert_survivors_quiescent`]
    /// audits the run for free.
    ///
    /// # Panics
    ///
    /// Panics if [`SystemConfig::validate`] rejects the configuration —
    /// a misconfigured system wedges instead of failing, so the entry
    /// point refuses it up front.
    pub fn seeded(n: u32, cfg: SystemConfig, owners: OwnerMap, seed: u64) -> Self {
        let policy = Policy::Seeded {
            net: SeededNet::new(),
            rng: StdRng::seed_from_u64(seed),
        };
        let mut sim = Self::with_policy(cfg, owners, n, Vec::new(), policy);
        sim.enable_trace(Self::TRACE_CAP);
        sim
    }

    fn with_policy(
        cfg: SystemConfig,
        owners: OwnerMap,
        n_sites: u32,
        apps: Vec<AppDriver>,
        policy: Policy,
    ) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid SystemConfig: {e}");
        }
        Simulation {
            sites: (0..n_sites)
                .map(|i| PeerServer::new(SiteId(i), cfg.clone(), owners.clone()))
                .collect(),
            policy,
            apps,
            cfg,
            owners,
            now: SimTime::ZERO,
            seq: 0,
            events: Events::default(),
            crashed: vec![false; n_sites as usize],
            faults: None,
            reorder_held: HashMap::default(),
            replies: Vec::new(),
            supervisor: None,
            traces: Vec::new(),
            trace_cap: 0,
            outs: Vec::new(),
        }
    }

    /// Per-site event-ring capacity of a seeded run. Large enough that
    /// short integration runs keep their whole history (the auditor
    /// skips itself when any ring overflowed — a truncated stream has
    /// grants whose releases were evicted).
    pub const TRACE_CAP: usize = 32_768;

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    fn schedule(&mut self, at: SimTime, event: Event) {
        self.seq += 1;
        let tie = match (&self.policy, &event) {
            (Policy::Seeded { .. }, Event::Timer { site, timer }) => seeded_tie(1, *site, timer.0),
            (Policy::Seeded { .. }, Event::DiskDone { site, req }) => seeded_tie(2, *site, req.0),
            _ => u128::from(self.seq),
        };
        self.events.push(at, tie, event);
    }

    /// Processes one event: a message whose hold ended, else (Seeded) one
    /// pending message by seeded choice, else the earliest timed event,
    /// advancing the clock to it. Returns `false` when nothing is left.
    /// Input to a crashed site is consumed without executing.
    pub fn step(&mut self) -> bool {
        // Messages whose hold ends now join the queue before anything is
        // chosen from it.
        while self
            .events
            .peek()
            .is_some_and(|(at, e)| at <= self.now && matches!(e, Event::Release(..)))
        {
            self.dispatch_next();
        }
        if let Policy::Seeded { net, rng } = &mut self.policy {
            if let Some(env) = net.deliver_next(rng) {
                // A frame to a crashed site is lost; frames *from* one
                // still deliver — they left its NIC before the crash.
                let input = Input::Msg {
                    from: env.from,
                    msg: env.msg,
                };
                self.deliver(env.to.0 as usize, input);
                return true;
            }
        }
        // Nothing is in flight for a reordered message to get behind:
        // flush the holds rather than strand the protocol.
        if !self.reorder_held.is_empty() && self.in_flight() == 0 {
            let mut held: Vec<_> = self.reorder_held.drain().collect();
            held.sort_by_key(|(link, _)| *link);
            for (link, msgs) in held {
                for msg in msgs {
                    self.enqueue(link, msg, self.now);
                }
            }
            return true;
        }
        self.dispatch_next()
    }

    fn dispatch_next(&mut self) -> bool {
        let Some((at, event)) = self.events.pop() else {
            return false;
        };
        self.now = self.now.max(at);
        match event {
            Event::CpuDone { site, after } => {
                if let Some(app) = after {
                    let idx = app.0 as usize;
                    let action = self.apps[idx].after_think();
                    self.run_action(site, idx, action);
                }
                self.run_next_task(site);
            }
            Event::Deliver { to, from, msg } => self.deliver(to, Input::Msg { from, msg }),
            Event::DiskDone { site, req } => self.deliver(site, Input::DiskDone { req }),
            Event::Timer { site, timer } => self.deliver(site, Input::TimerFired { timer }),
            Event::Release(link, msg) => self.enqueue(link, msg, self.now),
        }
        true
    }

    /// Messages on their way: queued in the seeded net, or scheduled for
    /// timed delivery. Messages a fault holds are not counted.
    pub fn in_flight(&self) -> usize {
        match &self.policy {
            Policy::Seeded { net, .. } => net.len(),
            Policy::Timed { .. } => self
                .events
                .iter()
                .filter(|e| matches!(e, Event::Deliver { .. }))
                .count(),
        }
    }

    /// Delivers every message queued from `from` to `to` on `path` in
    /// FIFO order, disks completing at once: staged delivery for §4.2.4
    /// races.
    ///
    /// # Panics
    ///
    /// Panics under the Timed policy, whose messages are not queued by
    /// path.
    pub fn drain(&mut self, from: SiteId, to: SiteId, path: PathId) {
        loop {
            let Policy::Seeded { net, .. } = &mut self.policy else {
                panic!("drain needs the Seeded policy");
            };
            let Some(env) = net.deliver_from(from, to, path) else {
                return;
            };
            if !self.is_crashed(to) {
                self.feed(to.0 as usize, Input::Msg { from, msg: env.msg }, true);
            }
        }
    }

    /// Runs until no messages or disk completions remain (unfired timers
    /// are left pending — they only matter for timeout scenarios).
    ///
    /// # Panics
    ///
    /// Panics if the system does not quiesce within 500 000 steps.
    pub fn pump(&mut self) {
        self.pump_until(500_000, "cluster did not quiesce", |s| {
            s.in_flight() == 0
                && s.reorder_held.is_empty()
                && (s.events.iter()).all(|e| matches!(e, Event::Timer { .. }))
        });
    }

    /// Steps until `done` holds or nothing is left to do, panicking with
    /// `stuck` after `budget` steps.
    pub(crate) fn pump_until(&mut self, budget: u32, stuck: &str, done: impl Fn(&Self) -> bool) {
        for _ in 0..budget {
            if done(self) || !self.step() {
                return;
            }
        }
        panic!("{stuck}");
    }

    /// Input arriving from outside the site: lost if the site is down.
    fn deliver(&mut self, site: usize, input: Input) {
        if !self.crashed[site] {
            self.accept(site, input);
        }
    }

    /// Hands `input` to `site`: queued for its CPU (Timed) or executed
    /// at once (Seeded).
    pub(crate) fn accept(&mut self, site: usize, input: Input) {
        match self.policy {
            Policy::Timed { .. } => self.push_task(site, Task::Input(input)),
            Policy::Seeded { .. } => {
                self.feed(site, input, false);
            }
        }
    }

    fn push_task(&mut self, site: usize, task: Task) {
        let Policy::Timed { nodes, .. } = &mut self.policy else {
            unreachable!("only the Timed policy queues CPU tasks");
        };
        nodes[site].queue.push_back(task);
        if !nodes[site].busy {
            self.run_next_task(site);
        }
    }

    /// Pops and runs the next task on `site`'s CPU; schedules the
    /// CpuDone.
    fn run_next_task(&mut self, site: usize) {
        let Policy::Timed { cost, nodes } = &mut self.policy else {
            return;
        };
        let think = cost.per_obj_proc;
        let node = &mut nodes[site];
        let Some(task) = node.queue.pop_front() else {
            node.busy = false;
            return;
        };
        node.busy = true;
        let (end, after) = match task {
            Task::Input(input) => (self.feed(site, input, false), None),
            Task::Think(app) => (self.now + think, Some(app)),
        };
        self.schedule(end, Event::CpuDone { site, after });
    }

    /// Feeds `input` to `site`'s engine and routes its effects, which
    /// take place when the work ends (returned): under the Timed policy
    /// after the handling and message CPU costs, under Seeded at once.
    /// With `inline_disks` its disks complete at once, not after the
    /// latency.
    fn feed(&mut self, site: usize, input: Input, inline_disks: bool) -> SimTime {
        let mut outs = std::mem::take(&mut self.outs);
        let mut cpu = match (&self.policy, &input) {
            (Policy::Timed { cost, .. }, Input::Msg { msg, .. }) => {
                cost.handle_cpu + cost.msg_cpu(msg)
            }
            (Policy::Timed { cost, .. }, _) => cost.handle_cpu,
            (Policy::Seeded { .. }, _) => SimDuration::ZERO,
        };
        self.sites[site].drive(self.now, input, &mut Staged(&mut outs, inline_disks));
        if let Policy::Seeded { .. } = self.policy {
            // The seeded suites check the lock table's indexes mid-run,
            // under callbacks, replication and deescalation.
            self.sites[site].assert_locks_consistent();
        }
        if let Policy::Timed { cost, .. } = &self.policy {
            for o in &outs {
                if let Output::Send { msg, .. } = o {
                    cpu += cost.msg_cpu(msg);
                }
            }
        }
        let end = self.now + cpu;
        self.route_outputs(site, &mut outs, end);
        self.outs = outs;
        end
    }

    fn route_outputs(&mut self, site: usize, outs: &mut Vec<Output>, end: SimTime) {
        for o in outs.drain(..) {
            match o {
                Output::Send { to, msg } => self.route(SiteId(site as u32), to, msg, end),
                Output::Disk { req, op } => {
                    let done_at = self.disk_done_at(site, &op, end);
                    self.schedule(done_at, Event::DiskDone { site, req });
                }
                Output::ArmTimer { timer, delay } => {
                    self.schedule(end + delay, Event::Timer { site, timer });
                }
                Output::App(reply) => self.route_reply(site, reply),
            }
        }
    }

    fn disk_done_at(&mut self, site: usize, op: &DiskOp, issued: SimTime) -> SimTime {
        let Policy::Timed { cost, nodes } = &mut self.policy else {
            return issued + SEEDED_DISK;
        };
        let (free_at, service) = match op {
            DiskOp::WriteLog => (&mut nodes[site].log_disk_free, cost.log_io),
            _ => (&mut nodes[site].data_disk_free, cost.disk_io),
        };
        *free_at = (*free_at).max(issued) + service;
        *free_at
    }

    /// Routes one send, made at `at`, through the fault plan (if any)
    /// into the policy's queue.
    fn route(&mut self, from: SiteId, to: SiteId, msg: Message, at: SimTime) {
        let link = (from, to, PathId(msg.path() as u8));
        let decision = match &mut self.faults {
            Some(plan) => plan.decide(at, from, to, link.2),
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
                self.enqueue(link, msg.clone(), at);
            }
            FaultDecision::Delay { by, what } => {
                self.note_fault(from, to, what);
                self.schedule(at + by, Event::Release(link, msg));
                return;
            }
            FaultDecision::Reorder => {
                self.note_fault(from, to, "reorder");
                self.reorder_held.entry(link).or_default().push(msg);
                return;
            }
        }
        self.enqueue(link, msg, at);
        // Anything held for reordering on this link now goes behind.
        for m in self.reorder_held.remove(&link).unwrap_or_default() {
            self.enqueue(link, m, at);
        }
    }

    /// Puts a message sent at `at` on the policy's wire.
    fn enqueue(&mut self, (from, to, path): Link, msg: Message, at: SimTime) {
        match &mut self.policy {
            Policy::Timed { cost, .. } => {
                let (arrive, to) = (at + cost.msg_latency, to.0 as usize);
                self.schedule(arrive, Event::Deliver { to, from, msg });
            }
            Policy::Seeded { net, .. } => net.send(from, to, path, msg),
        }
    }

    fn note_fault(&mut self, from: SiteId, to: SiteId, what: &'static str) {
        let s = &mut self.sites[from.0 as usize];
        s.stats.faults_injected += 1;
        s.obs.record(EventKind::FaultInjected { from, to, what });
    }

    /// A reply goes to its driver if this simulation runs the
    /// application, and is otherwise kept for `take_replies`.
    fn route_reply(&mut self, site: usize, reply: AppReply) {
        let idx = reply.app().0 as usize;
        match self.apps.get_mut(idx) {
            Some(app) => {
                let action = app.on_reply(&reply);
                self.run_action(site, idx, action);
            }
            None => self.replies.push((SiteId(site as u32), reply)),
        }
    }

    fn run_action(&mut self, site: usize, app_idx: usize, action: DriverAction) {
        match action {
            DriverAction::Submit(req) => self.accept(site, Input::App(req)),
            DriverAction::Think => {
                let app = self.apps[app_idx].app;
                self.push_task(site, Task::Think(app));
            }
            DriverAction::Idle => {}
        }
    }

    /// Runs the application drivers: `warmup` of settling, then a
    /// measurement window until `end`. Returns the report.
    pub fn run(&mut self, warmup: SimDuration, end: SimDuration) -> SimReport {
        for i in 0..self.apps.len() {
            let site = self.apps[i].site.0 as usize;
            let action = self.apps[i].start();
            self.run_action(site, i, action);
        }
        let tallies = |apps: &[AppDriver]| -> Vec<(u64, u64)> {
            apps.iter().map(|a| (a.commits, a.aborts)).collect()
        };
        let warmup_at = SimTime::ZERO + warmup;
        let end_at = SimTime::ZERO + end;
        let mut at_warmup = None;
        while let Some((at, _)) = self.events.peek() {
            if at > end_at {
                break;
            }
            if at >= warmup_at {
                at_warmup.get_or_insert_with(|| tallies(&self.apps));
            }
            self.step();
        }
        let at_warmup = at_warmup.unwrap_or_else(|| tallies(&self.apps));
        let (commits, aborts) = self
            .apps
            .iter()
            .zip(at_warmup)
            .fold((0, 0), |(c, a), (app, (c0, a0))| {
                (c + app.commits - c0, a + app.aborts - a0)
            });
        let window_secs = (end.saturating_sub(warmup)).as_secs_f64().max(1e-9);
        SimReport {
            throughput: commits as f64 / window_secs,
            commits,
            aborts,
            window_secs,
            counters: self.total_stats(),
        }
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
        self.crashed.get(site.0 as usize).copied().unwrap_or(false)
    }

    /// Crashes `site`: it stops executing, its queued work and pending
    /// disk and timer events are discarded, and messages addressed to it
    /// are dropped. Messages it already put on the wire still deliver
    /// (they left the NIC before the crash). The dead state machine is
    /// kept around untouched so post-mortem inspection and counter totals
    /// still see it; only [`Self::restart_site`] replaces it.
    ///
    /// # Errors
    ///
    /// Returns [`PsccError::InvalidOperation`] if the site is unknown or
    /// already crashed, so reconcilers and chaos tests can probe illegal
    /// transitions without aborting the process.
    pub fn try_crash_site(&mut self, site: SiteId) -> Result<(), PsccError> {
        let (i, err) = (site.0 as usize, PsccError::InvalidOperation);
        match self.crashed.get(i) {
            None => return Err(err("crash_site: no such site")),
            Some(true) => return Err(err("crash_site: site is already crashed")),
            Some(false) => {}
        }
        self.note_fault(site, site, "crash");
        if let Some(plan) = &mut self.faults {
            plan.injected += 1;
        }
        self.crashed[i] = true;
        if let Policy::Timed { nodes, .. } = &mut self.policy {
            nodes[i].queue.clear();
        }
        Ok(())
    }

    /// Crashes `site`, panicking on an illegal transition (see
    /// [`Self::try_crash_site`]).
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
        let (i, err) = (site.0 as usize, PsccError::InvalidOperation);
        match self.crashed.get(i) {
            None => return Err(err("restart_site: no such site")),
            Some(false) => return Err(err("restart_site: site is not crashed")),
            Some(true) => {}
        }
        self.crashed[i] = false;
        let mut outs = std::mem::take(&mut self.outs);
        let (cfg, owners) = (self.cfg.clone(), self.owners.clone());
        self.sites[i] = restart_engine(&self.sites[i], cfg, owners, &mut outs);
        if self.trace_cap > 0 {
            self.traces.push(self.sites[i].enable_trace(self.trace_cap));
        }
        self.note_fault(site, site, "restart");
        self.route_outputs(i, &mut outs, self.now);
        self.outs = outs;
        Ok(())
    }

    /// Restarts a crashed site, panicking on an illegal transition (see
    /// [`Self::try_restart_site`]).
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

    /// Turns protocol event tracing on at every site, a bounded ring of
    /// `cap` events each (a restarted site gets a fresh one).
    /// Afterwards [`Self::merged_trace`] yields the chronological
    /// multi-site postmortem.
    pub fn enable_trace(&mut self, cap: usize) {
        self.trace_cap = cap;
        for s in &mut self.sites {
            self.traces.push(s.enable_trace(cap));
        }
    }

    /// The merged multi-site event stream: chronological across every
    /// ring ever enabled, crashes included (empty while tracing is off).
    #[must_use]
    pub fn merged_trace(&self) -> Vec<pscc_obs::TraceEvent> {
        pscc_obs::event::merge_traces(self.traces.iter().map(TraceHandle::snapshot).collect())
    }

    /// Total events evicted across every ring ever enabled (0 means the
    /// merged stream is complete).
    #[must_use]
    pub fn trace_dropped(&self) -> u64 {
        self.traces.iter().map(TraceHandle::dropped).sum()
    }

    /// Runs the invariant auditor over the merged stream.
    #[must_use]
    pub fn audit(&self) -> Vec<pscc_obs::Violation> {
        pscc_obs::audit_events(&self.merged_trace())
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
            if !self.is_crashed(s.site()) {
                s.assert_quiescent();
            }
        }
        if self.trace_dropped() == 0 {
            let violations = self.audit();
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

    /// Sum of all sites' counters.
    pub fn total_stats(&self) -> Counters {
        Counters::total(self.sites.iter().map(|s| s.stats))
    }

    /// A metrics snapshot of the whole system: every engine counter,
    /// the latency histograms merged across sites (including restart
    /// `recovery_time`), gauges for the adaptive lock-wait timeout
    /// estimators (§5.5), per-site log-durability gauges (durable
    /// LSN, checkpoint age, server epoch), and per-site admission
    /// queue-depth gauges (current and peak, DESIGN.md §6).
    pub fn metrics(&self) -> pscc_obs::MetricsRegistry {
        let mut reg = pscc_obs::MetricsRegistry::new();
        reg.counters_struct(&self.total_stats());
        for s in &self.sites {
            reg.histogram("lock_wait", &s.obs.lock_wait);
            reg.histogram("callback_rtt", &s.obs.callback_rtt);
            reg.histogram("fetch_rtt", &s.obs.fetch_rtt);
            reg.histogram("commit_latency", &s.obs.commit_latency);
            reg.histogram("txn_latency", &s.obs.txn_latency);
            reg.histogram("recovery_time", &s.obs.recovery_time);
            reg.histogram("migration_pause", &s.obs.migration_pause);
            reg.histogram("edge_staleness", &s.obs.edge_staleness);
            for stage in pscc_common::Stage::ALL {
                reg.histogram(&format!("stage_{stage}"), s.obs.stage_hist(stage));
            }
        }
        reg.gauge("sites", self.sites.len() as f64);
        // Trace-ring fidelity: events evicted across every ring (0 means
        // merged traces and audits see the complete history).
        reg.counter("trace_events_dropped", self.trace_dropped());
        for s in &self.sites {
            let id = s.site().0;
            for (name, v) in [
                ("durable_lsn", s.durable_lsn() as f64),
                ("checkpoint_age", s.checkpoint_age() as f64),
                ("epoch", s.epoch() as f64),
                ("queue_depth", s.queue_depth() as f64),
                ("queue_depth_peak", s.queue_depth_peak() as f64),
                // Occupancy of the bounded dead-transaction tombstone
                // filter (overload protection; capped at DEAD_TXN_MEMORY).
                ("dead_txns", s.dead_txn_count() as f64),
            ] {
                reg.gauge(&format!("{name}_site{id}"), v);
            }
        }
        let mut current_sum = 0.0;
        for s in &self.sites {
            let (t, id) = (s.timeout_snapshot(), s.site().0);
            let current = t.current_timeout_micros as f64;
            for (name, v) in [
                ("samples", t.samples as f64),
                ("mean_micros", t.mean_micros),
                ("stddev_micros", t.stddev_micros),
                ("current_micros", current),
            ] {
                reg.gauge(&format!("timeout_{name}_site{id}"), v);
            }
            current_sum += current;
        }
        reg.gauge(
            "timeout_current_micros_mean",
            current_sum / self.sites.len().max(1) as f64,
        );
        reg
    }
}

/// Restarts `engine` through [`PeerServer::restart`], for both
/// harnesses. When that ran restart recovery (the epoch advanced), the
/// wall time it took goes into the new engine's `recovery_time`: the
/// engine itself reads no clock.
pub(crate) fn restart_engine(
    engine: &PeerServer,
    cfg: SystemConfig,
    owners: OwnerMap,
    env: &mut impl Env,
) -> PeerServer {
    let started = Instant::now();
    let mut next = engine.restart(cfg, owners, env);
    if next.epoch() > engine.epoch() {
        next.obs
            .recovery_time
            .record_micros(started.elapsed().as_micros() as u64);
    }
    next
}

/// The simulation's env: the `Vec<Output>` env, except that disks
/// complete at once when the flag is set ([`Simulation::drain`]).
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{build_sim, paper_spec, Figure};
    use pscc_common::Protocol;
    use pscc_core::ReqId;
    use std::cmp::Reverse;

    /// One event of each kind for `site`, told apart by `n`.
    fn every_kind(site: usize, n: u64) -> [Event; 5] {
        let msg = || Message::CommitOk { req: ReqId(n) };
        [
            Event::CpuDone {
                site,
                after: Some(AppId(n as u32)),
            },
            Event::Deliver {
                to: site,
                from: SiteId(9),
                msg: msg(),
            },
            Event::DiskDone {
                site,
                req: DiskReqId(n),
            },
            Event::Timer {
                site,
                timer: TimerId(n),
            },
            Event::Release((SiteId(9), SiteId(site as u32), PathId(0)), msg()),
        ]
    }

    fn label(e: &Event) -> (u8, usize, u64) {
        match e {
            Event::CpuDone {
                site,
                after: Some(app),
            } => (0, *site, u64::from(app.0)),
            Event::Deliver {
                to,
                msg: Message::CommitOk { req },
                ..
            } => (1, *to, req.0),
            Event::DiskDone { site, req } => (2, *site, req.0),
            Event::Timer { site, timer } => (3, *site, timer.0),
            Event::Release((_, to, _), Message::CommitOk { req }) => (4, to.0 as usize, req.0),
            other => panic!("not a test event: {other:?}"),
        }
    }

    #[test]
    fn same_time_events_pop_in_the_order_of_a_heap_of_time_and_tie() {
        let (cfg, owners) = (SystemConfig::small(), OwnerMap::Single(SiteId(0)));
        let timed = Simulation::new(cfg.clone(), owners.clone(), 3, Vec::new(), CostModel::sp2());
        let seeded = Simulation::seeded(3, cfg, owners, 7);
        for (policy, mut sim) in [("timed", timed), ("seeded", seeded)] {
            let mut reference = BinaryHeap::new();
            let mut popped = 0;
            // Four rounds at two instants, all five kinds at every site,
            // with pops between rounds so that freed slots are reused.
            for round in 0..4u64 {
                let at = SimTime::ZERO + SimDuration::from_millis(if round == 2 { 3 } else { 5 });
                for site in [2, 0, 1] {
                    for event in every_kind(site, round * 10 + site as u64) {
                        let tie = match (&event, policy) {
                            (Event::Timer { site, timer }, "seeded") => {
                                seeded_tie(1, *site, timer.0)
                            }
                            (Event::DiskDone { site, req }, "seeded") => {
                                seeded_tie(2, *site, req.0)
                            }
                            _ => u128::from(sim.seq + 1),
                        };
                        reference.push(Reverse((at, tie, label(&event))));
                        sim.schedule(at, event);
                    }
                }
                for _ in 0..4 {
                    let (at, event) = sim.events.pop().expect("scheduled");
                    let Reverse((want_at, _, want)) = reference.pop().expect("scheduled");
                    assert_eq!(
                        (at, label(&event)),
                        (want_at, want),
                        "{policy} pop {popped}"
                    );
                    popped += 1;
                }
            }
            while let Some(Reverse((want_at, _, want))) = reference.pop() {
                let (at, event) = sim.events.pop().expect("as many as the reference");
                assert_eq!(
                    (at, label(&event)),
                    (want_at, want),
                    "{policy} pop {popped}"
                );
                popped += 1;
            }
            assert!(sim.events.pop().is_none());
            assert_eq!(popped, 60);
            assert!(sim.events.slab.len() <= sim.events.peak);
        }
    }

    #[test]
    fn the_slab_holds_no_more_slots_than_the_heap_held_keys() {
        // A `fig-des` point: Fig. 13, PS-AA, write probability 0.3, 30
        // virtual seconds.
        let mut spec = paper_spec(Figure::Fig13, Protocol::PsAa, 0.3);
        spec.warmup = SimDuration::from_secs(5);
        spec.end = SimDuration::from_secs(30);
        let mut sim = build_sim(&spec);
        assert!(sim.run(spec.warmup, spec.end).commits > 0);
        let events = &sim.events;
        assert!(events.peak > 0);
        assert!(events.slab.len() <= events.peak);
        assert_eq!(events.free.len() + events.heap.len(), events.slab.len());
    }
}
