//! A real multithreaded harness: one OS thread per peer server,
//! communicating over [`pscc_net::InProcNetwork`] with the production
//! path discipline, real-time timers, and immediate disks. This is the
//! deployment shape of paper Fig. 2 — preemptive sites with genuinely
//! concurrent message handling — and the strongest validation that the
//! engine's state machine is driven correctly from outside.
//!
//! Applications submit requests through per-site bounded channels
//! (`std::sync::mpsc::sync_channel`) and receive replies the same way;
//! everything else (timing, delivery order) is up to the operating
//! system's scheduler, so runs are *not* deterministic — exactly the
//! point.
//!
//! # The site loop
//!
//! A site thread blocks in exactly one place, its transport's
//! `recv_timeout`, and each of its three sources of work can end that
//! wait: a message by arriving, a timer by bounding the wait, a command
//! by its producer calling the transport's [`Waker`] *after* queueing it
//! (every producer goes through `SiteHandle::send`). Each pass takes
//! the timers now due and a bounded batch of commands, then a bounded
//! batch of messages, so no source starves another. The pass's first
//! look at the network is its one wait, bounded by the next timer; the
//! rest of the batch only looks. That first look does not wait either
//! when commands may be queued that no wake will announce: the rest of a
//! batch cut off at its bound, or any command over a transport that
//! cannot be woken. Over TCP the wait is also where the site reads its
//! own sockets: no other thread touches them. See DESIGN.md §12.
//!
//! Replies go the other way with the opposite policy: an application
//! thread naps briefly, on a timer made precise for it, before it lets a
//! site pay for waking it (see [`ThreadedCluster::recv_reply`]).

use crate::sim::restart_engine;
use crate::testkit::{control_op, observe_site};
use pscc_common::{AppId, PsccError, SimDuration, SimTime, SiteId, SystemConfig, TxnId};
use pscc_control::{
    ClusterManifest, ClusterView, ControlAction, ConvergeError, ConvergeReport, Harness,
    ManifestError, ObservedSite, Supervisor,
};
use pscc_core::{
    AppOp, AppReply, AppRequest, ControlOp, DiskOp, DiskReqId, Env, Input, Message, OwnerMap,
    PeerServer, TimerId,
};
use pscc_net::{Envelope, InProcNetwork, PathId, Transport, Waker};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Commands a driver can send to a site thread.
enum Cmd {
    App(AppRequest),
    /// Ask the site to report its counters.
    Stats(mpsc::SyncSender<pscc_common::Counters>),
    /// Hand a control op to the engine.
    Control(ControlOp),
    /// Ask the site to report what the control plane observes of it.
    Probe(mpsc::SyncSender<ObservedSite>),
    /// Restart the engine in place: the current instance is dropped (the
    /// model of a process crash), its durable WAL image survives, and a
    /// recovered engine takes over the same thread and transport.
    Restart,
}

/// How long an idle site stays parked before it looks at its stop flag
/// and command channel unprompted. Nothing waits for this to run out: a
/// message, the next timer or a [`Waker`] ends the park first.
const IDLE_PARK: Duration = Duration::from_millis(100);

/// The same wait over a transport that has no [`Waker`] (a wrapper that
/// forwards only `send` and `recv_timeout`): nothing can end the park
/// when a command arrives, so the site polls for commands at this period.
const IDLE_POLL: Duration = Duration::from_micros(200);

/// Commands, and then messages, one pass takes before the other sources
/// get another look.
const PASS_BATCH: usize = 64;

/// How long an application thread that found no reply queued stays away
/// before it asks to be woken for one (see
/// [`ThreadedCluster::recv_reply`]). It lasts about that long because
/// [`precise_naps`] cut the thread's timer slack to 1 µs; at the
/// kernel's default slack (50 µs) it would last about 75 µs.
const REPLY_NAP: Duration = Duration::from_micros(20);

#[cfg(target_os = "linux")]
mod slack {
    use std::ffi::{c_int, c_ulong};

    /// The timer slack of a thread that has called `recv_reply`.
    pub(super) const NAP_SLACK_NS: c_ulong = 1_000;
    pub(super) const PR_SET_TIMERSLACK: c_int = 29;
    #[cfg(test)]
    pub(super) const PR_GET_TIMERSLACK: c_int = 30;

    extern "C" {
        pub(super) fn prctl(option: c_int, ...) -> c_int;
    }
}

/// Cuts the calling thread's timer slack to 1 µs, once per thread, so
/// its naps end when they are due rather than up to 50 µs later.
/// Threads it spawns afterwards inherit the slack; no other thread's
/// slack changes.
fn precise_naps() {
    #[cfg(target_os = "linux")]
    {
        thread_local! {
            static DONE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
        }
        if !DONE.replace(true) {
            // SAFETY: PR_SET_TIMERSLACK reads one unsigned long, the slack
            // in ns, and touches no memory of the caller's. A refusal
            // leaves the default slack, which only lengthens the nap.
            unsafe { slack::prctl(slack::PR_SET_TIMERSLACK, slack::NAP_SLACK_NS) };
        }
    }
}

/// The driver's side of one site: its command channel, and the waker
/// that makes the site look at it.
#[derive(Clone)]
struct SiteHandle {
    cmd_tx: mpsc::SyncSender<Cmd>,
    waker: Option<Waker>,
}

impl SiteHandle {
    /// Queues `cmd`, then ends the site's wait. In that order: the site
    /// tests the wake flag under its mailbox lock before it sleeps, so
    /// it either sees the command on the pass in progress or is woken
    /// for the next.
    fn send(&self, cmd: Cmd) -> Result<(), PsccError> {
        self.cmd_tx
            .send(cmd)
            .map_err(|_| PsccError::InvalidOperation("site thread gone"))?;
        self.wake();
        Ok(())
    }

    fn wake(&self) {
        if let Some(w) = &self.waker {
            w.wake();
        }
    }

    /// What the control plane observes of the site.
    fn probe(&self) -> Result<ObservedSite, PsccError> {
        let (ptx, prx) = mpsc::sync_channel(1);
        self.send(Cmd::Probe(ptx))?;
        prx.recv_timeout(Duration::from_secs(5))
            .map_err(|_| PsccError::InvalidOperation("probe: site thread unresponsive"))
    }
}

/// Wall time since the cluster's time zero, as the engines see it.
fn clock(start: Instant) -> SimTime {
    SimTime::from_micros(start.elapsed().as_micros() as u64)
}

/// A [`ClusterView`] of `sites` (a site whose thread does not answer is
/// left out).
fn view_of(sites: &[SiteHandle], start: Instant) -> ClusterView {
    ClusterView {
        now: clock(start),
        sites: sites.iter().filter_map(|s| s.probe().ok()).collect(),
    }
}

/// The supervisor thread's hold on the cluster: the site threads'
/// command channels — the interface a remote operator would have — and
/// the cluster's clock.
struct Remote {
    sites: Vec<SiteHandle>,
    start: Instant,
}

impl Harness for Remote {
    fn observe(&self) -> ClusterView {
        view_of(&self.sites, self.start)
    }

    fn execute(&mut self, action: ControlAction) {
        let cmd = match control_op(action) {
            Some(op) => Cmd::Control(op),
            // A thread-hosted site has no stopped state: Stop and
            // Restart are both the in-place crash and recovery, so the
            // site is never observed down and its Stop step completes on
            // the new epoch.
            None => Cmd::Restart,
        };
        let _ = self.sites[action.site().0 as usize].send(cmd);
    }

    fn wait(&mut self, dur: SimDuration) {
        std::thread::sleep(Duration::from_micros(dur.as_micros()));
    }
}

/// One peer server and everything its thread owns.
struct Site<T> {
    cfg: SystemConfig,
    owners: OwnerMap,
    engine: PeerServer,
    io: SiteIo<T>,
    commands: mpsc::Receiver<Cmd>,
    /// The cluster's time zero: the engine sees wall time elapsed since.
    start: Instant,
    /// Whether the transport has no [`Waker`], so that a command queued
    /// for the site is seen only when a wait runs out.
    polled: bool,
}

/// A site's [`Env`]: sends go to the transport, timers to a wall-clock
/// heap, replies to the applications' channel; disks complete at once
/// (storage is in memory).
struct SiteIo<T> {
    transport: T,
    /// Armed timers, earliest first.
    timers: BinaryHeap<Reverse<(Instant, TimerId)>>,
    replies: mpsc::SyncSender<AppReply>,
}

impl<T: Transport<Message>> Env for SiteIo<T> {
    fn send(&mut self, to: SiteId, msg: Message) {
        self.transport.send(to, PathId(msg.path() as u8), msg);
    }
    fn disk(&mut self, _: DiskReqId, _: DiskOp) -> bool {
        true
    }
    fn arm_timer(&mut self, timer: TimerId, delay: pscc_common::SimDuration) {
        let at = Instant::now() + Duration::from_micros(delay.as_micros());
        self.timers.push(Reverse((at, timer)));
    }
    fn reply(&mut self, reply: AppReply) {
        let _ = self.replies.send(reply);
    }
}

impl<T: Transport<Message>> Site<T> {
    fn run(mut self, stop: &AtomicBool) {
        while !stop.load(Ordering::Acquire) {
            // The clock is read only while a timer is armed.
            if !self.io.timers.is_empty() {
                let now = Instant::now();
                while let Some(&Reverse((at, timer))) = self.io.timers.peek() {
                    if at > now {
                        break;
                    }
                    self.io.timers.pop();
                    self.handle(Input::TimerFired { timer });
                }
            }
            // A bounded batch, not whatever keeps coming: a driver that
            // never pauses must not shut out the network.
            let mut commands = 0;
            while commands < PASS_BATCH {
                let Ok(cmd) = self.commands.try_recv() else {
                    break;
                };
                self.command(cmd);
                commands += 1;
            }
            // The pass's one wait is its first look at the network. It
            // only looks when commands may be queued that nothing will
            // wake it for: the rest of a batch cut off at `PASS_BATCH`,
            // whose wake may already be spent, or any command at all
            // over a transport that cannot be woken.
            let mut wait = if commands == PASS_BATCH || (commands > 0 && self.polled) {
                Duration::ZERO
            } else {
                self.wait()
            };
            for _ in 0..PASS_BATCH {
                let Some(env) = self.io.transport.recv_timeout(wait) else {
                    break;
                };
                self.message(env);
                wait = Duration::ZERO;
            }
        }
    }

    /// How long the site may block: until the earliest armed timer, and
    /// at most its idle park (or poll period, over a transport that has
    /// no [`Waker`]).
    fn wait(&self) -> Duration {
        let idle = if self.polled { IDLE_POLL } else { IDLE_PARK };
        self.io.timers.peek().map_or(idle, |Reverse((at, _))| {
            at.saturating_duration_since(Instant::now()).min(idle)
        })
    }

    fn message(&mut self, env: Envelope<Message>) {
        self.handle(Input::Msg {
            from: env.from,
            msg: env.msg,
        });
    }

    fn command(&mut self, cmd: Cmd) {
        match cmd {
            Cmd::App(req) => self.handle(Input::App(req)),
            Cmd::Stats(tx) => {
                let _ = tx.send(self.engine.stats);
            }
            Cmd::Control(op) => self.handle(Input::Control(op)),
            Cmd::Probe(tx) => {
                let _ = tx.send(observe_site(&self.engine, true));
            }
            Cmd::Restart => self.restart(),
        }
    }

    /// Rebuilds the engine in place through [`PeerServer::restart`]:
    /// ARIES restart recovery over the durable image (its wall time goes
    /// into `recovery_time`), or a cold start for a site with nothing
    /// durable to lose.
    fn restart(&mut self) {
        // A crashed process forgets its timers.
        self.io.timers.clear();
        let (cfg, owners) = (self.cfg.clone(), self.owners.clone());
        self.engine = restart_engine(&self.engine, cfg, owners, &mut self.io);
        self.engine.stats.faults_injected += 1;
    }

    /// Feeds `input` to the engine at the wall time since the cluster
    /// started.
    fn handle(&mut self, input: Input) {
        self.engine.drive(clock(self.start), input, &mut self.io);
    }
}

/// A cluster of peer servers, each on its own OS thread.
pub struct ThreadedCluster {
    sites: Vec<SiteHandle>,
    /// Time zero of every engine's clock.
    start: Instant,
    /// Per site. A std `Receiver` is not `Sync`; the lock is uncontended
    /// when one thread takes a site's replies, as it must (replies are
    /// not addressed to a thread).
    reply_rx: Vec<Mutex<mpsc::Receiver<AppReply>>>,
    shutdown: Arc<AtomicBool>,
    handles: Vec<JoinHandle<()>>,
}

impl ThreadedCluster {
    /// Spawns `n` peer servers on their own threads over in-process
    /// channels.
    pub fn new(n: u32, cfg: SystemConfig, owners: OwnerMap) -> Self {
        let sites: Vec<SiteId> = (0..n).map(SiteId).collect();
        // Bounded mailboxes sized from the config, with consistency
        // traffic (callbacks, commit decisions, rejoin) classified onto
        // the lossless priority lane (DESIGN.md §6).
        let net = InProcNetwork::<Message>::with_overload(
            &sites,
            3,
            cfg.mailbox_capacity as usize,
            Some(Arc::new(|m: &Message| m.is_consistency())),
        );
        Self::with_transports(
            cfg,
            owners,
            sites.iter().map(|s| (*s, net.endpoint(*s))).collect(),
        )
    }

    /// Spawns peer servers over real TCP sockets on localhost — the
    /// full deployment stack: engine + codec frames + kernel TCP.
    ///
    /// # Panics
    ///
    /// Panics if localhost listeners cannot be bound.
    pub fn new_tcp(n: u32, cfg: SystemConfig, owners: OwnerMap) -> Self {
        use std::net::{SocketAddr, TcpListener};
        let sites: Vec<SiteId> = (0..n).map(SiteId).collect();
        let addrs: Vec<SocketAddr> = sites
            .iter()
            .map(|_| {
                let l = TcpListener::bind("127.0.0.1:0").expect("bind");
                let a = l.local_addr().expect("addr");
                drop(l);
                a
            })
            .collect();
        let transports = sites
            .iter()
            .map(|&s| {
                let peers = sites
                    .iter()
                    .filter(|o| **o != s)
                    .map(|o| (*o, addrs[o.0 as usize]));
                let node = pscc_net::tcp::TcpNode::<Message>::start(s, addrs[s.0 as usize], peers)
                    .expect("tcp node");
                (s, node)
            })
            .collect();
        Self::with_transports(cfg, owners, transports)
    }

    /// Spawns the site threads over arbitrary transports.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`SystemConfig::validate`] — a
    /// cluster of real threads wedged by an un-admittable config is much
    /// harder to diagnose than an up-front refusal.
    pub fn with_transports<T: Transport<Message> + Send + 'static>(
        cfg: SystemConfig,
        owners: OwnerMap,
        transports: Vec<(SiteId, T)>,
    ) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid SystemConfig: {e}");
        }
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut sites = Vec::new();
        let mut reply_rx = Vec::new();
        let mut handles = Vec::new();
        let start = Instant::now();

        // Drivers are trusted not to flood, but the channels are bounded
        // anyway so a runaway workload blocks at submission instead of
        // growing memory without limit.
        let cmd_capacity = cfg.mailbox_capacity.max(1) as usize;
        for (id, transport) in transports {
            let (cmd_tx, commands) = mpsc::sync_channel::<Cmd>(cmd_capacity);
            let (replies, rrx) = mpsc::sync_channel::<AppReply>(cmd_capacity);
            let waker = transport.waker();
            reply_rx.push(Mutex::new(rrx));
            let site = Site {
                cfg: cfg.clone(),
                owners: owners.clone(),
                engine: PeerServer::new(id, cfg.clone(), owners.clone()),
                io: SiteIo {
                    transport,
                    timers: BinaryHeap::new(),
                    replies,
                },
                commands,
                start,
                polled: waker.is_none(),
            };
            sites.push(SiteHandle { cmd_tx, waker });
            let stop = Arc::clone(&shutdown);
            handles.push(std::thread::spawn(move || site.run(&stop)));
        }
        ThreadedCluster {
            sites,
            start,
            reply_rx,
            shutdown,
            handles,
        }
    }

    /// Submits an application request to `site` without waiting.
    pub fn submit(&self, site: SiteId, app: AppId, txn: Option<TxnId>, op: AppOp) {
        let _ = self.sites[site.0 as usize].send(Cmd::App(AppRequest { app, txn, op }));
    }

    /// Waits (up to 10 s wall time) for the next reply from `site`.
    ///
    /// A reply already queued is returned at once. Otherwise the caller
    /// first naps `REPLY_NAP` *without* registering as a waiter, looking
    /// at the queue again halfway, and only blocks on the channel if the
    /// nap did not produce the reply.
    /// Waking a blocked application thread costs the site thread that
    /// replies an inter-processor interrupt — an order of magnitude more
    /// CPU than the cache-hit read it answers — and a site that pays it
    /// for every hand-off saturates its CPU on waking applications. The
    /// nap moves that cost off the sites: they answer a batch of requests
    /// into the queue and park, and the application finds the replies
    /// when its own timer fires (DESIGN.md §12). The first call on a
    /// thread cuts that thread's timer slack to 1 µs, so the nap lasts
    /// what it asks for.
    ///
    /// # Errors
    ///
    /// [`PsccError::InvalidOperation`] on timeout.
    pub fn recv_reply(&self, site: SiteId) -> Result<AppReply, PsccError> {
        precise_naps();
        let replies = self.reply_rx[site.0 as usize]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        // The nap in two halves with a look between: a reply ready
        // within the first half is taken then, and the site still finds
        // nobody to wake for the whole of `REPLY_NAP`.
        for _ in 0..2 {
            if let Ok(reply) = replies.try_recv() {
                return Ok(reply);
            }
            std::thread::sleep(REPLY_NAP / 2);
        }
        replies
            .recv_timeout(Duration::from_secs(10))
            .map_err(|_| PsccError::InvalidOperation("threaded cluster reply timeout"))
    }

    /// Begins a transaction at `site`.
    ///
    /// # Errors
    ///
    /// Propagates reply timeouts.
    pub fn begin(&self, site: SiteId, app: AppId) -> Result<TxnId, PsccError> {
        self.submit(site, app, None, AppOp::Begin);
        loop {
            match self.recv_reply(site)? {
                AppReply::Started { txn, .. } => return Ok(txn),
                _ => continue, // stale replies from earlier aborts
            }
        }
    }

    /// Runs one op to completion (retrying the receive past unrelated
    /// replies).
    ///
    /// # Errors
    ///
    /// [`PsccError::Aborted`] when the transaction aborts instead.
    pub fn run_op(
        &self,
        site: SiteId,
        app: AppId,
        txn: TxnId,
        op: AppOp,
    ) -> Result<AppReply, PsccError> {
        self.submit(site, app, Some(txn), op);
        loop {
            match self.recv_reply(site)? {
                AppReply::Aborted { txn: t, reason, .. } if t == txn => {
                    return Err(PsccError::Aborted { txn: t, reason })
                }
                r @ (AppReply::Done { .. } | AppReply::Committed { .. }) => {
                    let matches_txn = match &r {
                        AppReply::Done { txn: t, .. } | AppReply::Committed { txn: t, .. } => {
                            *t == txn
                        }
                        _ => false,
                    };
                    if matches_txn {
                        return Ok(r);
                    }
                }
                _ => continue,
            }
        }
    }

    /// Hands a control op to `site`'s engine.
    pub fn send_control(&self, site: SiteId, op: ControlOp) {
        let _ = self.sites[site.0 as usize].send(Cmd::Control(op));
    }

    /// What the control plane observes of `site`.
    ///
    /// # Errors
    ///
    /// [`PsccError::InvalidOperation`] if the site thread is gone or
    /// does not answer within five seconds.
    pub fn probe(&self, site: SiteId) -> Result<ObservedSite, PsccError> {
        self.sites[site.0 as usize].probe()
    }

    /// A point-in-time [`ClusterView`] of every site that answers its
    /// probe, stamped with the wall time since the cluster started.
    pub fn observe(&self) -> ClusterView {
        view_of(&self.sites, self.start)
    }

    /// Reconciles the cluster to `manifest` from a supervisor thread:
    /// [`Supervisor::converge`] over the site threads' command channels,
    /// sleeping `poll` between ticks, for at most `budget` of wall time,
    /// while the cluster keeps serving. Joining the handle yields the
    /// outcome.
    ///
    /// A site here is never observed down (see [`StepKind::Stop`]), so
    /// a manifest row that asks for `DesiredState::Down` cannot
    /// converge.
    ///
    /// [`StepKind::Stop`]: pscc_control::StepKind::Stop
    ///
    /// # Errors
    ///
    /// Returns the manifest's validation error.
    pub fn spawn_converge(
        &self,
        manifest: ClusterManifest,
        poll: SimDuration,
        budget: SimDuration,
    ) -> Result<JoinHandle<Result<ConvergeReport, ConvergeError>>, ManifestError> {
        let mut sup = Supervisor::new(manifest)?;
        let mut remote = Remote {
            sites: self.sites.clone(),
            start: self.start,
        };
        Ok(std::thread::spawn(move || {
            sup.converge(&mut remote, poll, budget)
        }))
    }

    /// Sums the counters of every site.
    pub fn total_stats(&self) -> pscc_common::Counters {
        let mut total = pscc_common::Counters::default();
        for site in &self.sites {
            let (stx, srx) = mpsc::sync_channel(1);
            if site.send(Cmd::Stats(stx)).is_ok() {
                if let Ok(c) = srx.recv_timeout(Duration::from_secs(5)) {
                    total += c;
                }
            }
        }
        total
    }

    /// Stops all site threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        // Flag first, then wake, as with any command (pairs with the
        // Acquire load at the top of each site's pass).
        self.shutdown.store(true, Ordering::Release);
        for site in &self.sites {
            site.wake();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ThreadedCluster {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(target_os = "linux")]
    fn timer_slack_ns() -> std::ffi::c_ulong {
        // SAFETY: PR_GET_TIMERSLACK reads no argument and returns the
        // calling thread's slack.
        unsafe { slack::prctl(slack::PR_GET_TIMERSLACK) as std::ffi::c_ulong }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn recv_reply_makes_its_own_thread_nap_precisely() {
        use slack::NAP_SLACK_NS;
        // This thread never calls `recv_reply`, so what it spawns
        // inherits the slack it started with.
        let default = std::thread::spawn(timer_slack_ns).join().unwrap();
        assert_ne!(default, NAP_SLACK_NS);
        let cluster = ThreadedCluster::new(1, SystemConfig::small(), OwnerMap::Single(SiteId(0)));
        let after = std::thread::scope(|s| {
            s.spawn(|| {
                cluster.begin(SiteId(0), AppId(1)).expect("begin");
                timer_slack_ns()
            })
            .join()
            .unwrap()
        });
        assert_eq!(after, NAP_SLACK_NS);
        let fresh = std::thread::spawn(timer_slack_ns).join().unwrap();
        assert_eq!(fresh, default, "the slack leaked to another thread");
        cluster.shutdown();
    }

    /// Queues more commands than one pass takes behind a single wake of
    /// a parked site 0: the pass that the wake starts spends it, so only
    /// a site that looks again at once, rather than parking, answers the
    /// rest before its idle park runs out.
    fn a_cut_off_batch_is_finished_without_a_new_wake(cluster: ThreadedCluster) {
        const QUEUED: usize = PASS_BATCH + 8;
        let site = &cluster.sites[0];
        site.probe().expect("site answers");
        // Nothing left to do: give the site time to park.
        std::thread::sleep(Duration::from_millis(20));
        let (tx, answers) = mpsc::sync_channel(QUEUED);
        for _ in 0..QUEUED {
            site.cmd_tx
                .try_send(Cmd::Stats(tx.clone()))
                .expect("room in the command channel");
        }
        let t0 = Instant::now();
        site.wake();
        for n in 0..QUEUED {
            answers
                .recv_timeout(Duration::from_secs(5))
                .unwrap_or_else(|_| panic!("command {n} of {QUEUED} was not answered"));
        }
        let took = t0.elapsed();
        assert!(
            took < IDLE_PARK / 2,
            "{QUEUED} commands behind one wake took {took:?}"
        );
        cluster.shutdown();
    }

    #[test]
    fn a_cut_off_batch_is_finished_without_a_new_wake_inproc() {
        let cluster = ThreadedCluster::new(1, SystemConfig::small(), OwnerMap::Single(SiteId(0)));
        a_cut_off_batch_is_finished_without_a_new_wake(cluster);
    }

    #[test]
    fn a_cut_off_batch_is_finished_without_a_new_wake_over_tcp() {
        let cluster =
            ThreadedCluster::new_tcp(1, SystemConfig::small(), OwnerMap::Single(SiteId(0)));
        a_cut_off_batch_is_finished_without_a_new_wake(cluster);
    }
}
