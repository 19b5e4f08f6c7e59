//! A real multithreaded harness: one OS thread per peer server,
//! communicating over [`pscc_net::InProcNetwork`] with the production
//! path discipline, real-time timers, and immediate disks. This is the
//! deployment shape of paper Fig. 2 — preemptive sites with genuinely
//! concurrent message handling — and the strongest validation that the
//! engine's state machine is driven correctly from outside.
//!
//! Applications submit requests to a site and take its replies from a
//! per-site queue; everything else (timing, delivery order) is up to the
//! operating system's scheduler, so runs are *not* deterministic —
//! exactly the point.
//!
//! # Who drives the engine
//!
//! A site's engine sits behind one lock, and whoever has an input for it
//! drives it. An application's op runs on the application's own thread
//! ([`ThreadedCluster::submit`]) when no command of that site is queued,
//! the reply queue has room, and the site's transport can send from any
//! thread ([`Transport::sender`]); a cache hit then costs a lock and the
//! engine's own work, and its reply is queued before `submit` returns.
//! Otherwise the op is queued as a command for the site thread, as is
//! every other command. Three rules keep this equal to one thread
//! driving everything:
//!
//! * *Command FIFO.* An op goes inline only while no command of its site
//!   is queued; a command counts as queued until it has been handled. So
//!   an op never overtakes one queued before it.
//! * *Sends under the lock.* Every effect leaves while its thread holds
//!   the engine, sends through the transport or its sender into the same
//!   per-path FIFOs, so messages leave in engine order. A send the site
//!   thread batched is in that FIFO too: any later send on its path
//!   writes it first.
//! * *No stranded input.* The site thread never waits for the engine for
//!   a message or a timer: if the engine is held, it leaves the input in
//!   the site's inbox for the holder, then tries the lock once more. A
//!   holder drives the inbox before its own input and before it lets
//!   go, and looks at it again after it has let go.
//!
//! Over TCP too: an inline op writes its messages from the application's
//! thread through the node's sender, and the site thread batches its own
//! (below), which leaves the shared CPU of the site threads the headroom
//! the inline ops need (DESIGN.md §12).
//!
//! # The site loop
//!
//! A site thread blocks in exactly one place, its transport's
//! `recv_timeout`, and each of its three sources of work can end that
//! wait: a message by arriving, a timer by bounding the wait, a command
//! by its producer calling the transport's [`Waker`] *after* queueing it
//! (every producer goes through `SiteHandle::send`, and an inline op
//! that armed a timer wakes the site too). Each pass takes the timers
//! now due and a bounded batch of commands, then a bounded batch of
//! messages, so no source starves another. The pass's first look at the
//! network is its one wait, bounded by the next timer; the rest of the
//! batch only looks. That first look does not wait either when commands
//! may be queued that no wake will announce: the rest of a batch cut off
//! at its bound, or any command over a transport that cannot be woken.
//! Over TCP the wait is also where the site reads its own sockets.
//!
//! What the site thread sends goes through [`Transport::send_batched`],
//! which over TCP appends to its connection's buffer. The thread writes
//! the buffers ([`Transport::flush`]) before each wait it makes — for
//! the network, for room in a full reply queue, for an engine another
//! thread holds — and at the end of each pass: a pass's messages to one
//! connection cost one write, not one each. See DESIGN.md §12.
//!
//! Replies that the site thread makes go the other way with the
//! opposite policy: an application thread that finds none queued naps
//! briefly, on a timer made precise for it, before it lets a site pay
//! for waking it (see [`ThreadedCluster::recv_reply`]).

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
use pscc_net::{Envelope, InProcNetwork, PathId, Sender, Transport, Waker};
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError, TryLockError};
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

/// How long an op bound for the application's own thread spins for an
/// engine another thread holds before it blocks on the lock. A hold
/// lasts about one input, a few µs.
const ENGINE_SPIN: Duration = Duration::from_micros(20);

/// How long an application thread runs ops inline without sleeping
/// before it yields its CPU once. A thread that finds every reply
/// queued never naps, and without the yield it keeps a CPU it shares
/// with another application thread for a whole scheduler slice, while
/// that thread's replies from the site threads (a commit, a remote
/// read) wait to be taken.
const INLINE_SLICE: Duration = Duration::from_micros(10);

thread_local! {
    /// When this thread began its first inline op since it last slept
    /// or yielded.
    static INLINE_SINCE: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// Counts an inline op that began at `began` toward the calling
/// thread's [`INLINE_SLICE`], yielding once the slice is used up.
fn pace_inline(began: Instant) {
    match INLINE_SINCE.get() {
        None => INLINE_SINCE.set(Some(began)),
        Some(since) if since.elapsed() >= INLINE_SLICE => {
            INLINE_SINCE.set(None);
            std::thread::yield_now();
        }
        Some(_) => {}
    }
}

/// The calling thread slept: its inline slice starts over.
fn slept() {
    INLINE_SINCE.set(None);
}

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
            static DONE: Cell<bool> = const { Cell::new(false) };
        }
        if !DONE.replace(true) {
            // SAFETY: PR_SET_TIMERSLACK reads one unsigned long, the slack
            // in ns, and touches no memory of the caller's. A refusal
            // leaves the default slack, which only lengthens the nap.
            unsafe { slack::prctl(slack::PR_SET_TIMERSLACK, slack::NAP_SLACK_NS) };
        }
    }
}

/// The replies of one site's engine, in engine order, for the thread
/// that takes them.
///
/// A push never waits: replies are pushed under the engine lock, which
/// the thread that takes them may be waiting for, or hold itself (an
/// inline op answers into the queue its own thread drains). The bound is
/// kept where a wait is safe instead: an op goes inline only while the
/// queue has room, and the site thread waits for room before it drives
/// a queued op — as it used to wait on a full reply channel.
struct Replies {
    queue: Mutex<ReplyQueue>,
    /// A thread taking replies waits here for one.
    ready: Condvar,
    /// The site thread waits here for room.
    room: Condvar,
    capacity: usize,
}

struct ReplyQueue {
    replies: VecDeque<AppReply>,
    // Threads inside a condvar wait: a notify is a system call whether or
    // not anyone sleeps, so pushes and takes skip it when nobody does.
    parked_takers: usize,
    site_parked: bool,
}

impl Replies {
    fn new(capacity: usize) -> Self {
        Replies {
            queue: Mutex::new(ReplyQueue {
                replies: VecDeque::new(),
                parked_takers: 0,
                site_parked: false,
            }),
            ready: Condvar::new(),
            room: Condvar::new(),
            capacity,
        }
    }

    fn lock(&self) -> MutexGuard<'_, ReplyQueue> {
        // Every update is a single push, pop or flag change.
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn push(&self, reply: AppReply) {
        let parked = {
            let mut q = self.lock();
            q.replies.push_back(reply);
            q.parked_takers > 0
        };
        // After the unlock, so that the woken thread does not find the
        // lock still held.
        if parked {
            self.ready.notify_one();
        }
    }

    fn has_room(&self) -> bool {
        self.lock().replies.len() < self.capacity
    }

    fn pop(&self, q: &mut ReplyQueue) -> Option<AppReply> {
        let reply = q.replies.pop_front()?;
        if q.site_parked && q.replies.len() < self.capacity {
            self.room.notify_one();
        }
        Some(reply)
    }

    fn try_take(&self) -> Option<AppReply> {
        self.pop(&mut self.lock())
    }

    /// The next reply, waiting up to `timeout` for one.
    fn take_timeout(&self, timeout: Duration) -> Option<AppReply> {
        let deadline = Instant::now() + timeout;
        let mut q = self.lock();
        loop {
            if let Some(reply) = self.pop(&mut q) {
                return Some(reply);
            }
            let left = deadline.checked_duration_since(Instant::now())?;
            q.parked_takers += 1;
            q = self
                .ready
                .wait_timeout(q, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
            q.parked_takers -= 1;
        }
    }

    /// Returns once the queue has room, or `stop` is set.
    fn wait_room(&self, stop: &AtomicBool) {
        let mut q = self.lock();
        while q.replies.len() >= self.capacity && !stop.load(Ordering::Acquire) {
            q.site_parked = true;
            q = self
                .room
                .wait_timeout(q, IDLE_PARK)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
            q.site_parked = false;
        }
    }
}

/// What a site thread shares with the threads that submit to its site:
/// the engine, and what flows around it while a thread holds it.
struct Shared {
    engine: Mutex<PeerServer>,
    /// Messages and due timers the site thread found the engine held
    /// for, oldest first, for its holder to drive (see [`Shared::hold`]).
    inbox: Mutex<VecDeque<Input>>,
    /// Timers armed under the engine lock and not yet in the site
    /// thread's heap.
    armed: Mutex<Vec<(Instant, TimerId)>>,
    /// Commands queued and not yet handled.
    queued: AtomicUsize,
    replies: Replies,
    /// The cluster's time zero: the engine sees wall time elapsed since.
    start: Instant,
}

impl Shared {
    fn lock_engine(&self) -> MutexGuard<'_, PeerServer> {
        // An engine that panicked mid-input is in no state to go on; its
        // site dies, as a site thread that panicked used to.
        self.engine.lock().expect("an engine input panicked")
    }

    fn try_engine(&self) -> Option<MutexGuard<'_, PeerServer>> {
        match self.engine.try_lock() {
            Ok(engine) => Some(engine),
            Err(TryLockError::WouldBlock) => None,
            Err(TryLockError::Poisoned(_)) => panic!("an engine input panicked"),
        }
    }

    fn inbox(&self) -> MutexGuard<'_, VecDeque<Input>> {
        self.inbox
            .lock()
            .expect("a thread panicked holding the inbox")
    }

    fn armed(&self) -> MutexGuard<'_, Vec<(Instant, TimerId)>> {
        self.armed
            .lock()
            .expect("a thread panicked holding the armed timers")
    }

    /// The engine, for an application thread: spins up to
    /// [`ENGINE_SPIN`] while another thread holds it, then blocks.
    fn lock_engine_spinning(&self) -> MutexGuard<'_, PeerServer> {
        if let Some(engine) = self.try_engine() {
            return engine;
        }
        let until = Instant::now() + ENGINE_SPIN;
        while Instant::now() < until {
            std::hint::spin_loop();
            if let Some(engine) = self.try_engine() {
                return engine;
            }
        }
        self.lock_engine()
    }

    /// Drives what the inbox holds.
    fn drain(&self, engine: &mut PeerServer, io: &mut Io<'_>) {
        loop {
            let Some(input) = self.inbox().pop_front() else {
                return;
            };
            engine.drive(clock(self.start), input, io);
        }
    }

    /// Runs `f` on the held `engine` after the inputs left in the inbox,
    /// then lets go without stranding one: an input the site thread left
    /// after the last look found the lock held, and its own retry may
    /// have come before this unlock, so the holder looks again after it.
    fn hold<'s, R>(
        &'s self,
        mut engine: MutexGuard<'s, PeerServer>,
        io: &mut Io<'_>,
        f: impl FnOnce(&mut PeerServer, &mut Io<'_>) -> R,
    ) -> R {
        self.drain(&mut engine, io);
        let out = f(&mut engine, io);
        loop {
            self.drain(&mut engine, io);
            drop(engine);
            if self.inbox().is_empty() {
                return out;
            }
            // Whoever holds it now drains the inbox before letting go.
            let Some(again) = self.try_engine() else {
                return out;
            };
            engine = again;
        }
    }

    /// Hands `input` to the engine from the site thread, which never
    /// waits for it: driven at once if the engine is free, else left for
    /// its holder.
    fn offer(&self, input: Input, io: &mut Io<'_>) {
        if let Some(engine) = self.try_engine() {
            self.hold(engine, io, |e, io| e.drive(clock(self.start), input, io));
            return;
        }
        self.inbox().push_back(input);
        // The holder may have let go between the try and the push.
        if let Some(engine) = self.try_engine() {
            self.hold(engine, io, |_, _| {});
        }
    }
}

/// The submitting side of one site: its command channel, the waker
/// that makes the site look at it, and the engine it shares with the
/// site thread.
#[derive(Clone)]
struct SiteHandle {
    cmd_tx: mpsc::SyncSender<Cmd>,
    waker: Option<Waker>,
    /// The transport's sender, if it has one: the site's ops may then
    /// run on the submitting thread.
    sender: Option<Sender<Message>>,
    shared: Arc<Shared>,
}

impl SiteHandle {
    /// Queues `cmd`, then ends the site's wait. In that order: the site
    /// tests the wake flag under its mailbox lock before it sleeps, so
    /// it either sees the command on the pass in progress or is woken
    /// for the next.
    fn send(&self, cmd: Cmd) -> Result<(), PsccError> {
        self.queue(cmd)?;
        self.wake();
        Ok(())
    }

    /// Queues `cmd` without a wake. It counts as queued until the site
    /// thread has handled it.
    fn queue(&self, cmd: Cmd) -> Result<(), PsccError> {
        self.shared.queued.fetch_add(1, Ordering::SeqCst);
        self.cmd_tx.send(cmd).map_err(|_| {
            self.shared.queued.fetch_sub(1, Ordering::SeqCst);
            PsccError::InvalidOperation("site thread gone")
        })
    }

    fn wake(&self) {
        if let Some(w) = &self.waker {
            w.wake();
        }
    }

    /// Runs `req` on the calling thread if the rules of the module docs
    /// allow it, else queues it for the site thread.
    fn submit(&self, req: AppRequest) {
        let shared = &*self.shared;
        let Some(sender) = self
            .sender
            .as_ref()
            .filter(|_| shared.queued.load(Ordering::SeqCst) == 0 && shared.replies.has_room())
        else {
            let _ = self.send(Cmd::App(req));
            return;
        };
        let send = |to, path, msg| sender.send(to, path, msg);
        let mut io = Io::new(&send, shared);
        let began = Instant::now();
        let engine = shared.lock_engine_spinning();
        shared.hold(engine, &mut io, |e, io| {
            e.drive(clock(shared.start), Input::App(req), io);
        });
        if io.armed {
            // The site thread's wait may end after the new timer is due.
            self.wake();
        }
        pace_inline(began);
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

/// A site thread: what it alone owns, and what it shares with the
/// threads that submit to its site.
struct Site<T> {
    cfg: SystemConfig,
    owners: OwnerMap,
    shared: Arc<Shared>,
    transport: T,
    /// Armed timers, earliest first.
    timers: BinaryHeap<Reverse<(Instant, TimerId)>>,
    commands: mpsc::Receiver<Cmd>,
    /// Whether the transport has no [`Waker`], so that a command queued
    /// for the site is seen only when a wait runs out.
    polled: bool,
}

/// A site's [`Env`] while a thread holds its engine: sends are batched
/// through the transport on the site thread, and go out at once through
/// its [`Sender`] on any other; timers go to the site thread's heap;
/// replies to the applications' queue; disks complete at once (storage
/// is in memory).
struct Io<'a> {
    send: &'a dyn Fn(SiteId, PathId, Message),
    shared: &'a Shared,
    /// Whether a timer was armed during the hold.
    armed: bool,
}

impl<'a> Io<'a> {
    fn new(send: &'a dyn Fn(SiteId, PathId, Message), shared: &'a Shared) -> Self {
        Io {
            send,
            shared,
            armed: false,
        }
    }
}

impl Env for Io<'_> {
    fn send(&mut self, to: SiteId, msg: Message) {
        (self.send)(to, PathId(msg.path() as u8), msg);
    }
    fn disk(&mut self, _: DiskReqId, _: DiskOp) -> bool {
        true
    }
    fn arm_timer(&mut self, timer: TimerId, delay: pscc_common::SimDuration) {
        let at = Instant::now() + Duration::from_micros(delay.as_micros());
        // Under the engine lock, so that a restart, which clears the
        // list under it, forgets every timer of the engine it replaces.
        self.shared.armed().push((at, timer));
        self.armed = true;
    }
    fn reply(&mut self, reply: AppReply) {
        self.shared.replies.push(reply);
    }
}

impl<T: Transport<Message>> Site<T> {
    fn run(mut self, stop: &AtomicBool) {
        while !stop.load(Ordering::Acquire) {
            self.take_armed();
            // The clock is read only while a timer is armed.
            if !self.timers.is_empty() {
                let now = Instant::now();
                while let Some(&Reverse((at, timer))) = self.timers.peek() {
                    if at > now {
                        break;
                    }
                    self.timers.pop();
                    self.offer(Input::TimerFired { timer });
                }
            }
            // A bounded batch, not whatever keeps coming: a driver that
            // never pauses must not shut out the network.
            let mut commands = 0;
            while commands < PASS_BATCH {
                let Ok(cmd) = self.commands.try_recv() else {
                    break;
                };
                self.command(cmd, stop);
                self.shared.queued.fetch_sub(1, Ordering::SeqCst);
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
            // What the timers and commands sent goes out before the wait,
            // what the messages sent at the end of the pass.
            self.transport.flush();
            for _ in 0..PASS_BATCH {
                let Some(env) = self.transport.recv_timeout(wait) else {
                    break;
                };
                self.message(env);
                wait = Duration::ZERO;
            }
            self.transport.flush();
        }
    }

    /// Moves the timers armed since the last look into the heap.
    fn take_armed(&mut self) {
        let mut armed = self.shared.armed();
        self.timers.extend(armed.drain(..).map(Reverse));
    }

    /// How long the site may block: until the earliest armed timer, and
    /// at most its idle park (or poll period, over a transport that has
    /// no [`Waker`]).
    fn wait(&mut self) -> Duration {
        self.take_armed();
        let idle = if self.polled { IDLE_POLL } else { IDLE_PARK };
        self.timers.peek().map_or(idle, |Reverse((at, _))| {
            at.saturating_duration_since(Instant::now()).min(idle)
        })
    }

    fn message(&mut self, env: Envelope<Message>) {
        self.offer(Input::Msg {
            from: env.from,
            msg: env.msg,
        });
    }

    fn offer(&self, input: Input) {
        let send = |to, path, msg| self.transport.send_batched(to, path, msg);
        self.shared.offer(input, &mut Io::new(&send, &self.shared));
    }

    /// Runs `f` on the engine. If another thread holds it, writes what
    /// this thread batched, then waits for it.
    fn with_engine<R>(&self, f: impl FnOnce(&mut PeerServer, &mut Io<'_>) -> R) -> R {
        let send = |to, path, msg| self.transport.send_batched(to, path, msg);
        let shared = &*self.shared;
        let engine = shared.try_engine().unwrap_or_else(|| {
            self.transport.flush();
            shared.lock_engine()
        });
        shared.hold(engine, &mut Io::new(&send, shared), f)
    }

    fn command(&mut self, cmd: Cmd, stop: &AtomicBool) {
        let start = self.shared.start;
        match cmd {
            Cmd::App(req) => {
                if !self.shared.replies.has_room() {
                    self.transport.flush();
                    self.shared.replies.wait_room(stop);
                }
                self.with_engine(|e, io| e.drive(clock(start), Input::App(req), io));
            }
            Cmd::Stats(tx) => {
                let _ = tx.send(self.with_engine(|e, _| e.stats));
            }
            Cmd::Control(op) => {
                self.with_engine(|e, io| e.drive(clock(start), Input::Control(op), io));
            }
            Cmd::Probe(tx) => {
                let _ = tx.send(self.with_engine(|e, _| observe_site(e, true)));
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
        self.timers.clear();
        let (cfg, owners) = (self.cfg.clone(), self.owners.clone());
        self.with_engine(|engine, io| {
            io.shared.armed().clear();
            *engine = restart_engine(engine, cfg, owners, io);
            engine.stats.faults_injected += 1;
        });
    }
}

/// A cluster of peer servers, each on its own OS thread.
pub struct ThreadedCluster {
    sites: Vec<SiteHandle>,
    /// Time zero of every engine's clock.
    start: Instant,
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
        let mut handles = Vec::new();
        let start = Instant::now();

        // Callers are trusted not to flood, but commands and replies are
        // bounded anyway so a runaway workload blocks at submission
        // instead of growing memory without limit.
        let capacity = cfg.mailbox_capacity.max(1) as usize;
        for (id, transport) in transports {
            let (cmd_tx, commands) = mpsc::sync_channel::<Cmd>(capacity);
            let waker = transport.waker();
            let shared = Arc::new(Shared {
                engine: Mutex::new(PeerServer::new(id, cfg.clone(), owners.clone())),
                inbox: Mutex::new(VecDeque::new()),
                armed: Mutex::new(Vec::new()),
                queued: AtomicUsize::new(0),
                replies: Replies::new(capacity),
                start,
            });
            sites.push(SiteHandle {
                cmd_tx,
                waker: waker.clone(),
                sender: transport.sender(),
                shared: Arc::clone(&shared),
            });
            let site = Site {
                cfg: cfg.clone(),
                owners: owners.clone(),
                shared,
                transport,
                timers: BinaryHeap::new(),
                commands,
                polled: waker.is_none(),
            };
            let stop = Arc::clone(&shutdown);
            handles.push(std::thread::spawn(move || site.run(&stop)));
        }
        ThreadedCluster {
            sites,
            start,
            shutdown,
            handles,
        }
    }

    /// Submits an application request to `site`. Its reply is taken
    /// with [`Self::recv_reply`] or [`Self::try_reply`].
    ///
    /// The op runs on the calling thread when the site's engine can take
    /// it there (see the module docs): a cache hit's reply is then
    /// queued before this returns. Otherwise the op is queued for the
    /// site thread, and this returns without waiting.
    pub fn submit(&self, site: SiteId, app: AppId, txn: Option<TxnId>, op: AppOp) {
        self.sites[site.0 as usize].submit(AppRequest { app, txn, op });
    }

    /// The next reply from `site` if one is queued, without waiting.
    pub fn try_reply(&self, site: SiteId) -> Option<AppReply> {
        self.sites[site.0 as usize].shared.replies.try_take()
    }

    /// Waits (up to 10 s wall time) for the next reply from `site`.
    ///
    /// A reply already queued is returned at once: every reply of an op
    /// that ran on the calling thread, and whatever the site thread
    /// answered meanwhile. Otherwise the caller first naps `REPLY_NAP`
    /// *without* registering as a waiter, looking at the queue again
    /// halfway, and only blocks on the queue if the nap did not produce
    /// the reply.
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
        let replies = &self.sites[site.0 as usize].shared.replies;
        // The nap in two halves with a look between: a reply ready
        // within the first half is taken then, and the site still finds
        // nobody to wake for the whole of `REPLY_NAP`.
        for _ in 0..2 {
            if let Some(reply) = replies.try_take() {
                return Ok(reply);
            }
            std::thread::sleep(REPLY_NAP / 2);
            slept();
        }
        let reply = replies.take_timeout(Duration::from_secs(10));
        slept();
        reply.ok_or(PsccError::InvalidOperation(
            "threaded cluster reply timeout",
        ))
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
            site.queue(Cmd::Stats(tx.clone()))
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
