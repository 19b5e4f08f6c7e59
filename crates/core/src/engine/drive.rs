//! The one driver of every harness (DESIGN.md §12 "One driver").

use super::PeerServer;
use crate::msg::{AppReply, DiskOp, DiskReqId, Input, Message, Output, TimerId};
use crate::owner_map::OwnerMap;
use pscc_common::{SimDuration, SimTime, SiteId, SystemConfig};

/// Where a [`PeerServer`]'s effects go: the one thing harnesses differ in.
pub trait Env {
    /// Puts `msg` on the wire to `to`.
    fn send(&mut self, to: SiteId, msg: Message);
    /// Issues disk request `req`; `true` when it completed at once, and
    /// the driver feeds back its [`Input::DiskDone`] itself.
    fn disk(&mut self, req: DiskReqId, op: DiskOp) -> bool;
    /// Arms `timer` to fire [`Input::TimerFired`] after `delay`.
    fn arm_timer(&mut self, timer: TimerId, delay: SimDuration);
    /// Answers the application.
    fn reply(&mut self, reply: AppReply);
}

/// Stages every effect, disks included, for the simulation.
impl Env for Vec<Output> {
    fn send(&mut self, to: SiteId, msg: Message) {
        self.push(Output::Send { to, msg });
    }
    fn disk(&mut self, req: DiskReqId, op: DiskOp) -> bool {
        self.push(Output::Disk { req, op });
        false
    }
    fn arm_timer(&mut self, timer: TimerId, delay: SimDuration) {
        self.push(Output::ArmTimer { timer, delay });
    }
    fn reply(&mut self, reply: AppReply) {
        self.push(Output::App(reply));
    }
}

impl PeerServer {
    /// Handles one input event at virtual time `now`, handing its effects
    /// to `env` in the order the engine produced them; then feeds back,
    /// in issue order and at the same `now`, every disk `env` completed
    /// at once. Self-addressed messages are processed within the call
    /// (zero message cost — the peer-servers local fast path).
    pub fn drive(&mut self, now: SimTime, input: Input, env: &mut impl Env) {
        debug_assert!(now >= self.now, "time went backwards");
        self.now = now;
        self.obs.set_now(now);
        self.internal.push_back(input);
        self.run(env);
    }

    /// [`Self::drive`] into a fresh `Vec`: the effects of one input.
    pub fn handle(&mut self, now: SimTime, input: Input) -> Vec<Output> {
        let mut out = Vec::new();
        self.drive(now, input, &mut out);
        out
    }

    /// Runs the queued inputs through the engine's own (reused) buffer.
    pub(super) fn run(&mut self, env: &mut impl Env) {
        loop {
            while let Some(ev) = self.internal.pop_front() {
                self.dispatch(ev);
            }
            for o in self.out.drain(..) {
                match o {
                    Output::Send { to, msg } => env.send(to, msg),
                    Output::Disk { req, op } => {
                        if env.disk(req, op) {
                            self.completed.push_back(req);
                        }
                    }
                    Output::ArmTimer { timer, delay } => env.arm_timer(timer, delay),
                    Output::App(reply) => env.reply(reply),
                }
            }
            let Some(req) = self.completed.pop_front() else {
                return;
            };
            self.internal.push_back(Input::DiskDone { req });
        }
    }

    /// The engine that takes over after this one crashed: recovered from
    /// its crash image if it owns pages in the boot map `owners` or the
    /// image holds a checkpoint or log (migration made it an owner,
    /// DESIGN.md §10); otherwise a cold start, with nothing durable lost.
    pub fn restart(&self, cfg: SystemConfig, owners: OwnerMap, env: &mut impl Env) -> Self {
        let durable = self.crash_image();
        let owns_data = !owners.pages_of(self.site, cfg.database_pages).is_empty();
        if owns_data || durable.checkpoint.is_some() || !durable.log.is_empty() {
            Self::recover(self.site, cfg, owners, &durable, self.epoch, env)
        } else {
            Self::new(self.site, cfg, owners)
        }
    }
}
