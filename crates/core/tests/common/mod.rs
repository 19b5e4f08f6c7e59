//! A deterministic in-process cluster for engine integration tests:
//! seeded message delivery over `pscc_net::SeededNet` with the paper's
//! per-path FIFO semantics, a fixed-latency disk, and a virtual clock.
//!
//! Path discipline: each message is sent on the FIFO path its row of
//! the message table names (`Message::path`, DESIGN.md §14) — the same
//! assignment every other harness uses.
//!
//! Replies and callbacks ride different paths, so the callback and
//! deescalation races of paper §4.2.4 genuinely occur under adversarial
//! seeds.

use pscc_common::{AppId, SimDuration, SimTime, SiteId, SystemConfig, TxnId};
use pscc_core::{AppOp, AppReply, AppRequest, Input, Message, Output, OwnerMap, PeerServer};
use pscc_net::{PathId, SeededNet};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Sched {
    Disk(u32, pscc_core::DiskReqId),
    Timer(u32, pscc_core::TimerId),
}

/// The deterministic cluster.
pub struct Cluster {
    pub sites: Vec<PeerServer>,
    pub net: SeededNet<Message>,
    pub rng: StdRng,
    now: SimTime,
    sched: BinaryHeap<(Reverse<SimTime>, Sched)>,
    pub replies: Vec<(SiteId, AppReply)>,
    disk_latency: SimDuration,
}

#[allow(dead_code)]
impl Cluster {
    /// Builds `n` sites with the given config and ownership map.
    pub fn new(n: u32, cfg: SystemConfig, owners: OwnerMap, seed: u64) -> Self {
        let sites = (0..n)
            .map(|i| PeerServer::new(SiteId(i), cfg.clone(), owners.clone()))
            .collect();
        Cluster {
            sites,
            net: SeededNet::new(),
            rng: StdRng::seed_from_u64(seed),
            now: SimTime::ZERO,
            sched: BinaryHeap::new(),
            replies: Vec::new(),
            disk_latency: SimDuration::from_millis(1),
        }
    }

    pub fn now(&self) -> SimTime {
        self.now
    }

    fn run_outputs(&mut self, site: SiteId, outs: Vec<Output>) {
        for o in outs {
            match o {
                Output::Send { to, msg } => {
                    let path = PathId(msg.path() as u8);
                    self.net.send(site, to, path, msg);
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
    }

    /// Submits an application request.
    pub fn submit(&mut self, site: SiteId, app: AppId, txn: Option<TxnId>, op: AppOp) {
        let now = self.now;
        let outs = self.sites[site.0 as usize].handle(now, Input::App(AppRequest { app, txn, op }));
        self.run_outputs(site, outs);
    }

    /// Delivers one pending message (seeded choice) or, if none, the
    /// earliest scheduled disk/timer event. Returns `false` if idle.
    pub fn step(&mut self) -> bool {
        if let Some(env) = self.net.deliver_next(&mut self.rng) {
            let now = self.now;
            let outs = self.sites[env.to.0 as usize].handle(
                now,
                Input::Msg {
                    from: env.from,
                    msg: env.msg,
                },
            );
            self.run_outputs(env.to, outs);
            return true;
        }
        if let Some((Reverse(t), ev)) = self.sched.pop() {
            self.now = self.now.max(t);
            let now = self.now;
            match ev {
                Sched::Disk(s, req) => {
                    let outs = self.sites[s as usize].handle(now, Input::DiskDone { req });
                    self.run_outputs(SiteId(s), outs);
                }
                Sched::Timer(s, timer) => {
                    let outs = self.sites[s as usize].handle(now, Input::TimerFired { timer });
                    self.run_outputs(SiteId(s), outs);
                }
            }
            return true;
        }
        false
    }

    /// Runs until fully idle (bounded; panics on livelock). Timers that
    /// have not fired yet do not count as pending work unless nothing
    /// else remains and `drain_timers` is set.
    pub fn pump(&mut self) {
        for _ in 0..200_000 {
            // Stop early if only (harmless, unfired) timers remain.
            if self.net.is_empty() {
                let only_timers = self
                    .sched
                    .iter()
                    .all(|(_, e)| matches!(e, Sched::Timer(..)));
                if only_timers {
                    // Deliver disks first; timers would abort transactions.
                    return;
                }
            }
            if !self.step() {
                return;
            }
        }
        panic!("cluster did not quiesce");
    }

    /// Runs until idle, firing timers too (used by timeout tests).
    pub fn pump_with_timers(&mut self) {
        for _ in 0..200_000 {
            if !self.step() {
                return;
            }
        }
        panic!("cluster did not quiesce");
    }

    /// Takes all replies collected so far.
    pub fn take_replies(&mut self) -> Vec<(SiteId, AppReply)> {
        std::mem::take(&mut self.replies)
    }

    /// Begins a transaction at `site` and returns its id (pumps).
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

    /// Runs `op` for `txn` to completion; returns its terminal reply.
    ///
    /// # Panics
    ///
    /// Panics if the cluster quiesces without answering.
    pub fn run_op(&mut self, site: SiteId, app: AppId, txn: TxnId, op: AppOp) -> AppReply {
        self.submit(site, app, Some(txn), op);
        self.pump();
        self.find_reply(site, txn)
            .unwrap_or_else(|| panic!("no reply for {txn} at {site}"))
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

    /// Convenience: read an object, expecting success; returns its bytes.
    pub fn read(&mut self, site: SiteId, app: AppId, txn: TxnId, oid: pscc_common::Oid) -> Vec<u8> {
        match self.run_op(site, app, txn, AppOp::Read(oid)) {
            AppReply::Done { data: Some(d), .. } => d,
            other => panic!("read failed: {other:?}"),
        }
    }

    /// Convenience: synthesized write, expecting success.
    pub fn write(&mut self, site: SiteId, app: AppId, txn: TxnId, oid: pscc_common::Oid) {
        match self.run_op(site, app, txn, AppOp::Write { oid, bytes: None }) {
            AppReply::Done { .. } => {}
            other => panic!("write failed: {other:?}"),
        }
    }

    /// Convenience: commit, expecting success.
    pub fn commit(&mut self, site: SiteId, app: AppId, txn: TxnId) {
        match self.run_op(site, app, txn, AppOp::Commit) {
            AppReply::Committed { .. } => {}
            other => panic!("commit failed: {other:?}"),
        }
    }

    /// Sum of all sites' counters.
    pub fn total_stats(&self) -> pscc_common::Counters {
        pscc_common::Counters::total(self.sites.iter().map(|s| s.stats))
    }
}

/// The version counter a synthesized write bumps (first 8 bytes).
#[allow(dead_code)] // not every test binary sharing this module uses it
pub fn version_of(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[0..8].try_into().expect("8 bytes"))
}

/// Runs one site's outputs, routing sends back into the net, replies into
/// the reply log, and completing disk requests immediately (used by
/// staged-delivery tests where timing is irrelevant).
#[allow(dead_code)]
pub fn route(c: &mut Cluster, site: SiteId, outs: Vec<pscc_core::Output>) {
    for o in outs {
        match o {
            pscc_core::Output::Send { to, msg } => {
                let p = PathId(msg.path() as u8);
                c.net.send(site, to, p, msg);
            }
            pscc_core::Output::App(r) => c.replies.push((site, r)),
            pscc_core::Output::Disk { req, .. } => {
                let now = c.now();
                let outs2 =
                    c.sites[site.0 as usize].handle(now, pscc_core::Input::DiskDone { req });
                route(c, site, outs2);
            }
            pscc_core::Output::ArmTimer { .. } => {}
        }
    }
}

/// Drains one direction+path completely (per-path FIFO preserved) —
/// the staged-delivery instrument for reconstructing races.
#[allow(dead_code)]
pub fn drain(c: &mut Cluster, from: SiteId, to: SiteId, path: pscc_net::PathId) {
    while let Some(env) = c.net.deliver_from(from, to, path) {
        let now = c.now();
        let outs = c.sites[env.to.0 as usize].handle(
            now,
            pscc_core::Input::Msg {
                from: env.from,
                msg: env.msg,
            },
        );
        route(c, env.to, outs);
    }
}
