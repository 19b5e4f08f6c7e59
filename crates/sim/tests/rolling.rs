//! Control-plane integration tests (DESIGN.md §8): zero-downtime rolling
//! restart of every owner under live traffic, drain racing failures and
//! overload, and the declarative reconciler driving the deterministic
//! harness end to end.
//!
//! The headline schedule restarts **every** owner of a two-owner
//! partitioned database, one at a time, while clients keep committing
//! against whichever partition is up — asserting a commit-availability
//! floor per time window, that no committed work is lost across the
//! roll, and that the one-exclusive-copy invariant holds at every poll.
//!
//! Every schedule is reproducible from its seed; `CHAOS_SEED` perturbs
//! the interleaving in CI (`CHAOS_SEED=2 cargo test --test rolling`).

use pscc_common::hash::HashSet;
use pscc_common::{
    AppId, FileId, LockableId, Oid, PageId, Protocol, SimDuration, SiteId, SystemConfig, TxnId,
    VolId,
};
use pscc_control::{ClusterManifest, ControlStatus, SitePhase};
use pscc_core::{AppOp, AppReply, ControlOp, OwnerMap};
use pscc_obs::event::EventKind;
use pscc_obs::AvailabilityTimeline;
use pscc_sim::testkit::version_of;
use pscc_sim::Simulation;

const OWNER_A: SiteId = SiteId(0);
const OWNER_B: SiteId = SiteId(1);
const APP: AppId = AppId(0);

fn oid_on_page(page: u32, slot: u16) -> Oid {
    Oid::new(PageId::new(FileId::new(VolId(0), 0), page), slot)
}

/// An object on a page owned by `site` under the peer-partitioned map:
/// each owner stores its partition under its own volume id.
fn oid_owned_by(site: u32, page: u32, slot: u16) -> Oid {
    Oid::new(PageId::new(FileId::new(VolId(site), 0), page), slot)
}

/// Per-test base seed, perturbed by `CHAOS_SEED` from the environment
/// so CI can sweep schedules. Every assertion below is seed-independent;
/// only the interleaving varies.
fn seed(base: u64) -> u64 {
    let sweep = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0);
    base ^ sweep.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Failure-detection knobs tightened so rolls converge in a couple of
/// virtual seconds (production defaults are in `SystemConfig`).
fn rolling_cfg(proto: Protocol) -> SystemConfig {
    let mut cfg = SystemConfig::small();
    cfg.protocol = proto;
    cfg.leases_enabled = true;
    cfg.heartbeat_interval = SimDuration::from_millis(20);
    cfg.lease_duration = SimDuration::from_millis(100);
    cfg.callback_response_timeout = SimDuration::from_millis(200);
    cfg
}

/// At most one distinct transaction holds EX on `items` across the
/// surviving sites.
fn assert_one_ex_copy(c: &Simulation, items: &[LockableId]) {
    for item in items {
        let holders: HashSet<TxnId> = c
            .sites
            .iter()
            .filter(|s| !c.is_crashed(s.site()))
            .flat_map(|s| s.ex_holders(*item))
            .collect();
        assert!(
            holders.len() <= 1,
            "one-EX-copy violated on {item:?}: {holders:?}"
        );
    }
}

/// Commits one update transaction at `site` against `oid`, tolerating
/// the aborts of fencing/rejoin windows after an owner restart by
/// retrying with fresh transactions. Panics if the site stays wedged.
fn commit_update_with_retries(c: &mut Simulation, site: SiteId, oid: Oid) {
    for _ in 0..50 {
        let t = c.begin(site, APP);
        c.submit(site, APP, Some(t), AppOp::Write { oid, bytes: None });
        c.pump_for(SimDuration::from_millis(100));
        if matches!(c.find_reply(site, t), Some(AppReply::Done { .. })) {
            c.submit(site, APP, Some(t), AppOp::Commit);
            c.pump_for(SimDuration::from_millis(100));
            if matches!(c.find_reply(site, t), Some(AppReply::Committed { .. })) {
                return;
            }
        }
        // Clean up whatever state the attempt left before retrying.
        c.submit(site, APP, Some(t), AppOp::Abort);
        c.pump_for(SimDuration::from_millis(100));
        let _ = c.find_reply(site, t);
    }
    panic!("site {site} could not commit an update after 50 attempts");
}

/// A non-blocking closed-loop client: one update transaction at a time
/// against its private object (Begin → Write → Commit), restarted from
/// scratch on any abort. Progress is made one transition per poll, from
/// replies the harness collected since the previous poll.
struct LoopClient {
    site: SiteId,
    oid: Oid,
    state: ClientState,
    commits: u64,
    aborts: u64,
}

enum ClientState {
    Idle,
    Begun,
    Writing(TxnId),
    Committing(TxnId),
}

impl LoopClient {
    fn new(site: SiteId, oid: Oid) -> Self {
        LoopClient {
            site,
            oid,
            state: ClientState::Idle,
            commits: 0,
            aborts: 0,
        }
    }

    /// Advances the state machine using `inbox` (replies already taken
    /// from the cluster), submitting at most one follow-up operation.
    fn poll(
        &mut self,
        c: &mut Simulation,
        inbox: &mut Vec<(SiteId, AppReply)>,
        tl: &mut AvailabilityTimeline,
    ) {
        let mine = |s: &SiteId| *s == self.site;
        match self.state {
            ClientState::Idle => {
                c.submit(self.site, APP, None, AppOp::Begin);
                self.state = ClientState::Begun;
            }
            ClientState::Begun => {
                let pos = inbox
                    .iter()
                    .position(|(s, r)| mine(s) && matches!(r, AppReply::Started { .. }));
                if let Some(i) = pos {
                    let (_, reply) = inbox.remove(i);
                    let AppReply::Started { txn, .. } = reply else {
                        unreachable!()
                    };
                    c.submit(
                        self.site,
                        APP,
                        Some(txn),
                        AppOp::Write {
                            oid: self.oid,
                            bytes: None,
                        },
                    );
                    self.state = ClientState::Writing(txn);
                }
            }
            ClientState::Writing(txn) => {
                if let Some(i) = inbox.iter().position(|(s, r)| {
                    mine(s)
                        && matches!(r,
                            AppReply::Done { txn: t, .. } | AppReply::Aborted { txn: t, .. }
                                if *t == txn)
                }) {
                    let (_, reply) = inbox.remove(i);
                    match reply {
                        AppReply::Done { .. } => {
                            tl.record_attempt(c.now());
                            c.submit(self.site, APP, Some(txn), AppOp::Commit);
                            self.state = ClientState::Committing(txn);
                        }
                        _ => {
                            self.aborts += 1;
                            self.state = ClientState::Idle;
                        }
                    }
                }
            }
            ClientState::Committing(txn) => {
                if let Some(i) = inbox.iter().position(|(s, r)| {
                    mine(s)
                        && matches!(r,
                            AppReply::Committed { txn: t, .. } | AppReply::Aborted { txn: t, .. }
                                if *t == txn)
                }) {
                    let (_, reply) = inbox.remove(i);
                    match reply {
                        AppReply::Committed { .. } => {
                            tl.record_commit(c.now());
                            self.commits += 1;
                        }
                        _ => self.aborts += 1,
                    }
                    self.state = ClientState::Idle;
                }
            }
        }
    }
}

/// The headline schedule: two owners partition the database; two clients
/// commit update transactions in a closed loop, one per partition. A
/// rolling-restart manifest walks both owners (max_unavailable = 1)
/// while traffic keeps flowing. Asserts, per `WINDOW` of virtual time:
/// at least one commit (availability floor); afterwards: every committed
/// update is durable at its owner (zero lost work), both owner epochs
/// advanced, drains ran to completion, and one-EX-copy held at every
/// poll along the way.
fn rolling_restart_under_live_traffic(proto: Protocol, seed: u64) {
    let poll = SimDuration::from_millis(20);
    let window = SimDuration::from_millis(500);
    let budget = SimDuration::from_secs(30);

    let owners = OwnerMap::Ranges(vec![(0, 225, OWNER_A), (225, 450, OWNER_B)]);
    let mut c = Simulation::seeded(4, rolling_cfg(proto), owners, seed);
    let trace = c.sites[OWNER_A.0 as usize].enable_trace(8192);

    // One client per partition, each updating a private object.
    let xa = oid_owned_by(0, 10, 1);
    let xb = oid_owned_by(1, 300, 1);
    let mut clients = vec![
        LoopClient::new(SiteId(2), xa),
        LoopClient::new(SiteId(3), xb),
    ];
    let items = [LockableId::Object(xa), LockableId::Object(xb)];

    let mut tl = AvailabilityTimeline::new(c.now(), window);
    let mut inbox: Vec<(SiteId, AppReply)> = Vec::new();
    let started = c.now();
    let drive = |c: &mut Simulation,
                 clients: &mut Vec<LoopClient>,
                 inbox: &mut Vec<(SiteId, AppReply)>,
                 tl: &mut AvailabilityTimeline| {
        for cl in clients.iter_mut() {
            cl.poll(c, inbox, tl);
        }
        c.pump_for(poll);
        inbox.extend(c.take_replies());
        assert_one_ex_copy(c, &items);
    };

    // Warm-up: both partitions committing before the roll starts.
    while c.now().since(started) < SimDuration::from_secs(1) {
        drive(&mut c, &mut clients, &mut inbox, &mut tl);
    }
    assert!(
        clients.iter().all(|cl| cl.commits > 0),
        "both partitions must commit before the roll"
    );

    // Declare the goal: every owner restarted into a higher epoch.
    let view = c.observe();
    let current: Vec<(SiteId, u64)> = [OWNER_A, OWNER_B]
        .iter()
        .map(|&s| (s, view.get(s).expect("owner observed").epoch))
        .collect();
    let manifest = ClusterManifest::rolling_restart(&current, 1, SimDuration::from_secs(2));
    c.apply_manifest(manifest).expect("manifest validates");

    // Reconcile with traffic interleaved between ticks.
    let roll_started = c.now();
    loop {
        match c.converge_step() {
            ControlStatus::Converged => break,
            ControlStatus::Aborted { site, step } => {
                panic!("{proto}: roll aborted at {site} during {step:?}")
            }
            ControlStatus::InProgress => assert!(
                c.now().since(roll_started) < budget,
                "{proto}: roll did not converge within {budget}"
            ),
        }
        drive(&mut c, &mut clients, &mut inbox, &mut tl);
    }
    let roll_elapsed = c.now().since(roll_started);

    // Cool-down: keep committing after the roll, then let in-flight
    // transactions finish.
    let cooled = c.now();
    while c.now().since(cooled) < SimDuration::from_secs(1) {
        drive(&mut c, &mut clients, &mut inbox, &mut tl);
    }
    for _ in 0..200 {
        let idle = clients
            .iter()
            .all(|cl| matches!(cl.state, ClientState::Idle | ClientState::Begun));
        if idle {
            break;
        }
        drive(&mut c, &mut clients, &mut inbox, &mut tl);
    }
    // Retire the last open Begin of each client so the cluster can be
    // asserted quiescent.
    c.pump_for(SimDuration::from_millis(200));
    inbox.extend(c.take_replies());
    for cl in &mut clients {
        if matches!(cl.state, ClientState::Begun) {
            if let Some(i) = inbox
                .iter()
                .position(|(s, r)| *s == cl.site && matches!(r, AppReply::Started { .. }))
            {
                let (_, reply) = inbox.remove(i);
                let AppReply::Started { txn, .. } = reply else {
                    unreachable!()
                };
                c.submit(cl.site, APP, Some(txn), AppOp::Abort);
            }
            cl.state = ClientState::Idle;
        }
    }
    c.pump_for(SimDuration::from_millis(500));

    // Availability floor: every complete window saw at least one commit.
    let floor = tl
        .min_commits_per_window()
        .expect("run spans multiple windows");
    assert!(
        floor >= 1,
        "{proto}: commit availability fell to zero in some window \
         (roll took {roll_elapsed}): {}",
        tl.render()
    );

    // Zero committed work lost: each client's object version equals its
    // observed commit count, durable at the (restarted) owner.
    for cl in &clients {
        let owner = if cl.oid.page.page < 225 {
            OWNER_A
        } else {
            OWNER_B
        };
        let bytes = c.sites[owner.0 as usize]
            .volume()
            .read_object(cl.oid)
            .expect("object durable after the roll");
        assert_eq!(
            version_of(bytes),
            cl.commits,
            "{proto}: committed updates lost (or phantom) at {owner} \
             ({} aborts along the way)",
            cl.aborts
        );
        assert!(
            cl.commits > 0,
            "{proto}: client at {} never committed",
            cl.site
        );
    }

    // Both owners really were restarted: epochs advanced, drains ran.
    let after = c.observe();
    for (site, before_epoch) in &current {
        let o = after.get(*site).expect("owner observed");
        assert!(o.up, "{proto}: {site} not back up");
        assert_eq!(o.phase, SitePhase::Active, "{proto}: {site} stuck draining");
        assert!(
            o.epoch > *before_epoch,
            "{proto}: {site} epoch never advanced ({} -> {})",
            before_epoch,
            o.epoch
        );
    }
    // The drain lifecycle is observable in the owner's trace. (The
    // drain *counters* restart at zero with the recovered engine — the
    // trace handle keeps the events recorded before the restart.)
    let events: Vec<_> = trace.snapshot();
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, EventKind::DrainBegin { .. })),
        "{proto}: no drain_begin event traced"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, EventKind::DrainDone { .. })),
        "{proto}: no drain_done event traced"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, EventKind::ConvergeStep { .. })),
        "{proto}: no converge_step event traced"
    );
    c.assert_survivors_quiescent();
}

#[test]
fn rolling_restart_of_every_owner_under_live_traffic_ps() {
    rolling_restart_under_live_traffic(Protocol::Ps, seed(61));
}

#[test]
fn rolling_restart_of_every_owner_under_live_traffic_ps_oa() {
    rolling_restart_under_live_traffic(Protocol::PsOa, seed(61));
}

#[test]
fn rolling_restart_of_every_owner_under_live_traffic_ps_aa() {
    rolling_restart_under_live_traffic(Protocol::PsAa, seed(61));
}

/// Drain interrupted by a real crash: the owner dies after the reconciler
/// issues the drain (possibly mid-drain). The reconciler must re-plan to
/// the restart path and still converge; committed work survives and the
/// one-EX-copy invariant holds.
fn crash_while_draining(proto: Protocol, seed: u64) {
    let mut c = Simulation::seeded(3, rolling_cfg(proto), OwnerMap::Single(OWNER_A), seed);
    let x = oid_on_page(5, 1);

    let t = c.begin(SiteId(1), APP);
    c.write(SiteId(1), APP, t, x, None).unwrap();
    c.commit(SiteId(1), APP, t).unwrap();

    let epoch0 = c.observe().get(OWNER_A).unwrap().epoch;
    let manifest =
        ClusterManifest::rolling_restart(&[(OWNER_A, epoch0)], 1, SimDuration::from_secs(2));
    c.apply_manifest(manifest).unwrap();

    // First tick issues the Drain; crash before it can finish.
    let status = c.converge_step();
    assert_eq!(status, ControlStatus::InProgress);
    c.crash_site(OWNER_A);

    let report = c
        .converge(SimDuration::from_millis(20), SimDuration::from_secs(30))
        .expect("crash-while-draining must still converge");
    assert!(report.steps >= 1);

    let after = *c.observe().get(OWNER_A).unwrap();
    assert!(
        after.up && after.epoch > epoch0,
        "owner must rejoin: {after:?}"
    );
    assert_eq!(after.phase, SitePhase::Active);

    // Committed work from before the crash survived it, durably at the
    // restarted owner.
    assert_eq!(
        version_of(
            c.sites[OWNER_A.0 as usize]
                .volume()
                .read_object(x)
                .expect("object durable")
        ),
        1,
        "{proto}: committed write lost across crash-while-draining"
    );
    // And the cluster is live again: a fresh update commits (tolerating
    // the rejoin window).
    commit_update_with_retries(&mut c, SiteId(2), x);
    assert_one_ex_copy(&c, &[LockableId::Object(x)]);
    c.pump_for(SimDuration::from_millis(500));
    c.assert_survivors_quiescent();
}

#[test]
fn crash_while_draining_still_converges_ps() {
    crash_while_draining(Protocol::Ps, seed(67));
}

#[test]
fn crash_while_draining_still_converges_ps_aa() {
    crash_while_draining(Protocol::PsAa, seed(67));
}

/// Drain racing a `Busy` storm: the owner's admission queue is saturated
/// by a thundering herd (tiny admission cap) when the drain arrives. The
/// drain must win — shed the herd, retire in-flight work, complete the
/// roll — and the herd's retries must sort themselves out afterwards.
#[test]
fn drain_races_a_busy_storm() {
    let mut cfg = rolling_cfg(Protocol::PsAa);
    cfg.admission_cap = 2;
    cfg.fetch_credits = 1;
    let mut c = Simulation::seeded(3, cfg, OwnerMap::Single(OWNER_A), seed(71));
    let trace = c.sites[OWNER_A.0 as usize].enable_trace(8192);

    // Fire a herd of writes at distinct pages from both clients, without
    // pumping any to completion: the owner sheds most of them with Busy.
    let mut txns = Vec::new();
    for (i, site) in [
        SiteId(1),
        SiteId(2),
        SiteId(1),
        SiteId(2),
        SiteId(1),
        SiteId(2),
    ]
    .into_iter()
    .enumerate()
    {
        let t = c.begin(site, APP);
        c.submit(
            site,
            APP,
            Some(t),
            AppOp::Write {
                oid: oid_on_page(20 + i as u32, 1),
                bytes: None,
            },
        );
        txns.push((site, t));
    }

    // Drain lands mid-storm.
    let epoch0 = c.observe().get(OWNER_A).unwrap().epoch;
    let manifest =
        ClusterManifest::rolling_restart(&[(OWNER_A, epoch0)], 1, SimDuration::from_secs(5));
    c.apply_manifest(manifest).unwrap();
    c.converge(SimDuration::from_millis(20), SimDuration::from_secs(60))
        .expect("drain must win against the herd");

    let after = *c.observe().get(OWNER_A).unwrap();
    assert!(after.up && after.epoch > epoch0);

    // Let the herd's Busy retries settle against the restarted owner,
    // then retire every herd transaction (commit or abort, nothing
    // wedged) by aborting whatever is still open.
    c.pump_for(SimDuration::from_secs(2));
    for (site, t) in txns {
        c.submit(site, APP, Some(t), AppOp::Abort);
        c.pump_for(SimDuration::from_millis(100));
        let _ = c.find_reply(site, t);
    }

    // The storm really was shed at the owner (events recorded before
    // the restart survive in the trace handle), and the clients really
    // retried.
    let events = trace.snapshot();
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, EventKind::RequestShed { .. })),
        "storm never shed at the owner"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, EventKind::DrainDone { .. })),
        "drain never completed at the owner"
    );
    let total = c.total_stats();
    assert!(total.busy_retries > 0, "herd never retried: {total}");

    // Fresh work commits: the drain/restart left no wedge behind.
    commit_update_with_retries(&mut c, SiteId(1), oid_on_page(40, 1));
    commit_update_with_retries(&mut c, SiteId(2), oid_on_page(41, 1));
    assert_one_ex_copy(
        &c,
        &[
            LockableId::Object(oid_on_page(40, 1)),
            LockableId::Object(oid_on_page(41, 1)),
        ],
    );
    c.pump_for(SimDuration::from_millis(500));
    c.assert_survivors_quiescent();
}

/// The drain protocol in place, no restart: admission closes and new
/// work is shed with `Busy`, the WAL is forced, the lifecycle shows in
/// phase + counters, a repeated drain changes nothing, and undrain
/// reopens the site — after which the shed write's retry goes through.
#[test]
fn drain_in_place_closes_admission_and_undrain_reopens() {
    let mut c = Simulation::seeded(
        3,
        rolling_cfg(Protocol::PsAa),
        OwnerMap::Single(OWNER_A),
        seed(79),
    );
    let x = oid_on_page(3, 1);
    commit_update_with_retries(&mut c, SiteId(1), x);

    c.send_control(OWNER_A, ControlOp::Drain);
    c.pump_for(SimDuration::from_millis(500));
    assert_eq!(
        c.observe().get(OWNER_A).unwrap().phase,
        SitePhase::Drained,
        "owner must reach Drained"
    );
    // A repeated drain finds the site drained and starts nothing.
    c.send_control(OWNER_A, ControlOp::Drain);
    c.pump_for(SimDuration::from_millis(100));
    assert_eq!(c.observe().get(OWNER_A).unwrap().phase, SitePhase::Drained);
    let total = c.total_stats();
    assert_eq!(total.drains_started, 1, "drain not counted once: {total}");
    assert_eq!(
        total.drains_completed, 1,
        "drain not completed once: {total}"
    );

    // A drained owner refuses new data requests...
    let t = c.begin(SiteId(2), APP);
    c.submit(
        SiteId(2),
        APP,
        Some(t),
        AppOp::Write {
            oid: oid_on_page(7, 1),
            bytes: None,
        },
    );
    c.pump_for(SimDuration::from_millis(100));
    assert!(
        c.find_reply(SiteId(2), t).is_none(),
        "write must be shed while the owner is drained"
    );

    // ...until undrained, at which point the backoff retry goes through.
    c.send_control(OWNER_A, ControlOp::Undrain);
    c.pump_for(SimDuration::from_secs(5));
    assert_eq!(c.observe().get(OWNER_A).unwrap().phase, SitePhase::Active);
    match c.find_reply(SiteId(2), t) {
        Some(AppReply::Done { .. }) => {
            c.submit(SiteId(2), APP, Some(t), AppOp::Commit);
            c.pump_for(SimDuration::from_millis(200));
            assert!(
                matches!(c.find_reply(SiteId(2), t), Some(AppReply::Committed { .. })),
                "retried write must commit after undrain"
            );
        }
        other => panic!("shed write never completed after undrain: {other:?}"),
    }
    assert!(c.total_stats().busy_retries >= 1);
    c.pump_for(SimDuration::from_millis(500));
    c.assert_survivors_quiescent();
}

/// A freshly restarted owner is drainable before any peer has rejoined:
/// a control op is not a message, so the epoch fence never sees it.
/// Without peer traffic the restarted owner reaches `Drained` having
/// sent nothing — in particular no `RejoinRequired` — and undrain
/// reopens it to the peers that then rejoin.
#[test]
fn restarted_owner_drains_before_any_peer_rejoins() {
    let cfg = SystemConfig {
        // No heartbeats: nothing reaches the owner unless a test sends it.
        leases_enabled: false,
        ..rolling_cfg(Protocol::PsAa)
    };
    let mut c = Simulation::seeded(3, cfg, OwnerMap::Single(OWNER_A), seed(83));
    let x = oid_on_page(3, 1);
    commit_update_with_retries(&mut c, SiteId(1), x);
    let epoch = c.observe().get(OWNER_A).unwrap().epoch;

    c.crash_site(OWNER_A);
    c.restart_site(OWNER_A);
    assert!(
        c.observe().get(OWNER_A).unwrap().epoch > epoch,
        "no recovery ran"
    );
    assert_eq!(c.in_flight(), 0, "the restart itself sent something");
    let sent = c.sites[OWNER_A.0 as usize].stats.msgs_sent;

    c.send_control(OWNER_A, ControlOp::Drain);
    c.pump();
    assert_eq!(
        c.observe().get(OWNER_A).unwrap().phase,
        SitePhase::Drained,
        "restarted owner must reach Drained"
    );
    assert_eq!(
        c.sites[OWNER_A.0 as usize].stats.msgs_sent, sent,
        "the drain sent a message (a RejoinRequired?)"
    );
    assert_eq!(c.in_flight(), 0);

    c.send_control(OWNER_A, ControlOp::Undrain);
    assert_eq!(c.observe().get(OWNER_A).unwrap().phase, SitePhase::Active);
    // The peers rejoin on their next request and the owner serves it.
    commit_update_with_retries(&mut c, SiteId(1), x);
    commit_update_with_retries(&mut c, SiteId(2), oid_on_page(4, 1));
    c.pump_for(SimDuration::from_millis(500));
    c.assert_survivors_quiescent();
}

/// Satellite: the assert-style crash/restart APIs now have fallible
/// twins that report illegal transitions instead of panicking.
#[test]
fn try_crash_and_restart_report_illegal_transitions() {
    let mut c = Simulation::seeded(
        3,
        rolling_cfg(Protocol::PsAa),
        OwnerMap::Single(OWNER_A),
        seed(73),
    );
    assert!(c.try_restart_site(SiteId(1)).is_err(), "not crashed yet");
    assert!(c.try_crash_site(SiteId(9)).is_err(), "no such site");
    assert!(c.try_restart_site(SiteId(9)).is_err(), "no such site");
    c.try_crash_site(SiteId(1)).expect("first crash is legal");
    assert!(c.try_crash_site(SiteId(1)).is_err(), "already crashed");
    c.try_restart_site(SiteId(1)).expect("restart is legal");
    assert!(c.try_restart_site(SiteId(1)).is_err(), "already running");
}

/// Satellite: configs with latent deadlocks are refused at harness
/// construction, not discovered as a wedged cluster.
#[test]
#[should_panic(expected = "invalid SystemConfig")]
fn zero_admission_cap_is_rejected_at_construction() {
    let mut cfg = SystemConfig::small();
    cfg.admission_cap = 0;
    let _ = Simulation::seeded(3, cfg, OwnerMap::Single(OWNER_A), 0);
}
