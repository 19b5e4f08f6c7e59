//! Seeded server-crash recovery schedules: the owner dies mid-commit,
//! between prepare and decide, and right after a checkpoint, then
//! restarts through ARIES-style analysis/redo/undo over the durable
//! image its WAL left behind. Each schedule asserts the acceptance
//! properties of the recovery subsystem:
//!
//! * committed updates survive the restart (repeat history via redo),
//! * uncommitted updates are rolled back (loser undo, or unforced-tail
//!   loss for records that never reached the log disk),
//! * in-doubt prepared transactions resolve the same way at every
//!   surviving participant (`QueryTxn` / presumed abort),
//! * the epoch fence keeps a client holding a stale exclusive copy from
//!   committing it after the bump — the one-exclusive-copy invariant
//!   holds across recovery (paper §4.2.4's "only one exclusive copy").
//!
//! Every schedule is reproducible from its seed; `CHAOS_SEED` perturbs
//! the interleaving exactly as in `chaos.rs`, and CI sweeps it.

use pscc_common::hash::HashSet;
use pscc_common::{
    AppId, FileId, LockableId, Oid, PageId, Protocol, SimDuration, SiteId, SystemConfig, TxnId,
    VolId,
};
use pscc_core::{AppOp, AppReply, OwnerMap};
use pscc_obs::Histogram;
use pscc_sim::chaos::FaultPlan;
use pscc_sim::testkit::version_of;
use pscc_sim::Simulation;

const OWNER: SiteId = SiteId(0);
const A: SiteId = SiteId(1);
const B: SiteId = SiteId(2);
const APP: AppId = AppId(0);

fn oid_on_page(page: u32, slot: u16) -> Oid {
    Oid::new(PageId::new(FileId::new(VolId(0), 0), page), slot)
}

/// An object on a page owned by `site` under the peer-partitioned map.
/// Each owner's volume stores its partition under its own volume id, so
/// pages of site 1 are addressed as `VolId(1)` (see `create_partition`).
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

/// Failure-detection knobs tightened so crash schedules converge in a
/// couple of virtual seconds.
fn recovery_cfg(proto: Protocol) -> SystemConfig {
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

/// Ensures `site` is admitted under the server's current epoch. If the
/// handshake has not run yet, the first request is refused with
/// `RejoinRequired` and sacrifices the transaction that carried it; if a
/// nudge already completed the handshake (outcome-query traffic passes
/// the fence and triggers it), requests just flow.
fn complete_rejoin(c: &mut Simulation, site: SiteId, scratch: Oid) {
    let t = c.begin(site, APP);
    match c.write(site, APP, t, scratch, None) {
        Ok(_) => {
            c.commit(site, APP, t).unwrap();
        }
        Err(_) => c.pump(),
    }
}

/// The tentpole schedule. The owner crashes while applying a multi-page
/// commit whose first records were already made durable by a concurrent
/// transaction's log force — so restart recovery must redo the
/// committed transactions, recognize the half-applied one as a loser,
/// and undo its durable records.
fn owner_crash_mid_commit(proto: Protocol, base_seed: u64) {
    let mut cfg = recovery_cfg(proto);
    // Shrink the owner-role buffer so commit-apply has to fault pages
    // back in from disk — those suspension windows are what this
    // schedule crashes into.
    cfg.server_buf_frac = 0.01;
    cfg.peer_buf_frac = 0.01;
    let mut c = Simulation::seeded(3, cfg, OwnerMap::Single(OWNER), seed(base_seed));
    let x = oid_on_page(3, 1);
    let ys: Vec<Oid> = (0..10).map(|i| oid_on_page(100 + 10 * i, 1)).collect();

    // A commits x — the update the redo pass must preserve.
    let t0 = c.begin(A, APP);
    c.write(A, APP, t0, x, None).unwrap();
    c.commit(A, APP, t0).unwrap();

    // B stages updates on ten cold pages; A stages a second update on x.
    // Both are staged *before* either commit is submitted — once tb's
    // commit is in flight, any helper that pumps the whole cluster would
    // let it finish, so from here on the schedule steps by hand.
    let tb = c.begin(B, APP);
    for &y in &ys {
        c.write(B, APP, tb, y, None).unwrap();
    }
    let ta = c.begin(A, APP);
    c.write(A, APP, ta, x, None).unwrap();

    // B starts committing; the owner's apply suspends on a disk read
    // between records.
    c.submit(B, APP, Some(tb), AppOp::Commit);
    while version_of(c.sites[0].volume().read_object(ys[0]).unwrap()) == 0 {
        assert!(c.step(), "owner never began applying tb's records");
    }

    // A commits while tb is suspended mid-apply: A's log force makes
    // tb's first records durable without a commit record. ta needs far
    // fewer disk reads than tb's ten cold pages, so it becomes durable
    // first — and the owner crashes at that exact instant, before the
    // `CommitOk` can leave for A.
    c.submit(A, APP, Some(ta), AppOp::Commit);
    while !c.sites[0].txn_committed_durably(ta) {
        assert!(c.step(), "ta never became durable at the owner");
    }
    assert!(
        !c.sites[0].txn_committed_durably(tb),
        "tb finalized before the crash point"
    );

    c.crash_site(OWNER);
    c.pump_for(SimDuration::from_secs(1)); // A and B declare the owner dead
    c.restart_site(OWNER);

    // Redo kept both of A's commits; analysis classified tb as a loser
    // and undo rolled its durable records back.
    assert_eq!(c.sites[0].epoch(), 2);
    assert_eq!(c.sites[0].stats.epoch_bumps, 1);
    assert!(c.sites[0].stats.recovery_redo_records >= 1);
    assert!(
        c.sites[0].stats.recovery_undo_records >= 1,
        "tb's durable records must be undone"
    );
    assert_eq!(version_of(c.sites[0].volume().read_object(x).unwrap()), 2);
    for &y in &ys {
        assert_eq!(
            version_of(c.sites[0].volume().read_object(y).unwrap()),
            0,
            "uncommitted update on {y} survived the restart"
        );
    }

    // B's rejoin handshake resolves its in-doubt commit to an abort
    // (the owner's recovered log has no commit record for tb), and A's
    // resolves to the commit whose `CommitOk` the crash swallowed.
    complete_rejoin(&mut c, B, oid_on_page(420, 1));
    assert!(
        matches!(c.find_reply(B, tb), Some(AppReply::Aborted { .. })),
        "tb must resolve to an abort at its home"
    );
    complete_rejoin(&mut c, A, oid_on_page(421, 1));
    assert!(
        matches!(c.find_reply(A, ta), Some(AppReply::Committed { .. })),
        "ta must resolve to the durable commit at its home"
    );

    // Fresh work flows: B re-runs its update, A re-fetches x lazily
    // (its cached copy was purged during the handshake).
    let tb2 = c.begin(B, APP);
    c.write(B, APP, tb2, ys[0], None).unwrap();
    c.commit(B, APP, tb2).unwrap();
    assert_eq!(
        version_of(c.sites[0].volume().read_object(ys[0]).unwrap()),
        1
    );
    let ta2 = c.begin(A, APP);
    assert_eq!(version_of(&c.read(A, APP, ta2, x).unwrap()), 2);
    c.commit(A, APP, ta2).unwrap();
    assert_one_ex_copy(&c, &[LockableId::Object(x), LockableId::Object(ys[0])]);
    c.pump_for(SimDuration::from_millis(500));
    c.assert_survivors_quiescent();
}

#[test]
fn owner_crash_mid_commit_ps() {
    owner_crash_mid_commit(Protocol::Ps, 61);
}

#[test]
fn owner_crash_mid_commit_ps_oa() {
    owner_crash_mid_commit(Protocol::PsOa, 62);
}

#[test]
fn owner_crash_mid_commit_ps_aa() {
    owner_crash_mid_commit(Protocol::PsAa, 63);
}

/// A participant owner crashes between forcing its prepare record and
/// receiving the decision. Restart recovery re-registers the in-doubt
/// transaction (records, locks, prepared flag) and queries the
/// coordinator, which resends its commit decision — so the in-doubt
/// half commits, matching the other participant.
fn prepared_in_doubt_commits_after_restart(proto: Protocol, base_seed: u64) {
    let owners = OwnerMap::Ranges(vec![(0, 225, SiteId(0)), (225, 450, SiteId(1))]);
    let mut c = Simulation::seeded(3, recovery_cfg(proto), owners, seed(base_seed));
    let s0 = SiteId(0);
    let home = SiteId(2);
    let ox = oid_on_page(3, 1); // owned by site 0
    let oy = oid_owned_by(1, 300, 1); // owned by site 1

    let t = c.begin(home, APP);
    c.write(home, APP, t, ox, None).unwrap();
    c.write(home, APP, t, oy, None).unwrap();
    c.submit(home, APP, Some(t), AppOp::Commit);
    // Step until the coordinator has both yes-votes — the commit
    // decision is on the wire at this instant — then crash site 0
    // before it can process its copy of the decision.
    while !c.sites[home.0 as usize].txn_all_votes_in(t) {
        assert!(c.step(), "coordinator never collected both votes");
    }
    assert!(c.sites[0].txn_prepared(t), "site 0 voted without preparing");

    // Site 0 crashes with the transaction in doubt: it voted yes, but
    // the decision addressed to it is lost with the crash.
    c.crash_site(s0);
    c.pump_for(SimDuration::from_secs(1));
    assert_eq!(version_of(c.sites[1].volume().read_object(oy).unwrap()), 1);

    c.restart_site(s0);
    c.pump_for(SimDuration::from_secs(1));
    assert!(
        matches!(c.find_reply(home, t), Some(AppReply::Committed { .. })),
        "coordinator must finish the commit once the in-doubt participant resolves"
    );
    assert_eq!(
        version_of(c.sites[0].volume().read_object(ox).unwrap()),
        1,
        "in-doubt half must commit to match the other participant"
    );
    assert_eq!(c.sites[0].epoch(), 2);

    // The home re-fences, rejoins, and distributed commits flow again.
    complete_rejoin(&mut c, home, oid_on_page(200, 1));
    let t2 = c.begin(home, APP);
    c.write(home, APP, t2, ox, None).unwrap();
    c.write(home, APP, t2, oy, None).unwrap();
    c.commit(home, APP, t2).unwrap();
    assert_eq!(version_of(c.sites[0].volume().read_object(ox).unwrap()), 2);
    assert_eq!(version_of(c.sites[1].volume().read_object(oy).unwrap()), 2);
    assert_one_ex_copy(&c, &[LockableId::Object(ox), LockableId::Object(oy)]);
    c.pump_for(SimDuration::from_millis(500));
    c.assert_survivors_quiescent();
}

#[test]
fn prepared_in_doubt_commits_after_restart_ps() {
    prepared_in_doubt_commits_after_restart(Protocol::Ps, 71);
}

#[test]
fn prepared_in_doubt_commits_after_restart_ps_aa() {
    prepared_in_doubt_commits_after_restart(Protocol::PsAa, 73);
}

/// The *home* of a distributed transaction crashes after both owners
/// prepared. The owners keep the transaction in doubt (2PC safety: no
/// presumed abort of a prepared transaction at orphan cleanup), and
/// when the reborn home rejoins, each owner's outcome query hits a
/// coordinator that has forgotten the transaction — presumed abort —
/// so both halves roll back consistently.
#[test]
fn prepared_in_doubt_aborts_when_coordinator_forgot() {
    let owners = OwnerMap::Ranges(vec![(0, 225, SiteId(0)), (225, 450, SiteId(1))]);
    let mut c = Simulation::seeded(3, recovery_cfg(Protocol::PsAa), owners, seed(79));
    let home = SiteId(2);
    let ox = oid_on_page(3, 1);
    let oy = oid_owned_by(1, 300, 1);

    let t = c.begin(home, APP);
    c.write(home, APP, t, ox, None).unwrap();
    c.write(home, APP, t, oy, None).unwrap();
    c.submit(home, APP, Some(t), AppOp::Commit);
    while !c.sites[1].txn_prepared(t) {
        assert!(c.step(), "site 1 never prepared");
    }

    // The home crashes before collecting the votes. Both owners hold
    // prepared state they must not unilaterally abort.
    c.crash_site(home);
    c.pump_for(SimDuration::from_secs(1));
    assert!(
        c.sites[1].txn_prepared(t),
        "orphan cleanup must keep prepared transactions in doubt"
    );

    // The home restarts with empty volatile state; each owner's rejoin
    // handshake queries the forgotten outcome and presumed abort rolls
    // the prepared halves back.
    c.restart_site(home);
    complete_rejoin(&mut c, home, oid_on_page(200, 1));
    complete_rejoin(&mut c, home, oid_owned_by(1, 400, 1));
    c.pump_for(SimDuration::from_millis(500));
    assert_eq!(
        version_of(c.sites[0].volume().read_object(ox).unwrap()),
        0,
        "site 0's prepared half must roll back"
    );
    assert_eq!(
        version_of(c.sites[1].volume().read_object(oy).unwrap()),
        0,
        "site 1's prepared half must roll back"
    );

    // And the reborn home can run the same distributed commit cleanly.
    let t2 = c.begin(home, APP);
    c.write(home, APP, t2, ox, None).unwrap();
    c.write(home, APP, t2, oy, None).unwrap();
    c.commit(home, APP, t2).unwrap();
    assert_eq!(version_of(c.sites[0].volume().read_object(ox).unwrap()), 1);
    assert_eq!(version_of(c.sites[1].volume().read_object(oy).unwrap()), 1);
    c.pump_for(SimDuration::from_millis(500));
    c.assert_survivors_quiescent();
}

/// Crash right after a fuzzy checkpoint plus one more commit: recovery
/// starts from the checkpoint base (pre-checkpoint commit), replays the
/// post-checkpoint tail (redo), and takes a fresh checkpoint so the new
/// durable image is self-contained.
#[test]
fn crash_after_checkpoint_recovers_both_sides_of_it() {
    let mut c = Simulation::seeded(
        3,
        recovery_cfg(Protocol::PsAa),
        OwnerMap::Single(OWNER),
        seed(47),
    );
    let x = oid_on_page(3, 1);
    let y = oid_on_page(7, 1);

    let t1 = c.begin(A, APP);
    c.write(A, APP, t1, x, None).unwrap();
    c.commit(A, APP, t1).unwrap();

    c.checkpoint_site(OWNER);
    assert_eq!(c.sites[0].checkpoint_age(), 0);

    let t2 = c.begin(B, APP);
    c.write(B, APP, t2, y, None).unwrap();
    c.commit(B, APP, t2).unwrap();
    assert!(c.sites[0].checkpoint_age() > 0);
    let durable_before = c.sites[0].durable_lsn();

    // Fast reboot: the owner crashes and recovers before any lease
    // expires, so the clients only learn of the restart when the epoch
    // fence refuses their next request.
    c.crash_site(OWNER);
    c.restart_site(OWNER);

    assert_eq!(version_of(c.sites[0].volume().read_object(x).unwrap()), 1);
    assert_eq!(version_of(c.sites[0].volume().read_object(y).unwrap()), 1);
    assert_eq!(c.sites[0].epoch(), 2);
    assert!(c.sites[0].stats.recovery_redo_records >= 1);
    assert!(c.sites[0].durable_lsn() >= durable_before);
    assert_eq!(
        c.sites[0].checkpoint_age(),
        0,
        "recovery must leave a fresh, self-contained checkpoint"
    );

    complete_rejoin(&mut c, A, oid_on_page(420, 1));
    complete_rejoin(&mut c, B, oid_on_page(421, 1));
    let t3 = c.begin(A, APP);
    assert_eq!(version_of(&c.read(A, APP, t3, y).unwrap()), 1);
    c.write(A, APP, t3, x, None).unwrap();
    c.commit(A, APP, t3).unwrap();
    assert_eq!(version_of(c.sites[0].volume().read_object(x).unwrap()), 2);
    c.pump_for(SimDuration::from_millis(500));
    c.assert_survivors_quiescent();
}

/// Paper §4.2.4's invariant across an epoch bump: A holds the exclusive
/// copy of x when the owner fast-reboots (no lease ever expires, so A
/// never learns). B rejoins and is granted the new exclusive copy; A's
/// attempt to commit through its stale epoch-1 registration must be
/// fenced and aborted, never applied.
fn stale_exclusive_copy_fenced_across_epoch_bump(proto: Protocol, base_seed: u64) {
    let mut c = Simulation::seeded(
        3,
        recovery_cfg(proto),
        OwnerMap::Single(OWNER),
        seed(base_seed),
    );
    let x = oid_on_page(3, 1);

    // Baseline committed value, so both clients contend on the same
    // existing object.
    let t0 = c.begin(B, APP);
    c.write(B, APP, t0, x, Some(vec![0x00; 16])).unwrap();
    c.commit(B, APP, t0).unwrap();

    // A takes the exclusive copy and stages an update it has not yet
    // committed.
    let t1 = c.begin(A, APP);
    c.write(A, APP, t1, x, Some(vec![0xAA; 16])).unwrap();

    c.crash_site(OWNER);
    c.restart_site(OWNER);
    assert_eq!(c.sites[0].epoch(), 2);

    // B rejoins at epoch 2 and takes EX on x — legal, because the
    // recovered owner's lock table is empty and A is fenced out.
    complete_rejoin(&mut c, B, oid_on_page(401, 1));
    let t2 = c.begin(B, APP);
    c.write(B, APP, t2, x, Some(vec![0xBB; 16])).unwrap();

    // A, still at epoch 1, tries to commit its stale exclusive copy:
    // the fence refuses the request and the handshake aborts t1.
    assert!(
        c.commit(A, APP, t1).is_err(),
        "stale-epoch commit must be fenced"
    );
    assert_one_ex_copy(&c, &[LockableId::Object(x)]);

    c.commit(B, APP, t2).unwrap();
    assert_eq!(
        c.sites[0].volume().read_object(x).unwrap(),
        &vec![0xBB; 16][..],
        "only the epoch-2 exclusive copy may reach the database"
    );

    // A's handshake (triggered by the fenced commit) purged its stale
    // cached copy; it re-fetches the current value lazily.
    let t3 = c.begin(A, APP);
    assert_eq!(c.read(A, APP, t3, x).unwrap(), vec![0xBB; 16]);
    c.commit(A, APP, t3).unwrap();
    c.pump_for(SimDuration::from_millis(500));
    c.assert_survivors_quiescent();
}

#[test]
fn stale_exclusive_copy_fenced_ps() {
    stale_exclusive_copy_fenced_across_epoch_bump(Protocol::Ps, 83);
}

#[test]
fn stale_exclusive_copy_fenced_ps_oa() {
    stale_exclusive_copy_fenced_across_epoch_bump(Protocol::PsOa, 84);
}

#[test]
fn stale_exclusive_copy_fenced_ps_aa() {
    stale_exclusive_copy_fenced_across_epoch_bump(Protocol::PsAa, 85);
}

/// A falsely-suspected client (partitioned away past its lease, but
/// alive) holding the exclusive copy: the owner revokes its state and
/// fences it, so after the partition heals the survivor's update wins
/// and the suspect must rejoin before doing new work. No epoch bump is
/// involved — the fence alone protects the invariant.
#[test]
fn falsely_suspected_client_cannot_use_stale_exclusive_copy() {
    let mut c = Simulation::seeded(
        3,
        recovery_cfg(Protocol::PsAa),
        OwnerMap::Single(OWNER),
        seed(89),
    );
    let x = oid_on_page(3, 1);

    let t0 = c.begin(B, APP);
    c.write(B, APP, t0, x, Some(vec![0x00; 16])).unwrap();
    c.commit(B, APP, t0).unwrap();

    let t1 = c.begin(A, APP);
    c.write(A, APP, t1, x, Some(vec![0xAA; 16])).unwrap();

    // Cut A off from the owner for longer than a lease. The owner
    // declares A dead (falsely — A is alive) and orphan-aborts t1;
    // A symmetrically suspects the owner and aborts t1 at home.
    let heal_at = c.now() + SimDuration::from_millis(400);
    c.install_faults(FaultPlan::seeded(seed(89)).partition(vec![A], vec![OWNER], heal_at));
    c.pump_for(SimDuration::from_secs(1));
    assert!(c.sites[0].stats.crashes_detected >= 1);

    // The survivor takes the exclusive copy and commits.
    let t2 = c.begin(B, APP);
    c.write(B, APP, t2, x, Some(vec![0xBB; 16])).unwrap();
    c.commit(B, APP, t2).unwrap();
    assert_eq!(
        c.sites[0].volume().read_object(x).unwrap(),
        &vec![0xBB; 16][..]
    );
    assert_one_ex_copy(&c, &[LockableId::Object(x)]);

    // The healed suspect is fenced until it rejoins, then works again —
    // at the same epoch (no restart happened).
    assert_eq!(c.sites[0].epoch(), 1);
    complete_rejoin(&mut c, A, oid_on_page(420, 1));
    let t3 = c.begin(A, APP);
    assert_eq!(c.read(A, APP, t3, x).unwrap(), vec![0xBB; 16]);
    c.commit(A, APP, t3).unwrap();
    c.pump_for(SimDuration::from_millis(500));
    c.assert_survivors_quiescent();
}

/// The durability and recovery telemetry reaches both exporters through
/// `Simulation::metrics`: recovery counters via the counters struct,
/// per-site durability gauges, the recovery-time histogram the restart
/// path records, and the events dropped by every ring — the crashed
/// owner's replaced ring included.
#[test]
fn recovery_metrics_reach_prometheus_and_json_exports() {
    let mut c = Simulation::seeded(
        3,
        recovery_cfg(Protocol::PsAa),
        OwnerMap::Single(OWNER),
        seed(97),
    );
    // Rings small enough to overflow before the crash.
    c.enable_trace(4);
    let x = oid_on_page(3, 1);
    let t1 = c.begin(A, APP);
    c.write(A, APP, t1, x, None).unwrap();
    c.commit(A, APP, t1).unwrap();
    c.crash_site(OWNER);
    c.restart_site(OWNER);
    complete_rejoin(&mut c, A, oid_on_page(420, 1));

    let reg = c.metrics();
    let dropped = reg.counter_value("trace_events_dropped");
    assert!(c.trace_dropped() > 0, "the small rings never overflowed");
    assert_eq!(dropped, Some(c.trace_dropped()));
    let recoveries = reg.histogram_ref("recovery_time").map(Histogram::count);
    assert_eq!(recoveries, Some(1), "one restart recovery, one sample");
    assert!(reg.counter_value("epoch_bumps").unwrap() >= 1);
    assert!(reg.counter_value("recovery_redo_records").unwrap() >= 1);
    assert_eq!(reg.gauge_value("epoch_site0"), Some(2.0));
    assert!(reg.gauge_value("durable_lsn_site0").unwrap() > 0.0);
    assert_eq!(reg.gauge_value("epoch_site1"), Some(1.0));

    let prom = reg.render_prometheus();
    let json = reg.render_json();
    for name in [
        "recovery_redo_records",
        "recovery_undo_records",
        "epoch_bumps",
        "durable_lsn_site0",
        "checkpoint_age_site0",
        "epoch_site0",
        "recovery_time",
    ] {
        assert!(prom.contains(name), "{name} missing from Prometheus export");
        assert!(json.contains(name), "{name} missing from JSON export");
    }
}
