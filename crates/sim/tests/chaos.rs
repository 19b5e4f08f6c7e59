//! Seeded chaos schedules against the real protocol engine: client
//! crashes (detected by lease expiry), orphan-transaction cleanup,
//! duplicated messages, and partition-then-heal — each asserting that
//! the surviving sites converge to a quiescent, consistent state and
//! that the one-exclusive-copy invariant holds across PS, PS-OA and
//! PS-AA.
//!
//! Every schedule is reproducible from its seed pair (cluster seed +
//! fault-plan seed); `EXPERIMENTS.md` documents how to replay one.

use pscc_common::hash::{fnv64, with_hash_seed, HashSet};
use pscc_common::{
    AppId, FileId, LockableId, Oid, PageId, Protocol, SimDuration, SimTime, SiteId, SystemConfig,
    TxnId, VolId,
};
use pscc_core::{AppOp, AppReply, OwnerMap};
use pscc_obs::event::{CommitStage, EventKind};
use pscc_obs::MetricsRegistry;
use pscc_sim::chaos::FaultPlan;
use pscc_sim::experiment::{build_sim, quick_spec, Figure};
use pscc_sim::testkit::version_of;
use pscc_sim::Simulation;

const OWNER: SiteId = SiteId(0);
const A: SiteId = SiteId(1);
const B: SiteId = SiteId(2);
const APP: AppId = AppId(0);

fn oid_on_page(page: u32, slot: u16) -> Oid {
    Oid::new(PageId::new(FileId::new(VolId(0), 0), page), slot)
}

/// Per-test base seed, perturbed by `CHAOS_SEED` from the environment
/// so CI can sweep schedules: `CHAOS_SEED=2 cargo test --test chaos`.
/// Every assertion below is seed-independent (final versions, counters,
/// quiescence); only the interleaving varies.
fn seed(base: u64) -> u64 {
    let sweep = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0);
    base ^ sweep.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Failure-detection knobs tightened so chaos runs converge in a couple
/// of virtual seconds (production defaults are in `SystemConfig`).
fn chaos_cfg(proto: Protocol) -> SystemConfig {
    let mut cfg = SystemConfig::small();
    cfg.protocol = proto;
    cfg.leases_enabled = true;
    cfg.heartbeat_interval = SimDuration::from_millis(20);
    cfg.lease_duration = SimDuration::from_millis(100);
    cfg.callback_response_timeout = SimDuration::from_millis(200);
    cfg
}

/// At most one distinct transaction holds EX on `items` across the
/// surviving sites (the same transaction legitimately appears in both
/// its home table and the owner's).
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

/// The acceptance schedule: client A holds an EX object lock and has a
/// callback pending against it (blocked on A's local read lock) when it
/// crashes. The owner must detect the crash, abort the orphan via WAL
/// undo, release its locks, re-drive the blocked callback, and let B's
/// stalled write commit. Returns the cluster for further assertions.
fn crash_holding_ex_lock(proto: Protocol, seed: u64) -> Simulation {
    let mut c = Simulation::seeded(3, chaos_cfg(proto), OwnerMap::Single(OWNER), seed);
    c.install_faults(FaultPlan::seeded(seed ^ 0xc4a0));
    let contested = oid_on_page(3, 1);
    let private = oid_on_page(7, 1);

    // Warm A's cache on the contested page under a committed
    // transaction, so the next read is a pure cache hit whose lock
    // exists only in A's local table — invisible to the owner.
    let t0 = c.begin(A, APP);
    c.read(A, APP, t0, contested).unwrap();
    c.commit(A, APP, t0).unwrap();

    // A: local read lock on the contested object + an EX object lock
    // registered at the owner.
    let t1 = c.begin(A, APP);
    c.read(A, APP, t1, contested).unwrap();
    c.write(A, APP, t1, private, None).unwrap();

    // B: write the contested object. The owner grants it and calls back
    // A's cached copy; the callback blocks on A's local lock, so B gets
    // no reply.
    let t2 = c.begin(B, APP);
    c.submit(
        B,
        APP,
        Some(t2),
        AppOp::Write {
            oid: contested,
            bytes: None,
        },
    );
    c.pump();
    assert!(
        c.find_reply(B, t2).is_none(),
        "B must be stalled behind A's callback"
    );
    assert_one_ex_copy(
        &c,
        &[LockableId::Object(contested), LockableId::Object(private)],
    );

    // Crash A. Lease expiry (backed up by the callback-response bound)
    // must detect it and clean up without any help from A.
    c.crash_site(A);
    c.pump_for(SimDuration::from_secs(2));

    match c.find_reply(B, t2) {
        Some(AppReply::Done { .. }) => {}
        other => panic!("B's write never unblocked: {other:?}"),
    }
    assert_one_ex_copy(
        &c,
        &[LockableId::Object(contested), LockableId::Object(private)],
    );
    c.commit(B, APP, t2).unwrap();

    let total = c.total_stats();
    assert!(total.crashes_detected >= 1, "crash never detected: {total}");
    assert!(total.orphans_aborted >= 1, "orphan never aborted: {total}");
    assert!(total.faults_injected >= 1, "crash fault not counted");
    // B's write landed; A's uncommitted EX write did not.
    assert_eq!(
        version_of(c.sites[0].volume().read_object(contested).unwrap()),
        1
    );
    assert_eq!(
        version_of(c.sites[0].volume().read_object(private).unwrap()),
        0
    );
    c.assert_survivors_quiescent();
    c
}

#[test]
fn crash_with_ex_lock_and_pending_callback_ps() {
    crash_holding_ex_lock(Protocol::Ps, seed(11));
}

#[test]
fn crash_with_ex_lock_and_pending_callback_ps_oa() {
    crash_holding_ex_lock(Protocol::PsOa, seed(11));
}

#[test]
fn crash_with_ex_lock_and_pending_callback_ps_aa() {
    crash_holding_ex_lock(Protocol::PsAa, seed(11));
}

#[test]
fn same_seed_replays_identical_chaos_run() {
    // Same fault seed, other hash seeds: the replay — every traced event
    // at its virtual time, not just the counters — must not depend on the
    // order the tables iterate in.
    let trace = |c: &Simulation| -> Vec<_> {
        c.merged_trace()
            .into_iter()
            .map(|e| (e.at, e.site, e.seq, e.kind))
            .collect()
    };
    let a = crash_holding_ex_lock(Protocol::PsAa, seed(42));
    for hash_seed in 1..=3 {
        let b = with_hash_seed(hash_seed, || {
            crash_holding_ex_lock(Protocol::PsAa, seed(42))
        });
        assert_eq!(
            a.total_stats(),
            b.total_stats(),
            "chaos run not deterministic (hash seed {hash_seed})"
        );
        assert_eq!(
            a.faults().map(|f| f.injected),
            b.faults().map(|f| f.injected)
        );
        assert!(
            trace(&a) == trace(&b),
            "chaos trace differs (hash seed {hash_seed})"
        );
    }
}

#[test]
fn client_crash_mid_commit_preserves_the_committed_outcome() {
    // A crashes immediately after putting CommitReq on the wire: the
    // frame still delivers, redo-at-server makes the commit durable, and
    // the CommitOk ack is lost with the crash. Detection must then find
    // *no* orphan — the transaction already committed.
    let mut c = Simulation::seeded(
        3,
        chaos_cfg(Protocol::PsAa),
        OwnerMap::Single(OWNER),
        seed(17),
    );
    let oid = oid_on_page(5, 1);
    let t1 = c.begin(A, APP);
    c.write(A, APP, t1, oid, None).unwrap();
    c.submit(A, APP, Some(t1), AppOp::Commit);
    c.crash_site(A);
    c.pump_for(SimDuration::from_secs(2));

    assert_eq!(
        version_of(c.sites[0].volume().read_object(oid).unwrap()),
        1,
        "a commit request that reached the owner must be durable"
    );
    let total = c.total_stats();
    assert!(total.crashes_detected >= 1, "crash never detected: {total}");
    assert_eq!(total.orphans_aborted, 0, "committed txn treated as orphan");
    c.assert_survivors_quiescent();

    // The object is free for others.
    let t2 = c.begin(B, APP);
    c.write(B, APP, t2, oid, None).unwrap();
    c.commit(B, APP, t2).unwrap();
    assert_eq!(version_of(c.sites[0].volume().read_object(oid).unwrap()), 2);
    c.assert_survivors_quiescent();
}

#[test]
fn client_crash_before_commit_rolls_back_and_frees_locks() {
    let mut c = Simulation::seeded(
        3,
        chaos_cfg(Protocol::PsAa),
        OwnerMap::Single(OWNER),
        seed(23),
    );
    let oid = oid_on_page(5, 1);
    let t1 = c.begin(A, APP);
    c.write(A, APP, t1, oid, None).unwrap();
    assert_one_ex_copy(&c, &[LockableId::Object(oid)]);
    c.crash_site(A);
    c.pump_for(SimDuration::from_secs(2));

    let total = c.total_stats();
    assert!(total.crashes_detected >= 1, "crash never detected: {total}");
    assert!(total.orphans_aborted >= 1, "orphan never aborted: {total}");
    assert_eq!(
        version_of(c.sites[0].volume().read_object(oid).unwrap()),
        0,
        "uncommitted update must not survive the orphan abort"
    );
    c.assert_survivors_quiescent();

    // The orphan's EX lock is gone: B writes the same object.
    let t2 = c.begin(B, APP);
    c.write(B, APP, t2, oid, None).unwrap();
    c.commit(B, APP, t2).unwrap();
    assert_eq!(version_of(c.sites[0].volume().read_object(oid).unwrap()), 1);
    c.assert_survivors_quiescent();
}

#[test]
fn a_dead_homes_lock_wait_is_cancelled_by_orphan_cleanup() {
    // B holds EX on an object at the owner and A's access to it waits
    // there behind B. A crashes while waiting: the owner's lease on A
    // expires, and orphan cleanup must abort the waiting transaction,
    // cancelling its ticket and taking its wait with it.
    let mut c = Simulation::seeded(
        3,
        chaos_cfg(Protocol::PsAa),
        OwnerMap::Single(OWNER),
        seed(31),
    );
    let oid = oid_on_page(4, 2);
    let tb = c.begin(B, APP);
    c.write(B, APP, tb, oid, None).unwrap();
    let ta = c.begin(A, APP);
    c.submit(A, APP, Some(ta), AppOp::Write { oid, bytes: None });
    c.pump();
    assert!(c.find_reply(A, ta).is_none(), "A must wait behind B");

    c.crash_site(A);
    c.pump_for(SimDuration::from_secs(1));
    let total = c.total_stats();
    assert!(total.crashes_detected >= 1, "crash never detected: {total}");
    assert!(total.orphans_aborted >= 1, "orphan never aborted: {total}");
    assert_eq!(total.timeout_aborts, 0, "the wait timed out first: {total}");

    c.commit(B, APP, tb).unwrap();
    assert_eq!(version_of(c.sites[0].volume().read_object(oid).unwrap()), 1);
    c.assert_survivors_quiescent();
}

#[test]
fn restart_after_crash_rejoins_cleanly() {
    let mut c = Simulation::seeded(
        3,
        chaos_cfg(Protocol::PsAa),
        OwnerMap::Single(OWNER),
        seed(29),
    );
    let oid = oid_on_page(5, 1);
    let t1 = c.begin(A, APP);
    c.write(A, APP, t1, oid, None).unwrap();
    c.crash_site(A);
    c.pump_for(SimDuration::from_secs(1));
    c.restart_site(A);

    // The owner fenced A when it declared it dead, so the reborn
    // client's first request is refused with `RejoinRequired`; the
    // handshake aborts the transaction that carried it.
    let t2 = c.begin(A, APP);
    assert!(c.write(A, APP, t2, oid, None).is_err());

    // With the rejoin complete, the client runs transactions again.
    let t3 = c.begin(A, APP);
    c.write(A, APP, t3, oid, None).unwrap();
    c.commit(A, APP, t3).unwrap();
    assert_eq!(version_of(c.sites[0].volume().read_object(oid).unwrap()), 1);
    c.pump_for(SimDuration::from_millis(500));
    c.assert_survivors_quiescent();
}

fn duplicated_replies_are_harmless(proto: Protocol) {
    // Duplicate every message on the reply/grant path (ReadReply,
    // WriteGranted, LockGranted, CommitOk, ...). Stale duplicates must
    // be ignored, not re-applied.
    let mut c = Simulation::seeded(3, chaos_cfg(proto), OwnerMap::Single(OWNER), seed(31));
    let mut plan = FaultPlan::seeded(seed(31));
    plan.dup_prob = 1.0;
    plan.only_path = Some(pscc_net::PathId(1));
    c.install_faults(plan);

    let x = oid_on_page(3, 1);
    let y = oid_on_page(7, 1);
    for (site, oid) in [(A, x), (B, y), (A, y), (B, x)] {
        let t = c.begin(site, APP);
        c.read(site, APP, t, oid).unwrap();
        c.write(site, APP, t, oid, None).unwrap();
        c.commit(site, APP, t).unwrap();
        assert_one_ex_copy(&c, &[LockableId::Object(x), LockableId::Object(y)]);
    }
    // Each object saw exactly two committed writes — duplicated grants
    // never double-applied an update.
    assert_eq!(version_of(c.sites[0].volume().read_object(x).unwrap()), 2);
    assert_eq!(version_of(c.sites[0].volume().read_object(y).unwrap()), 2);
    let injected = c.faults().map(|f| f.injected).unwrap_or(0);
    assert!(injected > 0, "duplication plan never fired");
    assert!(c.total_stats().faults_injected > 0);
    c.pump_for(SimDuration::from_millis(500));
    c.assert_survivors_quiescent();
}

#[test]
fn duplicated_replies_are_harmless_ps() {
    duplicated_replies_are_harmless(Protocol::Ps);
}

#[test]
fn duplicated_replies_are_harmless_ps_oa() {
    duplicated_replies_are_harmless(Protocol::PsOa);
}

#[test]
fn duplicated_replies_are_harmless_ps_aa() {
    duplicated_replies_are_harmless(Protocol::PsAa);
}

#[test]
fn partition_then_heal_aborts_in_flight_work_and_recovers() {
    // An asymmetric cut silences the owner towards client A while A's
    // read is in flight. A falsely suspects the owner, aborts its own
    // transaction (the AbortTxn still reaches the owner, which cleans
    // the remote half), and after the cut heals a fresh transaction
    // completes normally.
    let mut c = Simulation::seeded(
        2,
        chaos_cfg(Protocol::PsAa),
        OwnerMap::Single(OWNER),
        seed(37),
    );
    let warm = oid_on_page(3, 1);
    let cold = oid_on_page(9, 1);

    // Contact first, so both sides have leases armed.
    let t0 = c.begin(A, APP);
    c.read(A, APP, t0, warm).unwrap();
    c.commit(A, APP, t0).unwrap();

    let heal_at = c.now() + SimDuration::from_millis(400);
    c.install_faults(FaultPlan::seeded(seed(37)).partition_one_way(vec![OWNER], vec![A], heal_at));

    let t1 = c.begin(A, APP);
    c.submit(A, APP, Some(t1), AppOp::Read(cold));
    c.pump_for(SimDuration::from_secs(1));
    match c.find_reply(A, t1) {
        Some(AppReply::Aborted { .. }) => {}
        other => panic!("suspected-dead owner must abort the in-flight txn: {other:?}"),
    }
    assert!(
        c.sites[A.0 as usize].stats.crashes_detected >= 1,
        "A never suspected the silent owner"
    );
    assert!(
        c.faults().unwrap().injected > 0,
        "partition held no messages"
    );

    // Healed: a fresh transaction runs end to end.
    let t2 = c.begin(A, APP);
    c.read(A, APP, t2, cold).unwrap();
    c.write(A, APP, t2, cold, None).unwrap();
    c.commit(A, APP, t2).unwrap();
    assert_eq!(
        version_of(c.sites[0].volume().read_object(cold).unwrap()),
        1
    );
    c.pump_for(SimDuration::from_millis(500));
    c.assert_survivors_quiescent();
}

/// Thundering herd (DESIGN.md §6): N clients flood the one owner with
/// writes to the same contested object while a writer's grant is stuck
/// behind a callback to A's cached copy. With a tiny admission cap the
/// owner must shed the overflow with `Busy` (never the consistency
/// traffic — the callback round trip completes as soon as A commits),
/// the shed clients must back off and eventually commit, the admission
/// queue must never exceed the cap, and one-EX-copy must hold
/// throughout. Client C runs two concurrent transactions against one
/// fetch credit, so its second request stalls locally.
fn thundering_herd(proto: Protocol, seed: u64) -> Simulation {
    const C: SiteId = SiteId(3);
    const HERD: [SiteId; 3] = [SiteId(4), SiteId(5), SiteId(6)];

    let mut cfg = chaos_cfg(proto);
    cfg.admission_cap = 2;
    cfg.fetch_credits = 1;
    cfg.busy_retry_hint = SimDuration::from_millis(2);
    let cb_bound = cfg.callback_response_timeout;
    let mut c = Simulation::seeded(7, cfg, OwnerMap::Single(OWNER), seed);
    let contested = oid_on_page(3, 1);
    let c_objs = [oid_on_page(11, 1), oid_on_page(12, 1)];

    // Warm A's cache on the contested page, then pin it with a local
    // read lock so the owner's callback blocks at A.
    let t0 = c.begin(A, APP);
    c.read(A, APP, t0, contested).unwrap();
    c.commit(A, APP, t0).unwrap();
    let t1 = c.begin(A, APP);
    c.read(A, APP, t1, contested).unwrap();

    // B's write is granted the EX lock at the owner but gets no reply
    // until the callback completes — it holds an admission slot for the
    // whole stall, leaving one free slot for the herd.
    let t2 = c.begin(B, APP);
    c.submit(
        B,
        APP,
        Some(t2),
        AppOp::Write {
            oid: contested,
            bytes: None,
        },
    );
    c.pump();
    assert!(
        c.find_reply(B, t2).is_none(),
        "B must be stalled behind A's callback"
    );

    // The flood: C fires two transactions back-to-back against distinct
    // cold objects (the second must stall on C's single fetch credit),
    // and the herd piles reads onto the contested object — they block
    // behind B's EX lock, each occupying an admission slot, so the
    // overflow is refused with `Busy`. (Reads, not writes: concurrent
    // upgrades on one object would deadlock by design, §4.2.1, and the
    // point here is that every shed request eventually succeeds.)
    let tc: Vec<TxnId> = c_objs.iter().map(|_| c.begin(C, APP)).collect();
    let mut herd: Vec<(SiteId, TxnId)> = Vec::new();
    for s in HERD {
        let t = c.begin(s, APP);
        herd.push((s, t));
    }
    for (t, oid) in tc.iter().zip(c_objs) {
        c.submit(C, APP, Some(*t), AppOp::Write { oid, bytes: None });
    }
    for (s, t) in &herd {
        c.submit(*s, APP, Some(*t), AppOp::Read(contested));
    }
    c.pump();

    let owner = &c.sites[OWNER.0 as usize];
    assert!(
        owner.queue_depth() <= 2 && owner.queue_depth_peak() <= 2,
        "admission queue exceeded the cap: depth={} peak={}",
        owner.queue_depth(),
        owner.queue_depth_peak()
    );
    let mid = c.total_stats();
    assert!(mid.requests_shed >= 1, "overload never shed: {mid}");
    assert!(mid.credits_stalled >= 1, "credit pool never stalled: {mid}");
    // Every queued writer holds a *local* EX intent, so the cross-site
    // helper does not apply mid-flood; the owner's table is the arbiter
    // and must have granted at most one EX.
    let owner_ex = |c: &Simulation, item| c.sites[OWNER.0 as usize].ex_holders(item).len();
    assert!(
        owner_ex(&c, LockableId::Object(contested)) <= 1,
        "owner granted EX on the contested object to several writers"
    );

    // Unblock the callback: B's grant (consistency traffic, never shed)
    // must round-trip within the callback-response bound even while the
    // owner is refusing bulk work.
    let before = c.now();
    c.commit(A, APP, t1).unwrap();
    c.pump();
    match c.find_reply(B, t2) {
        Some(AppReply::Done { .. }) => {}
        other => panic!("B's write never unblocked: {other:?}"),
    }
    assert!(
        c.now().since(before) <= cb_bound,
        "callback round trip exceeded its bound under overload"
    );
    c.commit(B, APP, t2).unwrap();

    // Every shed transaction must eventually get a slot, the lock, and a
    // commit. Drive retries with virtual time and commit as they land.
    let mut open: Vec<(SiteId, TxnId)> = herd.clone();
    open.extend(tc.iter().map(|t| (C, *t)));
    for _ in 0..200 {
        if open.is_empty() {
            break;
        }
        c.pump_for(SimDuration::from_millis(25));
        let mut still_open = Vec::new();
        for (s, t) in open {
            match c.find_reply(s, t) {
                Some(AppReply::Done { .. }) => c.commit(s, APP, t).unwrap(),
                Some(other) => panic!("herd txn {t:?} at {s:?} failed: {other:?}"),
                None => still_open.push((s, t)),
            }
        }
        open = still_open;
        assert!(
            owner_ex(&c, LockableId::Object(contested)) <= 1,
            "owner granted EX on the contested object to several writers"
        );
    }
    assert!(
        open.is_empty(),
        "shed transactions never committed: {open:?}"
    );
    assert_one_ex_copy(&c, &[LockableId::Object(contested)]);

    // B's write landed exactly once; C's two transactions landed on
    // their own objects.
    assert_eq!(
        version_of(c.sites[0].volume().read_object(contested).unwrap()),
        1
    );
    for oid in c_objs {
        assert_eq!(version_of(c.sites[0].volume().read_object(oid).unwrap()), 1);
    }
    let total = c.total_stats();
    assert!(total.requests_shed >= 1, "no shedding recorded: {total}");
    assert!(total.busy_retries >= 1, "no busy retries recorded: {total}");
    assert!(total.credits_stalled >= 1, "no credit stalls: {total}");
    let owner = &c.sites[OWNER.0 as usize];
    assert!(owner.queue_depth_peak() <= 2, "cap breached after drain");
    assert_eq!(owner.queue_depth(), 0, "admission slots leaked");
    // Let stale backoff timers fire, then check nothing leaks.
    c.pump_for(SimDuration::from_millis(500));
    c.assert_survivors_quiescent();
    c
}

/// The seeded delivery order, pinned: the merged trace of one herd run
/// at a literal seed (not `CHAOS_SEED`) hashes to a fixed value under
/// every hash seed. A harness change that moves one delivery, one timer
/// or one tie-break changes the value.
#[test]
fn thundering_herd_trace_is_pinned() {
    const GOLDEN: u64 = 0x830f_b10d_9624_f0f7;
    for hash_seed in 0..4 {
        let c = with_hash_seed(hash_seed, || thundering_herd(Protocol::PsAa, 1));
        let dump = pscc_obs::event::render_dump(&c.merged_trace());
        assert_eq!(fnv64(dump.as_bytes()), GOLDEN, "hash seed {hash_seed}");
    }
}

#[test]
fn thundering_herd_sheds_and_recovers_ps() {
    thundering_herd(Protocol::Ps, seed(53));
}

#[test]
fn thundering_herd_sheds_and_recovers_ps_oa() {
    thundering_herd(Protocol::PsOa, seed(53));
}

#[test]
fn thundering_herd_sheds_and_recovers_ps_aa() {
    thundering_herd(Protocol::PsAa, seed(53));
}

#[test]
fn overload_counters_reach_prometheus_and_json_exports() {
    let c = thundering_herd(Protocol::PsAa, seed(59));
    let mut reg = MetricsRegistry::new();
    reg.counters_struct(&c.total_stats());
    for s in &c.sites {
        let id = s.site().0;
        reg.gauge(&format!("queue_depth_site{id}"), s.queue_depth() as f64);
        reg.gauge(
            &format!("queue_depth_peak_site{id}"),
            s.queue_depth_peak() as f64,
        );
    }
    assert!(reg.counter_value("requests_shed").unwrap() >= 1);
    assert!(reg.counter_value("credits_stalled").unwrap() >= 1);
    assert!(reg.counter_value("busy_retries").unwrap() >= 1);
    let prom = reg.render_prometheus();
    let json = reg.render_json();
    for name in [
        "requests_shed",
        "credits_stalled",
        "busy_retries",
        "queue_depth_site0",
        "queue_depth_peak_site0",
    ] {
        assert!(prom.contains(name), "{name} missing from Prometheus export");
        assert!(json.contains(name), "{name} missing from JSON export");
    }
}

#[test]
fn chaos_counters_reach_prometheus_and_json_exports() {
    let c = crash_holding_ex_lock(Protocol::PsAa, seed(47));
    let mut reg = MetricsRegistry::new();
    reg.counters_struct(&c.total_stats());
    pscc_net::tcp::NetStats::default().export(&mut reg);

    assert!(reg.counter_value("crashes_detected").unwrap() >= 1);
    assert!(reg.counter_value("orphans_aborted").unwrap() >= 1);
    assert!(reg.counter_value("faults_injected").unwrap() >= 1);
    let prom = reg.render_prometheus();
    let json = reg.render_json();
    for name in [
        "faults_injected",
        "crashes_detected",
        "orphans_aborted",
        "net_retries",
        "net_disconnects",
    ] {
        assert!(prom.contains(name), "{name} missing from Prometheus export");
        assert!(json.contains(name), "{name} missing from JSON export");
    }
}

/// Faults and tracing do not depend on the delivery policy: a Fig. 12
/// PS-AA point under the paper's costs, with two peers cut off from each
/// other until the middle of the window and a few messages duplicated,
/// keeps committing after the heal at both ends of the cut, loses no
/// trace event, and passes the audit.
#[test]
fn paper_costs_ride_out_a_partition_and_duplicates() {
    let spec = quick_spec(Figure::Fig12, 0.1);
    let heal_at = SimTime::ZERO + spec.warmup + spec.end.saturating_sub(spec.warmup).mul_f64(0.5);
    let mut plan =
        FaultPlan::seeded(seed(131)).partition(vec![SiteId(0)], vec![SiteId(1)], heal_at);
    plan.dup_prob = 0.01;
    let mut sim = build_sim(&spec);
    sim.enable_trace(1 << 20);
    sim.install_faults(plan);
    let report = sim.run(spec.warmup, spec.end);

    let injected = sim.faults().map_or(0, |f| f.injected);
    assert!(injected > 0, "no fault was injected");
    let trace = sim.merged_trace();
    for site in [SiteId(0), SiteId(1)] {
        let healed_commits = trace
            .iter()
            .filter(|e| e.site == site && e.at > heal_at)
            .filter(|e| {
                matches!(
                    e.kind,
                    EventKind::Commit {
                        stage: CommitStage::Done,
                        ..
                    }
                )
            })
            .count();
        assert!(
            healed_commits > 0,
            "{site} never committed after the heal ({} commits in the window)",
            report.commits
        );
    }
    assert_eq!(sim.trace_dropped(), 0, "the rings overflowed");
    let violations = sim.audit();
    assert!(violations.is_empty(), "audit failed: {violations:?}");
}
