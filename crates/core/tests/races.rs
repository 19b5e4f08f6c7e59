//! Targeted reconstructions of the race conditions of paper §4.2.4,
//! using hand-controlled message delivery over the multi-path transport:
//! the callback race of Fig. 5, the purge race, and the deescalation
//! race. Each test drives the adversarial interleaving explicitly and
//! asserts the protocol's documented resolution.

use pscc_common::{AppId, FileId, Oid, PageId, Protocol, SiteId, SystemConfig, VolId};
use pscc_core::{AppOp, AppReply, OwnerMap};
use pscc_net::PathId;
use pscc_obs::event::render_dump;
use pscc_sim::testkit::version_of;
use pscc_sim::Simulation;

const S: SiteId = SiteId(0);
const A: SiteId = SiteId(1);
const B: SiteId = SiteId(2);
const APP: AppId = AppId(0);

fn oid(page: u32, slot: u16) -> Oid {
    Oid::new(PageId::new(FileId::new(VolId(0), 0), page), slot)
}

/// A synthesized write of `oid` (bumps its version).
fn write(oid: Oid) -> AppOp {
    AppOp::Write { oid, bytes: None }
}

fn cluster() -> Simulation {
    let cfg = SystemConfig {
        protocol: Protocol::PsAa,
        ..SystemConfig::small()
    };
    Simulation::seeded(3, cfg, OwnerMap::Single(S), 99)
}

/// The merged postmortem dump of all sites' rings (a seeded simulation
/// traces every site).
fn dump_of(c: &Simulation) -> String {
    render_dump(&c.merged_trace())
}

/// Fig. 5: a callback overtakes the read reply it races with; the raced
/// object must stay unavailable when the stale reply lands.
#[test]
fn callback_race_keeps_object_unavailable() {
    let mut c = cluster();
    let p = 2;
    let x = oid(p, 0);
    let y = oid(p, 5);

    // Make X unavailable at A: B updates X (uncommitted) while A fetches
    // the page.
    let tb = c.begin(B, APP);
    c.read(B, APP, tb, x).unwrap();
    c.write(B, APP, tb, x, None).unwrap();
    let ta = c.begin(A, APP);
    let z = oid(p, 7);
    c.read(A, APP, ta, z).unwrap(); // page cached at A (X unavailable); no server
                                    // lock on Y — Fig. 5's preconditions
    c.commit(B, APP, tb).unwrap();
    c.pump();

    // B's next transaction warms up *before* any staging (the helpers
    // pump the network).
    let tb2 = c.begin(B, APP);
    c.read(B, APP, tb2, y).unwrap();

    // A requests X (it is unavailable locally). Deliver the request and
    // let the server ship the reply — but do NOT deliver it yet.
    c.submit(A, APP, Some(ta), AppOp::Read(x));
    c.drain(A, S, PathId(0));
    // Reply (with X AND Y available) now sits on path 1.

    // B updates Y; the callback for Y reaches A *before* the read reply
    // (different paths — Fig. 5's crossing).
    c.submit(B, APP, Some(tb2), write(y));
    c.drain(B, S, PathId(0)); // write request reaches server
    c.drain(S, A, PathId(2)); // CALLBACK first (the race)
    c.drain(A, S, PathId(0)); // CbOk back
    c.drain(S, B, PathId(1)); // write granted
    assert!(c.find_reply(B, tb2).is_some(), "B's update of Y complete");

    // NOW the stale read reply lands at A, still claiming Y available.
    c.drain(S, A, PathId(1));
    assert!(c.find_reply(A, ta).is_some(), "A's read of X completes");
    assert!(
        c.total_stats().callback_races >= 1,
        "the race must have been detected"
    );

    // Y must NOT be readable from A's cache: A's read of Y goes back to
    // the server and blocks behind B's EX lock.
    c.submit(A, APP, Some(ta), AppOp::Read(y));
    c.pump();
    assert!(
        c.find_reply(A, ta).is_none(),
        "Y must be unavailable at A (stale reply must not resurrect it)"
    );
    c.commit(B, APP, tb2).unwrap();
    c.pump();
    match c.find_reply(A, ta) {
        Some(AppReply::Done { data: Some(d), .. }) => {
            assert_eq!(version_of(&d), 1, "A sees B's committed Y")
        }
        other => panic!("unexpected {other:?}"),
    }
    c.commit(A, APP, ta).unwrap();

    // The merged time-ordered multi-site dump must name the race.
    let dump = dump_of(&c);
    assert!(
        dump.contains("callback_race"),
        "postmortem trace must name the §4.2.4 callback race:\n{dump}"
    );
    assert!(dump.contains("callback_sent"), "{dump}");
}

/// The purge race: a purge notice for an old copy arrives after the
/// owner has already re-shipped the page; the stale purge must be
/// ignored so the copy table keeps the client listed.
#[test]
fn stale_purge_is_ignored_and_callbacks_still_arrive() {
    let cfg = SystemConfig {
        protocol: Protocol::PsAa,
        client_buf_frac: 0.005, // 2-page client cache
        ..SystemConfig::small()
    };
    let mut c = Simulation::seeded(3, cfg, OwnerMap::Single(S), 7);
    let p0 = 0;
    let x0 = oid(p0, 0);
    let x5 = oid(p0, 5);

    // B updates x5 (uncommitted) so it ships unavailable to A.
    let tb = c.begin(B, APP);
    c.read(B, APP, tb, x5).unwrap();
    c.write(B, APP, tb, x5, None).unwrap();

    // A caches p0 (ship_seq 1, x5 unavailable).
    let ta = c.begin(A, APP);
    c.read(A, APP, ta, x0).unwrap();

    // A requests x5: blocks at the server behind B's EX.
    c.submit(A, APP, Some(ta), AppOp::Read(x5));
    c.drain(A, S, PathId(0));

    // A touches two more pages; installing the second evicts p0 and
    // queues a purge (seq 1) on path 0 — NOT delivered yet. Every step
    // is manual so the purge stays in flight.
    let purges_before = c.total_stats().pages_purged;
    c.submit(A, APP, Some(ta), AppOp::Read(oid(1, 0)));
    c.drain(A, S, PathId(0));
    c.drain(S, A, PathId(1));
    assert!(c.find_reply(A, ta).is_some(), "read of page 1 done");
    c.submit(A, APP, Some(ta), AppOp::Read(oid(2, 0)));
    c.drain(A, S, PathId(0));
    c.drain(S, A, PathId(1)); // install evicts p0, queues the purge
    assert!(c.find_reply(A, ta).is_some(), "read of page 2 done");
    assert!(c.total_stats().pages_purged > purges_before, "p0 evicted");

    // B commits: the server grants A's blocked read and re-ships p0
    // (ship_seq 2). The reply sits on path 1.
    c.submit(B, APP, Some(tb), AppOp::Commit);
    c.drain(B, S, PathId(0));
    c.drain(S, B, PathId(1));

    // NOW the stale purge (seq 1) reaches the server: it must be
    // ignored, because the in-flight seq-2 copy supersedes it.
    c.drain(A, S, PathId(0));
    assert!(c.total_stats().purge_races >= 1, "stale purge detected");

    // Reply lands; A reads its x5 with B's committed value.
    c.drain(S, A, PathId(1));
    c.pump();
    match c.find_reply(A, ta) {
        Some(AppReply::Done { data: Some(d), .. }) => assert_eq!(version_of(&d), 1),
        other => panic!("unexpected {other:?}"),
    }
    c.commit(A, APP, ta).unwrap();

    // Because the copy-table entry survived, a later writer's callback
    // still reaches A and invalidates its copy.
    let tb2 = c.begin(B, APP);
    c.read(B, APP, tb2, x0).unwrap();
    c.write(B, APP, tb2, x0, None).unwrap();
    c.commit(B, APP, tb2).unwrap();
    c.pump();
    let ta2 = c.begin(A, APP);
    let v = c.read(A, APP, ta2, x0).unwrap();
    assert_eq!(version_of(&v), 1, "A must observe B's committed x0");
    c.commit(A, APP, ta2).unwrap();

    let dump = dump_of(&c);
    assert!(
        dump.contains("purge_race"),
        "postmortem trace must name the §4.2.4 purge race:\n{dump}"
    );
}

/// The deescalation race: a `WriteGranted{adaptive}` already in flight
/// when a `Deescalate` for the same page arrives must not leave the
/// client believing it still holds an adaptive lock.
#[test]
fn deescalation_race_voids_stale_adaptive_grant() {
    let mut c = cluster();
    let p = 4;

    // A's write request goes out; the server grants ADAPTIVE (nobody
    // else caches p). Hold the WriteGranted on path 1.
    let ta = c.begin(A, APP);
    c.read(A, APP, ta, oid(p, 0)).unwrap();
    c.submit(A, APP, Some(ta), write(oid(p, 0)));
    c.drain(A, S, PathId(0));

    // B reads another object of p: the server deescalates A's adaptive
    // lock. The Deescalate (path 2) overtakes the WriteGranted (path 1).
    let tb = c.begin(B, APP);
    c.submit(B, APP, Some(tb), AppOp::Read(oid(p, 5)));
    c.drain(B, S, PathId(0));
    c.drain(S, A, PathId(2)); // Deescalate first — the race
    c.drain(A, S, PathId(0)); // DeescalateReply
    c.drain(S, B, PathId(1)); // B's page arrives
    assert!(c.find_reply(B, tb).is_some(), "B's read completes");
    assert_eq!(c.total_stats().deescalations, 1);

    // Now the stale adaptive grant lands at A: its adaptive bit must be
    // voided by the registered race.
    c.drain(S, A, PathId(1));
    c.pump();
    assert!(c.find_reply(A, ta).is_some(), "A's write completes");

    // A's next write on the page must go to the server (no adaptive).
    let wr = c.total_stats().write_requests;
    c.write(A, APP, ta, oid(p, 1), None).unwrap();
    assert_eq!(
        c.total_stats().write_requests,
        wr + 1,
        "stale adaptive bit must have been discarded"
    );
    c.commit(A, APP, ta).unwrap();
    c.commit(B, APP, tb).unwrap();

    // Serializability check: B re-reads o1 and sees A's committed value.
    let tb2 = c.begin(B, APP);
    let v = c.read(B, APP, tb2, oid(p, 1)).unwrap();
    assert_eq!(version_of(&v), 1);
    c.commit(B, APP, tb2).unwrap();

    let dump = dump_of(&c);
    assert!(
        dump.contains("deescalated"),
        "postmortem trace must record the deescalation:\n{dump}"
    );
    assert!(dump.contains("adaptive_grant"), "{dump}");
}

/// A transaction's abort can overtake its own still-in-flight data
/// request: aborts ride the lossless priority lane while data requests
/// ride the bulk lane, so the owner may process `AbortTxn` first and
/// then see the request it killed. The owner must remember the abort
/// and refuse the straggler at admission — admitting it would acquire
/// lock state nothing will ever release, wedging every later writer of
/// the object behind a permanent `LockTimeout`.
#[test]
fn abort_overtaking_its_request_leaves_no_orphan_lock() {
    use pscc_common::{AbortReason, SimTime, TxnId};
    use pscc_core::{Input, Message, Output, PeerServer, ReqId};

    let cfg = SystemConfig {
        protocol: Protocol::PsAa,
        ..SystemConfig::small()
    };
    let mut s = PeerServer::new(S, cfg, OwnerMap::Single(S));
    let now = SimTime::ZERO;
    let x = oid(2, 0);
    let dead = TxnId::new(A, 7);
    let mut outs: Vec<Output> = Vec::new();

    // The abort arrives first — reordered ahead of the request it kills.
    let msg = Message::AbortTxn { txn: dead };
    s.drive(now, Input::Msg { from: A, msg }, &mut outs);

    // The dead transaction's write arrives late: it must be refused
    // with the abort verdict, holding no admission slot and no lock.
    let msg = Message::WriteObj {
        req: ReqId(1),
        txn: dead,
        oid: x,
    };
    s.drive(now, Input::Msg { from: A, msg }, &mut outs);
    assert!(
        outs.iter().any(|o| matches!(
            o,
            Output::Send {
                to,
                msg: Message::TxnAborted {
                    txn,
                    reason: AbortReason::Internal
                }
            } if *to == A && *txn == dead
        )),
        "straggler must be refused with the abort verdict: {outs:?}"
    );
    assert_eq!(s.queue_depth(), 0, "refused request held an admission slot");
    assert_eq!(s.stats.stale_requests_refused, 1);

    // The object is free: another client's write is granted immediately
    // instead of waiting out a lock timeout against the orphan.
    let live = TxnId::new(B, 1);
    let msg = Message::WriteObj {
        req: ReqId(2),
        txn: live,
        oid: x,
    };
    outs.clear();
    s.drive(now, Input::Msg { from: B, msg }, &mut outs);
    assert!(
        outs.iter().any(|o| matches!(
            o,
            Output::Send {
                to,
                msg: Message::WriteGranted { .. }
            } if *to == B
        )),
        "object lock leaked to the dead transaction: {outs:?}"
    );
}
