//! Engine integration tests: the fundamental flows of paper §4.1 in a
//! client-server configuration (site 0 owns everything; sites 1..n are
//! clients).

use pscc_common::{
    AppId, FileId, LockableId, Oid, PageId, Protocol, PsccError, SiteId, SystemConfig, VolId,
};
use pscc_core::{AppOp, AppReply, OwnerMap};
use pscc_sim::testkit::version_of;
use pscc_sim::Simulation;

const SERVER: SiteId = SiteId(0);
const A: SiteId = SiteId(1);
const B: SiteId = SiteId(2);
const APP: AppId = AppId(0);

fn cfg(p: Protocol) -> SystemConfig {
    SystemConfig {
        protocol: p,
        ..SystemConfig::small()
    }
}

fn cluster(p: Protocol) -> Simulation {
    Simulation::seeded(3, cfg(p), OwnerMap::Single(SERVER), 42)
}

fn oid(page: u32, slot: u16) -> Oid {
    // Owner volumes are created with VolId == owning site id.
    Oid::new(PageId::new(FileId::new(VolId(SERVER.0), 0), page), slot)
}

/// A synthesized write of `oid` (bumps its version).
fn write(oid: Oid) -> AppOp {
    AppOp::Write { oid, bytes: None }
}

#[test]
fn local_read_write_commit_on_owner() {
    let mut c = cluster(Protocol::PsAa);
    let t = c.begin(SERVER, APP);
    let x = oid(0, 0);
    let v0 = c.read(SERVER, APP, t, x).unwrap();
    assert_eq!(version_of(&v0), 0);
    c.write(SERVER, APP, t, x, None).unwrap();
    c.commit(SERVER, APP, t).unwrap();
    // Committed value visible in the owner's volume.
    let bytes = c.sites[0].volume().read_object(x).unwrap();
    assert_eq!(version_of(bytes), 1);
    // Owner-local operations send no network messages.
    assert_eq!(c.total_stats().msgs_sent, 0);
}

#[test]
fn remote_read_caches_and_hits() {
    let mut c = cluster(Protocol::PsAa);
    let t = c.begin(A, APP);
    let x = oid(3, 2);
    let v = c.read(A, APP, t, x).unwrap();
    assert_eq!(version_of(&v), 0);
    let after_first = c.total_stats();
    assert_eq!(after_first.read_requests, 1);
    assert_eq!(after_first.pages_shipped, 1);

    // Second read of the same object — and of a *different* object on
    // the same page — are pure cache hits.
    c.read(A, APP, t, x).unwrap();
    c.read(A, APP, t, oid(3, 7)).unwrap();
    let after = c.total_stats();
    assert_eq!(after.read_requests, 1, "no further fetches");
    assert_eq!(after.cache_hits, 2);
    c.commit(A, APP, t).unwrap();
}

#[test]
fn intertransaction_caching_survives_commit() {
    let mut c = cluster(Protocol::PsAa);
    let x = oid(5, 1);
    let t1 = c.begin(A, APP);
    c.read(A, APP, t1, x).unwrap();
    c.commit(A, APP, t1).unwrap();
    // A new transaction reads the same object without any server
    // interaction (inter-transaction caching, paper §1).
    let msgs_before = c.total_stats().msgs_sent;
    let t2 = c.begin(A, APP);
    c.read(A, APP, t2, x).unwrap();
    assert_eq!(c.total_stats().msgs_sent, msgs_before);
    c.commit(A, APP, t2).unwrap();
}

#[test]
fn write_invalidates_other_clients_copy() {
    let mut c = cluster(Protocol::PsAa);
    let x = oid(7, 4);

    // B caches the page.
    let tb = c.begin(B, APP);
    c.read(B, APP, tb, x).unwrap();
    c.commit(B, APP, tb).unwrap();

    // A updates X: a callback reaches B; since B is idle on the page,
    // the whole page is purged there (adaptive callbacks, §4.1.1).
    let ta = c.begin(A, APP);
    c.read(A, APP, ta, x).unwrap();
    c.write(A, APP, ta, x, None).unwrap();
    c.commit(A, APP, ta).unwrap();
    let stats = c.total_stats();
    assert!(stats.callbacks_sent >= 1);
    assert!(stats.callbacks_purged_page >= 1);

    // B re-reads and sees the committed update.
    let tb2 = c.begin(B, APP);
    let v = c.read(B, APP, tb2, x).unwrap();
    assert_eq!(version_of(&v), 1);
    c.commit(B, APP, tb2).unwrap();
}

#[test]
fn ps_aa_grants_adaptive_lock_and_saves_messages() {
    let mut c = cluster(Protocol::PsAa);
    let t = c.begin(A, APP);
    let p = 9;
    c.read(A, APP, t, oid(p, 0)).unwrap();
    c.write(A, APP, t, oid(p, 0), None).unwrap();
    let s1 = c.total_stats();
    assert_eq!(s1.adaptive_grants, 1, "nobody else caches the page");

    // Further updates to other objects of the page are free.
    let msgs = c.total_stats().msgs_sent;
    c.write(A, APP, t, oid(p, 1), None).unwrap();
    c.write(A, APP, t, oid(p, 2), None).unwrap();
    let s2 = c.total_stats();
    assert_eq!(s2.msgs_sent, msgs, "adaptive writes send nothing");
    assert_eq!(s2.adaptive_hits, 2);
    c.commit(A, APP, t).unwrap();
    // Committed values durable at the owner.
    assert_eq!(
        version_of(c.sites[0].volume().read_object(oid(p, 2)).unwrap()),
        1
    );
}

#[test]
fn ps_oa_never_grants_adaptive() {
    let mut c = cluster(Protocol::PsOa);
    let t = c.begin(A, APP);
    let p = 9;
    c.read(A, APP, t, oid(p, 0)).unwrap();
    c.write(A, APP, t, oid(p, 0), None).unwrap();
    c.write(A, APP, t, oid(p, 1), None).unwrap();
    let s = c.total_stats();
    assert_eq!(s.adaptive_grants, 0);
    assert_eq!(s.adaptive_hits, 0);
    assert_eq!(s.write_requests, 2, "every object write goes to the server");
    c.commit(A, APP, t).unwrap();
}

#[test]
fn deescalation_on_cross_client_access() {
    let mut c = cluster(Protocol::PsAa);
    let p = 11;

    // A acquires an adaptive lock on page p.
    let ta = c.begin(A, APP);
    c.read(A, APP, ta, oid(p, 0)).unwrap();
    c.write(A, APP, ta, oid(p, 0), None).unwrap();
    assert_eq!(c.total_stats().adaptive_grants, 1);

    // B reads a *different* object of p: the server must deescalate A's
    // adaptive lock first (paper §4.1.2), then B proceeds.
    let tb = c.begin(B, APP);
    let v = c.read(B, APP, tb, oid(p, 5)).unwrap();
    assert_eq!(version_of(&v), 0);
    assert_eq!(c.total_stats().deescalations, 1);

    // A's next write on the page must go to the server again (the
    // adaptive grant is gone)...
    let w_before = c.total_stats().write_requests;
    c.write(A, APP, ta, oid(p, 1), None).unwrap();
    assert_eq!(c.total_stats().write_requests, w_before + 1);

    // ...and A's uncommitted update on slot 0 stays invisible to B: the
    // shipped copy marked it unavailable, so B's read of slot 0 blocks
    // until A finishes. Run it asynchronously:
    c.submit(B, APP, Some(tb), AppOp::Read(oid(p, 0)));
    c.pump();
    assert!(c.find_reply(B, tb).is_none(), "B must wait for A's EX lock");
    c.commit(A, APP, ta).unwrap();
    c.pump();
    match c.find_reply(B, tb) {
        Some(AppReply::Done { data: Some(d), .. }) => {
            assert_eq!(version_of(&d), 1, "B sees A's committed update")
        }
        other => panic!("unexpected {other:?}"),
    }
    c.commit(B, APP, tb).unwrap();
}

#[test]
fn reescalation_after_contention_dissipates() {
    let mut c = cluster(Protocol::PsAa);
    let p = 13;
    let ta = c.begin(A, APP);
    c.read(A, APP, ta, oid(p, 0)).unwrap();
    c.write(A, APP, ta, oid(p, 0), None).unwrap();
    assert_eq!(c.total_stats().adaptive_grants, 1);

    // B touches the page (deescalation), then goes away.
    let tb = c.begin(B, APP);
    c.read(B, APP, tb, oid(p, 5)).unwrap();
    c.commit(B, APP, tb).unwrap();
    assert_eq!(c.total_stats().deescalations, 1);

    // A commits; a later A transaction re-escalates: its write callback
    // purges B's copy entirely, so the adaptive lock is granted again
    // (paper §4.1.2 "reescalate if the contention has dissipated").
    c.commit(A, APP, ta).unwrap();
    let ta2 = c.begin(A, APP);
    c.read(A, APP, ta2, oid(p, 1)).unwrap();
    c.write(A, APP, ta2, oid(p, 1), None).unwrap();
    assert_eq!(c.total_stats().adaptive_grants, 2);
    c.commit(A, APP, ta2).unwrap();
}

#[test]
fn ps_protocol_page_level_locking() {
    let mut c = cluster(Protocol::Ps);
    let p = 15;
    let x = oid(p, 0);

    // An owner-local write takes the page lock in the shared table, not
    // the object lock, and sends nothing.
    let ts = c.begin(SERVER, APP);
    let local = oid(p + 100, 3);
    c.write(SERVER, APP, ts, local, None).unwrap();
    assert_eq!(c.sites[0].ex_holders(LockableId::Page(local.page)), [ts]);
    assert!(c.sites[0].ex_holders(LockableId::Object(local)).is_empty());
    c.commit(SERVER, APP, ts).unwrap();
    assert_eq!(c.total_stats().msgs_sent, 0);

    let tb = c.begin(B, APP);
    c.read(B, APP, tb, x).unwrap();
    c.commit(B, APP, tb).unwrap();

    let ta = c.begin(A, APP);
    c.read(A, APP, ta, x).unwrap();
    c.write(A, APP, ta, x, None).unwrap();
    // Page-level write permission: later writes on the same page are
    // server-free under the EX page lock.
    let msgs = c.total_stats().msgs_sent;
    c.write(A, APP, ta, oid(p, 1), None).unwrap();
    assert_eq!(c.total_stats().msgs_sent, msgs);
    c.commit(A, APP, ta).unwrap();

    // B's copy was purged by the page callback; re-read sees v1.
    let tb2 = c.begin(B, APP);
    let v = c.read(B, APP, tb2, oid(p, 1)).unwrap();
    assert_eq!(version_of(&v), 1);
    c.commit(B, APP, tb2).unwrap();

    // A blind write to a page A does not cache: one fetch, one write
    // request; a second write to the page sends nothing.
    let ta2 = c.begin(A, APP);
    let before = c.total_stats();
    c.write(A, APP, ta2, oid(p + 1, 0), None).unwrap();
    let after = c.total_stats();
    assert_eq!(after.read_requests, before.read_requests + 1);
    assert_eq!(after.write_requests, before.write_requests + 1);
    c.write(A, APP, ta2, oid(p + 1, 4), None).unwrap();
    assert_eq!(c.total_stats().msgs_sent, after.msgs_sent);
    c.commit(A, APP, ta2).unwrap();

    // No object-level machinery ran; the page grants served the two
    // server-free writes.
    let s = c.total_stats();
    assert_eq!(s.adaptive_grants, 0);
    assert_eq!(s.deescalations, 0);
    assert_eq!(s.adaptive_hits, 2);
}

/// Under PS, a write grant that arrives after its page was evicted
/// re-fetches the page and then applies the write.
#[test]
fn ps_grant_after_eviction_refetches() {
    let cfg = SystemConfig {
        client_buf_frac: 0.005, // 2-page client cache
        ..cfg(Protocol::Ps)
    };
    let mut c = Simulation::seeded(3, cfg, OwnerMap::Single(SERVER), 42);
    let x = oid(0, 0);

    // B reads the page and keeps its SH page lock at the owner, so A's
    // write waits there.
    let tb = c.begin(B, APP);
    c.read(B, APP, tb, oid(0, 9)).unwrap();
    let ta = c.begin(A, APP);
    c.read(A, APP, ta, x).unwrap();
    c.submit(A, APP, Some(ta), write(x));
    c.pump();
    assert!(c.find_reply(A, ta).is_none(), "A's write waits on B's lock");

    // Another application at A reads two other pages: page 0 is evicted.
    let app2 = AppId(1);
    let ta2 = c.begin(A, app2);
    let purged = c.total_stats().pages_purged;
    c.read(A, app2, ta2, oid(1, 0)).unwrap();
    c.read(A, app2, ta2, oid(2, 0)).unwrap();
    assert!(c.total_stats().pages_purged > purged, "page 0 evicted");

    // B ends: the grant reaches A, which fetches page 0 again and writes.
    let fetches = c.total_stats().read_requests;
    c.commit(B, APP, tb).unwrap();
    assert!(matches!(c.find_reply(A, ta), Some(AppReply::Done { .. })));
    assert_eq!(c.total_stats().read_requests, fetches + 1);
    c.commit(A, APP, ta).unwrap();
    c.commit(A, app2, ta2).unwrap();
    assert_eq!(version_of(c.sites[0].volume().read_object(x).unwrap()), 1);
}

#[test]
fn ps_false_sharing_blocks_where_psaa_proceeds() {
    // A updates object 0 of a page; B then reads object 9 of the same
    // page. Under PS-AA the read proceeds concurrently (the page ships
    // with object 0 marked unavailable); under PS it blocks on the page
    // lock until A commits — false sharing, the paper's central
    // trade-off.
    for (proto, expect_concurrent) in [(Protocol::PsAa, true), (Protocol::Ps, false)] {
        let mut c = cluster(proto);
        let p = 17;
        let ta = c.begin(A, APP);
        let tb = c.begin(B, APP);
        c.read(A, APP, ta, oid(p, 0)).unwrap();
        c.write(A, APP, ta, oid(p, 0), None).unwrap();
        c.submit(B, APP, Some(tb), AppOp::Read(oid(p, 9)));
        c.pump();
        let b_done = c.find_reply(B, tb).is_some();
        assert_eq!(
            b_done, expect_concurrent,
            "{proto}: concurrent-reader completion"
        );
        c.commit(A, APP, ta).unwrap();
        c.pump();
        if !b_done {
            assert!(c.find_reply(B, tb).is_some(), "{proto}: B resumes after A");
        }
        c.commit(B, APP, tb).unwrap();
    }
}

#[test]
fn uncommitted_object_is_unavailable_to_other_client() {
    let mut c = cluster(Protocol::PsAa);
    let p = 19;
    let x = oid(p, 3);
    let y = oid(p, 4);

    let ta = c.begin(A, APP);
    c.read(A, APP, ta, x).unwrap();
    c.write(A, APP, ta, x, None).unwrap();

    // B fetches the page for a different object: X must arrive marked
    // unavailable (paper §4.2.3), so B's read of Y succeeds but a read
    // of X goes back to the server and blocks.
    let tb = c.begin(B, APP);
    let v = c.read(B, APP, tb, y).unwrap();
    assert_eq!(version_of(&v), 0);
    c.submit(B, APP, Some(tb), AppOp::Read(x));
    c.pump();
    assert!(c.find_reply(B, tb).is_none(), "X is write-locked by A");
    c.commit(A, APP, ta).unwrap();
    c.pump();
    match c.find_reply(B, tb) {
        Some(AppReply::Done { data: Some(d), .. }) => assert_eq!(version_of(&d), 1),
        other => panic!("unexpected {other:?}"),
    }
    c.commit(B, APP, tb).unwrap();
}

#[test]
fn abort_undoes_everywhere() {
    let mut c = cluster(Protocol::PsAa);
    let x = oid(21, 0);
    let ta = c.begin(A, APP);
    c.read(A, APP, ta, x).unwrap();
    c.write(A, APP, ta, x, None).unwrap();
    let aborted = c.run_op(A, APP, ta, AppOp::Abort);
    assert!(
        matches!(aborted, Err(PsccError::Aborted { .. })),
        "{aborted:?}"
    );
    // B reads the original value.
    let tb = c.begin(B, APP);
    let v = c.read(B, APP, tb, x).unwrap();
    assert_eq!(version_of(&v), 0);
    c.commit(B, APP, tb).unwrap();
    // And A itself re-reads the original value (its dirty copy was
    // marked unavailable and re-fetched).
    let ta2 = c.begin(A, APP);
    let v = c.read(A, APP, ta2, x).unwrap();
    assert_eq!(version_of(&v), 0);
    c.commit(A, APP, ta2).unwrap();
}

#[test]
fn deadlock_detected_and_victim_aborted() {
    let mut c = cluster(Protocol::PsAa);
    let x = oid(23, 0);
    let y = oid(23, 1); // same page, object-level conflict
    let ta = c.begin(A, APP);
    let tb = c.begin(B, APP);

    c.read(A, APP, ta, x).unwrap();
    c.write(A, APP, ta, x, None).unwrap();
    c.read(B, APP, tb, y).unwrap();
    c.write(B, APP, tb, y, None).unwrap();

    // Cross writes: A→y, B→x.
    c.submit(A, APP, Some(ta), write(y));
    c.pump();
    c.submit(B, APP, Some(tb), write(x));
    c.pump();

    let ra = c.find_reply(A, ta);
    let rb = c.find_reply(B, tb);
    let aborted = [&ra, &rb]
        .iter()
        .filter(|r| matches!(r, Some(AppReply::Aborted { .. })))
        .count();
    assert_eq!(aborted, 1, "exactly one victim: {ra:?} / {rb:?}");
    assert!(c.total_stats().deadlock_aborts >= 1);

    // The survivor finishes (its blocked write completes once the
    // victim's locks are released).
    if matches!(ra, Some(AppReply::Aborted { .. })) {
        c.pump();
        if !matches!(rb, Some(AppReply::Done { .. })) {
            assert!(c.find_reply(B, tb).is_some(), "survivor's write completes");
        }
        c.commit(B, APP, tb).unwrap();
    } else {
        c.pump();
        if !matches!(ra, Some(AppReply::Done { .. })) {
            assert!(c.find_reply(A, ta).is_some(), "survivor's write completes");
        }
        c.commit(A, APP, ta).unwrap();
    }
}

#[test]
fn serializability_smoke_counter_increments() {
    // Ten transactions from two clients increment the same object; the
    // final committed value must be exactly 10 (no lost updates).
    let mut c = cluster(Protocol::PsAa);
    let x = oid(25, 0);
    for i in 0..10 {
        let site = if i % 2 == 0 { A } else { B };
        let t = c.begin(site, APP);
        c.read(site, APP, t, x).unwrap();
        c.write(site, APP, t, x, None).unwrap();
        c.commit(site, APP, t).unwrap();
    }
    assert_eq!(version_of(c.sites[0].volume().read_object(x).unwrap()), 10);
}

#[test]
fn explicit_file_lock_purges_and_blocks() {
    let mut c = cluster(Protocol::PsAa);
    let file = FileId::new(VolId(SERVER.0), 0);
    let x = oid(27, 0);

    // B caches a page of the file.
    let tb = c.begin(B, APP);
    c.read(B, APP, tb, x).unwrap();
    c.commit(B, APP, tb).unwrap();

    // A takes an explicit EX file lock: B's cached pages of the file are
    // purged (paper §4.3.1).
    let ta = c.begin(A, APP);
    let lock = AppOp::Lock {
        item: file.into(),
        mode: pscc_common::LockMode::Ex,
    };
    assert!(matches!(
        c.run_op(A, APP, ta, lock),
        Ok(AppReply::Done { .. })
    ));
    assert!(!c.sites[B.0 as usize].volume().contains_page(x.page)); // B owns nothing anyway
                                                                    // B's new read blocks behind the file lock.
    let tb2 = c.begin(B, APP);
    c.submit(B, APP, Some(tb2), AppOp::Read(x));
    c.pump();
    assert!(c.find_reply(B, tb2).is_none(), "file EX blocks readers");
    c.commit(A, APP, ta).unwrap();
    c.pump();
    assert!(c.find_reply(B, tb2).is_some());
    c.commit(B, APP, tb2).unwrap();
}

#[test]
fn fully_cached_page_sh_lock_is_local_only() {
    let mut c = cluster(Protocol::PsAa);
    let x = oid(29, 0);
    let t = c.begin(A, APP);
    c.read(A, APP, t, x).unwrap(); // page now fully cached
    let msgs = c.total_stats().msgs_sent;
    let lock = AppOp::Lock {
        item: pscc_common::LockableId::Page(x.page),
        mode: pscc_common::LockMode::Sh,
    };
    assert!(matches!(
        c.run_op(A, APP, t, lock),
        Ok(AppReply::Done { .. })
    ));
    assert_eq!(c.total_stats().msgs_sent, msgs, "SH page lock stayed local");
    c.commit(A, APP, t).unwrap();
}

#[test]
fn blocked_callback_resolves_after_holder_commits() {
    // The Fig. 3 client-D case: B holds a read lock on X; A's write
    // callback blocks at B until B's transaction finishes.
    let mut c = cluster(Protocol::PsAa);
    let x = oid(31, 0);

    // Warm B's cache so the next read is local-only (no server lock) —
    // the preconditions of Fig. 3's client D.
    let tb0 = c.begin(B, APP);
    c.read(B, APP, tb0, x).unwrap();
    c.commit(B, APP, tb0).unwrap();

    let tb = c.begin(B, APP);
    c.read(B, APP, tb, x).unwrap(); // B holds a local-only SH lock on X

    let ta = c.begin(A, APP);
    c.read(A, APP, ta, x).unwrap();
    c.submit(A, APP, Some(ta), write(x));
    c.pump();
    assert!(c.find_reply(A, ta).is_none(), "callback blocked at B");
    assert!(c.total_stats().callbacks_blocked >= 1);

    c.commit(B, APP, tb).unwrap();
    c.pump();
    assert!(c.find_reply(A, ta).is_some(), "write proceeds after B ends");
    c.commit(A, APP, ta).unwrap();

    // B re-reads: sees the new committed version.
    let tb2 = c.begin(B, APP);
    let v = c.read(B, APP, tb2, x).unwrap();
    assert_eq!(version_of(&v), 1);
    c.commit(B, APP, tb2).unwrap();
}
