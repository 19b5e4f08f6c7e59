//! Hierarchical locking scenarios (paper §4.3): local-only SH page
//! locks, page-level callback blocking, the "second objective" violation
//! with callback redo (§4.3.2), dummy-object callbacks for explicit
//! IX page locks, and volume-level locks.

use pscc_common::{
    AppId, FileId, LockMode, LockableId, Oid, PageId, Protocol, SiteId, SystemConfig, VolId,
};
use pscc_core::{AppOp, AppReply, OwnerMap};
use pscc_net::PathId;
use pscc_sim::testkit::version_of;
use pscc_sim::Simulation;

const S: SiteId = SiteId(0);
const A: SiteId = SiteId(1);
const B: SiteId = SiteId(2);
const C: SiteId = SiteId(3);
const APP: AppId = AppId(0);

fn cluster() -> Simulation {
    let cfg = SystemConfig {
        protocol: Protocol::PsAa,
        ..SystemConfig::small()
    };
    Simulation::seeded(4, cfg, OwnerMap::Single(S), 17)
}

fn oid(page: u32, slot: u16) -> Oid {
    Oid::new(PageId::new(FileId::new(VolId(0), 0), page), slot)
}

/// A synthesized write of `oid` (bumps its version).
fn write(oid: Oid) -> AppOp {
    AppOp::Write { oid, bytes: None }
}

fn lock(
    c: &mut Simulation,
    site: SiteId,
    txn: pscc_common::TxnId,
    item: LockableId,
    mode: LockMode,
) {
    let reply = c
        .run_op(site, APP, txn, AppOp::Lock { item, mode })
        .unwrap();
    assert!(
        matches!(reply, AppReply::Done { .. }),
        "lock failed: {reply:?}"
    );
}

/// The full §4.3.2 scenario: a local-only SH page lock blocks an object
/// callback at the *page* level; during the server-side replication
/// dance a third client sneaks an SH on the object and receives it; the
/// callback operation detects the violation and redoes itself.
#[test]
fn page_level_blocked_callback_with_sneak_and_redo() {
    let mut c = cluster();
    let p = 50;
    let x = oid(p, 0);

    // B fully caches page p, then takes a LOCAL-ONLY SH page lock.
    let tb0 = c.begin(B, APP);
    c.read(B, APP, tb0, x).unwrap();
    c.commit(B, APP, tb0).unwrap();
    let tb = c.begin(B, APP);
    let msgs = c.total_stats().msgs_sent;
    lock(&mut c, B, tb, LockableId::Page(x.page), LockMode::Sh);
    assert_eq!(c.total_stats().msgs_sent, msgs, "SH page lock stays local");

    // A requests a write of X. Staged delivery reproduces the paper's
    // Fig. 4 ordering: C's read request must already be waiting on X at
    // the server when the page-level callback-blocked reply arrives.
    let ta = c.begin(A, APP);
    c.read(A, APP, ta, x).unwrap();
    let tc = c.begin(C, APP);
    c.submit(A, APP, Some(ta), write(x));
    c.drain(A, S, PathId(0)); // server takes EX(X); callback queued to B
    c.submit(C, APP, Some(tc), AppOp::Read(x));
    c.drain(C, S, PathId(0)); // C's SH(X) queues behind A's EX
    c.drain(S, B, PathId(2)); // callback blocks at B's page lock
    c.drain(B, S, PathId(0)); // CbBlocked: downgrade dance; C sneaks in
    assert!(c.total_stats().callbacks_blocked >= 1);
    c.drain(S, C, PathId(1)); // the sneaked copy reaches C
    match c.find_reply(C, tc) {
        Some(AppReply::Done { data: Some(v), .. }) => {
            assert_eq!(version_of(&v), 0, "C reads the pre-update version")
        }
        other => panic!("C's sneaked read failed: {other:?}"),
    }
    assert!(
        c.find_reply(A, ta).is_none(),
        "A must wait for B's page lock"
    );
    c.commit(C, APP, tc).unwrap();

    // B finishes; the callback redo re-invalidates C's copy and A's
    // write completes.
    c.commit(B, APP, tb).unwrap();
    c.pump();
    assert!(
        c.find_reply(A, ta).is_some(),
        "A's write completes after redo"
    );
    assert!(
        c.total_stats().callback_redos >= 1,
        "the second-objective violation must trigger a redo"
    );
    c.commit(A, APP, ta).unwrap();

    // C re-reads: its copy was re-invalidated, so it sees version 1.
    let tc2 = c.begin(C, APP);
    let v = c.read(C, APP, tc2, x).unwrap();
    assert_eq!(version_of(&v), 1, "C must not retain the sneaked copy");
    c.commit(C, APP, tc2).unwrap();
}

/// Explicit IX page locks generate dummy-object callbacks that revoke
/// local-only SH page coverage at other clients (§4.3.2).
#[test]
fn explicit_ix_page_lock_sends_dummy_callbacks() {
    let mut c = cluster();
    let p = 52;
    let x = oid(p, 0);

    // B fully caches the page.
    let tb0 = c.begin(B, APP);
    c.read(B, APP, tb0, x).unwrap();
    c.commit(B, APP, tb0).unwrap();

    // A takes an explicit IX page lock: a dummy-object callback makes
    // B's copy no longer *fully* cached...
    let ta = c.begin(A, APP);
    lock(&mut c, A, ta, LockableId::Page(x.page), LockMode::Ix);
    assert!(
        c.total_stats().callbacks_sent >= 1,
        "dummy callback expected"
    );

    // ...so B's next SH page lock must go to the server (it no longer
    // qualifies as local-only) where it waits behind A's IX.
    let tb = c.begin(B, APP);
    c.submit(
        B,
        APP,
        Some(tb),
        AppOp::Lock {
            item: LockableId::Page(x.page),
            mode: LockMode::Sh,
        },
    );
    c.pump();
    assert!(
        c.find_reply(B, tb).is_none(),
        "SH page lock must wait behind the IX at the server"
    );
    c.commit(A, APP, ta).unwrap();
    c.pump();
    assert!(c.find_reply(B, tb).is_some());
    c.commit(B, APP, tb).unwrap();
}

/// Volume-level EX locks purge every cached page of the volume at other
/// clients (volumes are treated like files, §4.3.1).
#[test]
fn volume_lock_purges_everything() {
    let mut c = cluster();
    let (x, y) = (oid(54, 0), oid(55, 0));

    let tb = c.begin(B, APP);
    c.read(B, APP, tb, x).unwrap();
    c.read(B, APP, tb, y).unwrap();
    c.commit(B, APP, tb).unwrap();

    let ta = c.begin(A, APP);
    lock(&mut c, A, ta, LockableId::Volume(VolId(0)), LockMode::Ex);
    // Both of B's cached pages are gone; its next read blocks behind the
    // volume lock.
    let tb2 = c.begin(B, APP);
    c.submit(B, APP, Some(tb2), AppOp::Read(x));
    c.pump();
    assert!(
        c.find_reply(B, tb2).is_none(),
        "volume EX blocks all readers"
    );
    c.commit(A, APP, ta).unwrap();
    c.pump();
    assert!(c.find_reply(B, tb2).is_some());
    c.commit(B, APP, tb2).unwrap();
}

/// Intention file locks (IS/IX) coexist at the server; SH file locks
/// conflict with IX at the file level.
#[test]
fn file_lock_mode_semantics() {
    let mut c = cluster();
    let file = FileId::new(VolId(0), 0);

    let ta = c.begin(A, APP);
    lock(&mut c, A, ta, LockableId::File(file), LockMode::Ix);

    // IS coexists with IX.
    let tb = c.begin(B, APP);
    lock(&mut c, B, tb, LockableId::File(file), LockMode::Is);
    c.commit(B, APP, tb).unwrap();

    // SH must wait behind IX.
    let tc = c.begin(C, APP);
    c.submit(
        C,
        APP,
        Some(tc),
        AppOp::Lock {
            item: LockableId::File(file),
            mode: LockMode::Sh,
        },
    );
    c.pump();
    assert!(c.find_reply(C, tc).is_none(), "SH file must wait behind IX");
    c.commit(A, APP, ta).unwrap();
    c.pump();
    assert!(c.find_reply(C, tc).is_some());
    c.commit(C, APP, tc).unwrap();
}

/// A blocked *file* callback replicates the conflict and resolves when
/// the local reader finishes (§4.3.1's SIX downgrade dance).
#[test]
fn blocked_file_callback_resolves() {
    let mut c = cluster();
    let file = FileId::new(VolId(0), 0);
    let x = oid(56, 0);

    // B holds a local-only SH on an object of the file (cached read).
    let tb0 = c.begin(B, APP);
    c.read(B, APP, tb0, x).unwrap();
    c.commit(B, APP, tb0).unwrap();
    let tb = c.begin(B, APP);
    c.read(B, APP, tb, x).unwrap(); // local-only SH obj + IS file

    // A requests EX on the whole file: the file callback at B blocks on
    // B's local IS file lock.
    let ta = c.begin(A, APP);
    c.submit(
        A,
        APP,
        Some(ta),
        AppOp::Lock {
            item: LockableId::File(file),
            mode: LockMode::Ex,
        },
    );
    c.pump();
    assert!(
        c.find_reply(A, ta).is_none(),
        "file EX must wait for B's reader"
    );
    c.commit(B, APP, tb).unwrap();
    c.pump();
    assert!(
        c.find_reply(A, ta).is_some(),
        "file EX granted after B ends"
    );
    c.commit(A, APP, ta).unwrap();
}
