//! Peer-servers configuration tests (partitioned ownership) and
//! two-phase commit across owners (paper §3.3, §5.5).

use pscc_common::{AppId, FileId, Oid, PageId, Protocol, PsccError, SiteId, SystemConfig, VolId};
use pscc_core::{AppOp, AppReply, OwnerMap};
use pscc_sim::testkit::version_of;
use pscc_sim::Simulation;

const APP: AppId = AppId(0);

fn peer_cluster(seed: u64) -> Simulation {
    let cfg = SystemConfig {
        protocol: Protocol::PsAa,
        ..SystemConfig::small()
    };
    // Three peers, each owning a third of the 450-page database.
    let owners = OwnerMap::Ranges(vec![
        (0, 150, SiteId(0)),
        (150, 300, SiteId(1)),
        (300, 450, SiteId(2)),
    ]);
    Simulation::seeded(3, cfg, owners, seed)
}

/// Pages live on the volume of their owning site.
fn oid_at(owner: u32, page: u32, slot: u16) -> Oid {
    Oid::new(PageId::new(FileId::new(VolId(owner), 0), page), slot)
}

/// A synthesized write of `oid` (bumps its version).
fn write(oid: Oid) -> AppOp {
    AppOp::Write { oid, bytes: None }
}

#[test]
fn peer_local_access_sends_no_messages() {
    let mut c = peer_cluster(1);
    let s1 = SiteId(1);
    let t = c.begin(s1, APP);
    let x = oid_at(1, 200, 3); // owned by site 1 itself
    c.read(s1, APP, t, x).unwrap();
    c.write(s1, APP, t, x, None).unwrap();
    c.commit(s1, APP, t).unwrap();
    assert_eq!(c.total_stats().msgs_sent, 0);
    assert_eq!(version_of(c.sites[1].volume().read_object(x).unwrap()), 1);
}

#[test]
fn peer_remote_access_roundtrips() {
    let mut c = peer_cluster(2);
    let s0 = SiteId(0);
    let t = c.begin(s0, APP);
    let x = oid_at(1, 200, 3); // owned by site 1, accessed from site 0
    let v = c.read(s0, APP, t, x).unwrap();
    assert_eq!(version_of(&v), 0);
    c.write(s0, APP, t, x, None).unwrap();
    c.commit(s0, APP, t).unwrap();
    assert_eq!(version_of(c.sites[1].volume().read_object(x).unwrap()), 1);
    assert!(c.total_stats().msgs_sent > 0);
}

#[test]
fn two_phase_commit_spans_owners() {
    let mut c = peer_cluster(3);
    let s0 = SiteId(0);
    let t = c.begin(s0, APP);
    let x = oid_at(1, 160, 0); // owner: site 1
    let y = oid_at(2, 310, 0); // owner: site 2
    let z = oid_at(0, 10, 0); // owner: site 0 (local)
    for o in [x, y, z] {
        c.read(s0, APP, t, o).unwrap();
        c.write(s0, APP, t, o, None).unwrap();
    }
    c.commit(s0, APP, t).unwrap();
    // All three partitions durably updated.
    assert_eq!(version_of(c.sites[1].volume().read_object(x).unwrap()), 1);
    assert_eq!(version_of(c.sites[2].volume().read_object(y).unwrap()), 1);
    assert_eq!(version_of(c.sites[0].volume().read_object(z).unwrap()), 1);
    // Prepare/Voted/Decide/Decided traffic happened (2 remote
    // participants × 4 messages, plus data flow).
    assert!(c.total_stats().msgs_sent >= 8);
}

#[test]
fn multi_owner_abort_undoes_all_partitions() {
    let mut c = peer_cluster(4);
    let s0 = SiteId(0);
    let x = oid_at(1, 160, 0);
    let y = oid_at(2, 310, 0);

    let t = c.begin(s0, APP);
    c.read(s0, APP, t, x).unwrap();
    c.write(s0, APP, t, x, None).unwrap();
    c.read(s0, APP, t, y).unwrap();
    c.write(s0, APP, t, y, None).unwrap();
    let aborted = c.run_op(s0, APP, t, AppOp::Abort);
    assert!(
        matches!(aborted, Err(PsccError::Aborted { .. })),
        "{aborted:?}"
    );
    c.pump();
    assert_eq!(version_of(c.sites[1].volume().read_object(x).unwrap()), 0);
    assert_eq!(version_of(c.sites[2].volume().read_object(y).unwrap()), 0);

    // A fresh transaction can update both (no stranded locks anywhere).
    let t2 = c.begin(s0, APP);
    c.read(s0, APP, t2, x).unwrap();
    c.write(s0, APP, t2, x, None).unwrap();
    c.read(s0, APP, t2, y).unwrap();
    c.write(s0, APP, t2, y, None).unwrap();
    c.commit(s0, APP, t2).unwrap();
    assert_eq!(version_of(c.sites[1].volume().read_object(x).unwrap()), 1);
}

#[test]
fn cross_peer_sharing_with_callbacks() {
    let mut c = peer_cluster(5);
    let (s0, s1, s2) = (SiteId(0), SiteId(1), SiteId(2));
    let x = oid_at(0, 20, 5); // owned by site 0

    // Sites 1 and 2 cache the page.
    for s in [s1, s2] {
        let t = c.begin(s, APP);
        c.read(s, APP, t, x).unwrap();
        c.commit(s, APP, t).unwrap();
    }
    // The owner itself updates x: callbacks go to both remote cachers.
    let t = c.begin(s0, APP);
    c.read(s0, APP, t, x).unwrap();
    c.write(s0, APP, t, x, None).unwrap();
    c.commit(s0, APP, t).unwrap();
    assert!(c.total_stats().callbacks_sent >= 2);

    // Both see the new value.
    for s in [s1, s2] {
        let t = c.begin(s, APP);
        let v = c.read(s, APP, t, x).unwrap();
        assert_eq!(version_of(&v), 1);
        c.commit(s, APP, t).unwrap();
    }
}

#[test]
fn distributed_increment_serializes() {
    // Counter increments from all three peers on each partition; totals
    // must be exact.
    let mut c = peer_cluster(6);
    let objs = [oid_at(0, 5, 0), oid_at(1, 205, 0), oid_at(2, 405, 0)];
    for round in 0..4 {
        for s in 0..3u32 {
            let site = SiteId(s);
            let t = c.begin(site, APP);
            for o in objs {
                c.read(site, APP, t, o).unwrap();
                c.write(site, APP, t, o, None).unwrap();
            }
            c.commit(site, APP, t).unwrap();
            let _ = round;
        }
    }
    for (i, o) in objs.iter().enumerate() {
        let owner = &c.sites[i];
        assert_eq!(
            version_of(owner.volume().read_object(*o).unwrap()),
            12,
            "object {o} lost updates"
        );
    }
}

#[test]
fn lock_wait_timeout_aborts_waiter() {
    // A cross-owner wait that the per-owner deadlock detector cannot see
    // is eventually resolved by the lock-wait timeout (paper §5.5).
    let mut c = peer_cluster(7);
    let (s0, s1) = (SiteId(0), SiteId(1));
    let x = oid_at(0, 30, 0); // owned by 0
    let y = oid_at(1, 230, 0); // owned by 1

    let t0 = c.begin(s0, APP);
    let t1 = c.begin(s1, APP);
    c.read(s0, APP, t0, x).unwrap();
    c.write(s0, APP, t0, x, None).unwrap();
    c.read(s1, APP, t1, y).unwrap();
    c.write(s1, APP, t1, y, None).unwrap();
    // Cross access: t0 wants y (waits at owner 1), t1 wants x (waits at
    // owner 0). Neither owner sees a full cycle locally.
    c.submit(s0, APP, Some(t0), write(y));
    c.pump();
    c.submit(s1, APP, Some(t1), write(x));
    c.pump();
    assert!(c.find_reply(s0, t0).is_none());
    assert!(c.find_reply(s1, t1).is_none());
    // Let the timers fire.
    c.pump_with_timers();
    let r0 = c.find_reply(s0, t0);
    let r1 = c.find_reply(s1, t1);
    let aborted = [&r0, &r1]
        .iter()
        .filter(|r| matches!(r, Some(AppReply::Aborted { .. })))
        .count();
    assert!(aborted >= 1, "timeout must break the distributed deadlock");
    assert!(c.total_stats().timeout_aborts >= 1);
}

#[test]
fn eviction_ships_logs_early_and_purges() {
    // A tiny cache forces evictions of dirty pages mid-transaction; the
    // log records travel with the purge notice and the data survives.
    let cfg = SystemConfig {
        protocol: Protocol::PsAa,
        client_buf_frac: 0.01, // ~4 pages of the 450-page DB
        ..SystemConfig::small()
    };
    let owners = OwnerMap::Single(SiteId(0));
    let mut c = Simulation::seeded(2, cfg, owners, 8);
    let site = SiteId(1);
    let t = c.begin(site, APP);
    // Touch enough pages to overflow the cache several times, updating
    // each.
    for p in 0..12u32 {
        let o = Oid::new(PageId::new(FileId::new(VolId(0), 0), p), 0);
        c.read(site, APP, t, o).unwrap();
        c.write(site, APP, t, o, None).unwrap();
    }
    assert!(c.total_stats().pages_purged > 0, "evictions must occur");
    c.commit(site, APP, t).unwrap();
    for p in 0..12u32 {
        let o = Oid::new(PageId::new(FileId::new(VolId(0), 0), p), 0);
        assert_eq!(
            version_of(c.sites[0].volume().read_object(o).unwrap()),
            1,
            "update on page {p} lost"
        );
    }
}

#[test]
fn rereading_own_evicted_dirty_object() {
    // The FIFO request path guarantees the purge (with its early-shipped
    // log records) reaches the owner before the re-fetch, so the
    // transaction reads its own uncommitted update back.
    let cfg = SystemConfig {
        protocol: Protocol::PsAa,
        client_buf_frac: 0.005, // ~2 pages
        ..SystemConfig::small()
    };
    let owners = OwnerMap::Single(SiteId(0));
    let mut c = Simulation::seeded(2, cfg, owners, 9);
    let site = SiteId(1);
    let t = c.begin(site, APP);
    let first = Oid::new(PageId::new(FileId::new(VolId(0), 0), 0), 0);
    c.read(site, APP, t, first).unwrap();
    c.write(site, APP, t, first, None).unwrap();
    // Push the dirty page out.
    for p in 1..6u32 {
        let o = Oid::new(PageId::new(FileId::new(VolId(0), 0), p), 0);
        c.read(site, APP, t, o).unwrap();
    }
    // Re-read the updated object: must see version 1 (own update), not 0.
    let v = c.read(site, APP, t, first).unwrap();
    assert_eq!(version_of(&v), 1, "own uncommitted update must be visible");
    c.commit(site, APP, t).unwrap();
    assert_eq!(
        version_of(c.sites[0].volume().read_object(first).unwrap()),
        1
    );
}
