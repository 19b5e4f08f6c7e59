//! Seeded chaos for the lock-free edge tier (DESIGN.md §11): a flash
//! crowd on one hot file, a watch severed by a partition and healed, an
//! owner crash under live watchers, and a TTL-expiry storm. Every
//! scenario ends in [`Simulation::assert_survivors_quiescent`], which runs
//! the event auditor — including check 6, *no edge read is ever served
//! older than its tier's staleness bound* — over the merged trace.
//!
//! Like `tests/chaos.rs`, every schedule is reproducible from its seed
//! and perturbable from the environment: `CHAOS_SEED=2 cargo test
//! --test edge` sweeps the interleavings while every assertion below
//! stays seed-independent.

use pscc_common::hash::{fnv64, with_hash_seed};
use pscc_common::{
    AppId, ConsistencyTier, EdgeTierSpec, FileId, Oid, PageId, SimDuration, SiteId, SystemConfig,
    VolId,
};
use pscc_core::OwnerMap;
use pscc_sim::chaos::FaultPlan;
use pscc_sim::testkit::version_of;
use pscc_sim::Simulation;

const OWNER: SiteId = SiteId(0);
const A: SiteId = SiteId(1);
const B: SiteId = SiteId(2);
const C: SiteId = SiteId(3);
const APP: AppId = AppId(0);

fn oid_on_page(page: u32, slot: u16) -> Oid {
    Oid::new(PageId::new(FileId::new(VolId(0), 0), page), slot)
}

/// Per-test base seed, perturbed by `CHAOS_SEED` from the environment
/// so CI can sweep schedules.
fn seed(base: u64) -> u64 {
    let sweep = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0);
    base ^ sweep.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Failure-detection knobs tightened as in `tests/chaos.rs`, plus the
/// whole database (file 0) under the given edge tier.
fn edge_cfg(tier: ConsistencyTier) -> SystemConfig {
    let mut cfg = SystemConfig::small();
    cfg.leases_enabled = true;
    cfg.heartbeat_interval = SimDuration::from_millis(20);
    cfg.lease_duration = SimDuration::from_millis(100);
    cfg.callback_response_timeout = SimDuration::from_millis(200);
    cfg.edge_tiers = vec![EdgeTierSpec { file: 0, tier }];
    cfg
}

/// The flash crowd: three edge sites hammer one hot object under a
/// bounded-stale tier. The first touch per edge fetches through; every
/// re-read inside the TTL is a local lock-free hit, so the owner fields
/// three requests instead of fifteen. A commit at the owner must become
/// visible to the crowd no later than one TTL after it lands.
fn flash_crowd(seed_: u64) -> Simulation {
    let ttl = SimDuration::from_millis(50);
    let mut c = Simulation::seeded(
        4,
        edge_cfg(ConsistencyTier::BoundedStale { ttl }),
        OwnerMap::Single(OWNER),
        seed_,
    );
    let hot = oid_on_page(3, 1);
    let edges = [A, B, C];

    for _ in 0..5 {
        for s in edges {
            let t = c.begin(s, APP);
            let bytes = c.read(s, APP, t, hot).unwrap();
            assert_eq!(version_of(&bytes), 0);
            c.commit(s, APP, t).unwrap();
        }
    }
    let total = c.total_stats();
    assert!(
        total.edge_hits >= 12,
        "the crowd's re-reads must hit the edge cache: {total}"
    );
    assert!(
        total.edge_misses <= 3,
        "only the first touch per edge may fetch through: {total}"
    );

    // The owner commits a write. Edges may keep serving the old image
    // inside the TTL (that is the bargain), but one TTL later every
    // read must see the new version.
    let tw = c.begin(OWNER, APP);
    c.write(OWNER, APP, tw, hot, None).unwrap();
    c.commit(OWNER, APP, tw).unwrap();
    c.pump_for(ttl + SimDuration::from_millis(1));
    for s in edges {
        let t = c.begin(s, APP);
        let bytes = c.read(s, APP, t, hot).unwrap();
        assert_eq!(
            version_of(&bytes),
            1,
            "edge at {s:?} served past the staleness bound"
        );
        c.commit(s, APP, t).unwrap();
    }

    c.pump_for(SimDuration::from_millis(300));
    c.assert_survivors_quiescent();
    c
}

#[test]
fn flash_crowd_absorbs_rereads_within_the_bound() {
    flash_crowd(seed(61));
}

/// The seeded delivery order, pinned: the merged trace of one flash
/// crowd at a literal seed (not `CHAOS_SEED`) hashes to a fixed value
/// under every hash seed.
#[test]
fn flash_crowd_trace_is_pinned() {
    const GOLDEN: u64 = 0x6bbd_0616_98cb_a70f;
    for hash_seed in 0..4 {
        let c = with_hash_seed(hash_seed, || flash_crowd(1));
        let dump = pscc_obs::event::render_dump(&c.merged_trace());
        assert_eq!(fnv64(dump.as_bytes()), GOLDEN, "hash seed {hash_seed}");
    }
}

#[test]
fn same_seed_replays_identical_edge_run() {
    // Same fault seed, other hash seeds: the replay — every traced event
    // at its virtual time, not just the counters — must not depend on the
    // order the tables iterate in.
    let trace = |c: &Simulation| -> Vec<_> {
        c.merged_trace()
            .into_iter()
            .map(|e| (e.at, e.site, e.seq, e.kind))
            .collect()
    };
    let a = flash_crowd(seed(71));
    for hash_seed in 1..=3 {
        let b = with_hash_seed(hash_seed, || flash_crowd(seed(71)));
        assert_eq!(
            a.total_stats(),
            b.total_stats(),
            "edge run not deterministic (hash seed {hash_seed})"
        );
        assert!(
            trace(&a) == trace(&b),
            "edge trace differs (hash seed {hash_seed})"
        );
    }
}

#[test]
fn watch_severed_by_partition_then_healed() {
    let fallback = SimDuration::from_millis(120);
    let mut c = Simulation::seeded(
        3,
        edge_cfg(ConsistencyTier::WatchBased {
            fallback_ttl: fallback,
        }),
        OwnerMap::Single(OWNER),
        seed(67),
    );
    let hot = oid_on_page(5, 1);

    // A subscribes by reading; the copy is watch-fresh.
    let t = c.begin(A, APP);
    assert_eq!(version_of(&c.read(A, APP, t, hot).unwrap()), 0);
    c.commit(A, APP, t).unwrap();

    // B writes through the strict path; the owner streams an
    // invalidation to its subscriber. A's next read must refetch and
    // see the commit immediately — no TTL wait on a live watch.
    let t = c.begin(B, APP);
    c.write(B, APP, t, hot, None).unwrap();
    c.commit(B, APP, t).unwrap();
    c.pump_for(SimDuration::from_millis(10));
    let t = c.begin(A, APP);
    assert_eq!(
        version_of(&c.read(A, APP, t, hot).unwrap()),
        1,
        "a live watch must deliver the invalidation promptly"
    );
    c.commit(A, APP, t).unwrap();
    assert!(
        c.total_stats().edge_invalidations >= 1,
        "owner never streamed an invalidation: {}",
        c.total_stats()
    );

    // Sever the watch: a symmetric cut between owner and edge, healing
    // later. Within the fallback TTL the frozen copy still serves.
    let heal_at = c.now() + SimDuration::from_millis(400);
    c.install_faults(FaultPlan::seeded(seed(67) ^ 0xeade).partition(vec![OWNER], vec![A], heal_at));
    let t = c.begin(A, APP);
    assert_eq!(
        version_of(&c.read(A, APP, t, hot).unwrap()),
        1,
        "inside the fallback TTL the copy is still valid"
    );
    c.commit(A, APP, t).unwrap();

    // Ride out the cut: both sides declare the other dead (lease expiry
    // behind the partition), which reaps the subscription at the owner
    // and purges the orphaned copies at the edge.
    c.pump_for(SimDuration::from_millis(500));
    assert!(
        c.sites[OWNER.0 as usize].stats.edge_subs_reaped >= 1,
        "owner never reaped the severed subscription"
    );
    assert!(c.total_stats().crashes_detected >= 2);

    // Healed: the first transaction may be refused while A re-runs the
    // rejoin handshake; after that reads flow again and see the
    // committed version (never anything older).
    let t = c.begin(A, APP);
    if c.read(A, APP, t, hot).is_ok() {
        c.commit(A, APP, t).unwrap();
    }
    let t = c.begin(A, APP);
    assert_eq!(version_of(&c.read(A, APP, t, hot).unwrap()), 1);
    c.commit(A, APP, t).unwrap();

    c.pump_for(SimDuration::from_millis(300));
    c.assert_survivors_quiescent();
}

#[test]
fn owner_crash_with_live_watchers() {
    let fallback = SimDuration::from_millis(120);
    let mut c = Simulation::seeded(
        3,
        edge_cfg(ConsistencyTier::WatchBased {
            fallback_ttl: fallback,
        }),
        OwnerMap::Single(OWNER),
        seed(73),
    );
    let hot = oid_on_page(7, 1);

    // Two live watchers, both with fresh copies.
    for s in [A, B] {
        let t = c.begin(s, APP);
        assert_eq!(version_of(&c.read(s, APP, t, hot).unwrap()), 0);
        c.commit(s, APP, t).unwrap();
    }
    let tw = c.begin(OWNER, APP);
    c.write(OWNER, APP, tw, hot, None).unwrap();
    c.commit(OWNER, APP, tw).unwrap();
    c.pump_for(SimDuration::from_millis(10));
    let t = c.begin(A, APP);
    assert_eq!(version_of(&c.read(A, APP, t, hot).unwrap()), 1);
    c.commit(A, APP, t).unwrap();

    // The owner dies under its watchers. Lease expiry makes every edge
    // purge the orphaned copies and retire its watch — served staleness
    // stays bounded because nothing is served at all.
    c.crash_site(OWNER);
    c.pump_for(SimDuration::from_secs(1));
    assert!(
        c.total_stats().crashes_detected >= 2,
        "watchers never noticed the dead owner"
    );

    // The owner returns (epoch bump). The first transaction per edge
    // may be refused while the rejoin handshake runs; after that the
    // committed version is served — redo made it durable.
    c.restart_site(OWNER);
    c.pump_for(SimDuration::from_millis(200));
    for s in [A, B] {
        let t = c.begin(s, APP);
        if c.read(s, APP, t, hot).is_ok() {
            c.commit(s, APP, t).unwrap();
        }
        let t = c.begin(s, APP);
        assert_eq!(
            version_of(&c.read(s, APP, t, hot).unwrap()),
            1,
            "{s:?} must see the durable committed version after the restart"
        );
        c.commit(s, APP, t).unwrap();
    }

    c.pump_for(SimDuration::from_millis(300));
    c.assert_survivors_quiescent();
}

#[test]
fn ttl_expiry_storm_refetches_every_round() {
    let ttl = SimDuration::from_millis(5);
    let mut c = Simulation::seeded(
        4,
        edge_cfg(ConsistencyTier::BoundedStale { ttl }),
        OwnerMap::Single(OWNER),
        seed(79),
    );
    let hot = oid_on_page(9, 1);
    let edges = [A, B, C];

    // Each round: every edge reads twice (refetch + in-TTL hit), then
    // the TTL expires before the next round — a storm of re-fetches the
    // owner must absorb without ever letting a read overshoot the
    // bound.
    for _ in 0..8 {
        for s in edges {
            let t = c.begin(s, APP);
            c.read(s, APP, t, hot).unwrap();
            c.read(s, APP, t, hot).unwrap();
            c.commit(s, APP, t).unwrap();
        }
        c.pump_for(ttl + SimDuration::from_millis(1));
    }
    let total = c.total_stats();
    assert!(
        total.edge_misses >= 24,
        "every round must re-fetch after TTL expiry: {total}"
    );
    assert!(
        total.edge_hits >= 24,
        "the second read per round must hit: {total}"
    );

    let tw = c.begin(OWNER, APP);
    c.write(OWNER, APP, tw, hot, None).unwrap();
    c.commit(OWNER, APP, tw).unwrap();
    c.pump_for(ttl + SimDuration::from_millis(1));
    let t = c.begin(A, APP);
    assert_eq!(version_of(&c.read(A, APP, t, hot).unwrap()), 1);
    c.commit(A, APP, t).unwrap();

    c.pump_for(SimDuration::from_millis(300));
    c.assert_survivors_quiescent();
}

/// The reconciler rolls a tier onto a strict cluster and back off
/// again, online: no drain, no restart, convergence judged by the tier
/// fingerprint probe.
#[test]
fn tier_roll_converges_online_and_rolls_back() {
    use pscc_control::{ClusterManifest, TierAssignment};

    let mut cfg = SystemConfig::small();
    cfg.leases_enabled = true;
    cfg.heartbeat_interval = SimDuration::from_millis(20);
    cfg.lease_duration = SimDuration::from_millis(100);
    let mut c = Simulation::seeded(3, cfg, OwnerMap::Single(OWNER), seed(83));
    let hot = oid_on_page(11, 1);
    let tier = ConsistencyTier::BoundedStale {
        ttl: SimDuration::from_millis(50),
    };

    // Strict cluster: reads never touch the edge tier.
    let t = c.begin(A, APP);
    c.read(A, APP, t, hot).unwrap();
    c.commit(A, APP, t).unwrap();
    assert_eq!(c.total_stats().edge_hits, 0);
    assert_eq!(c.total_stats().edge_misses, 0);

    // Roll the tier onto every site (sites already satisfy the
    // manifest, so the walk is a no-op and only SetTier steps run).
    let mut m = ClusterManifest::rolling_restart(
        &[(SiteId(0), 0), (SiteId(1), 0), (SiteId(2), 0)],
        1,
        SimDuration::from_millis(100),
    );
    m.tiers = (0..3)
        .map(|s| TierAssignment {
            site: SiteId(s),
            file: 0,
            tier,
        })
        .collect();
    c.apply_manifest(m).unwrap();
    let report = c
        .converge(SimDuration::from_millis(10), SimDuration::from_secs(5))
        .expect("tier roll must converge");
    assert!(report.steps >= 3, "one SetTier per site: {report:?}");

    // The tier is live: a re-read at an edge is a lock-free hit.
    for _ in 0..2 {
        let t = c.begin(A, APP);
        c.read(A, APP, t, hot).unwrap();
        c.commit(A, APP, t).unwrap();
    }
    assert!(
        c.total_stats().edge_hits >= 1,
        "rolled tier never served an edge hit: {}",
        c.total_stats()
    );

    // Roll back to Strict, still online; edge serving stops.
    let mut m = ClusterManifest::rolling_restart(
        &[(SiteId(0), 0), (SiteId(1), 0), (SiteId(2), 0)],
        1,
        SimDuration::from_millis(100),
    );
    m.tiers = (0..3)
        .map(|s| TierAssignment {
            site: SiteId(s),
            file: 0,
            tier: ConsistencyTier::Strict,
        })
        .collect();
    c.apply_manifest(m).unwrap();
    c.converge(SimDuration::from_millis(10), SimDuration::from_secs(5))
        .expect("tier rollback must converge");
    let hits_before = c.total_stats().edge_hits;
    let t = c.begin(A, APP);
    c.read(A, APP, t, hot).unwrap();
    c.commit(A, APP, t).unwrap();
    assert_eq!(
        c.total_stats().edge_hits,
        hits_before,
        "strict rollback must stop edge serving"
    );

    c.pump_for(SimDuration::from_millis(300));
    c.assert_survivors_quiescent();
}
