//! Real-thread integration: peer servers on OS threads over the
//! multi-path in-process and TCP transports, with genuinely
//! nondeterministic scheduling. Serializability must hold regardless.

use pscc_common::{
    AppId, ConsistencyTier, FileId, Oid, PageId, Protocol, PsccError, SimDuration, SiteId,
    SystemConfig, VolId,
};
use pscc_control::{ClusterManifest, ConvergeError, ConvergeReport, TierAssignment};
use pscc_core::{AppOp, AppReply, Message, OwnerMap, ReqId};
use pscc_net::{Endpoint, Envelope, InProcNetwork, PathId, Transport};
use pscc_sim::threaded::ThreadedCluster;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn oid(page: u32, slot: u16) -> Oid {
    Oid::new(PageId::new(FileId::new(VolId(0), 0), page), slot)
}

/// Two client threads (sites 1 and 2) increment one counter owned by
/// site 0, `per_site` times each, retrying aborted attempts; a fresh
/// reader must then see every increment.
fn counter_increments_serialize(cluster: ThreadedCluster, x: Oid, per_site: u64) {
    std::thread::scope(|s| {
        for site_no in [1u32, 2u32] {
            let cluster = &cluster;
            s.spawn(move || {
                let site = SiteId(site_no);
                let app = AppId(site_no);
                let mut done = 0;
                while done < per_site {
                    let Ok(txn) = cluster.begin(site, app) else {
                        continue;
                    };
                    let ok = cluster
                        .run_op(site, app, txn, AppOp::Read(x))
                        .and_then(|_| {
                            cluster.run_op(
                                site,
                                app,
                                txn,
                                AppOp::Write {
                                    oid: x,
                                    bytes: None,
                                },
                            )
                        })
                        .and_then(|_| cluster.run_op(site, app, txn, AppOp::Commit));
                    if ok.is_ok() {
                        done += 1;
                    }
                }
            });
        }
    });

    let site = SiteId(1);
    let app = AppId(9);
    let txn = cluster.begin(site, app).unwrap();
    let reply = cluster.run_op(site, app, txn, AppOp::Read(x)).unwrap();
    let AppReply::Done { data: Some(d), .. } = reply else {
        panic!("read failed: {reply:?}")
    };
    assert_eq!(
        u64::from_le_bytes(d[0..8].try_into().unwrap()),
        2 * per_site,
        "increments lost under real threads"
    );
    let _ = cluster.run_op(site, app, txn, AppOp::Commit);
    let stats = cluster.total_stats();
    assert!(stats.commits >= 2 * per_site);
    cluster.shutdown();
}

fn ps_aa() -> SystemConfig {
    SystemConfig {
        protocol: Protocol::PsAa,
        ..SystemConfig::small()
    }
}

#[test]
fn threaded_counter_increments_serialize() {
    let cluster = ThreadedCluster::new(3, ps_aa(), OwnerMap::Single(SiteId(0)));
    counter_increments_serialize(cluster, oid(3, 0), 15);
}

/// A transport that passes on `send` and `recv_timeout` and nothing
/// else, and is not `Sync`: the shape of an outside wrapper (the
/// benchmark's tracer). It offers no waker, so its site must find
/// commands by polling.
struct Forwarding {
    inner: Endpoint<Message>,
    calls: Cell<u64>,
}

impl Transport<Message> for Forwarding {
    fn send(&self, to: SiteId, path: PathId, msg: Message) {
        self.calls.set(self.calls.get() + 1);
        self.inner.send(to, path, msg);
    }

    fn recv_timeout(&self, timeout: Duration) -> Option<Envelope<Message>> {
        self.calls.set(self.calls.get() + 1);
        Transport::recv_timeout(&self.inner, timeout)
    }
}

#[test]
fn threaded_cluster_runs_polled_over_a_transport_without_a_waker() {
    let cfg = ps_aa();
    let sites = [SiteId(0), SiteId(1), SiteId(2)];
    let net = InProcNetwork::<Message>::with_overload(
        &sites,
        3,
        cfg.mailbox_capacity as usize,
        Some(Arc::new(|m: &Message| m.is_consistency())),
    );
    let transports = sites
        .iter()
        .map(|&s| {
            let wrapped = Forwarding {
                inner: net.endpoint(s),
                calls: Cell::new(0),
            };
            (s, wrapped)
        })
        .collect();
    let cluster = ThreadedCluster::with_transports(cfg, OwnerMap::Single(SiteId(0)), transports);
    counter_increments_serialize(cluster, oid(3, 0), 15);
}

#[test]
fn timer_fires_while_commands_keep_arriving() {
    const FLOODERS: usize = 4;
    // One site, two local transactions: the second waits for the first's
    // lock and only the 5 ms lock-wait timer can end that wait. All the
    // while a driver keeps the site's command channel full; a loop that
    // looks at its timers only when nothing else is queued never fires it.
    let cfg = SystemConfig {
        initial_lock_timeout: SimDuration::from_millis(5),
        ..ps_aa()
    };
    let cluster = ThreadedCluster::new(1, cfg, OwnerMap::Single(SiteId(0)));
    let site = SiteId(0);
    let x = oid(3, 0);
    let write = AppOp::Write {
        oid: x,
        bytes: None,
    };
    let holder = cluster.begin(site, AppId(1)).unwrap();
    cluster
        .run_op(site, AppId(1), holder, write.clone())
        .unwrap();
    let waiter = cluster.begin(site, AppId(2)).unwrap();

    let stop = AtomicBool::new(false);
    let flooding = std::sync::Barrier::new(FLOODERS + 1);
    let waited = std::thread::scope(|s| {
        let (cluster, stop, flooding) = (&cluster, &stop, &flooding);
        // Several drivers, so the site cannot empty its command channel
        // faster than it fills.
        for _ in 0..FLOODERS {
            s.spawn(move || {
                let mut sent = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // Confirmed by an active site and otherwise ignored.
                    cluster.send_control(site, Message::UndrainReq { req: ReqId(1) });
                    sent += 1;
                    if sent == 10_000 {
                        flooding.wait();
                    }
                }
            });
        }
        flooding.wait();
        let t0 = Instant::now();
        let outcome = cluster.run_op(site, AppId(2), waiter, write);
        let waited = t0.elapsed();
        stop.store(true, Ordering::Relaxed);
        assert!(
            matches!(outcome, Err(PsccError::Aborted { txn, .. }) if txn == waiter),
            "the waiter should time out, got {outcome:?}"
        );
        waited
    });
    // A pass takes the timers due, then at most 64 commands. A timer
    // fired only on an empty channel takes far longer, when it fires at
    // all.
    assert!(
        waited < Duration::from_millis(100),
        "a 5 ms timer took {waited:?} to fire under command load"
    );
    cluster.shutdown();
}

#[test]
fn shutdown_does_not_wait_out_a_park() {
    // Idle sites park for 100 ms at a time; stopping them must not take
    // that long. The best of three, so one unlucky preemption on a busy
    // box does not fail the test.
    let fastest = (0..3)
        .map(|_| {
            let cluster = ThreadedCluster::new(3, ps_aa(), OwnerMap::Single(SiteId(0)));
            for s in 0..3 {
                cluster.probe(SiteId(s)).expect("site answers");
            }
            // Nothing left to do: give every site time to park.
            std::thread::sleep(Duration::from_millis(20));
            let t0 = Instant::now();
            cluster.shutdown();
            t0.elapsed()
        })
        .min()
        .expect("three runs");
    assert!(
        fastest < Duration::from_millis(50),
        "shutdown took {fastest:?} with every site parked"
    );
}

#[test]
fn threaded_peer_partition_transactions() {
    let cfg = ps_aa();
    let owners = OwnerMap::Ranges(vec![(0, 225, SiteId(0)), (225, 450, SiteId(1))]);
    let cluster = ThreadedCluster::new(2, cfg, owners);

    // Cross-partition transactions from both peers, concurrently.
    std::thread::scope(|s| {
        for site_no in [0u32, 1u32] {
            let cluster = &cluster;
            s.spawn(move || {
                let site = SiteId(site_no);
                let app = AppId(site_no);
                let local = Oid::new(
                    PageId::new(FileId::new(VolId(site_no), 0), site_no * 225 + 5),
                    0,
                );
                let remote = Oid::new(
                    PageId::new(FileId::new(VolId(1 - site_no), 0), (1 - site_no) * 225 + 9),
                    0,
                );
                let mut done = 0;
                while done < 5 {
                    let Ok(txn) = cluster.begin(site, app) else {
                        continue;
                    };
                    let ok = cluster
                        .run_op(site, app, txn, AppOp::Read(local))
                        .and_then(|_| {
                            cluster.run_op(
                                site,
                                app,
                                txn,
                                AppOp::Write {
                                    oid: local,
                                    bytes: None,
                                },
                            )
                        })
                        .and_then(|_| cluster.run_op(site, app, txn, AppOp::Read(remote)))
                        .and_then(|_| {
                            cluster.run_op(
                                site,
                                app,
                                txn,
                                AppOp::Write {
                                    oid: remote,
                                    bytes: None,
                                },
                            )
                        })
                        .and_then(|_| cluster.run_op(site, app, txn, AppOp::Commit));
                    if ok.is_ok() {
                        done += 1;
                    }
                }
            });
        }
    });

    // Each object was incremented 5 times by each peer.
    for site_no in [0u32, 1u32] {
        let site = SiteId(site_no);
        let app = AppId(7 + site_no);
        let o = Oid::new(
            PageId::new(FileId::new(VolId(site_no), 0), site_no * 225 + 5),
            0,
        );
        let txn = cluster.begin(site, app).unwrap();
        let AppReply::Done { data: Some(d), .. } =
            cluster.run_op(site, app, txn, AppOp::Read(o)).unwrap()
        else {
            panic!("read failed")
        };
        // Each peer's `local` object (page n*225+5) is written exactly 5
        // times by its own 5 committed transactions; the cross-partition
        // traffic targets different pages (offset 9).
        assert_eq!(u64::from_le_bytes(d[0..8].try_into().unwrap()), 5);
        let _ = cluster.run_op(site, app, txn, AppOp::Commit);
    }
    cluster.shutdown();
}

/// A closed loop of update transactions on `x` at `site` until `stop`,
/// counting commits and tolerating the aborts of a roll's
/// drain/restart windows.
fn update_until(cluster: &ThreadedCluster, site: SiteId, x: Oid, stop: &AtomicBool, n: &AtomicU64) {
    let app = AppId(site.0);
    while !stop.load(Ordering::Relaxed) {
        let Ok(txn) = cluster.begin(site, app) else {
            continue;
        };
        let ok = cluster
            .run_op(
                site,
                app,
                txn,
                AppOp::Write {
                    oid: x,
                    bytes: None,
                },
            )
            .and_then(|_| cluster.run_op(site, app, txn, AppOp::Commit));
        if ok.is_ok() {
            n.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Whether `n` reaches `target` within `limit`.
fn wait_for(n: &AtomicU64, target: u64, limit: Duration) -> bool {
    let deadline = Instant::now() + limit;
    while n.load(Ordering::Relaxed) < target {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    true
}

/// Runs `manifest` to convergence on a supervisor thread.
fn converge(
    cluster: &ThreadedCluster,
    manifest: ClusterManifest,
) -> Result<ConvergeReport, ConvergeError> {
    cluster
        .spawn_converge(
            manifest,
            SimDuration::from_millis(5),
            SimDuration::from_secs(120),
        )
        .expect("manifest validates")
        .join()
        .expect("supervisor thread")
}

/// Reads the counter of `x` at `site`. A site that sat idle through a
/// roll can land its first transaction in the post-restart fence/rejoin
/// window and abort, so the read is retried until it goes through.
fn read_counter(cluster: &ThreadedCluster, site: SiteId, x: Oid) -> u64 {
    let app = AppId(9);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let attempt = cluster
            .begin(site, app)
            .and_then(|txn| cluster.run_op(site, app, txn, AppOp::Read(x)));
        match attempt {
            Ok(AppReply::Done { data: Some(d), .. }) => {
                return u64::from_le_bytes(d[0..8].try_into().unwrap());
            }
            other => {
                assert!(
                    Instant::now() < deadline,
                    "verification read never succeeded, last: {other:?}"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

#[test]
fn threaded_rolling_restart_under_live_traffic() {
    let cfg = ps_aa();
    let cluster = ThreadedCluster::new(3, cfg, OwnerMap::Single(SiteId(0)));
    let x = oid(3, 0);
    let stop = AtomicBool::new(false);
    let committed = AtomicU64::new(0);

    let outcome = std::thread::scope(|s| {
        let (cluster, stop, committed) = (&cluster, &stop, &committed);
        // A client hammers the owner's counter for the whole run.
        s.spawn(move || update_until(cluster, SiteId(2), x, stop, committed));

        // Let traffic flow, then roll the owner under it. Outcomes are
        // recorded and asserted only after the scope ends: a panic here
        // would leave `stop` unset and deadlock the scope's join.
        let pre_ok = wait_for(committed, 3, Duration::from_secs(30));
        let before = cluster.probe(SiteId(0)).map(|p| p.epoch);
        let roll = before.as_ref().ok().map(|&epoch| {
            let m = ClusterManifest::rolling_restart(
                &[(SiteId(0), epoch)],
                1,
                SimDuration::from_secs(20),
            );
            converge(cluster, m)
        });
        let after = cluster.probe(SiteId(0)).map(|p| p.epoch);
        // Commits must resume against the restarted owner. The client's
        // first attempts can burn reply timeouts on transactions the
        // restart killed, so the allowance is generous.
        let resumed_from = committed.load(Ordering::Relaxed);
        let post_ok = wait_for(committed, resumed_from + 3, Duration::from_secs(60));
        stop.store(true, Ordering::Relaxed);
        (pre_ok, before, roll, after, post_ok)
    });
    let (pre_ok, before, roll, after, post_ok) = outcome;
    assert!(pre_ok, "no commits before the roll");
    let before = before.expect("owner probe before the roll");
    roll.expect("owner probed").expect("roll converges");
    let after = after.expect("owner probe after the roll");
    assert!(
        after > before,
        "owner epoch must advance across the roll ({before} -> {after})"
    );
    assert!(post_ok, "no commits after the roll");

    // Zero committed work lost: the durable counter equals the number
    // of commit acknowledgements the client observed.
    assert_eq!(
        read_counter(&cluster, SiteId(1), x),
        committed.load(Ordering::Relaxed),
        "committed updates lost (or phantom) across the threaded roll"
    );
    cluster.shutdown();
}

/// The headline roll of `rolling.rs`, on OS threads and by the same
/// supervisor: both owners of a partitioned database restarted one at a
/// time (`max_unavailable` 1) plus a tier row rolled onto one of them,
/// while a client per partition keeps committing.
#[test]
fn threaded_rolling_restart_of_two_owners_and_a_tier_under_live_traffic() {
    let owners = [SiteId(0), SiteId(1)];
    let cluster = ThreadedCluster::new(
        4,
        ps_aa(),
        OwnerMap::Ranges(vec![(0, 225, owners[0]), (225, 450, owners[1])]),
    );
    // Client site 2 updates an object of owner 0, client site 3 one of
    // owner 1 (each owner stores its partition under its own volume).
    let objects = [
        Oid::new(PageId::new(FileId::new(VolId(0), 0), 10), 0),
        Oid::new(PageId::new(FileId::new(VolId(1), 0), 300), 0),
    ];
    let committed = [AtomicU64::new(0), AtomicU64::new(0)];
    let stop = AtomicBool::new(false);
    // A file the traffic does not touch, so its reads stay strict.
    let tier = TierAssignment {
        site: owners[0],
        file: 7,
        tier: ConsistencyTier::BoundedStale {
            ttl: SimDuration::from_millis(50),
        },
    };

    let outcome = std::thread::scope(|s| {
        for (i, &x) in objects.iter().enumerate() {
            let (cluster, stop, n) = (&cluster, &stop, &committed[i]);
            s.spawn(move || update_until(cluster, SiteId(2 + i as u32), x, stop, n));
        }
        let pre_ok = committed
            .iter()
            .all(|n| wait_for(n, 3, Duration::from_secs(30)));
        let before: Result<Vec<u64>, _> = owners
            .iter()
            .map(|&o| cluster.probe(o).map(|p| p.epoch))
            .collect();
        let manifest = before.as_ref().ok().map(|epochs| {
            let current: Vec<(SiteId, u64)> =
                owners.iter().copied().zip(epochs.iter().copied()).collect();
            let mut m = ClusterManifest::rolling_restart(&current, 1, SimDuration::from_secs(20));
            m.tiers = vec![tier];
            m
        });
        let roll = manifest.clone().map(|m| converge(&cluster, m));
        let after: Result<Vec<_>, _> = owners.iter().map(|&o| cluster.probe(o)).collect();
        let post_ok = committed.iter().all(|n| {
            let resumed_from = n.load(Ordering::Relaxed);
            wait_for(n, resumed_from + 3, Duration::from_secs(60))
        });
        stop.store(true, Ordering::Relaxed);
        (pre_ok, before, manifest, roll, after, post_ok)
    });
    let (pre_ok, before, manifest, roll, after, post_ok) = outcome;
    assert!(pre_ok, "both partitions must commit before the roll");
    let before = before.expect("owner probes before the roll");
    let manifest = manifest.expect("manifest built");
    let report = roll.expect("roll ran").expect("roll converges");
    assert!(report.steps >= 3, "two walks and a tier row: {report:?}");
    let after = after.expect("owner probes after the roll");
    for ((site, was), now) in owners.iter().zip(&before).zip(&after) {
        assert!(
            now.epoch > *was,
            "{site} epoch never advanced ({was} -> {})",
            now.epoch
        );
    }
    assert_eq!(
        after[0].tiers_fp,
        manifest.tiers_fp_for(owners[0]),
        "tier row never landed"
    );
    assert!(post_ok, "a partition stopped committing after the roll");

    // Zero committed work lost on either partition.
    for (x, n) in objects.iter().zip(&committed) {
        assert_eq!(
            read_counter(&cluster, SiteId(2), *x),
            n.load(Ordering::Relaxed),
            "committed updates lost (or phantom) on {x:?} across the threaded roll"
        );
    }
    cluster.shutdown();
}

#[test]
fn tcp_cluster_end_to_end() {
    // The full deployment stack: engine + frame codec + kernel TCP on
    // localhost. One server, two clients, concurrent counter increments.
    let cluster = ThreadedCluster::new_tcp(3, ps_aa(), OwnerMap::Single(SiteId(0)));
    counter_increments_serialize(cluster, oid(5, 0), 5);
}

/// A reply that takes longer than the application's nap: a write at
/// client site 1 waits for the lock a transaction at owner site 0
/// holds, so its reply comes only once that one commits, and
/// `recv_reply` must still be waiting for it on the channel.
fn a_reply_slower_than_the_nap_is_returned(cluster: ThreadedCluster) {
    const HELD: Duration = Duration::from_millis(50);
    let x = oid(3, 0);
    let write = AppOp::Write {
        oid: x,
        bytes: None,
    };
    let (owner, client) = (SiteId(0), SiteId(1));
    let holder = cluster.begin(owner, AppId(1)).unwrap();
    cluster
        .run_op(owner, AppId(1), holder, write.clone())
        .unwrap();
    let waiter = cluster.begin(client, AppId(2)).unwrap();
    let t0 = Instant::now();
    let (outcome, waited) = std::thread::scope(|s| {
        let waiting = s.spawn(|| {
            let outcome = cluster.run_op(client, AppId(2), waiter, write.clone());
            (outcome, t0.elapsed())
        });
        std::thread::sleep(HELD);
        cluster
            .run_op(owner, AppId(1), holder, AppOp::Commit)
            .expect("the holder commits");
        waiting.join().expect("waiting thread")
    });
    assert!(
        matches!(outcome, Ok(AppReply::Done { txn, .. }) if txn == waiter),
        "the lock wait's reply was lost: {outcome:?}"
    );
    assert!(waited >= HELD, "the write did not wait for the lock");
    cluster
        .run_op(client, AppId(2), waiter, AppOp::Commit)
        .expect("the waiter commits");
    cluster.shutdown();
}

#[test]
fn a_reply_slower_than_the_nap_is_returned_inproc() {
    let cluster = ThreadedCluster::new(2, ps_aa(), OwnerMap::Single(SiteId(0)));
    a_reply_slower_than_the_nap_is_returned(cluster);
}

#[test]
fn a_reply_slower_than_the_nap_is_returned_over_tcp() {
    let cluster = ThreadedCluster::new_tcp(2, ps_aa(), OwnerMap::Single(SiteId(0)));
    a_reply_slower_than_the_nap_is_returned(cluster);
}
