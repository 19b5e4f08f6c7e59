//! The layer suite: one micro-benchmark per layer boundary, each calling
//! the layer's public functions from outside and timing with the small
//! in-repo timer below (min / median / p99 over at least 30 batches; the
//! vendored Criterion shim only prints a mean).
//!
//! A layer number is not a result by itself: the README says which
//! end-to-end metric, on which workload, each one should move.

use crate::affinity::{pin_current_thread, CpuPlan};
use crate::des;
use crate::stats::{median, percentile};
use crate::threaded::{free_local_addrs, inproc_network};
use bytes::BytesMut;
use pscc_common::{
    AppId, Counters, FileId, LockMode, LockableId, Oid, PageId, Protocol, SimDuration, SimTime,
    SiteId, SystemConfig, TxnId, VolId,
};
use pscc_core::{AppOp, AppReply, AppRequest, Input, Message, Output, OwnerMap, PeerServer, ReqId};
use pscc_edge::{EdgeCache, SubscriptionTable};
use pscc_lockmgr::LockTable;
use pscc_net::codec::{decode_frame, encode_frame};
use pscc_net::tcp::TcpNode;
use pscc_net::{PathId, Transport};
use pscc_obs::{Histogram, MetricsRegistry};
use pscc_sim::experiment::{run_point, run_point_observed, Figure};
use pscc_sim::threaded::ThreadedCluster;
use pscc_sim::{WorkloadKind, WorkloadSpec};
use pscc_storage::{AvailMask, PageSnapshot, SlottedPage, Volume};
use pscc_wal::{decode_log, LogPayload, LogRecord, ServerLog};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// The timer
// ---------------------------------------------------------------------

/// Batches per measurement. The p99 of 30 is their maximum.
pub const BATCHES: usize = 30;

/// One layer measurement: per-op cost over the batches, in `unit`.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub min: f64,
    pub median: f64,
    pub p99: f64,
    pub batches: usize,
}

/// How many batches each measurement takes ([`BATCHES`]; the smoke run
/// takes fewer).
struct Timer {
    batches: usize,
}

impl Timer {
    /// Runs `batch` once to warm up and then `batches` times. A batch
    /// prepares its own state untimed and returns the cost per op of its
    /// timed part.
    fn measure(&self, mut batch: impl FnMut() -> f64) -> Timing {
        batch();
        summarize((0..self.batches).map(|_| batch()).collect())
    }
}

fn summarize(mut per_batch: Vec<f64>) -> Timing {
    let median = median(&mut per_batch);
    Timing {
        min: per_batch[0],
        median,
        p99: percentile(&per_batch, 99.0),
        batches: per_batch.len(),
    }
}

/// A second quantity timed inside the batches of a [`measure`] call: its
/// per-batch values, the warm-up batch's dropped.
fn summarize_side(mut per_batch: Vec<f64>) -> Timing {
    summarize(per_batch.split_off(1))
}

/// Nanoseconds per call of `op` over a tight loop of `iters`.
fn ns_per_op<R>(iters: usize, mut op: impl FnMut(usize) -> R) -> f64 {
    let t = Instant::now();
    for i in 0..iters {
        black_box(op(i));
    }
    t.elapsed().as_nanos() as f64 / iters as f64
}

/// Nanoseconds per call of `op`, with `prepare` before each call kept
/// off the clock (for ops that consume their input).
fn ns_per_prepared_op<P, R>(
    iters: usize,
    mut prepare: impl FnMut(usize) -> P,
    mut op: impl FnMut(P) -> R,
) -> f64 {
    let mut total = Duration::ZERO;
    for i in 0..iters {
        let p = prepare(i);
        let t = Instant::now();
        let r = op(p);
        total += t.elapsed();
        black_box(r);
    }
    total.as_nanos() as f64 / iters as f64
}

/// The suite's results: `(metric name, timing)`; the metric's value is
/// the timing's median.
pub type LayerResults = Vec<(&'static str, Timing)>;

// ---------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------

fn page_id(page: u32) -> PageId {
    PageId::new(FileId::new(VolId(0), 0), page)
}

fn oid(page: u32, slot: u16) -> Oid {
    Oid::new(page_id(page), slot)
}

fn txn(site: u32, n: u64) -> TxnId {
    TxnId::new(SiteId(site), n)
}

/// The benchmark's platform, as the threaded workloads run it.
fn platform() -> SystemConfig {
    crate::threaded::platform(2)
}

/// A 4 KiB page holding the platform's 20 objects.
fn full_page(cfg: &SystemConfig) -> SlottedPage {
    let mut p = SlottedPage::new(cfg.page_size);
    let body = vec![7u8; cfg.object_size() as usize];
    for _ in 0..cfg.objects_per_page {
        p.insert(&body)
            .expect("the platform's objects fit its page");
    }
    p
}

/// The page ship of a read miss.
fn page_message(cfg: &SystemConfig) -> Message {
    Message::ReadReply {
        req: ReqId(7),
        snapshot: PageSnapshot {
            page: page_id(42),
            image: full_page(cfg),
            avail: AvailMask::all_available(cfg.objects_per_page),
            ship_seq: 3,
        },
    }
}

/// A callback acknowledgement: the typical small consistency message.
fn small_message() -> Message {
    Message::CbOk {
        cb: pscc_core::CbId(7),
        purged_page: true,
    }
}

// ---------------------------------------------------------------------
// lockmgr
// ---------------------------------------------------------------------

fn lockmgr(timer: &Timer, out: &mut LayerResults) {
    // One transaction's worth of hierarchical locking, uncontended: 30
    // pages × 12 objects, every fifth object EX (IX up the tree), the
    // rest SH (IS up the tree), then release everything.
    const PAGES: u32 = 30;
    const OBJECTS: u16 = 12;
    let mut lt = LockTable::new();
    let mut n = 0u64;
    out.push((
        "lockmgr.acquire_release_ns",
        timer.measure(|| {
            let locks = (PAGES * u32::from(OBJECTS)) as usize;
            ns_per_op(8, |_| {
                n += 1;
                let t = txn(1, n);
                for p in 0..PAGES {
                    for s in 0..OBJECTS {
                        let mode = if s % 5 == 0 {
                            LockMode::Ex
                        } else {
                            LockMode::Sh
                        };
                        black_box(lt.acquire(t, LockableId::from(oid(p, s)), mode));
                    }
                }
                lt.release_all(t)
            }) / locks as f64
        }),
    ));

    // Releasing an EX lock that 8 SH waiters queue behind.
    out.push((
        "lockmgr.contended_grant_ns",
        timer.measure(|| {
            ns_per_prepared_op(
                64,
                |_| {
                    let mut lt = LockTable::new();
                    let _ = lt.acquire(txn(0, 1), oid(1, 1).into(), LockMode::Ex);
                    for w in 1..=8 {
                        let _ = lt.acquire(txn(w, 1), oid(1, 1).into(), LockMode::Sh);
                    }
                    lt
                },
                |mut lt| {
                    let grants = lt.release_all(txn(0, 1)).grants.len();
                    assert_eq!(grants, 8);
                    lt
                },
            )
        }),
    ));

    // A 64-transaction waits-for chain closed into one cycle.
    let mut chain = LockTable::new();
    for i in 0..64u64 {
        let _ = chain.acquire(txn(i as u32, i), oid(i as u32, 0).into(), LockMode::Ex);
    }
    for i in 0..64u64 {
        let next = ((i + 1) % 64) as u32;
        let _ = chain.acquire(txn(i as u32, i), oid(next, 0).into(), LockMode::Sh);
    }
    out.push((
        "lockmgr.deadlock_detect_us",
        timer.measure(|| {
            ns_per_op(4, |_| {
                let cycles = chain.detect_deadlocks();
                assert!(!cycles.is_empty());
                cycles
            }) / 1e3
        }),
    ));
}

// ---------------------------------------------------------------------
// storage
// ---------------------------------------------------------------------

fn storage(timer: &Timer, out: &mut LayerResults) {
    let cfg = platform();
    let mut page = full_page(&cfg);
    let slots = cfg.objects_per_page as usize;
    out.push((
        "storage.page_get_ns",
        timer.measure(|| ns_per_op(20_000, |i| page.get((i % slots) as u16).map(<[u8]>::len))),
    ));
    let body = vec![9u8; cfg.object_size() as usize];
    out.push((
        "storage.page_update_ns",
        timer.measure(|| ns_per_op(20_000, |i| page.update((i % slots) as u16, &body))),
    ));
    out.push((
        "storage.page_image_copy_ns",
        timer.measure(|| ns_per_op(2_000, |_| SlottedPage::from_bytes(page.as_bytes().to_vec()))),
    ));
}

// ---------------------------------------------------------------------
// wal and recovery
// ---------------------------------------------------------------------

/// The update records of one committing transaction: 12 objects.
fn txn_records(cfg: &SystemConfig, t: TxnId, first_page: u32) -> Vec<LogRecord> {
    let size = cfg.object_size() as usize;
    (0..12u32)
        .map(|i| {
            let o = oid(first_page + i / 4, (i % 4) as u16);
            LogRecord::update(t, o, vec![0u8; size], vec![1u8; size])
        })
        .collect()
}

/// A log of `winners` committed transactions and `losers` that never
/// ended, all forced.
fn forced_log(cfg: &SystemConfig, winners: u64, losers: u64) -> ServerLog {
    let mut log = ServerLog::new();
    for n in 0..winners + losers {
        let t = txn(1, n + 1);
        let first_page = (n as u32 * 3) % (cfg.database_pages - 3);
        for r in txn_records(cfg, t, first_page) {
            log.append(r);
        }
        if n < winners {
            log.append(LogRecord {
                txn: t,
                payload: LogPayload::Commit,
            });
        }
    }
    log.force();
    log
}

fn wal_and_recovery(timer: &Timer, out: &mut LayerResults) {
    let cfg = platform();
    let records = txn_records(&cfg, txn(1, 1), 0);
    let mut n = 0u64;
    let mut force_ns = Vec::new();
    let append = timer.measure(|| {
        // A fresh log per batch, so that its size stays the same.
        let mut log = ServerLog::new();
        let (mut appending, mut forcing) = (Duration::ZERO, Duration::ZERO);
        const TXNS: usize = 50;
        for _ in 0..TXNS {
            n += 1;
            let recs: Vec<LogRecord> = records
                .iter()
                .map(|r| LogRecord {
                    txn: txn(1, n),
                    ..r.clone()
                })
                .collect();
            let t = Instant::now();
            for r in recs {
                black_box(log.append(r));
            }
            appending += t.elapsed();
            let t = Instant::now();
            black_box(log.force());
            forcing += t.elapsed();
            log.end_txn(txn(1, n), false);
        }
        force_ns.push(forcing.as_nanos() as f64 / TXNS as f64);
        appending.as_nanos() as f64 / (TXNS * records.len()) as f64
    });
    out.push(("wal.append_ns", append));
    out.push(("wal.force_ns", summarize_side(force_ns)));

    let small = SystemConfig::small();
    let image = forced_log(&small, 1_000, 10).crash_image();
    let mb = image.log.len() as f64 / 1e6;
    out.push((
        "wal.decode_mb_s",
        timer.measure(|| {
            let ns = ns_per_op(1, |_| {
                let (records, torn) = decode_log(&image.log);
                assert!(!torn);
                records.len()
            });
            mb / (ns / 1e9)
        }),
    ));

    let init = Volume::create_database(VolId(0), &small);
    out.push((
        "recovery.restart_ms",
        timer.measure(|| {
            ns_per_prepared_op(
                1,
                |_| init.clone(),
                |vol| {
                    let outcome = pscc_recovery::restart(vol, &image);
                    assert_eq!(outcome.report.winners, 1_000);
                    assert_eq!(outcome.report.losers, 10);
                    outcome.report.redo_applied
                },
            ) / 1e6
        }),
    ));
}

// ---------------------------------------------------------------------
// net
// ---------------------------------------------------------------------

fn codec(timer: &Timer, out: &mut LayerResults) {
    let cfg = platform();
    for (msg, page) in [(page_message(&cfg), true), (small_message(), false)] {
        let mut frame = BytesMut::new();
        encode_frame(&msg, &mut frame).expect("encode");
        let bytes = frame.len() as f64;
        let iters = if page { 200 } else { 5_000 };
        let encode = timer.measure(|| {
            ns_per_op(iters, |_| {
                let mut buf = BytesMut::with_capacity(frame.len());
                encode_frame(&msg, &mut buf).expect("encode");
                buf
            })
        });
        let decode = timer.measure(|| {
            ns_per_prepared_op(
                iters,
                |_| frame.clone(),
                |mut buf| {
                    decode_frame::<Message>(&mut buf)
                        .expect("decode")
                        .expect("a whole frame")
                },
            )
        });
        let exact = Timing {
            min: bytes,
            median: bytes,
            p99: bytes,
            batches: 1,
        };
        if page {
            // bytes / ns = GB/s; × 1e3 = MB/s. Slow is small here, so the
            // batch order flips: the minimum rate is the slowest batch.
            let rate = |t: Timing| Timing {
                min: bytes / t.p99 * 1e3,
                median: bytes / t.median * 1e3,
                p99: bytes / t.min * 1e3,
                batches: t.batches,
            };
            out.push(("net.codec.encode_page_mb_s", rate(encode)));
            out.push(("net.codec.decode_page_mb_s", rate(decode)));
            out.push(("net.codec.frame_bytes_page", exact));
        } else {
            out.push(("net.codec.encode_small_ns", encode));
            out.push(("net.codec.decode_small_ns", decode));
            out.push(("net.codec.frame_bytes_small", exact));
        }
    }
}

fn mailbox(timer: &Timer, out: &mut LayerResults, plan: &CpuPlan) {
    let sites = [SiteId(0), SiteId(1)];
    let net = || inproc_network(&sites, &platform());
    let n = net();
    let (a, b) = (n.endpoint(sites[0]), n.endpoint(sites[1]));
    out.push((
        "net.mailbox.hop_ns",
        timer.measure(|| {
            ns_per_op(5_000, |_| {
                a.send(sites[1], PathId(0), small_message());
                b.try_recv().expect("just sent")
            })
        }),
    ));

    // Two threads, one on the cluster's CPUs and one on the generators',
    // bounce a message through the mailboxes; a hop is half a round trip.
    let n = net();
    let (a, b) = (n.endpoint(sites[0]), n.endpoint(sites[1]));
    let stop = AtomicBool::new(false);
    let timing = std::thread::scope(|scope| {
        scope.spawn(|| {
            if plan.pinned {
                pin_current_thread(&plan.generator);
            }
            while !stop.load(Ordering::Relaxed) {
                if let Ok(env) = b.recv_timeout(Duration::from_millis(20)) {
                    b.send(sites[0], PathId(0), env.msg);
                }
            }
        });
        let t = timer.measure(|| {
            ns_per_op(500, |_| {
                a.send(sites[1], PathId(0), small_message());
                a.recv_timeout(Duration::from_secs(10)).expect("echo")
            }) / 2.0
                / 1e3
        });
        stop.store(true, Ordering::Relaxed);
        t
    });
    out.push(("net.mailbox.hop_xthread_us", timing));
}

fn tcp(timer: &Timer, out: &mut LayerResults, plan: &CpuPlan) {
    let cfg = platform();
    let addrs = free_local_addrs(2);
    let node = |me: usize| {
        let peers = HashMap::from([(SiteId(1 - me as u32), addrs[1 - me])]);
        TcpNode::<Message>::start(SiteId(me as u32), addrs[me], peers).expect("start tcp node")
    };
    let (a, b) = (node(0), node(1));
    let stop = AtomicBool::new(false);
    let page = page_message(&cfg);
    std::thread::scope(|scope| {
        // The echo side answers a small request with a small message and
        // a page request (any non-small message) with a page: the shapes
        // of a callback round and of a read miss.
        scope.spawn(|| {
            if plan.pinned {
                pin_current_thread(&plan.generator);
            }
            while !stop.load(Ordering::Relaxed) {
                if let Some(env) = Transport::recv_timeout(&b, Duration::from_millis(20)) {
                    let reply = match env.msg {
                        Message::CbOk { .. } => small_message(),
                        _ => page.clone(),
                    };
                    Transport::send(&b, SiteId(0), env.path, reply);
                }
            }
        });
        let read_request = Message::ReadObj {
            req: ReqId(1),
            txn: txn(0, 1),
            oid: oid(42, 0),
        };
        for (name, request) in [
            ("net.tcp.rtt_small_us", small_message()),
            ("net.tcp.rtt_page_us", read_request),
        ] {
            let timing = timer.measure(|| {
                ns_per_op(100, |_| {
                    Transport::send(&a, SiteId(1), PathId(0), request.clone());
                    Transport::recv_timeout(&a, Duration::from_secs(10)).expect("echo")
                }) / 1e3
            });
            out.push((name, timing));
        }
        stop.store(true, Ordering::Relaxed);
    });
    a.shutdown();
    b.shutdown();
}

// ---------------------------------------------------------------------
// core: PeerServer::handle, by input kind
// ---------------------------------------------------------------------

/// A message in flight between two of a [`Rig`]'s engines.
type InFlight = (SiteId, SiteId, Message);

/// A few engines wired by hand: the caller decides which `handle` call
/// is on the clock. Disks complete at once (as in the threaded harness)
/// and timers never fire (nothing here waits).
struct Rig {
    engines: Vec<PeerServer>,
    now: u64,
    wire: VecDeque<InFlight>,
    replies: Vec<AppReply>,
}

impl Rig {
    fn new(n_sites: u32) -> Self {
        let cfg = platform();
        Rig {
            engines: (0..n_sites)
                .map(|s| PeerServer::new(SiteId(s), cfg.clone(), OwnerMap::Single(SiteId(0))))
                .collect(),
            now: 0,
            wire: VecDeque::new(),
            replies: Vec::new(),
        }
    }

    /// Feeds `input` to `site` and its disk completions after it; sends
    /// go on the wire, app replies into `replies`.
    fn handle(&mut self, site: SiteId, input: Input) {
        let mut inputs = VecDeque::from([input]);
        while let Some(input) = inputs.pop_front() {
            self.now += 1;
            let now = SimTime::from_micros(self.now);
            for o in self.engines[site.0 as usize].handle(now, input) {
                match o {
                    Output::Send { to, msg } => self.wire.push_back((site, to, msg)),
                    Output::Disk { req, .. } => inputs.push_back(Input::DiskDone { req }),
                    Output::ArmTimer { .. } => {}
                    Output::App(reply) => self.replies.push(reply),
                }
            }
        }
    }

    fn app(&mut self, site: SiteId, txn: Option<TxnId>, op: AppOp) {
        let req = AppRequest {
            app: AppId(site.0),
            txn,
            op,
        };
        self.handle(site, Input::App(req));
    }

    /// Delivers in-flight messages in order until the wire is empty or
    /// the next one satisfies `stop`; that one is returned undelivered.
    fn deliver_until(&mut self, stop: impl Fn(&Message) -> bool) -> Option<InFlight> {
        while let Some((from, to, msg)) = self.wire.pop_front() {
            if stop(&msg) {
                return Some((from, to, msg));
            }
            self.handle(to, Input::Msg { from, msg });
        }
        None
    }

    fn settle(&mut self) {
        self.deliver_until(|_| false);
    }

    /// Begins a transaction at `site`.
    fn begin(&mut self, site: SiteId) -> TxnId {
        self.replies.clear();
        self.app(site, None, AppOp::Begin);
        match self.replies.pop() {
            Some(AppReply::Started { txn, .. }) => txn,
            other => panic!("begin answered {other:?}"),
        }
    }

    /// Runs `op` of `txn` at `site` to its reply, delivering everything.
    fn run(&mut self, site: SiteId, txn: TxnId, op: AppOp) {
        self.replies.clear();
        self.app(site, Some(txn), op);
        self.settle();
        match self.replies.last() {
            Some(AppReply::Done { .. } | AppReply::Committed { .. }) => {}
            other => panic!("op answered {other:?}"),
        }
    }
}

fn write_op(o: Oid) -> AppOp {
    AppOp::Write {
        oid: o,
        bytes: None,
    }
}

fn core_local(timer: &Timer, out: &mut LayerResults) {
    // One owner-local engine: applications at the site that owns the
    // data, so every op is `handle(Input::App)` plus disk completions.
    const PAGES: u32 = 30;
    const SLOTS: u16 = 12;
    let site = SiteId(0);
    let mut rig = Rig::new(1);
    let objects: Vec<Oid> = (0..PAGES)
        .flat_map(|p| (0..SLOTS).map(move |s| oid(p, s)))
        .collect();
    // Bring the pages into the buffer once.
    let t = rig.begin(site);
    for o in &objects {
        rig.run(site, t, AppOp::Read(*o));
    }
    rig.run(site, t, AppOp::Commit);

    let mut begin_ns = Vec::new();
    let mut write_ns = Vec::new();
    let mut commit_ns = Vec::new();
    let read = timer.measure(|| {
        let started = Instant::now();
        let t = rig.begin(site);
        begin_ns.push(started.elapsed().as_nanos() as f64);
        let read = ns_per_op(objects.len(), |i| rig.run(site, t, AppOp::Read(objects[i])));
        // Every fifth object is updated, as in a 0.2 write probability.
        let updated: Vec<Oid> = objects.iter().copied().step_by(5).collect();
        write_ns.push(ns_per_op(updated.len(), |i| {
            rig.run(site, t, write_op(updated[i]))
        }));
        commit_ns.push(ns_per_op(1, |_| rig.run(site, t, AppOp::Commit)));
        read
    });
    out.push(("core.handle.read_hit_ns", read));
    out.push(("core.handle.begin_ns", summarize_side(begin_ns)));
    out.push(("core.handle.write_ns", summarize_side(write_ns)));
    out.push(("core.handle.commit_ns", summarize_side(commit_ns)));
}

fn core_remote(timer: &Timer, out: &mut LayerResults) {
    // Owner at site 0; clients at sites 1 and 2. Every iteration uses a
    // page nobody touched before, so each one sees the same state.
    let (owner, reader, writer) = (SiteId(0), SiteId(1), SiteId(2));
    let mut rig = Rig::new(3);
    let mut page = 0u32;
    let mut read_req_ns = Vec::new();
    let callback = timer.measure(|| {
        const ITERS: usize = 20;
        let (mut on_read, mut on_callback) = (Duration::ZERO, Duration::ZERO);
        for _ in 0..ITERS {
            page += 1;
            let o = oid(page, 0);
            // The reader misses: its request reaches the owner, which
            // reads the page and ships it.
            let r = rig.begin(reader);
            rig.replies.clear();
            rig.app(reader, Some(r), AppOp::Read(o));
            let (from, to, request) = rig
                .deliver_until(|m| matches!(m, Message::ReadObj { .. }))
                .expect("a read request on the wire");
            let t = Instant::now();
            rig.handle(to, Input::Msg { from, msg: request });
            on_read += t.elapsed();
            assert!(matches!(
                rig.wire.back(),
                Some((_, _, Message::ReadReply { .. }))
            ));
            rig.settle();
            rig.run(reader, r, AppOp::Commit);

            // The writer updates the object the reader still caches: the
            // owner calls it back, the reader purges, the owner grants.
            let w = rig.begin(writer);
            rig.run(writer, w, AppOp::Read(o));
            rig.replies.clear();
            rig.app(writer, Some(w), write_op(o));
            let (from, to, cb) = rig
                .deliver_until(|m| matches!(m, Message::Callback { .. }))
                .expect("a callback on the wire");
            assert_eq!((from, to), (owner, reader));
            let t = Instant::now();
            rig.handle(to, Input::Msg { from, msg: cb });
            let (from, to, ack) = rig.wire.pop_back().expect("the callback's answer");
            rig.handle(to, Input::Msg { from, msg: ack });
            on_callback += t.elapsed();
            rig.settle();
            assert!(matches!(rig.replies.last(), Some(AppReply::Done { .. })));
            rig.run(writer, w, AppOp::Commit);
        }
        read_req_ns.push(on_read.as_nanos() as f64 / ITERS as f64);
        on_callback.as_nanos() as f64 / ITERS as f64
    });
    out.push(("core.handle.callback_ns", callback));
    out.push(("core.handle.read_req_ns", summarize_side(read_req_ns)));
}

// ---------------------------------------------------------------------
// edge, sim, obs
// ---------------------------------------------------------------------

fn edge(timer: &Timer, out: &mut LayerResults) {
    let cfg = platform();
    let image = full_page(&cfg);
    const PAGES: u32 = 256;
    let mut cache = EdgeCache::new(PAGES as usize);
    for p in 0..PAGES {
        cache.install(page_id(p), image.clone(), 1, SimTime::ZERO);
    }
    out.push((
        "edge.read_hit_ns",
        timer.measure(|| {
            ns_per_op(10_000, |i| {
                let o = oid(i as u32 % PAGES, (i % 20) as u16);
                cache.read_object(o).map(|b| b.len())
            })
        }),
    ));
    let mut version = 1;
    out.push((
        "edge.install_ns",
        timer.measure(|| {
            version += 1;
            ns_per_prepared_op(
                PAGES as usize,
                |_| image.clone(),
                |img| cache.install(page_id(version as u32 % PAGES), img, version, SimTime::ZERO),
            )
        }),
    ));
    let mut subs = SubscriptionTable::new();
    for s in 0..64u32 {
        subs.upsert(
            SiteId(s),
            SimTime::ZERO,
            SimDuration::from_secs(60),
            [s % 4, 9],
        );
    }
    out.push((
        "edge.subscribers_of_us",
        timer.measure(|| {
            ns_per_op(2_000, |i| {
                subs.subscribers_of(i as u32 % 4, SimTime::from_micros(1))
                    .len()
            }) / 1e3
        }),
    ));
}

fn sim(timer: &Timer, out: &mut LayerResults, plan: &CpuPlan) {
    // The site-loop hop with almost no engine work: Begin and Commit of
    // an empty transaction on a one-site cluster. The site thread
    // inherits this thread's (cluster) CPUs; this thread then plays the
    // generator from the generators' CPU, as in the workloads.
    let site = SiteId(0);
    let cluster = ThreadedCluster::new(1, platform(), OwnerMap::Single(site));
    if plan.pinned {
        pin_current_thread(&plan.generator);
    }
    let floor = timer.measure(|| {
        const TXNS: usize = 100;
        let mut ops: Vec<f64> = Vec::with_capacity(2 * TXNS);
        for _ in 0..TXNS {
            let t = Instant::now();
            let txn = cluster.begin(site, AppId(0)).expect("begin");
            ops.push(t.elapsed().as_nanos() as f64 / 1e3);
            let t = Instant::now();
            cluster
                .run_op(site, AppId(0), txn, AppOp::Commit)
                .expect("commit");
            ops.push(t.elapsed().as_nanos() as f64 / 1e3);
        }
        median(&mut ops)
    });
    if plan.pinned {
        pin_current_thread(&plan.cluster);
    }
    cluster.shutdown();
    out.push(("sim.threaded.op_floor_us", floor));

    let cfg = platform();
    let spec = WorkloadSpec::paper(WorkloadKind::HotCold, 0.2, true);
    let mut rng = StdRng::seed_from_u64(1);
    out.push((
        "sim.workload.gen_us",
        timer.measure(|| {
            ns_per_op(50, |i| {
                spec.generate(i as u32 % 8, &cfg, |_| VolId(0), &mut rng)
            }) / 1e3
        }),
    ));
}

fn obs(timer: &Timer, out: &mut LayerResults) {
    let mut hist = Histogram::new();
    out.push((
        "obs.hist.record_ns",
        timer.measure(|| {
            ns_per_op(50_000, |i| {
                hist.record_micros((i as u64 * 2_654_435_761) % 100_000)
            })
        }),
    ));
    let counters = Counters::default();
    out.push((
        "obs.registry.export_us",
        timer.measure(|| {
            ns_per_op(50, |_| {
                let mut reg = MetricsRegistry::new();
                reg.counters_struct(&counters);
                for name in ["commit_latency", "txn_latency", "lock_wait"] {
                    reg.histogram(name, &hist);
                }
                reg.render_prometheus().len()
            }) / 1e3
        }),
    ));

    // The cost of observing: one Fig. 13 point with the engines' event
    // tracing on (4096-event rings) against the same point with it off.
    let spec = &des::points(1)[11];
    assert_eq!(
        (spec.figure, spec.protocol),
        (Figure::Fig13, Protocol::PsAa)
    );
    // Each pair takes a second: three of them, one in the smoke run.
    let fracs: Vec<f64> = (0..timer.batches.div_ceil(10))
        .map(|_| {
            let t = Instant::now();
            black_box(run_point(spec));
            let plain = t.elapsed().as_secs_f64();
            let t = Instant::now();
            black_box(run_point_observed(spec, 4_096));
            t.elapsed().as_secs_f64() / plain - 1.0
        })
        .collect();
    out.push(("obs.des_trace_overhead_frac", summarize(fracs)));
}

/// Runs every layer measurement. The calling thread must be pinned to
/// `plan.cluster` (threads spawned here inherit it or re-pin).
pub fn run(plan: &CpuPlan, batches: usize) -> LayerResults {
    let timer = Timer { batches };
    let mut out = LayerResults::new();
    lockmgr(&timer, &mut out);
    storage(&timer, &mut out);
    wal_and_recovery(&timer, &mut out);
    codec(&timer, &mut out);
    mailbox(&timer, &mut out, plan);
    tcp(&timer, &mut out, plan);
    core_local(&timer, &mut out);
    core_remote(&timer, &mut out);
    edge(&timer, &mut out);
    sim(&timer, &mut out, plan);
    obs(&timer, &mut out);
    out
}
