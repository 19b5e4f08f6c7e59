//! Observability-layer integration tests: trace ordering invariants,
//! histogram-vs-counter consistency, and exporter structure, under each
//! of the paper's three protocols (PS, PS-OA, PS-AA).

use pscc_common::hash::HashMap;
use pscc_common::{AppId, Counters, FileId, Oid, PageId, Protocol, SiteId, SystemConfig, VolId};
use pscc_core::{AppOp, OwnerMap};
use pscc_obs::event::{merge_traces, render_dump, EventKind, TraceHandle};
use pscc_obs::MetricsRegistry;
use pscc_sim::Simulation;

const S: SiteId = SiteId(0);
const A: SiteId = SiteId(1);
const B: SiteId = SiteId(2);
const APP: AppId = AppId(0);

const PROTOCOLS: [Protocol; 3] = [Protocol::Ps, Protocol::PsOa, Protocol::PsAa];

fn oid(page: u32, slot: u16) -> Oid {
    Oid::new(PageId::new(FileId::new(VolId(0), 0), page), slot)
}

/// A scripted cross-site workload with tracing on: A updates an object,
/// B's write of the same object blocks behind A's lock (a genuine lock
/// wait), A commits, B's write is granted and committed (calling back /
/// deescalating A's copy), then A re-reads. Returns the cluster and the
/// per-site trace handles.
fn contended_run(proto: Protocol) -> (Simulation, Vec<TraceHandle>) {
    let cfg = SystemConfig {
        protocol: proto,
        ..SystemConfig::small()
    };
    let mut c = Simulation::seeded(3, cfg, OwnerMap::Single(S), 0xC0FFEE);
    let handles: Vec<TraceHandle> = c.sites.iter_mut().map(|s| s.enable_trace(8192)).collect();
    let x = oid(3, 0);
    let y = oid(3, 4);

    let ta = c.begin(A, APP);
    c.read(A, APP, ta, x).unwrap();
    c.write(A, APP, ta, x, None).unwrap();

    // B's write of x blocks at the server behind A's uncommitted update
    // (pump leaves the armed lock-wait timer pending, so nothing aborts).
    let tb = c.begin(B, APP);
    c.submit(
        B,
        APP,
        Some(tb),
        AppOp::Write {
            oid: x,
            bytes: None,
        },
    );
    c.pump();
    c.commit(A, APP, ta).unwrap();
    c.pump();
    assert!(
        c.find_reply(B, tb).is_some(),
        "B's blocked write must complete once A commits"
    );
    c.commit(B, APP, tb).unwrap();

    // A returns to the page after B's update invalidated/deescalated it.
    let ta2 = c.begin(A, APP);
    c.read(A, APP, ta2, x).unwrap();
    c.read(A, APP, ta2, y).unwrap();
    c.commit(A, APP, ta2).unwrap();
    (c, handles)
}

/// A lock grant (or queued wait) may never appear in a site's trace
/// before a matching request: at every prefix of the per-site event
/// stream, grants and waits for a (txn, item, mode) tuple are bounded by
/// the requests seen so far.
#[test]
fn grant_never_precedes_request() {
    for proto in PROTOCOLS {
        let (_c, handles) = contended_run(proto);
        for h in &handles {
            let mut requests: HashMap<String, usize> = HashMap::default();
            let mut grants: HashMap<String, usize> = HashMap::default();
            let mut waits: HashMap<String, usize> = HashMap::default();
            let mut prev_seq = None;
            for e in h.snapshot() {
                if let Some(p) = prev_seq {
                    assert!(e.seq > p, "per-site seq must be monotone ({proto})");
                }
                prev_seq = Some(e.seq);
                match &e.kind {
                    EventKind::LockRequest { txn, item, mode } => {
                        *requests
                            .entry(format!("{txn:?}/{item:?}/{mode:?}"))
                            .or_default() += 1;
                    }
                    EventKind::LockGrant { txn, item, mode } => {
                        let k = format!("{txn:?}/{item:?}/{mode:?}");
                        *grants.entry(k.clone()).or_default() += 1;
                        assert!(
                            grants[&k] <= requests.get(&k).copied().unwrap_or(0),
                            "{proto}: grant without a preceding request: {k}"
                        );
                    }
                    EventKind::LockWait { txn, item, mode } => {
                        let k = format!("{txn:?}/{item:?}/{mode:?}");
                        *waits.entry(k.clone()).or_default() += 1;
                        assert!(
                            waits[&k] <= requests.get(&k).copied().unwrap_or(0),
                            "{proto}: wait without a preceding request: {k}"
                        );
                    }
                    _ => {}
                }
            }
            assert!(
                !requests.is_empty(),
                "{proto}: the workload must exercise the lock table"
            );
        }
    }
}

/// The merged multi-site trace is chronological (virtual time
/// non-decreasing) and keeps each site's events in sequence order.
#[test]
fn merged_trace_is_chronological() {
    for proto in PROTOCOLS {
        let (_c, handles) = contended_run(proto);
        let merged = merge_traces(handles.iter().map(TraceHandle::snapshot).collect());
        assert!(merged.len() > 10, "{proto}: trace should not be empty");
        let mut last_per_site: HashMap<u32, u64> = HashMap::default();
        for w in merged.windows(2) {
            assert!(w[0].at <= w[1].at, "{proto}: merged trace out of order");
        }
        for e in &merged {
            if let Some(prev) = last_per_site.insert(e.site.0, e.seq) {
                assert!(e.seq > prev, "{proto}: site {} seq regressed", e.site.0);
            }
        }
    }
}

/// The always-on histograms agree with the seed counters: every recorded
/// lock wait was armed, every fetch round trip was a read request, and
/// in a clean (abort-free) run every commit has a latency sample.
#[test]
fn histogram_totals_match_counters() {
    for proto in PROTOCOLS {
        let (c, _handles) = contended_run(proto);
        let stats = c.total_stats();
        assert_eq!(stats.aborts, 0, "{proto}: scripted run must be clean");

        let count = |f: fn(&pscc_core::PeerServer) -> u64| c.sites.iter().map(f).sum::<u64>();
        let lock_wait = count(|s| s.obs.lock_wait.count());
        let fetch_rtt = count(|s| s.obs.fetch_rtt.count());
        let callback_rtt = count(|s| s.obs.callback_rtt.count());
        let commit_latency = count(|s| s.obs.commit_latency.count());

        assert!(
            lock_wait >= 1,
            "{proto}: B's blocked write must be measured"
        );
        assert!(
            lock_wait <= stats.lock_waits,
            "{proto}: lock_wait histogram ({lock_wait}) > lock_waits counter ({})",
            stats.lock_waits
        );
        assert!(fetch_rtt >= 1, "{proto}: fetches must be measured");
        assert!(
            fetch_rtt <= stats.read_requests,
            "{proto}: fetch_rtt histogram ({fetch_rtt}) > read_requests ({})",
            stats.read_requests
        );
        if stats.callbacks_sent > 0 {
            assert!(
                callback_rtt >= 1,
                "{proto}: callbacks went out but none was measured"
            );
        }
        assert_eq!(
            commit_latency, stats.commits,
            "{proto}: every commit of a clean run must have a latency sample"
        );
    }
}

/// The exporters carry every seed counter (as `pscc_<name>_total`) plus
/// the four protocol histograms, in both output formats.
#[test]
fn exporters_cover_counters_and_histograms() {
    let (c, _handles) = contended_run(Protocol::PsAa);
    let mut reg = MetricsRegistry::new();
    reg.counters_struct(&c.total_stats());
    for s in &c.sites {
        reg.histogram("lock_wait", &s.obs.lock_wait);
        reg.histogram("callback_rtt", &s.obs.callback_rtt);
        reg.histogram("fetch_rtt", &s.obs.fetch_rtt);
        reg.histogram("commit_latency", &s.obs.commit_latency);
    }
    let snap = c.sites[0].timeout_snapshot();
    reg.gauge("timeout_current_micros", snap.current_timeout_micros as f64);

    let prom = reg.render_prometheus();
    let json = reg.render_json();
    for (name, _) in Counters::default().fields() {
        assert!(
            prom.contains(&format!("pscc_{name}_total ")),
            "prometheus output missing counter {name}"
        );
        assert!(json.contains(&format!("\"{name}\"")), "json missing {name}");
    }
    assert!(reg.histogram_count() >= 4);
    for h in ["lock_wait", "callback_rtt", "fetch_rtt", "commit_latency"] {
        assert!(
            prom.contains(&format!("pscc_{h}_micros_count")),
            "prometheus output missing histogram {h}"
        );
        assert!(
            json.contains(&format!("\"{h}\"")),
            "json missing histogram {h}"
        );
    }
    assert!(prom.contains("pscc_timeout_current_micros "));
}

/// The rendered postmortem dump names the protocol milestones a §4.2.4
/// investigation needs: requests, grants, waits, fetches, and commits,
/// merged across sites in one chronological listing.
#[test]
fn trace_dump_names_protocol_milestones() {
    for proto in PROTOCOLS {
        let (_c, handles) = contended_run(proto);
        let merged = merge_traces(handles.iter().map(TraceHandle::snapshot).collect());
        let dump = render_dump(&merged);
        assert!(dump.starts_with("=== merged protocol trace ("));
        for needle in [
            "lock_request",
            "lock_grant",
            "lock_wait",
            "fetch_sent",
            "fetch_done",
            "commit_request",
            "commit_done",
        ] {
            assert!(
                dump.contains(needle),
                "{proto}: dump missing {needle}\n{dump}"
            );
        }
    }
}

/// A reply names its request's transaction, not the one whose message
/// released it: A's abort at the owner grants B's waiting read, and the
/// `read_reply` the abort sends is B's — never a data verdict for the
/// transaction the owner just tombstoned.
#[test]
fn reply_released_by_an_abort_names_its_request() {
    let mut c = Simulation::seeded(3, SystemConfig::small(), OwnerMap::Single(S), 0xAB07);
    let x = oid(5, 0);
    let ta = c.begin(A, APP);
    c.read(A, APP, ta, x).unwrap();
    c.write(A, APP, ta, x, None).unwrap();
    let tb = c.begin(B, APP);
    c.submit(B, APP, Some(tb), AppOp::Read(x));
    c.pump();
    assert!(c.find_reply(B, tb).is_none(), "B's read waits behind A");
    c.submit(A, APP, Some(ta), AppOp::Abort);
    c.pump();
    assert!(c.find_reply(B, tb).is_some(), "A's abort releases B's read");

    assert_eq!(c.audit(), Vec::new());
    let named: Vec<_> = c
        .merged_trace()
        .into_iter()
        .filter_map(|e| match e.kind {
            EventKind::MsgSend { ctx, to, label } if e.site == S && label == "read_reply" => {
                Some((to, ctx.txn))
            }
            _ => None,
        })
        .collect();
    assert!(named.contains(&(B, tb)), "{named:?}");
    assert!(named.iter().all(|(to, t)| t.site == *to), "{named:?}");
}
