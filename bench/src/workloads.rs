//! The four workloads (names are normative) and why each is here.

use crate::threaded::Threaded;
use pscc_common::SiteId;
use pscc_core::OwnerMap;
use pscc_sim::{WorkloadKind, WorkloadSpec};

/// A workload's name and the one-line reason it exists, as
/// `BENCHMARK.json` carries them.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "hotcold-inproc",
        "working set fits the client cache (~97% hits), in-proc: site loop, engine local path and lockmgr do the work, codec none",
    ),
    (
        "uniform-tcp",
        "working set 4x the client cache over TCP: ~1 op in 5 ships a 4 KiB page through the JSON codec and kernel sockets",
    ),
    (
        "hicon-peers",
        "8 apps write a shared range on 2 peer owners: callbacks, deescalation, lock waits, aborts and two-owner 2PC dominate",
    ),
    (
        "fig-des",
        "single-thread DES over 12 paper-platform points: engine, lockmgr, WAL, storage only; bypasses every transport change",
    ),
];

/// The threaded workload called `name`; `None` for `fig-des` (see
/// [`crate::des`]) and for names that are not workloads.
pub fn threaded(name: &str) -> Option<Threaded> {
    let server = || OwnerMap::Single(SiteId(0));
    match name {
        // 4 × 450 hot pages per client site < its 2 812-page buffer.
        "hotcold-inproc" => Some(Threaded {
            n_sites: 3,
            owners: server(),
            app_sites: vec![SiteId(1), SiteId(2)],
            spec: WorkloadSpec::paper(WorkloadKind::HotCold, 0.2, true),
            tcp: false,
        }),
        // All 11 250 pages, uniformly: four times the client buffer.
        "uniform-tcp" => Some(Threaded {
            n_sites: 3,
            owners: server(),
            app_sites: vec![SiteId(1), SiteId(2)],
            spec: WorkloadSpec::paper(WorkloadKind::Uniform, 0.05, false),
            tcp: true,
        }),
        // Two peers own half the database each and host the
        // applications themselves; the shared 2 250-page range is all
        // site 0's, so site 1 reaches it by callback and 2PC.
        "hicon-peers" => Some(Threaded {
            n_sites: 2,
            owners: OwnerMap::Ranges(vec![(0, 5_625, SiteId(0)), (5_625, 11_250, SiteId(1))]),
            app_sites: vec![SiteId(0), SiteId(1)],
            spec: WorkloadSpec::paper(WorkloadKind::HiCon, 0.3, true),
            tcp: false,
        }),
        _ => None,
    }
}
