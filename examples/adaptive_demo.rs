//! A side-by-side demonstration of the paper's central mechanism: the
//! same workload under PS, PS-OA, and PS-AA, with the message counts and
//! concurrency behaviour the paper's §5 analyzes.
//!
//! Two clients repeatedly update *different* objects of the same pages —
//! textbook false sharing. Watch how each protocol handles it:
//!
//! * **PS** serializes the two clients on page locks;
//! * **PS-OA** interleaves them but pays a write-permission message per
//!   object update;
//! * **PS-AA** interleaves them *and* elides messages once a page's
//!   contention dissipates (adaptive page locks, deescalation and
//!   re-escalation).
//!
//! Run with:
//! ```sh
//! cargo run -p pscc-bench --example adaptive_demo
//! ```

use pscc_common::{AppId, FileId, Oid, PageId, Protocol, SiteId, SystemConfig, VolId};
use pscc_core::OwnerMap;
use pscc_sim::Simulation;

fn obj(page: u32, slot: u16) -> Oid {
    Oid::new(PageId::new(FileId::new(VolId(0), 0), page), slot)
}

fn run(protocol: Protocol) {
    let cfg = SystemConfig {
        protocol,
        ..SystemConfig::small()
    };
    let mut c = Simulation::seeded(3, cfg, OwnerMap::Single(SiteId(0)), 3);
    let app = AppId(0);
    let (a, b) = (SiteId(1), SiteId(2));

    // Phase 1 — shared pages, disjoint objects (false sharing).
    for round in 0..4 {
        for (site, base_slot) in [(a, 0u16), (b, 10u16)] {
            let t = c.begin(site, app);
            for page in 0..3u32 {
                let o = obj(40 + page, base_slot + (round % 5) as u16);
                // Retry on deadlock/timeout aborts, as the paper's
                // applications do.
                if c.read(site, app, t, o).is_err() {
                    break;
                }
                if c.write(site, app, t, o, None).is_err() {
                    break;
                }
            }
            let _ = c.commit(site, app, t);
        }
    }
    let shared = c.total_stats();

    // Phase 2 — each client retreats to a private page (contention
    // dissipates; PS-AA re-escalates).
    for round in 0..4 {
        for (site, page) in [(a, 50u32), (b, 60u32)] {
            let t = c.begin(site, app);
            for slot in 0..4u16 {
                let o = obj(page, (slot + round) % 10);
                let _ = c.read(site, app, t, o);
                let _ = c.write(site, app, t, o, None);
            }
            let _ = c.commit(site, app, t);
        }
    }
    let total = c.total_stats();

    println!("--- {protocol} ---");
    println!(
        "  commits {:3}   aborts {:2}   messages {:4}   write-requests {:3}",
        total.commits, total.aborts, total.msgs_sent, total.write_requests
    );
    println!(
        "  callbacks {:3} (whole-page {:2}, object-only {:2}, blocked {:2})",
        total.callbacks_sent,
        total.callbacks_purged_page,
        total.callbacks_object_only,
        total.callbacks_blocked
    );
    println!(
        "  adaptive grants {:2}   server-free writes {:3}   deescalations {:2}",
        total.adaptive_grants, total.adaptive_hits, total.deescalations
    );
    let phase2_msgs = total.msgs_sent - shared.msgs_sent;
    println!("  messages in the private phase alone: {phase2_msgs}");
    println!();
}

fn main() {
    println!("False sharing then private working sets, under each protocol:\n");
    for p in [Protocol::Ps, Protocol::PsOa, Protocol::PsAa] {
        run(p);
    }
    println!("Expected shape (paper §5): PS-OA and PS-AA avoid PS's false-sharing");
    println!("conflicts; PS-AA additionally erases write-permission messages in the");
    println!("private phase via adaptive page locks.");
}
