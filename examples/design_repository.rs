//! A CAD-style design repository — the class of application the paper's
//! introduction motivates (CAD/CAM, CASE). Several engineers check parts
//! of a shared assembly in and out of their workstation caches; the
//! PS-AA protocol keeps every cache transactionally consistent while the
//! engineers' private working sets stay server-free via adaptive page
//! locks.
//!
//! Run with:
//! ```sh
//! cargo run -p pscc-bench --example design_repository
//! ```

use pscc_common::{AppId, FileId, Oid, PageId, Protocol, SiteId, SystemConfig, VolId};
use pscc_core::OwnerMap;
use pscc_sim::testkit::version_of;
use pscc_sim::Simulation;

/// A "part" is one object; an "assembly" is a page of 10 parts that tend
/// to be edited together (physical clustering, as a real OODBMS would
/// lay them out).
fn part(assembly: u32, part_no: u16) -> Oid {
    Oid::new(PageId::new(FileId::new(VolId(0), 0), assembly), part_no)
}

fn main() {
    let cfg = SystemConfig {
        protocol: Protocol::PsAa,
        ..SystemConfig::small()
    };
    // One repository server, three engineering workstations.
    let mut c = Simulation::seeded(4, cfg, OwnerMap::Single(SiteId(0)), 7);
    let engineers = [SiteId(1), SiteId(2), SiteId(3)];
    let app = AppId(0);

    // Each engineer privately edits their own assembly: after the first
    // write the server grants an adaptive page lock and every further
    // edit is local (paper §4.1.2).
    for (i, &ws) in engineers.iter().enumerate() {
        let assembly = 20 + i as u32;
        let t = c.begin(ws, app);
        for p in 0..8u16 {
            c.read(ws, app, t, part(assembly, p)).expect("read part");
            c.write(ws, app, t, part(assembly, p), None)
                .expect("edit part");
        }
        c.commit(ws, app, t).expect("check in");
        println!("engineer {} checked in assembly {assembly}", i + 1);
    }
    let s = c.total_stats();
    println!(
        "private edits: {} adaptive page-lock grants saved {} write round-trips",
        s.adaptive_grants, s.adaptive_hits
    );
    assert!(
        s.adaptive_hits > 0,
        "adaptive locking should have kicked in"
    );

    // Now two engineers collaborate on the *same* assembly, editing
    // different parts: the server deescalates to object-level sharing so
    // both proceed, and each sees the other's committed edits.
    let shared = 30u32;
    let t1 = c.begin(engineers[0], app);
    c.read(engineers[0], app, t1, part(shared, 0)).unwrap();
    c.write(engineers[0], app, t1, part(shared, 0), None)
        .unwrap();

    let t2 = c.begin(engineers[1], app);
    c.read(engineers[1], app, t2, part(shared, 5)).unwrap();
    c.write(engineers[1], app, t2, part(shared, 5), None)
        .unwrap();

    c.commit(engineers[0], app, t1).unwrap();
    c.commit(engineers[1], app, t2).unwrap();
    println!(
        "collaborative editing on assembly {shared}: {} deescalations",
        c.total_stats().deescalations
    );

    // Both committed edits are durable at the repository.
    let server = &c.sites[0];
    assert_eq!(
        version_of(server.volume().read_object(part(shared, 0)).unwrap()),
        1
    );
    assert_eq!(
        version_of(server.volume().read_object(part(shared, 5)).unwrap()),
        1
    );

    // A reviewer scans the whole shared assembly with an explicit SH
    // page lock (hierarchical locking, §4.3): one lock instead of ten.
    let reviewer = engineers[2];
    let t3 = c.begin(reviewer, app);
    c.read(reviewer, app, t3, part(shared, 0)).unwrap(); // cache the page
    c.run_op(
        reviewer,
        app,
        t3,
        pscc_core::AppOp::Lock {
            item: pscc_common::LockableId::Page(part(shared, 0).page),
            mode: pscc_common::LockMode::Sh,
        },
    )
    .expect("page lock");
    for p in 0..10u16 {
        let bytes = c.read(reviewer, app, t3, part(shared, p)).expect("review");
        let v = version_of(&bytes);
        if v > 0 {
            println!("  reviewer sees part {p} at version {v}");
        }
    }
    c.commit(reviewer, app, t3).unwrap();
    println!("review complete; final counters: {}", c.total_stats());
}
