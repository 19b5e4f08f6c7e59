//! Quickstart: a one-server, two-client system running the PS-AA
//! protocol — begin a transaction, read and update objects through the
//! consistency-maintained client cache, commit, and observe another
//! client seeing the result.
//!
//! Run with:
//! ```sh
//! cargo run -p pscc-bench --example quickstart
//! ```

use pscc_common::{AppId, FileId, Oid, PageId, Protocol, SiteId, SystemConfig, VolId};
use pscc_core::OwnerMap;
use pscc_sim::testkit::version_of;
use pscc_sim::Simulation;

fn main() {
    // Site 0 owns the database; sites 1 and 2 are clients.
    let cfg = SystemConfig {
        protocol: Protocol::PsAa,
        ..SystemConfig::small()
    };
    let mut cluster = Simulation::seeded(3, cfg, OwnerMap::Single(SiteId(0)), 42);
    let (alice, bob) = (SiteId(1), SiteId(2));
    let app = AppId(0);

    // An object = (volume, file, page, slot).
    let account = Oid::new(PageId::new(FileId::new(VolId(0), 0), 10), 3);

    // Alice reads and updates the object.
    let t1 = cluster.begin(alice, app);
    let before = cluster.read(alice, app, t1, account).expect("read");
    println!("alice reads version {}", version_of(&before));
    cluster.write(alice, app, t1, account, None).expect("write");
    cluster.commit(alice, app, t1).expect("commit");
    println!("alice committed an update");

    // Bob sees the committed version — his cache was kept consistent by
    // the callback protocol.
    let t2 = cluster.begin(bob, app);
    let after = cluster.read(bob, app, t2, account).expect("read");
    println!("bob reads version {}", version_of(&after));
    assert_eq!(version_of(&after), version_of(&before) + 1);
    cluster.commit(bob, app, t2).expect("commit");

    // A second read by Bob is a pure cache hit: zero messages.
    let msgs = cluster.total_stats().msgs_sent;
    let t3 = cluster.begin(bob, app);
    cluster.read(bob, app, t3, account).expect("read");
    cluster.commit(bob, app, t3).expect("commit");
    assert_eq!(cluster.total_stats().msgs_sent, msgs);
    println!("bob's re-read hit his cache: no server interaction");

    println!("\nsystem counters: {}", cluster.total_stats());
}
