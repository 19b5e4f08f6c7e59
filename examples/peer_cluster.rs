//! The peer-servers architecture (paper §3.1, Fig. 1): three peers, each
//! owning a partition of the database, each running its own application.
//! Local data is served with zero messages; remote data flows through
//! the same callback-consistency protocol; a transaction spanning all
//! three partitions commits with two-phase commit.
//!
//! Run with:
//! ```sh
//! cargo run -p pscc-bench --example peer_cluster
//! ```

use pscc_common::{AppId, FileId, Oid, PageId, Protocol, SiteId, SystemConfig, VolId};
use pscc_core::OwnerMap;
use pscc_sim::testkit::version_of;
use pscc_sim::Simulation;

fn main() {
    let cfg = SystemConfig {
        protocol: Protocol::PsAa,
        ..SystemConfig::small() // 450 pages
    };
    // Partition the 450-page database three ways.
    let owners = OwnerMap::Ranges(vec![
        (0, 150, SiteId(0)),
        (150, 300, SiteId(1)),
        (300, 450, SiteId(2)),
    ]);
    let mut c = Simulation::seeded(3, cfg, owners, 11);
    let app = AppId(0);

    // Objects live on the volume of their owning peer.
    let on_peer =
        |peer: u32, page: u32| Oid::new(PageId::new(FileId::new(VolId(peer), 0), page), 0);

    // 1. Purely local work at peer 1 — no messages at all.
    let t = c.begin(SiteId(1), app);
    c.read(SiteId(1), app, t, on_peer(1, 200)).unwrap();
    c.write(SiteId(1), app, t, on_peer(1, 200), None).unwrap();
    c.commit(SiteId(1), app, t).unwrap();
    assert_eq!(c.total_stats().msgs_sent, 0);
    println!("peer 1 updated its own partition: 0 messages");

    // 2. Peer 0 reads peer 1's data: it acts as a client of peer 1,
    //    caching the page.
    let t = c.begin(SiteId(0), app);
    let v = c.read(SiteId(0), app, t, on_peer(1, 200)).unwrap();
    println!(
        "peer 0 read peer 1's object (version {}), {} messages so far",
        version_of(&v),
        c.total_stats().msgs_sent
    );
    c.commit(SiteId(0), app, t).unwrap();

    // 3. A distributed transaction updating all three partitions: the
    //    home peer coordinates two-phase commit with the other two.
    let t = c.begin(SiteId(2), app);
    for (peer, page) in [(0u32, 10u32), (1, 210), (2, 410)] {
        c.read(SiteId(2), app, t, on_peer(peer, page)).unwrap();
        c.write(SiteId(2), app, t, on_peer(peer, page), None)
            .unwrap();
    }
    c.commit(SiteId(2), app, t).unwrap();
    println!("distributed transaction committed across all three peers (2PC)");

    // Every partition durably holds its piece.
    for (peer, page) in [(0u32, 10u32), (1, 210), (2, 410)] {
        let bytes = c.sites[peer as usize]
            .volume()
            .read_object(on_peer(peer, page))
            .unwrap();
        assert_eq!(version_of(bytes), 1, "peer {peer} missing the update");
    }

    // 4. Cross-peer invalidation: peer 0 still caches peer 1's page from
    //    step 2; peer 1 updates it; the callback invalidates peer 0's
    //    copy and its next read sees the new version.
    let t = c.begin(SiteId(1), app);
    c.read(SiteId(1), app, t, on_peer(1, 200)).unwrap();
    c.write(SiteId(1), app, t, on_peer(1, 200), None).unwrap();
    c.commit(SiteId(1), app, t).unwrap();

    let t = c.begin(SiteId(0), app);
    let v = c.read(SiteId(0), app, t, on_peer(1, 200)).unwrap();
    c.commit(SiteId(0), app, t).unwrap();
    assert_eq!(version_of(&v), 2);
    println!("peer 0 observed peer 1's new version after callback invalidation");

    println!("\nfinal counters: {}", c.total_stats());
}
