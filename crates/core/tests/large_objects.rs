//! Large-object tests (paper §4.4): creation, cross-page reads, header
//! locking for updates, data-page caching, and invalidation of cached
//! data pages on update.

use pscc_common::{
    AppId, FileId, LockMode, LockableId, Oid, PageId, Protocol, SiteId, SystemConfig, TxnId, VolId,
};
use pscc_core::{decode_header_oid, AppOp, AppReply, OwnerMap};
use pscc_sim::Simulation;

const S: SiteId = SiteId(0);
const A: SiteId = SiteId(1);
const B: SiteId = SiteId(2);
const APP: AppId = AppId(0);

fn cluster() -> Simulation {
    let cfg = SystemConfig {
        protocol: Protocol::PsAa,
        ..SystemConfig::small()
    };
    Simulation::seeded(3, cfg, OwnerMap::Single(S), 31)
}

fn header_page() -> PageId {
    PageId::new(FileId::new(VolId(0), 0), 40)
}

/// Runs `op` for `t` at `site` to its `Done` and returns what it carries.
fn done(c: &mut Simulation, site: SiteId, t: TxnId, op: AppOp) -> Option<Vec<u8>> {
    match c.run_op(site, APP, t, op).unwrap() {
        AppReply::Done { data, .. } => data.map(|d| d.to_vec()),
        other => panic!("unexpected {other:?}"),
    }
}

fn ex(item: LockableId) -> AppOp {
    AppOp::Lock {
        item,
        mode: LockMode::Ex,
    }
}

/// Creates a large object of `content` and returns its header oid.
fn create(c: &mut Simulation, site: SiteId, t: TxnId, content: &[u8]) -> Oid {
    // Creation requires an explicit EX lock on the header page.
    done(c, site, t, ex(LockableId::Page(header_page())));
    let op = AppOp::CreateLarge {
        header_page: header_page(),
        content: content.to_vec(),
    };
    decode_header_oid(&done(c, site, t, op).expect("created")).expect("header oid")
}

fn read_large(
    c: &mut Simulation,
    site: SiteId,
    t: TxnId,
    header: Oid,
    offset: u64,
    len: u32,
) -> Option<Vec<u8>> {
    let op = AppOp::ReadLarge {
        header,
        offset,
        len,
    };
    done(c, site, t, op)
}

fn write_large(
    c: &mut Simulation,
    site: SiteId,
    t: TxnId,
    header: Oid,
    bytes: Vec<u8>,
) -> Option<Vec<u8>> {
    let op = AppOp::WriteLarge {
        header,
        offset: 0,
        bytes,
    };
    done(c, site, t, op)
}

#[test]
fn create_and_read_spanning_pages() {
    let mut c = cluster();
    // 2.5 pages of content (page size 1024 in the small config).
    let content: Vec<u8> = (0..2560u32).map(|i| (i % 251) as u8).collect();
    let t = c.begin(A, APP);
    let header = create(&mut c, A, t, &content);
    c.commit(A, APP, t).unwrap();

    // B reads a range crossing a page boundary.
    let tb = c.begin(B, APP);
    c.read(B, APP, tb, header).unwrap(); // header first (SH lock + cache)
    let got = read_large(&mut c, B, tb, header, 1000, 100).expect("data");
    assert_eq!(got, content[1000..1100]);
    // A second read of the same range needs no further large-page
    // fetches (data pages cached without locks, §4.4).
    let msgs = c.total_stats().msgs_sent;
    let got2 = read_large(&mut c, B, tb, header, 1000, 100).expect("data");
    assert_eq!(got2, got);
    assert_eq!(
        c.total_stats().msgs_sent,
        msgs,
        "cached large pages are free"
    );
    c.commit(B, APP, tb).unwrap();
}

#[test]
fn update_requires_header_ex_and_invalidates_cached_pages() {
    let mut c = cluster();
    let content = vec![1u8; 2048];
    let t = c.begin(A, APP);
    let header = create(&mut c, A, t, &content);
    c.commit(A, APP, t).unwrap();

    // B caches the first data page.
    let tb = c.begin(B, APP);
    c.read(B, APP, tb, header).unwrap();
    let before = read_large(&mut c, B, tb, header, 0, 16).expect("data");
    assert_eq!(before, vec![1u8; 16]);
    c.commit(B, APP, tb).unwrap();

    // A updates bytes 0..16 under an EX header lock. The EX acquisition
    // calls the header back from B; the data-page update invalidates B's
    // cached copy.
    let ta = c.begin(A, APP);
    done(&mut c, A, ta, ex(LockableId::Object(header)));
    write_large(&mut c, A, ta, header, vec![9u8; 16]);
    c.commit(A, APP, ta).unwrap();

    // B re-reads: must fetch the invalidated page again and see 9s.
    let tb2 = c.begin(B, APP);
    c.read(B, APP, tb2, header).unwrap();
    let after = read_large(&mut c, B, tb2, header, 0, 16).expect("data");
    assert_eq!(after, vec![9u8; 16], "B must observe A's committed update");
    c.commit(B, APP, tb2).unwrap();
}

#[test]
fn write_without_header_lock_is_refused() {
    let mut c = cluster();
    let t = c.begin(A, APP);
    let header = create(&mut c, A, t, &[5u8; 512]);
    c.commit(A, APP, t).unwrap();

    let tb = c.begin(B, APP);
    c.read(B, APP, tb, header).unwrap(); // SH only
    let refused = write_large(&mut c, B, tb, header, vec![1u8; 4]);
    assert!(refused.is_none(), "refusal completes empty");
    c.commit(B, APP, tb).unwrap();
    // Content unchanged.
    let t2 = c.begin(A, APP);
    c.read(A, APP, t2, header).unwrap();
    let got = read_large(&mut c, A, t2, header, 0, 4).expect("data");
    assert_eq!(got, vec![5u8; 4]);
    c.commit(A, APP, t2).unwrap();
}

#[test]
fn concurrent_reader_blocks_writer_on_header() {
    // The header lock provides the §4.4 serialization: a reader holding
    // SH blocks the writer's EX until it finishes.
    let mut c = cluster();
    let t = c.begin(A, APP);
    let header = create(&mut c, A, t, &[3u8; 256]);
    c.commit(A, APP, t).unwrap();

    // Warm B's cache (so its next header read is local-only).
    let tb0 = c.begin(B, APP);
    c.read(B, APP, tb0, header).unwrap();
    c.commit(B, APP, tb0).unwrap();

    let tb = c.begin(B, APP);
    c.read(B, APP, tb, header).unwrap(); // local SH

    let ta = c.begin(A, APP);
    c.submit(A, APP, Some(ta), ex(LockableId::Object(header)));
    c.pump();
    assert!(c.find_reply(A, ta).is_none(), "EX header must wait for B");
    c.commit(B, APP, tb).unwrap();
    c.pump();
    assert!(c.find_reply(A, ta).is_some(), "EX granted after B ends");
    c.commit(A, APP, ta).unwrap();
}

#[test]
fn out_of_range_read_completes_empty() {
    let mut c = cluster();
    let t = c.begin(A, APP);
    let header = create(&mut c, A, t, &[7u8; 100]);
    let got = read_large(&mut c, A, t, header, 90, 20);
    assert!(got.is_none());
    c.commit(A, APP, t).unwrap();
}
