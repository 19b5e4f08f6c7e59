//! Workspace-level integration tests: the full stack — storage, WAL,
//! lock manager, engine, transport semantics, and simulation — exercised
//! together through the public APIs only.

use pscc_common::{
    AppId, FileId, LockMode, LockableId, Oid, PageId, Protocol, SiteId, SystemConfig, VolId,
};
use pscc_core::{AppOp, OwnerMap};
use pscc_sim::experiment::{quick_spec, run_point, Figure};
use pscc_sim::testkit::version_of;
use pscc_sim::Simulation;

fn cfg(p: Protocol) -> SystemConfig {
    SystemConfig {
        protocol: p,
        ..SystemConfig::small()
    }
}

fn obj(vol: u32, page: u32, slot: u16) -> Oid {
    Oid::new(PageId::new(FileId::new(VolId(vol), 0), page), slot)
}

#[test]
fn full_stack_transfer_between_accounts() {
    // The classic bank transfer: money moves, totals are conserved, and
    // a concurrent reader never sees a half-done transfer.
    let mut c = Simulation::seeded(3, cfg(Protocol::PsAa), OwnerMap::Single(SiteId(0)), 1);
    let app = AppId(0);
    let (alice, bob) = (SiteId(1), SiteId(2));
    let (acc1, acc2) = (obj(0, 5, 0), obj(0, 6, 0));
    let size = SystemConfig::small().object_size() as usize;

    // Initialize balances: 100 and 50 (stored in the first 8 bytes).
    let t = c.begin(alice, app);
    let bal = |v: u64| {
        let mut b = vec![0u8; size];
        b[0..8].copy_from_slice(&v.to_le_bytes());
        b
    };
    c.read(alice, app, t, acc1).unwrap();
    c.write(alice, app, t, acc1, Some(bal(100))).unwrap();
    c.read(alice, app, t, acc2).unwrap();
    c.write(alice, app, t, acc2, Some(bal(50))).unwrap();
    c.commit(alice, app, t).unwrap();

    // Transfer 30 from acc1 to acc2.
    let t = c.begin(alice, app);
    let b1 = c.read(alice, app, t, acc1).unwrap();
    let b2 = c.read(alice, app, t, acc2).unwrap();
    let v1 = version_of(&b1);
    let v2 = version_of(&b2);
    c.write(alice, app, t, acc1, Some(bal(v1 - 30))).unwrap();
    c.write(alice, app, t, acc2, Some(bal(v2 + 30))).unwrap();
    c.commit(alice, app, t).unwrap();

    // Bob audits: totals conserved.
    let t = c.begin(bob, app);
    let b1 = c.read(bob, app, t, acc1).unwrap();
    let b2 = c.read(bob, app, t, acc2).unwrap();
    assert_eq!(version_of(&b1) + version_of(&b2), 150);
    assert_eq!(version_of(&b1), 70);
    c.commit(bob, app, t).unwrap();
}

#[test]
fn all_protocols_agree_on_final_state() {
    // The same deterministic schedule under PS, PS-OA, and PS-AA must
    // produce identical durable data.
    let mut finals = Vec::new();
    for p in [Protocol::Ps, Protocol::PsOa, Protocol::PsAa] {
        let mut c = Simulation::seeded(3, cfg(p), OwnerMap::Single(SiteId(0)), 2);
        let app = AppId(0);
        for i in 0..6u32 {
            let site = SiteId(1 + i % 2);
            let t = c.begin(site, app);
            let o = obj(0, 8 + (i % 2), 3);
            c.read(site, app, t, o).unwrap();
            c.write(site, app, t, o, None).unwrap();
            c.commit(site, app, t).unwrap();
        }
        let a = version_of(c.sites[0].volume().read_object(obj(0, 8, 3)).unwrap());
        let b = version_of(c.sites[0].volume().read_object(obj(0, 9, 3)).unwrap());
        finals.push((a, b));
    }
    assert_eq!(finals[0], finals[1]);
    assert_eq!(finals[1], finals[2]);
    assert_eq!(finals[0], (3, 3));
}

#[test]
fn hierarchical_file_lock_spans_partitions() {
    // An explicit EX file lock in a peer-servers system must reach every
    // owner of the file's pages.
    let owners = OwnerMap::Ranges(vec![(0, 225, SiteId(0)), (225, 450, SiteId(1))]);
    let mut c = Simulation::seeded(3, cfg(Protocol::PsAa), owners, 3);
    let app = AppId(0);
    let scanner = SiteId(2);

    // Cache pages from both partitions at the scanner.
    let t0 = c.begin(scanner, app);
    c.read(scanner, app, t0, obj(0, 10, 0)).unwrap();
    c.read(scanner, app, t0, obj(1, 300, 0)).unwrap();
    c.commit(scanner, app, t0).unwrap();

    // Writer takes EX on the whole (conceptual) file at owner 0; our
    // explicit lock fans out to every owner.
    let writer = SiteId(0);
    let t = c.begin(writer, app);
    c.run_op(
        writer,
        app,
        t,
        AppOp::Lock {
            item: LockableId::File(FileId::new(VolId(0), 0)),
            mode: LockMode::Ex,
        },
    )
    .unwrap();
    // The scanner's cached pages of that file (in partition 0) are gone:
    // its next read of partition-0 data must block until the writer ends.
    c.submit(scanner, app, None, AppOp::Begin);
    c.pump();
    let replies = c.take_replies();
    let t2 = replies
        .iter()
        .find_map(|(_, r)| match r {
            pscc_core::AppReply::Started { txn, .. } => Some(*txn),
            _ => None,
        })
        .expect("begin");
    c.submit(scanner, app, Some(t2), AppOp::Read(obj(0, 10, 0)));
    c.pump();
    assert!(
        c.find_reply(scanner, t2).is_none(),
        "file EX must block readers"
    );
    c.commit(writer, app, t).unwrap();
    c.pump();
    assert!(c.find_reply(scanner, t2).is_some());
    let _ = c.commit(scanner, app, t2);
}

#[test]
fn quick_simulation_smoke_for_every_figure() {
    for fig in [Figure::Fig6, Figure::Fig10, Figure::Fig12, Figure::Fig14] {
        let p = run_point(&quick_spec(fig, 0.1));
        assert!(p.report.commits > 0, "{fig} committed nothing");
    }
}

#[test]
fn volumes_survive_byte_level_roundtrip() {
    // Storage + WAL: a committed state serializes page-by-page and
    // reloads identically (what a restart would read from disk).
    let mut c = Simulation::seeded(2, cfg(Protocol::PsAa), OwnerMap::Single(SiteId(0)), 4);
    let app = AppId(0);
    let t = c.begin(SiteId(1), app);
    let o = obj(0, 12, 7);
    c.read(SiteId(1), app, t, o).unwrap();
    c.write(SiteId(1), app, t, o, None).unwrap();
    c.commit(SiteId(1), app, t).unwrap();

    let vol = c.sites[0].volume();
    let page = vol.page(o.page).unwrap();
    let reloaded = pscc_storage::SlottedPage::from_bytes(page.as_bytes().to_vec());
    assert_eq!(reloaded.get(o.slot), vol.read_object(o));
    assert_eq!(version_of(reloaded.get(o.slot).unwrap()), 1);
}

#[test]
fn protocol_messages_survive_wire_roundtrip() {
    // Every protocol message must survive the byte-level frame codec a
    // TCP deployment would use.
    use bytes::BytesMut;
    use pscc_core::{Message, ReqId};
    use pscc_net::codec::{decode_frame, encode_frame};
    use pscc_storage::{AvailMask, PageSnapshot, SlottedPage};

    let page = PageId::new(FileId::new(VolId(0), 0), 7);
    let mut image = SlottedPage::new(1024);
    for i in 0..5u8 {
        image.insert(&[i; 40]).unwrap();
    }
    let txn = pscc_common::TxnId::new(SiteId(2), 9);
    let msgs = vec![
        Message::ReadObj {
            req: ReqId(1),
            txn,
            oid: Oid::new(page, 3),
        },
        Message::ReadReply {
            req: ReqId(1),
            snapshot: PageSnapshot {
                page,
                image,
                avail: AvailMask::all_available(5),
                ship_seq: 3,
            },
        },
        Message::WriteGranted {
            req: ReqId(2),
            adaptive: true,
        },
        Message::Callback {
            cb: pscc_core::CbId(4),
            txn,
            target: LockableId::Object(Oid::new(page, 3)),
        },
        Message::Purge {
            client: SiteId(1),
            page,
            ship_seq: 3,
            replicate: vec![(txn, LockableId::Object(Oid::new(page, 1)), LockMode::Sh)],
            log_records: vec![pscc_wal::LogRecord::update(
                txn,
                Oid::new(page, 1),
                vec![0; 8],
                vec![1; 8],
            )],
        },
        Message::Decide { txn, commit: true },
    ];
    let mut buf = BytesMut::new();
    for m in &msgs {
        encode_frame(m, &mut buf).unwrap();
    }
    for m in &msgs {
        let got: Message = decode_frame(&mut buf).unwrap().expect("frame");
        assert_eq!(&got, m);
    }
}
