//! Size-changing updates, object creation and deletion (paper §4.4).
//!
//! The engine handles three size-change situations:
//! * a resize that still fits its page is applied in place (relocation
//!   within the page is the slotted layout's business);
//! * a growth that overflows the page is early-shipped; the owner
//!   installs it by *forwarding* the object to an overflow page
//!   (System-R style), keeping its id valid;
//! * later accesses to a forwarded object are point-served by the owner
//!   (forwarded objects are never client-cached).

use pscc_common::{
    AppId, FileId, LockMode, LockableId, Oid, PageId, Protocol, PsccError, SiteId, SystemConfig,
    TxnId, VolId,
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
    Simulation::seeded(3, cfg, OwnerMap::Single(S), 63)
}

fn oid(page: u32, slot: u16) -> Oid {
    Oid::new(PageId::new(FileId::new(VolId(0), 0), page), slot)
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

fn abort(c: &mut Simulation, t: TxnId) {
    assert!(matches!(
        c.run_op(A, APP, t, AppOp::Abort),
        Err(PsccError::Aborted { .. })
    ));
}

#[test]
fn shrink_and_regrow_in_place() {
    let mut c = cluster();
    let x = oid(33, 0);
    let t = c.begin(A, APP);
    c.read(A, APP, t, x).unwrap();
    c.write(A, APP, t, x, Some(vec![7u8; 8])).unwrap(); // shrink
    c.write(A, APP, t, x, Some(vec![8u8; 40])).unwrap(); // regrow (fits)
    c.commit(A, APP, t).unwrap();
    let stored = c.sites[0].volume().read_object(x).unwrap();
    assert_eq!(stored, &[8u8; 40][..]);
}

#[test]
fn growth_overflow_forwards_at_owner() {
    // small() pages are 1024 bytes with 10 × ~89-byte objects; growing
    // one object to 600 bytes cannot fit and must be forwarded.
    let mut c = cluster();
    let x = oid(35, 2);
    let t = c.begin(A, APP);
    c.read(A, APP, t, x).unwrap();
    c.write(A, APP, t, x, Some(vec![5u8; 600])).unwrap();
    c.commit(A, APP, t).unwrap();

    // The object's id remains valid and reads return the grown bytes —
    // from another client too.
    let stored = c.sites[0].volume().read_object(x).unwrap();
    assert_eq!(stored.len(), 600);
    assert_ne!(
        c.sites[0].volume().resolve_forward(x),
        x,
        "the object must have been forwarded"
    );
    let tb = c.begin(B, APP);
    let got = c.read(B, APP, tb, x).unwrap();
    assert_eq!(got, vec![5u8; 600]);
    c.commit(B, APP, tb).unwrap();

    // Neighbours on the home page are untouched.
    let t2 = c.begin(B, APP);
    let n = c.read(B, APP, t2, oid(35, 3)).unwrap();
    assert_eq!(n.len(), SystemConfig::small().object_size() as usize);
    c.commit(B, APP, t2).unwrap();
}

#[test]
fn forwarded_object_can_be_updated_again() {
    let mut c = cluster();
    let x = oid(37, 0);
    let t = c.begin(A, APP);
    c.read(A, APP, t, x).unwrap();
    c.write(A, APP, t, x, Some(vec![1u8; 700])).unwrap(); // forwarded at commit
    c.commit(A, APP, t).unwrap();

    // A second transaction updates the now-forwarded object.
    let t2 = c.begin(A, APP);
    c.read(A, APP, t2, x).unwrap();
    c.write(A, APP, t2, x, Some(vec![2u8; 700])).unwrap();
    c.commit(A, APP, t2).unwrap();
    assert_eq!(c.sites[0].volume().read_object(x).unwrap(), &[2u8; 700][..]);

    // And version-bump (synthesized) writes work on forwarded objects.
    let t3 = c.begin(B, APP);
    c.read(B, APP, t3, x).unwrap();
    c.write(B, APP, t3, x, None).unwrap();
    c.commit(B, APP, t3).unwrap();
    let stored = c.sites[0].volume().read_object(x).unwrap();
    assert_eq!(u64::from_le_bytes(stored[0..8].try_into().unwrap()), {
        let mut v = [2u8; 8];
        v.copy_from_slice(&[2u8; 8]);
        u64::from_le_bytes(v).wrapping_add(1)
    });
}

#[test]
fn growth_overflow_abort_restores_original() {
    let mut c = cluster();
    let x = oid(39, 1);
    let size = SystemConfig::small().object_size() as usize;
    let t = c.begin(A, APP);
    c.read(A, APP, t, x).unwrap();
    c.write(A, APP, t, x, Some(vec![9u8; 800])).unwrap();
    abort(&mut c, t);
    c.pump();
    // The original bytes are back (before-image undo, possibly through
    // the forwarded location).
    let stored = c.sites[0].volume().read_object(x).unwrap();
    assert_eq!(stored, vec![0u8; size]);
    let tb = c.begin(B, APP);
    assert_eq!(c.read(B, APP, tb, x).unwrap(), vec![0u8; size]);
    c.commit(B, APP, tb).unwrap();
}

#[test]
fn create_object_on_locked_page() {
    let mut c = cluster();
    let page = oid(41, 0).page;
    let t = c.begin(A, APP);
    // Creation requires the page cached + an explicit EX page lock.
    c.read(A, APP, t, oid(41, 0)).unwrap();
    done(&mut c, A, t, ex(LockableId::Page(page)));
    let bytes = b"created".to_vec();
    let created = done(&mut c, A, t, AppOp::Create { page, bytes }).expect("created");
    let new_oid = decode_header_oid(&created).expect("oid");
    c.commit(A, APP, t).unwrap();

    // Durable at the owner and visible to another client.
    assert_eq!(
        c.sites[0].volume().read_object(new_oid).unwrap(),
        b"created"
    );
    let tb = c.begin(B, APP);
    assert_eq!(c.read(B, APP, tb, new_oid).unwrap(), b"created".to_vec());
    c.commit(B, APP, tb).unwrap();
}

#[test]
fn create_without_page_lock_is_refused() {
    let mut c = cluster();
    let page = oid(43, 0).page;
    let t = c.begin(A, APP);
    c.read(A, APP, t, oid(43, 0)).unwrap();
    let bytes = b"x".to_vec();
    let refused = done(&mut c, A, t, AppOp::Create { page, bytes });
    assert!(refused.is_none(), "must refuse");
    c.commit(A, APP, t).unwrap();
}

#[test]
fn delete_object_end_to_end() {
    let mut c = cluster();
    let x = oid(45, 4);
    let t = c.begin(A, APP);
    c.read(A, APP, t, x).unwrap();
    done(&mut c, A, t, ex(LockableId::Object(x)));
    let before = done(&mut c, A, t, AppOp::Delete(x)).expect("before-image");
    assert_eq!(before.len(), SystemConfig::small().object_size() as usize);
    c.commit(A, APP, t).unwrap();
    assert_eq!(c.sites[0].volume().read_object(x), None);

    // A reader of the deleted object gets an empty read.
    let tb = c.begin(B, APP);
    assert!(done(&mut c, B, tb, AppOp::Read(x)).is_none());
    c.commit(B, APP, tb).unwrap();
}

#[test]
fn delete_then_abort_restores() {
    let mut c = cluster();
    let x = oid(47, 4);
    let size = SystemConfig::small().object_size() as usize;
    let t = c.begin(A, APP);
    c.read(A, APP, t, x).unwrap();
    done(&mut c, A, t, ex(LockableId::Object(x)));
    assert!(done(&mut c, A, t, AppOp::Delete(x)).is_some());
    abort(&mut c, t);
    c.pump();
    // Object still there.
    let tb = c.begin(B, APP);
    assert_eq!(c.read(B, APP, tb, x).unwrap(), vec![0u8; size]);
    c.commit(B, APP, tb).unwrap();
}
