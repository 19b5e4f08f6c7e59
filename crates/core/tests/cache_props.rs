//! Property tests for the client cache's §4.2.3 merge rules: random
//! sequences of installs, callbacks, local updates, and aborts must
//! preserve the availability invariants.

use proptest::prelude::*;
use pscc_common::hash::{HashMap, HashSet};
use pscc_common::{FileId, Oid, PageId, SiteId, TxnId, VolId};
use pscc_core::cache::ClientCache;
use pscc_storage::{AvailMask, SlottedPage};

const N_SLOTS: u16 = 6;

fn pid(n: u8) -> PageId {
    PageId::new(FileId::new(VolId(0), 0), n as u32 % 3)
}

fn page_image() -> SlottedPage {
    let mut p = SlottedPage::new(512);
    for _ in 0..N_SLOTS {
        p.insert(&[0u8; 16]).unwrap();
    }
    p
}

#[derive(Debug, Clone)]
enum Op {
    /// Install a copy with the given availability bits and race list.
    Install {
        page: u8,
        unavail: Vec<u8>,
        raced: Vec<u8>,
        seq: u64,
    },
    /// An object callback.
    MarkUnavailable { page: u8, slot: u8 },
    /// A page callback / eviction.
    Purge { page: u8 },
    /// A local update by txn t.
    Update { page: u8, slot: u8, txn: u8 },
    /// Txn t aborts.
    Abort { txn: u8 },
    /// Txn t commits.
    Commit { txn: u8 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (
            0u8..3,
            proptest::collection::vec(0u8..N_SLOTS as u8, 0..4),
            proptest::collection::vec(0u8..N_SLOTS as u8, 0..3),
            1u64..100
        )
            .prop_map(|(page, unavail, raced, seq)| Op::Install {
                page,
                unavail,
                raced,
                seq
            }),
        (0u8..3, 0u8..N_SLOTS as u8).prop_map(|(page, slot)| Op::MarkUnavailable { page, slot }),
        (0u8..3).prop_map(|page| Op::Purge { page }),
        (0u8..3, 0u8..N_SLOTS as u8, 0u8..3).prop_map(|(page, slot, txn)| Op::Update {
            page,
            slot,
            txn
        }),
        (0u8..3).prop_map(|txn| Op::Abort { txn }),
        (0u8..3).prop_map(|txn| Op::Commit { txn }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn cache_merge_invariants(ops in proptest::collection::vec(arb_op(), 1..60)) {
        let mut cache = ClientCache::new(8);
        // Model: per (page, slot): available?, dirty-by.
        let mut avail: HashMap<(u8, u8), bool> = HashMap::default();
        let mut dirty: HashMap<(u8, u8), u8> = HashMap::default();
        let mut cached: HashSet<u8> = HashSet::default();

        for op in ops {
            match op {
                Op::Install { page, unavail, raced, seq } => {
                    let mut proposed = AvailMask::all_available(N_SLOTS);
                    for s in &unavail {
                        proposed.set_unavailable(*s as u16);
                    }
                    let raced_slots: Vec<u16> = raced.iter().map(|s| *s as u16).collect();
                    cache.install(pid(page), page_image(), proposed, seq, &raced_slots);
                    // Model §4.2.3: already-available slots stay; others
                    // take proposed minus raced.
                    for s in 0..N_SLOTS as u8 {
                        let was = cached.contains(&page)
                            && *avail.get(&(page, s)).unwrap_or(&false);
                        let prop_avail = !unavail.contains(&s) && !raced.contains(&s);
                        avail.insert((page, s), was || prop_avail);
                    }
                    cached.insert(page);
                }
                Op::MarkUnavailable { page, slot } => {
                    cache.mark_unavailable(Oid::new(pid(page), slot as u16));
                    if cached.contains(&page) {
                        avail.insert((page, slot), false);
                        dirty.remove(&(page, slot));
                    }
                }
                Op::Purge { page } => {
                    cache.purge(pid(page));
                    cached.remove(&page);
                    avail.retain(|(p, _), _| *p != page);
                    dirty.retain(|(p, _), _| *p != page);
                }
                Op::Update { page, slot, txn } => {
                    let oid = Oid::new(pid(page), slot as u16);
                    if cache.object_cached(oid) {
                        let t = TxnId::new(SiteId(1), txn as u64);
                        let r = cache.apply_update(oid, &[txn + 1; 16], t);
                        prop_assert!(r.is_ok(), "in-range same-size update fits");
                        dirty.insert((page, slot), txn);
                    }
                }
                Op::Abort { txn } => {
                    let t = TxnId::new(SiteId(1), txn as u64);
                    cache.abort_txn(t);
                    let mine: Vec<(u8, u8)> = dirty
                        .iter()
                        .filter(|(_, owner)| **owner == txn)
                        .map(|(k, _)| *k)
                        .collect();
                    for k in mine {
                        dirty.remove(&k);
                        avail.insert(k, false);
                    }
                }
                Op::Commit { txn } => {
                    let t = TxnId::new(SiteId(1), txn as u64);
                    cache.clean_txn(t);
                    dirty.retain(|_, owner| *owner != txn);
                }
            }

            // Invariants after every op.
            for page in 0u8..3 {
                for slot in 0..N_SLOTS {
                    let oid = Oid::new(pid(page), slot);
                    let model = cached.contains(&page)
                        && *avail.get(&(page, slot as u8)).unwrap_or(&false);
                    prop_assert_eq!(
                        cache.object_cached(oid),
                        model,
                        "availability mismatch at page {} slot {}",
                        page,
                        slot
                    );
                    // Dirty objects carry their updater's bytes.
                    if let Some(owner) = dirty.get(&(page, slot as u8)) {
                        let bytes = cache.read_object(oid).expect("dirty implies available");
                        prop_assert_eq!(bytes[0], owner + 1, "dirty bytes preserved");
                    }
                }
            }
        }
    }
}
