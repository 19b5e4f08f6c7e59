//! Property-based tests: random sequences of lock-table operations must
//! preserve the compatibility invariant, never lose track of waiters,
//! keep the per-page listings equal to what the per-transaction and
//! per-granule queries recompute, and always drain to empty.

use proptest::prelude::*;
use pscc_common::hash::HashMap;
use pscc_common::{FileId, LockMode, LockableId, Oid, PageId, SiteId, TxnId, VolId};
use pscc_lockmgr::{Acquire, LockTable, Ticket};

#[derive(Debug, Clone)]
enum Op {
    Acquire {
        txn: u8,
        granule: u8,
        mode: u8,
    },
    TryAcquire {
        txn: u8,
        granule: u8,
        mode: u8,
    },
    AcquireSingle {
        txn: u8,
        granule: u8,
        mode: u8,
    },
    ForceGrant {
        txn: u8,
        granule: u8,
        mode: u8,
    },
    /// A downgrade to `mode` (if the held mode covers it), then the
    /// rescan that completes it.
    Downgrade {
        txn: u8,
        granule: u8,
        mode: u8,
    },
    ReleaseOne {
        txn: u8,
        granule: u8,
    },
    SetAdaptive {
        txn: u8,
        page: u8,
    },
    ClearAdaptive {
        txn: u8,
        page: u8,
    },
    ReleaseAll {
        txn: u8,
    },
    CancelOldest {
        txn: u8,
    },
}

/// Granules 0..12 are the volume, the file, 3 pages and one object on
/// each; 12..24 add four more objects on each page.
const GRANULES: u8 = 24;
const PAGES: u8 = 3;

fn arb_op() -> impl Strategy<Value = Op> {
    let tgm = || (0u8..6, 0u8..GRANULES, 0u8..5);
    prop_oneof![
        tgm().prop_map(|(txn, granule, mode)| Op::Acquire { txn, granule, mode }),
        tgm().prop_map(|(txn, granule, mode)| Op::Acquire { txn, granule, mode }),
        tgm().prop_map(|(txn, granule, mode)| Op::TryAcquire { txn, granule, mode }),
        tgm().prop_map(|(txn, granule, mode)| Op::AcquireSingle { txn, granule, mode }),
        tgm().prop_map(|(txn, granule, mode)| Op::ForceGrant { txn, granule, mode }),
        tgm().prop_map(|(txn, granule, mode)| Op::Downgrade { txn, granule, mode }),
        (0u8..6, 0u8..GRANULES).prop_map(|(txn, granule)| Op::ReleaseOne { txn, granule }),
        (0u8..6, 0u8..PAGES).prop_map(|(txn, page)| Op::SetAdaptive { txn, page }),
        (0u8..6, 0u8..PAGES).prop_map(|(txn, page)| Op::ClearAdaptive { txn, page }),
        (0u8..6).prop_map(|txn| Op::ReleaseAll { txn }),
        (0u8..6).prop_map(|txn| Op::CancelOldest { txn }),
    ]
}

fn page(p: u8) -> PageId {
    PageId::new(FileId::new(VolId(0), 1), u32::from(p))
}

fn granule(g: u8) -> LockableId {
    let file = FileId::new(VolId(0), 1);
    match g % 4 {
        _ if g >= 12 => LockableId::Object(Oid::new(page((g - 12) / 4), 3 + u16::from(g % 4))),
        0 => LockableId::Volume(VolId(0)),
        1 => LockableId::File(file),
        2 => LockableId::Page(page(g / 4)),
        _ => LockableId::Object(Oid::new(page(g / 4), (g % 3) as u16)),
    }
}

fn txn_id(txn: u8) -> TxnId {
    TxnId::new(SiteId(txn as u32), txn as u64)
}

fn sorted<T: Ord>(mut v: Vec<T>) -> Vec<T> {
    v.sort();
    v
}

/// The per-page listings against what every transaction's `locks_of`
/// and every granule's `waiters` say.
fn check_page_listings(lt: &LockTable) -> Result<(), TestCaseError> {
    let held: Vec<(TxnId, LockableId, LockMode)> = (0u8..6)
        .map(txn_id)
        .flat_map(|t| lt.locks_of(t).into_iter().map(move |(id, m)| (t, id, m)))
        .collect();
    for p in (0..PAGES).map(page) {
        let objects: Vec<(TxnId, Oid, LockMode)> = (held.iter())
            .filter_map(|&(t, id, m)| match id {
                LockableId::Object(o) if o.page == p => Some((t, o, m)),
                _ => None,
            })
            .collect();
        prop_assert_eq!(
            sorted(lt.object_holders_on_page(p)),
            sorted(objects.clone())
        );
        let ex: Vec<(TxnId, Oid)> = (objects.iter())
            .filter(|(_, _, m)| *m == LockMode::Ex)
            .map(|&(t, o, _)| (t, o))
            .collect();
        prop_assert_eq!(sorted(lt.ex_object_holders_on_page(p)), sorted(ex));
        let mut waiters: Vec<TxnId> = (0..GRANULES)
            .map(granule)
            .filter(|g| match g {
                LockableId::Page(q) => *q == p,
                LockableId::Object(o) => o.page == p,
                _ => false,
            })
            .flat_map(|g| lt.waiters(g).into_iter().map(|(t, _)| t))
            .collect();
        waiters.sort();
        waiters.dedup();
        prop_assert_eq!(lt.waiters_on_page(p), waiters);
        let adaptive: Vec<TxnId> = (held.iter())
            .filter(|&&(t, id, _)| id == LockableId::Page(p) && lt.is_adaptive(t, p))
            .map(|&(t, _, _)| t)
            .collect();
        prop_assert_eq!(sorted(lt.adaptive_holders(p)), sorted(adaptive));
    }
    Ok(())
}

fn mode(m: u8) -> LockMode {
    LockMode::ALL[(m % 5) as usize]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// After any op sequence: holders stay mutually compatible, every
    /// grant corresponds to a live ticket, and releasing everyone leaves
    /// an empty table.
    #[test]
    fn random_ops_preserve_invariants(ops in proptest::collection::vec(arb_op(), 1..120)) {
        let mut lt = LockTable::new();
        let mut outstanding: HashMap<u8, Vec<Ticket>> = HashMap::default();
        let mut live: Vec<Ticket> = Vec::new();

        let settle = |granted: Vec<pscc_lockmgr::Grant>,
                          live: &mut Vec<Ticket>,
                          outstanding: &mut HashMap<u8, Vec<Ticket>>| {
            for g in granted {
                prop_assert!(live.contains(&g.ticket), "grant for unknown ticket");
                live.retain(|t| *t != g.ticket);
                for v in outstanding.values_mut() {
                    v.retain(|t| *t != g.ticket);
                }
            }
            Ok(())
        };

        for op in &ops {
            match *op {
                Op::Acquire { txn, granule: g, mode: m } => {
                    let t = TxnId::new(SiteId(txn as u32), txn as u64);
                    // Skip ops that would make a txn wait twice (the
                    // engine never does that per context).
                    if outstanding.get(&txn).is_some_and(|v| !v.is_empty()) {
                        continue;
                    }
                    let (a, grants) = lt.acquire(t, granule(g), mode(m));
                    if let Acquire::Wait(tk) = a {
                        outstanding.entry(txn).or_default().push(tk);
                        live.push(tk);
                    }
                    settle(grants, &mut live, &mut outstanding)?;
                }
                Op::TryAcquire { txn, granule: g, mode: m } => {
                    let t = TxnId::new(SiteId(txn as u32), txn as u64);
                    let _ = lt.try_acquire_single(t, granule(g), mode(m));
                }
                Op::AcquireSingle { txn, granule: g, mode: m } => {
                    // Callback threads of one transaction may wait at
                    // once, so this one may add a second wait.
                    let (a, grants) = lt.acquire_single(txn_id(txn), granule(g), mode(m));
                    if let Acquire::Wait(tk) = a {
                        outstanding.entry(txn).or_default().push(tk);
                        live.push(tk);
                    }
                    settle(grants, &mut live, &mut outstanding)?;
                }
                Op::ForceGrant { txn, granule: g, mode: m } => {
                    let (t, id) = (txn_id(txn), granule(g));
                    if lt.conflicting_holders(id, mode(m), t).is_empty() {
                        lt.force_grant(t, id, mode(m));
                    }
                }
                Op::Downgrade { txn, granule: g, mode: m } => {
                    let (t, id) = (txn_id(txn), granule(g));
                    if lt.held_mode(t, id).is_some_and(|h| h.covers(mode(m))) {
                        lt.downgrade(t, id, mode(m));
                        settle(lt.rescan(id), &mut live, &mut outstanding)?;
                    }
                }
                Op::ReleaseOne { txn, granule: g } => {
                    let grants = lt.release_one(txn_id(txn), granule(g));
                    settle(grants, &mut live, &mut outstanding)?;
                }
                Op::SetAdaptive { txn, page: p } => {
                    let t = txn_id(txn);
                    if lt.held_mode(t, LockableId::Page(page(p))).is_some() {
                        lt.set_adaptive(t, page(p));
                        prop_assert!(lt.is_adaptive(t, page(p)));
                    }
                }
                Op::ClearAdaptive { txn, page: p } => {
                    lt.clear_adaptive(txn_id(txn), page(p));
                    prop_assert!(!lt.is_adaptive(txn_id(txn), page(p)));
                }
                Op::ReleaseAll { txn } => {
                    let t = TxnId::new(SiteId(txn as u32), txn as u64);
                    let out = lt.release_all(t);
                    // A cancel may grant a later ticket of the same
                    // transaction, which is then cancelled too: settle
                    // the grants while their tickets are still live.
                    settle(out.grants, &mut live, &mut outstanding)?;
                    for c in &out.cancelled {
                        live.retain(|x| x != c);
                    }
                    outstanding.remove(&txn);
                }
                Op::CancelOldest { txn } => {
                    if let Some(tk) = outstanding.get_mut(&txn).and_then(|v| v.pop()) {
                        live.retain(|x| *x != tk);
                        let grants = lt.cancel(tk);
                        settle(grants, &mut live, &mut outstanding)?;
                    }
                }
            }
            lt.assert_consistent();
            check_page_listings(&lt)?;
        }

        // Drain: release everything; the table must end empty.
        for txn in 0u8..6 {
            let t = TxnId::new(SiteId(txn as u32), txn as u64);
            let out = lt.release_all(t);
            settle(out.grants, &mut live, &mut outstanding)?;
            for c in &out.cancelled {
                live.retain(|x| x != c);
            }
            outstanding.remove(&txn);
            lt.assert_consistent();
            check_page_listings(&lt)?;
        }
        prop_assert!(live.is_empty(), "tickets leaked: {live:?}");
        prop_assert!(lt.is_empty(), "table not empty after global release");
    }

    /// try_acquire never changes observable state when it fails.
    #[test]
    fn try_acquire_failure_is_pure(seed_ops in proptest::collection::vec(arb_op(), 0..40),
                                   txn in 0u8..6, g in 0u8..GRANULES, m in 0u8..5) {
        let mut lt = LockTable::new();
        for op in &seed_ops {
            if let Op::Acquire { txn, granule, mode: mm } = *op {
                let t = TxnId::new(SiteId(txn as u32), txn as u64);
                let _ = lt.try_acquire_single(t, granule_fn(granule), mode(mm));
            }
        }
        let t = TxnId::new(SiteId(txn as u32), txn as u64);
        let before = lt.holders(granule_fn(g));
        if !lt.try_acquire_single(t, granule_fn(g), mode(m)) {
            prop_assert_eq!(lt.holders(granule_fn(g)), before);
        }
        lt.assert_consistent();
    }
}

fn granule_fn(g: u8) -> LockableId {
    granule(g)
}
