//! Property-based tests: random sequences of lock-table operations must
//! preserve the compatibility invariant, never lose track of waiters, and
//! always drain to empty.

use proptest::prelude::*;
use pscc_common::hash::HashMap;
use pscc_common::{FileId, LockMode, LockableId, Oid, PageId, SiteId, TxnId, VolId};
use pscc_lockmgr::{Acquire, LockTable, Ticket};

#[derive(Debug, Clone)]
enum Op {
    Acquire { txn: u8, granule: u8, mode: u8 },
    TryAcquire { txn: u8, granule: u8, mode: u8 },
    ReleaseAll { txn: u8 },
    CancelOldest { txn: u8 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..6, 0u8..12, 0u8..5).prop_map(|(txn, granule, mode)| Op::Acquire {
            txn,
            granule,
            mode
        }),
        (0u8..6, 0u8..12, 0u8..5).prop_map(|(txn, granule, mode)| Op::TryAcquire {
            txn,
            granule,
            mode
        }),
        (0u8..6).prop_map(|txn| Op::ReleaseAll { txn }),
        (0u8..6).prop_map(|txn| Op::CancelOldest { txn }),
    ]
}

fn granule(g: u8) -> LockableId {
    let file = FileId::new(VolId(0), 1);
    match g % 4 {
        0 => LockableId::Volume(VolId(0)),
        1 => LockableId::File(file),
        2 => LockableId::Page(PageId::new(file, (g / 4) as u32)),
        _ => LockableId::Object(Oid::new(PageId::new(file, (g / 4) as u32), (g % 3) as u16)),
    }
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
                Op::ReleaseAll { txn } => {
                    let t = TxnId::new(SiteId(txn as u32), txn as u64);
                    let out = lt.release_all(t);
                    for c in &out.cancelled {
                        live.retain(|x| x != c);
                    }
                    outstanding.remove(&txn);
                    settle(out.grants, &mut live, &mut outstanding)?;
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
        }

        // Drain: release everything; the table must end empty.
        for txn in 0u8..6 {
            let t = TxnId::new(SiteId(txn as u32), txn as u64);
            let out = lt.release_all(t);
            for c in &out.cancelled {
                live.retain(|x| x != c);
            }
            outstanding.remove(&txn);
            settle(out.grants, &mut live, &mut outstanding)?;
            lt.assert_consistent();
        }
        prop_assert!(live.is_empty(), "tickets leaked: {live:?}");
        prop_assert!(lt.is_empty(), "table not empty after global release");
    }

    /// try_acquire never changes observable state when it fails.
    #[test]
    fn try_acquire_failure_is_pure(seed_ops in proptest::collection::vec(arb_op(), 0..40),
                                   txn in 0u8..6, g in 0u8..12, m in 0u8..5) {
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
