//! The lock table's allocation budget: once it has held a transaction's
//! working set, taking and releasing uncontended locks allocates
//! nothing, and a request that must wait allocates only its own state.
//!
//! A counting allocator sees every allocation in the process; it counts
//! only those made on a thread while that thread's flag is up, so the
//! test harness's own threads do not show.

use pscc_common::{FileId, LockMode, LockableId, Oid, PageId, SiteId, TxnId, VolId};
use pscc_lockmgr::{Acquire, LockTable};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    // `try_with`: a thread being torn down may still free and allocate.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            CALLS.with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every call is passed on unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f`, returning its result and the allocations (and reallocations)
/// it made on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    CALLS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let r = f();
    COUNTING.with(|on| on.set(false));
    (r, CALLS.with(Cell::get))
}

fn txn(seq: u64) -> TxnId {
    TxnId::new(SiteId(1), seq)
}

fn obj(p: u32, s: u16) -> LockableId {
    LockableId::Object(Oid::new(PageId::new(FileId::new(VolId(0), 1), p), s))
}

/// SH on 12 objects of each of 30 pages (IS on the pages, their file
/// and volume), then the end of the transaction.
fn reader(lt: &mut LockTable, t: TxnId) {
    for p in 0..30 {
        for s in 0..12 {
            assert_eq!(lt.acquire(t, obj(p, s), LockMode::Sh).0, Acquire::Granted);
        }
    }
    let out = lt.release_all(t);
    assert!(out.grants.is_empty() && out.cancelled.is_empty());
}

#[test]
fn an_uncontended_transaction_allocates_nothing_after_warm_up() {
    let mut lt = LockTable::new();
    reader(&mut lt, txn(1));
    for n in 2..=5 {
        let ((), calls) = allocations(|| reader(&mut lt, txn(n)));
        assert_eq!(calls, 0, "transaction {n} allocated");
    }
    lt.assert_consistent();
    assert!(lt.is_empty());
}

#[test]
fn a_parked_request_allocates_only_its_own_state() {
    let mut lt = LockTable::new();
    // Each round: a writer holds an object, a reader parks on it (its
    // intention locks above are granted), the writer's release grants
    // the reader, the reader ends.
    let mut round = |n: u64| {
        let (writer, reader) = (txn(2 * n), txn(2 * n + 1));
        assert_eq!(
            lt.acquire(writer, obj(0, 0), LockMode::Ex).0,
            Acquire::Granted
        );
        let (parked, calls) = allocations(|| lt.acquire(reader, obj(0, 0), LockMode::Sh).0);
        assert!(matches!(parked, Acquire::Wait(_)));
        lt.assert_consistent();
        let out = lt.release_all(writer);
        assert_eq!(out.grants.len(), 1);
        assert!(lt.release_all(reader).grants.is_empty());
        lt.assert_consistent();
        calls
    };
    round(0);
    for n in 1..=3 {
        // One allocation is the copy of the reader's path into its
        // pending state. The ticket's place in the object's wait queue
        // and in the reader's ticket list may take one each, when the
        // spare containers they came from had never queued a ticket.
        // The granted intention locks, the pending map and the queued
        // set reuse what the first round grew.
        let calls = round(n);
        assert!((1..=3).contains(&calls), "round {n}: {calls} allocations");
    }
    assert!(lt.is_empty());
}

/// SH on one object of each of 1 000 pages from `first`, then the end
/// of the transaction.
fn wide_reader(lt: &mut LockTable, t: TxnId, first: u32) {
    for p in first..first + 1_000 {
        assert_eq!(lt.acquire(t, obj(p, 0), LockMode::Sh).0, Acquire::Granted);
    }
    let out = lt.release_all(t);
    assert!(out.grants.is_empty() && out.cancelled.is_empty());
}

#[test]
fn a_second_round_over_a_thousand_pages_allocates_nothing() {
    let mut lt = LockTable::new();
    wide_reader(&mut lt, txn(1), 0);
    // The same pages again, then 1 000 others: the page records, their
    // object lists and the page map all come back from the first round.
    let ((), calls) = allocations(|| wide_reader(&mut lt, txn(2), 0));
    assert_eq!(calls, 0, "the same 1 000 pages");
    let ((), calls) = allocations(|| wide_reader(&mut lt, txn(3), 1_000));
    assert_eq!(calls, 0, "1 000 other pages");
    lt.assert_consistent();
    assert!(lt.is_empty());
}
