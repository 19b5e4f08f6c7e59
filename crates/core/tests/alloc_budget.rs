//! The engine's allocation budget on the access path: once warm, a
//! cache-hit read allocates nothing, at the owner or at a client; an
//! owner applying a commit makes no allocation per record; and an
//! in-proc page ship hands the client the owner's own page buffer.
//!
//! A counting allocator sees every allocation in the process; it counts
//! only those made on a thread while that thread's flag is up, so the
//! test harness's own threads do not show.

use pscc_common::{AppId, FileId, Oid, PageId, SimTime, SiteId, SystemConfig, TxnId, VolId};
use pscc_core::{
    AppOp, AppReply, AppRequest, DiskOp, DiskReqId, Env, Input, Message, OwnerMap, PeerServer,
    ReqId, TimerId,
};
use pscc_wal::LogRecord;
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

const OWNER: SiteId = SiteId(0);
const CLIENT: SiteId = SiteId(1);
const APP: AppId = AppId(1);

/// Collects one site's effects into buffers that keep their capacity:
/// disks complete at once, timers are dropped.
struct Effects {
    sent: Vec<(SiteId, Message)>,
    replies: Vec<AppReply>,
}

impl Env for Effects {
    fn send(&mut self, to: SiteId, msg: Message) {
        self.sent.push((to, msg));
    }
    fn disk(&mut self, _: DiskReqId, _: DiskOp) -> bool {
        true
    }
    fn arm_timer(&mut self, _: TimerId, _: pscc_common::SimDuration) {}
    fn reply(&mut self, reply: AppReply) {
        self.replies.push(reply);
    }
}

/// An owner and a client wired to each other in-proc.
struct Pair {
    sites: [PeerServer; 2],
    fx: Effects,
}

impl Pair {
    fn new() -> Self {
        let cfg = SystemConfig::small();
        let site = |s| PeerServer::new(s, cfg.clone(), OwnerMap::Single(OWNER));
        Pair {
            sites: [site(OWNER), site(CLIENT)],
            fx: Effects {
                sent: Vec::with_capacity(64),
                replies: Vec::with_capacity(64),
            },
        }
    }

    /// Feeds `input` to `site` and nothing else; its effects stay in
    /// `self.fx`.
    fn drive(&mut self, site: SiteId, input: Input) {
        self.sites[site.0 as usize].drive(SimTime::ZERO, input, &mut self.fx);
    }

    /// Feeds `input` to `site`, then delivers every message it causes
    /// until the pair is quiet; returns the application replies. (A
    /// site handles its messages to itself within the call, so each
    /// message comes from the other site.)
    fn run(&mut self, site: SiteId, input: Input) -> Vec<AppReply> {
        self.drive(site, input);
        let mut replies = Vec::new();
        replies.append(&mut self.fx.replies);
        while !self.fx.sent.is_empty() {
            let sent: Vec<(SiteId, Message)> = self.fx.sent.drain(..).collect();
            for (to, msg) in sent {
                let from = SiteId(1 - to.0);
                self.drive(to, Input::Msg { from, msg });
                replies.append(&mut self.fx.replies);
            }
        }
        replies
    }

    fn app(&mut self, site: SiteId, txn: Option<TxnId>, op: AppOp) -> Vec<AppReply> {
        self.run(site, Input::App(AppRequest { app: APP, txn, op }))
    }

    fn begin(&mut self, site: SiteId) -> TxnId {
        match self.app(site, None, AppOp::Begin)[..] {
            [AppReply::Started { txn, .. }] => txn,
            ref other => panic!("unexpected {other:?}"),
        }
    }

    fn commit(&mut self, site: SiteId, txn: TxnId) {
        let replies = self.app(site, Some(txn), AppOp::Commit);
        assert!(
            matches!(replies[..], [AppReply::Committed { .. }]),
            "{replies:?}"
        );
    }

    /// Reads `oid` in `txn` at `site`, a cache hit: the read is answered
    /// by `site` alone. Returns the allocations it made.
    fn hit(&mut self, site: SiteId, txn: TxnId, oid: Oid) -> u64 {
        let input = Input::App(AppRequest {
            app: APP,
            txn: Some(txn),
            op: AppOp::Read(oid),
        });
        let ((), calls) = allocations(|| self.drive(site, input));
        assert!(self.fx.sent.is_empty(), "a hit sends nothing");
        assert!(
            matches!(
                self.fx.replies[..],
                [AppReply::Done { data: Some(ref d), .. }] if !d.is_empty()
            ),
            "{:?}",
            self.fx.replies
        );
        self.fx.replies.clear();
        calls
    }
}

fn page(n: u32) -> PageId {
    PageId::new(FileId::new(VolId(0), 0), n)
}

/// Objects 0..n of pages 3, 4, ...: ten to a page.
fn objects(n: u16) -> impl Iterator<Item = Oid> {
    (0..n).map(|i| Oid::new(page(3 + u32::from(i / 10)), i % 10))
}

/// For each of two transactions at `site`, reads four objects of one
/// page and commits; the second transaction's reads must allocate
/// nothing.
fn reads_allocate_nothing_when_warm(site: SiteId) {
    let mut p = Pair::new();
    for round in 0..2 {
        let t = p.begin(site);
        for (i, oid) in objects(4).enumerate() {
            if round == 0 {
                // The first read of the page fetches it.
                let replies = p.app(site, Some(t), AppOp::Read(oid));
                assert!(matches!(replies[..], [AppReply::Done { .. }]));
            } else {
                let calls = p.hit(site, t, oid);
                assert_eq!(calls, 0, "{site} read {i} allocated");
            }
        }
        p.commit(site, t);
    }
}

#[test]
fn an_owner_local_cache_hit_allocates_nothing() {
    reads_allocate_nothing_when_warm(OWNER);
}

#[test]
fn a_client_cache_hit_allocates_nothing() {
    reads_allocate_nothing_when_warm(CLIENT);
}

/// The owner applies a commit of `n` update records of a client
/// transaction; returns the allocations it made.
fn apply_commit(p: &mut Pair, seq: u64, n: u16) -> u64 {
    let txn = TxnId::new(CLIENT, seq);
    let records: Vec<LogRecord> = objects(n)
        .map(|oid| {
            let before = p.sites[0]
                .volume()
                .read_object(oid)
                .expect("object")
                .to_vec();
            let mut after = before.clone();
            after[0] = after[0].wrapping_add(1);
            LogRecord::update(txn, oid, before, after)
        })
        .collect();
    let msg = Message::CommitReq {
        req: ReqId(seq),
        txn,
        records,
    };
    let ((), calls) = allocations(|| {
        p.drive(OWNER, Input::Msg { from: CLIENT, msg });
    });
    assert!(
        matches!(p.fx.sent[..], [(CLIENT, Message::CommitOk { .. })]),
        "{:?}",
        p.fx.sent
    );
    p.fx.sent.clear();
    calls
}

#[test]
fn an_owner_commit_allocates_nothing_per_record() {
    const R: u16 = 16;
    let mut p = Pair::new();
    // Warm up: every page the records touch has been written once (a
    // page's first write gives it its own buffer) and the log, lock
    // table and transaction tables have grown.
    for seq in 1..=4 {
        apply_commit(&mut p, seq, 2 * R);
    }
    for seq in (5..=20).step_by(2) {
        let r = apply_commit(&mut p, seq, R);
        let two_r = apply_commit(&mut p, seq + 1, 2 * R);
        assert!(
            two_r <= r + 4,
            "{} records made {two_r} allocations, {R} made {r}",
            2 * R
        );
    }
}

#[test]
fn an_in_proc_page_ship_shares_the_owners_buffer() {
    let mut p = Pair::new();
    let t = p.begin(CLIENT);
    let oid = Oid::new(page(3), 0);
    p.drive(
        CLIENT,
        Input::App(AppRequest {
            app: APP,
            txn: Some(t),
            op: AppOp::Read(oid),
        }),
    );
    let fetch = p.fx.sent.pop().expect("the client fetches the page").1;
    p.drive(
        OWNER,
        Input::Msg {
            from: CLIENT,
            msg: fetch,
        },
    );
    let Some((_, Message::ReadReply { snapshot, .. })) = p.fx.sent.pop() else {
        panic!("the owner ships the page");
    };
    let at_owner = p.sites[0].volume().page(page(3)).expect("owned page");
    assert!(snapshot.image.shares_buffer_with(at_owner));
}
