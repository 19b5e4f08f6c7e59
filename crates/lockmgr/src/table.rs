//! The lock table proper: granted-holder lists, FIFO wait queues with
//! upgraders at the head, hierarchical acquisition, forced grants,
//! downgrades, and the adaptive bit.
//!
//! The table is shaped like the hierarchy it locks (DESIGN.md §13).
//! Volume and file granules, a handful per site, sit in a side table
//! searched in place. Everything below them is kept per page, in one
//! [`PageRec`]: the page granule's entry and the entries of the page's
//! objects that have lock state, in the order they appeared, so that
//! list is also the per-page object index. Records live in a slab
//! reached through one page map ([`Granules`]). An acquisition probes
//! that map at most once, since the page and object steps of its path
//! share the record, and each transaction's held list keeps the record's
//! handle beside each granule, so a release reaches what it frees
//! without hashing.
//!
//! Beside the granules the table keeps two indexes, so that no
//! operation on the transaction path scans it: what each transaction
//! holds and waits for, and which granules have a non-empty queue. Each
//! is written in one place — [`add_holder`] / [`LockTable::release_one`]
//! / [`LockTable::release_all`], [`LockTable::enqueue`] /
//! [`LockTable::scan`] — and [`LockTable::assert_consistent`] rebuilds
//! both by full scan.
//!
//! What those places empty — an object's or an upper granule's entry, a
//! page's record, a transaction's lists — is kept for reuse with the
//! capacity it grew to, and the same places take it back, so once the
//! table has held its working set an uncontended acquire and release
//! allocate nothing.

use pscc_common::hash::HashMap;
use pscc_common::{LockMode, LockableId, Oid, PageId, TxnId};
use pscc_obs::event::{EventKind, TraceHandle};
use std::collections::hash_map::Entry as MapEntry;
use std::collections::{BTreeSet, VecDeque};
use std::fmt;

/// Identifies one suspended lock acquisition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ticket(u64);

impl fmt::Display for Ticket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lk{}", self.0)
    }
}

/// Result of an acquisition attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Acquire {
    /// The full request (including any ancestor intention locks) is held.
    Granted,
    /// The request blocked; a [`Grant`] with this ticket will be returned
    /// by a later mutation once it completes.
    Wait(Ticket),
}

/// A previously blocked acquisition that has now fully completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// The ticket returned when the request blocked.
    pub ticket: Ticket,
    /// The requesting transaction.
    pub txn: TxnId,
    /// The leaf granule that was requested.
    pub id: LockableId,
    /// The requested mode at the leaf.
    pub mode: LockMode,
}

/// Outcome of releasing all of a transaction's locks.
#[derive(Debug, Clone, Default)]
pub struct ReleaseOutcome {
    /// Requests by *other* transactions that the release unblocked.
    pub grants: Vec<Grant>,
    /// Pending tickets of the released transaction that were cancelled.
    pub cancelled: Vec<Ticket>,
}

#[derive(Debug, Clone)]
struct Holder {
    txn: TxnId,
    mode: LockMode,
    /// Number of logical holders (e.g. two concurrent callback threads of
    /// the same transaction holding IX on the same page). `release_one`
    /// decrements; `release_all` ignores it.
    count: u32,
    /// The adaptive bit of paper §4.1.2, meaningful on page granules.
    adaptive: bool,
}

#[derive(Debug, Clone)]
struct Waiter {
    ticket: Ticket,
    txn: TxnId,
    /// Mode requested at this granule.
    mode: LockMode,
    /// Target held-mode if this is a conversion (sup of held and
    /// requested); `None` for a fresh request.
    convert_to: Option<LockMode>,
}

impl Waiter {
    fn is_upgrade(&self) -> bool {
        self.convert_to.is_some()
    }
}

#[derive(Debug, Default, Clone)]
struct Entry {
    holders: Vec<Holder>,
    queue: VecDeque<Waiter>,
}

impl Entry {
    fn holder(&self, txn: TxnId) -> Option<&Holder> {
        self.holders.iter().find(|h| h.txn == txn)
    }

    fn holder_mut(&mut self, txn: TxnId) -> Option<&mut Holder> {
        self.holders.iter_mut().find(|h| h.txn == txn)
    }

    fn covers(&self, txn: TxnId, mode: LockMode) -> bool {
        self.holder(txn).is_some_and(|h| h.mode.covers(mode))
    }

    fn compatible_with_others(&self, txn: TxnId, mode: LockMode) -> bool {
        self.holders
            .iter()
            .filter(|h| h.txn != txn)
            .all(|h| h.mode.compatible(mode))
    }

    /// Whether `mode` can go to `txn` right now: a conversion needs only
    /// compatibility with the other holders, a fresh request also an
    /// empty queue (FIFO).
    fn grants(&self, txn: TxnId, mode: LockMode) -> bool {
        match self.holder(txn) {
            Some(h) => self.compatible_with_others(txn, h.mode.sup(mode)),
            None => self.queue.is_empty() && self.compatible_with_others(txn, mode),
        }
    }

    fn is_unused(&self) -> bool {
        self.holders.is_empty() && self.queue.is_empty()
    }
}

/// Where a granule's entry lives: `None` for a volume or file granule
/// (the side table), else the handle of its page's record.
type Home = Option<u32>;

/// The page a page or object granule is on; `None` above the page.
fn page_of(id: LockableId) -> Option<PageId> {
    match id {
        LockableId::Page(p) => Some(p),
        LockableId::Object(o) => Some(o.page),
        LockableId::Volume(_) | LockableId::File(_) => None,
    }
}

/// The home of `id` on a path whose page-level steps share record `rec`.
fn at(id: LockableId, rec: Home) -> Home {
    page_of(id).and(rec)
}

/// One page's lock state.
#[derive(Debug, Default)]
struct PageRec {
    /// The page granule's entry; unused while only objects have state.
    page: Entry,
    /// The page's objects that have lock state, in the order their
    /// entries appeared.
    objects: Vec<(u16, Entry)>,
    /// While the record is free, the next free one.
    next_free: Option<u32>,
}

impl PageRec {
    fn is_empty(&self) -> bool {
        self.page.is_unused() && self.objects.is_empty()
    }

    fn object(&self, slot: u16) -> Option<usize> {
        self.objects.iter().position(|(s, _)| *s == slot)
    }

    /// The page's objects that have lock state and their entries, in
    /// the order they appeared.
    fn objects(&self) -> impl Iterator<Item = (u16, &Entry)> {
        self.objects.iter().map(|(s, e)| (*s, e))
    }
}

/// Every granule with lock state. A page is in `pages` exactly while
/// its record has some: the place that empties a record takes it out
/// ([`Granules::free_if_empty`]).
#[derive(Debug, Default)]
struct Granules {
    /// Volume and file granules.
    upper: Vec<(LockableId, Entry)>,
    /// Each page with lock state on it or its objects, to its record.
    pages: HashMap<PageId, u32>,
    /// The records, by handle; those no page uses are empty and chained
    /// from `free`.
    recs: Vec<PageRec>,
    free: Option<u32>,
    /// Emptied object and upper-granule entries, kept for reuse.
    spare: Vec<Entry>,
}

#[cfg(test)]
thread_local! {
    /// Probes of the page map on this thread (the probe-count tests
    /// read it).
    static PAGE_PROBES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

fn probed() {
    #[cfg(test)]
    PAGE_PROBES.with(|n| n.set(n.get() + 1));
}

impl Granules {
    /// Where `id` lives, by one probe of the page map; `None` if it is a
    /// page or an object whose page has no record.
    fn home(&self, id: LockableId) -> Option<Home> {
        let Some(page) = page_of(id) else {
            return Some(None);
        };
        probed();
        self.pages.get(&page).map(|h| Some(*h))
    }

    /// Where `id` lives, by one probe of the page map that makes its
    /// page's record (from a free one) if it has none. The caller leaves
    /// lock state in that record before its operation ends, or hands it
    /// back through [`Granules::free_if_empty`].
    fn home_mut(&mut self, id: LockableId) -> Home {
        let page = page_of(id)?;
        probed();
        match self.pages.entry(page) {
            MapEntry::Occupied(e) => Some(*e.get()),
            MapEntry::Vacant(v) => {
                let h = match self.free {
                    Some(h) => {
                        self.free = self.recs[h as usize].next_free.take();
                        h
                    }
                    None => {
                        self.recs.push(PageRec::default());
                        (self.recs.len() - 1) as u32
                    }
                };
                Some(*v.insert(h))
            }
        }
    }

    /// The record of `page`, if it has one (one probe).
    fn record(&self, page: PageId) -> Option<&PageRec> {
        probed();
        self.pages.get(&page).map(|h| &self.recs[*h as usize])
    }

    fn get(&self, id: LockableId, home: Home) -> Option<&Entry> {
        match (id, home) {
            (LockableId::Page(_), Some(h)) => Some(&self.recs[h as usize].page),
            (LockableId::Object(o), Some(h)) => {
                let rec = &self.recs[h as usize];
                rec.object(o.slot).map(|i| &rec.objects[i].1)
            }
            _ => self.upper.iter().find(|(g, _)| *g == id).map(|(_, e)| e),
        }
    }

    fn get_mut(&mut self, id: LockableId, home: Home) -> Option<&mut Entry> {
        match (id, home) {
            (LockableId::Page(_), Some(h)) => Some(&mut self.recs[h as usize].page),
            (LockableId::Object(o), Some(h)) => {
                let rec = &mut self.recs[h as usize];
                rec.object(o.slot).map(|i| &mut rec.objects[i].1)
            }
            _ => (self.upper.iter_mut().find(|(g, _)| *g == id)).map(|(_, e)| e),
        }
    }

    fn find(&self, id: LockableId) -> Option<&Entry> {
        self.get(id, self.home(id)?)
    }

    fn find_mut(&mut self, id: LockableId) -> Option<&mut Entry> {
        let home = self.home(id)?;
        self.get_mut(id, home)
    }

    /// `id`'s entry at `home`, made (from a spare one) if absent. An
    /// object's new entry joins the end of its page's list.
    fn entry(&mut self, id: LockableId, home: Home) -> &mut Entry {
        match (id, home) {
            (LockableId::Page(_), Some(h)) => &mut self.recs[h as usize].page,
            (LockableId::Object(o), Some(h)) => {
                let rec = &mut self.recs[h as usize];
                let i = rec.object(o.slot).unwrap_or_else(|| {
                    rec.objects
                        .push((o.slot, self.spare.pop().unwrap_or_default()));
                    rec.objects.len() - 1
                });
                &mut rec.objects[i].1
            }
            _ => {
                let upper = &mut self.upper;
                let i = upper.iter().position(|(g, _)| *g == id).unwrap_or_else(|| {
                    upper.push((id, self.spare.pop().unwrap_or_default()));
                    upper.len() - 1
                });
                &mut upper[i].1
            }
        }
    }

    /// Forgets `id` if it has neither holders nor waiters left, keeping
    /// its emptied entry as a spare, and its page's record once nothing
    /// on the page has lock state. Every path that takes a holder or a
    /// waiter away ends here.
    fn drop_if_unused(&mut self, id: LockableId, home: Home) {
        match (id, home) {
            (LockableId::Page(p), Some(h)) => self.free_if_empty(p, h),
            (LockableId::Object(o), Some(h)) => {
                let rec = &mut self.recs[h as usize];
                if let Some(i) = rec.object(o.slot).filter(|i| rec.objects[*i].1.is_unused()) {
                    self.spare.push(rec.objects.remove(i).1);
                }
                self.free_if_empty(o.page, h);
            }
            _ => {
                if let Some(i) = self
                    .upper
                    .iter()
                    .position(|(g, e)| *g == id && e.is_unused())
                {
                    self.spare.push(self.upper.swap_remove(i).1);
                }
            }
        }
    }

    /// Takes `page` out of the map and its record `h` to the free list
    /// if nothing on the page has lock state: the one place a record
    /// leaves the map.
    fn free_if_empty(&mut self, page: PageId, h: u32) {
        let rec = &mut self.recs[h as usize];
        if rec.is_empty() {
            probed();
            self.pages.remove(&page);
            rec.next_free = self.free.replace(h);
        }
    }

    /// Every granule with lock state and where it lives: volume and
    /// file granules, then page by page in map order.
    fn all(&self) -> impl Iterator<Item = (LockableId, Home, &Entry)> {
        let upper = self.upper.iter().map(|(id, e)| (*id, None, e));
        let pages = self.pages.iter().flat_map(move |(&page, &h)| {
            let rec = &self.recs[h as usize];
            let own =
                (!rec.page.is_unused()).then_some((LockableId::Page(page), Some(h), &rec.page));
            let objects = (rec.objects())
                .map(move |(s, e)| (LockableId::Object(Oid::new(page, s)), Some(h), e));
            own.into_iter().chain(objects)
        });
        upper.chain(pages)
    }
}

/// A root-to-leaf acquisition path: at most volume, file, page, object.
type Path = [(LockableId, LockMode)];

/// The pending state of a (possibly hierarchical) acquisition.
#[derive(Debug, Clone)]
struct Pending {
    txn: TxnId,
    /// Remaining (granule, mode) pairs, leaf last.
    path: Vec<(LockableId, LockMode)>,
    /// Index of the step currently waiting in some entry's queue.
    step: usize,
    /// The leaf granule and mode of the overall request (for the Grant).
    leaf: (LockableId, LockMode),
}

/// What one transaction has in the table.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct TxnLocks {
    /// Granules it holds and where each lives, acquisition order.
    held: Vec<(LockableId, Home)>,
    /// Its suspended acquisitions, request order.
    waiting: Vec<Ticket>,
}

/// Every transaction with a holder or a pending ticket, and emptied
/// lists kept for reuse.
#[derive(Debug, Default)]
struct Txns {
    map: HashMap<TxnId, TxnLocks>,
    spare: Vec<TxnLocks>,
}

impl Txns {
    /// `txn`'s lists, made from spare ones if it has none.
    fn locks(&mut self, txn: TxnId) -> &mut TxnLocks {
        self.map
            .entry(txn)
            .or_insert_with(|| self.spare.pop().unwrap_or_default())
    }

    /// Edits `txn`'s lists, dropping them once nothing is left.
    fn unlist(&mut self, txn: TxnId, edit: impl FnOnce(&mut TxnLocks)) {
        if let MapEntry::Occupied(mut l) = self.map.entry(txn) {
            edit(l.get_mut());
            if l.get().held.is_empty() && l.get().waiting.is_empty() {
                self.spare.push(l.remove());
            }
        }
    }
}

/// A multigranularity lock table for one site. See the crate docs for the
/// full feature list.
#[derive(Debug, Default)]
pub struct LockTable {
    granules: Granules,
    pending: HashMap<Ticket, Pending>,
    txns: Txns,
    /// Granules with a non-empty wait queue (ordered, so that deadlock
    /// detection visits them the same way in every process).
    queued: BTreeSet<LockableId>,
    next_ticket: u64,
    trace: Option<TraceHandle>,
}

/// Installs `mode` for `txn` in `id`'s `entry` (new holder or
/// conversion). The only place a holder appears, so the only place a
/// granule joins the transaction's held list.
fn add_holder(
    entry: &mut Entry,
    locks: &mut TxnLocks,
    id: LockableId,
    home: Home,
    txn: TxnId,
    mode: LockMode,
) {
    match entry.holder_mut(txn) {
        Some(h) => {
            h.mode = h.mode.sup(mode);
            h.count += 1;
        }
        None => {
            entry.holders.push(Holder {
                txn,
                mode,
                count: 1,
                adaptive: false,
            });
            locks.held.push((id, home));
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Granule entries the index-driven operations (`release_all`,
    /// `locks_of`, the per-page listings, `waits_for_edges`) have looked
    /// at on this thread (the work-bound tests count them).
    static ENTRIES_VISITED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

fn visited() {
    #[cfg(test)]
    ENTRIES_VISITED.with(|n| n.set(n.get() + 1));
}

impl LockTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches (or detaches) a protocol trace. Lock request, wait, and
    /// grant events are recorded through it from then on; [`force_grant`]
    /// is deliberately unrecorded (it replicates a lock granted
    /// elsewhere, so there is no matching request at this site).
    ///
    /// [`force_grant`]: LockTable::force_grant
    pub fn set_trace(&mut self, trace: Option<TraceHandle>) {
        self.trace = trace;
    }

    fn emit(&self, kind: EventKind) {
        if let Some(t) = &self.trace {
            t.record(kind);
        }
    }

    fn fresh_ticket(&mut self) -> Ticket {
        self.next_ticket += 1;
        Ticket(self.next_ticket)
    }

    /// Acquires `mode` on `id` for `txn`, automatically acquiring the
    /// appropriate intention modes on all ancestors first (paper §4).
    ///
    /// Returns the acquisition outcome plus any grants to *other*
    /// requests that side effects of this call unblocked (none today, but
    /// the signature is uniform with the other mutators).
    pub fn acquire(&mut self, txn: TxnId, id: LockableId, mode: LockMode) -> (Acquire, Vec<Grant>) {
        self.emit(EventKind::LockRequest {
            txn,
            item: id,
            mode,
        });
        // Root first, leaf last, written in place (the leaf's level says
        // how many ancestors it has); skip steps already covered by held
        // modes.
        let intention = mode.ancestor_intention();
        let mut path = [(id, mode); 4];
        let len = match id {
            LockableId::Volume(_) => 1,
            LockableId::File(f) => {
                path[0] = (LockableId::Volume(f.vol), intention);
                2
            }
            LockableId::Page(p) => {
                path[0] = (LockableId::Volume(p.file.vol), intention);
                path[1] = (LockableId::File(p.file), intention);
                3
            }
            LockableId::Object(o) => {
                path[0] = (LockableId::Volume(o.page.file.vol), intention);
                path[1] = (LockableId::File(o.page.file), intention);
                path[2] = (LockableId::Page(o.page), intention);
                4
            }
        };
        // The page and object steps share one record: one probe finds
        // (or makes) it for the check and the grant of both.
        let rec = self.granules.home_mut(id);
        let mut kept = 0;
        for i in 0..len {
            let (g, m) = path[i];
            let held = self.granules.get(g, at(g, rec));
            if !held.is_some_and(|e| e.covers(txn, m)) {
                path[kept] = (g, m);
                kept += 1;
            }
        }
        if kept == 0 {
            self.emit(EventKind::LockGrant {
                txn,
                item: id,
                mode,
            });
            return (Acquire::Granted, Vec::new());
        }
        self.run_path(txn, &path[..kept], (id, mode), rec)
    }

    /// Acquires `mode` on `id` only, without touching ancestors. Used by
    /// callback threads (paper §4.3.1: a callback for item *I* never
    /// locks above the level of *I*).
    pub fn acquire_single(
        &mut self,
        txn: TxnId,
        id: LockableId,
        mode: LockMode,
    ) -> (Acquire, Vec<Grant>) {
        self.emit(EventKind::LockRequest {
            txn,
            item: id,
            mode,
        });
        let home = self.granules.home_mut(id);
        if self.reenter(txn, id, home, mode) {
            return (Acquire::Granted, Vec::new());
        }
        self.run_path(txn, &[(id, mode)], (id, mode), home)
    }

    /// Attempts to acquire `mode` on `id` for `txn` immediately; on
    /// failure nothing is queued and `false` is returned. This is how a
    /// callback first tries for the whole-page EX lock (paper §4.1.1).
    pub fn try_acquire_single(&mut self, txn: TxnId, id: LockableId, mode: LockMode) -> bool {
        self.emit(EventKind::LockRequest {
            txn,
            item: id,
            mode,
        });
        // A record made here is not left empty: a granule without state
        // grants anything.
        let home = self.granules.home_mut(id);
        if self.reenter(txn, id, home, mode) {
            return true;
        }
        if self.try_grant(txn, id, home, mode) {
            self.emit(EventKind::LockGrant {
                txn,
                item: id,
                mode,
            });
            true
        } else {
            false
        }
    }

    /// If `txn` already holds a mode on `id` covering `mode`, bumps its
    /// holder count (so paired releases work) and records the grant.
    fn reenter(&mut self, txn: TxnId, id: LockableId, home: Home, mode: LockMode) -> bool {
        let held = self
            .granules
            .get_mut(id, home)
            .and_then(|e| e.holder_mut(txn));
        let Some(h) = held.filter(|h| h.mode.covers(mode)) else {
            return false;
        };
        h.count += 1;
        self.emit(EventKind::LockGrant {
            txn,
            item: id,
            mode,
        });
        true
    }

    /// Runs `path` from its root, its page-level steps in record `rec`;
    /// only a request that must wait copies it, into its [`Pending`]
    /// state. The callers have just probed every step and found none
    /// held, so the steps are not probed again.
    fn run_path(
        &mut self,
        txn: TxnId,
        path: &Path,
        leaf: (LockableId, LockMode),
        rec: Home,
    ) -> (Acquire, Vec<Grant>) {
        // Each run grants or queues something for `txn`, so its lists
        // are looked up once, here.
        let (granules, locks) = (&mut self.granules, self.txns.locks(txn));
        let stuck = path.iter().position(|&(g, m)| {
            let entry = granules.entry(g, at(g, rec));
            let grants = entry.grants(txn, m);
            if grants {
                add_holder(entry, locks, g, at(g, rec), txn, m);
            }
            !grants
        });
        match stuck {
            None => {
                self.emit(EventKind::LockGrant {
                    txn,
                    item: leaf.0,
                    mode: leaf.1,
                });
                (Acquire::Granted, Vec::new())
            }
            Some(step) => {
                self.emit(EventKind::LockWait {
                    txn,
                    item: leaf.0,
                    mode: leaf.1,
                });
                let ticket = self.fresh_ticket();
                let p = Pending {
                    txn,
                    path: path.to_vec(),
                    step,
                    leaf,
                };
                let (g, _) = path[step];
                self.enqueue(ticket, &p, at(g, rec));
                // A record the caller made stays empty if the request
                // waits above it.
                if let (Some(h), None, Some(page)) = (rec, page_of(g), page_of(leaf.0)) {
                    self.granules.free_if_empty(page, h);
                }
                self.txns.locks(txn).waiting.push(ticket);
                self.pending.insert(ticket, p);
                (Acquire::Wait(ticket), Vec::new())
            }
        }
    }

    /// Tries to complete `txn`'s request along `path` from step `from`.
    /// Returns `None` if fully granted, else the step that must wait and
    /// where its granule lives. The page-level steps of a path are on
    /// one page, so its map is probed once, at the first of them.
    fn advance(&mut self, txn: TxnId, path: &Path, from: usize) -> Option<(usize, Home)> {
        let mut rec = None;
        for (step, &(g, m)) in path.iter().enumerate().skip(from) {
            let home = match page_of(g) {
                Some(_) => *rec.get_or_insert_with(|| self.granules.home_mut(g)),
                None => None,
            };
            let held = self.granules.get(g, home).is_some_and(|e| e.covers(txn, m));
            if !held && !self.try_grant(txn, g, home, m) {
                return Some((step, home));
            }
        }
        None
    }

    /// Grants `mode` on `id` (at `home`) to `txn` if that is possible
    /// right now ([`Entry::grants`]). Nothing changes on `false`.
    fn try_grant(&mut self, txn: TxnId, id: LockableId, home: Home, mode: LockMode) -> bool {
        // A granule without state grants anything, so an entry created
        // here is never left behind empty.
        let entry = self.granules.entry(id, home);
        let grants = entry.grants(txn, mode);
        if grants {
            add_holder(entry, self.txns.locks(txn), id, home, txn, mode);
        }
        grants
    }

    /// Queues `ticket` at the step `p` is stuck on, whose granule lives
    /// at `home`. Upgraders go ahead of ordinary waiters, FIFO among
    /// themselves.
    fn enqueue(&mut self, ticket: Ticket, p: &Pending, home: Home) {
        let (g, m) = p.path[p.step];
        let entry = self.granules.entry(g, home);
        let waiter = Waiter {
            ticket,
            txn: p.txn,
            mode: m,
            convert_to: entry.holder(p.txn).map(|h| h.mode.sup(m)),
        };
        if waiter.is_upgrade() {
            let pos = entry
                .queue
                .iter()
                .position(|w| !w.is_upgrade())
                .unwrap_or(entry.queue.len());
            entry.queue.insert(pos, waiter);
        } else {
            entry.queue.push_back(waiter);
        }
        self.queued.insert(g);
    }

    /// Whether `txn` already holds a mode on `id` covering `mode`.
    pub fn held_covers(&self, txn: TxnId, id: LockableId, mode: LockMode) -> bool {
        self.granules.find(id).is_some_and(|e| e.covers(txn, mode))
    }

    /// The mode `txn` currently holds on `id`, if any.
    pub fn held_mode(&self, txn: TxnId, id: LockableId) -> Option<LockMode> {
        self.granules
            .find(id)
            .and_then(|e| e.holder(txn))
            .map(|h| h.mode)
    }

    /// All transactions currently waiting on `id`, with the mode each
    /// requested there.
    pub fn waiters(&self, id: LockableId) -> Vec<(TxnId, LockMode)> {
        self.granules
            .find(id)
            .map(|e| e.queue.iter().map(|w| (w.txn, w.mode)).collect())
            .unwrap_or_default()
    }

    /// Transactions waiting on any object of `page` (or on the page
    /// itself).
    pub fn waiters_on_page(&self, page: PageId) -> Vec<TxnId> {
        let rec = self.granules.record(page);
        let objects = rec
            .into_iter()
            .flat_map(|r| r.objects().map(|(_, e)| e).inspect(|_| visited()));
        let mut v: Vec<TxnId> = (rec.map(|r| &r.page).into_iter())
            .chain(objects)
            .flat_map(|e| e.queue.iter().map(|w| w.txn))
            .collect();
        v.sort();
        v.dedup();
        v
    }

    /// The entries of `page`'s objects that have lock state, in the
    /// order they appeared.
    fn object_entries_on_page(&self, page: PageId) -> impl Iterator<Item = (Oid, &Entry)> {
        self.granules
            .record(page)
            .into_iter()
            .flat_map(PageRec::objects)
            .map(move |(slot, e)| {
                visited();
                (Oid::new(page, slot), e)
            })
    }

    /// All current holders of `id`.
    pub fn holders(&self, id: LockableId) -> Vec<(TxnId, LockMode)> {
        self.granules
            .find(id)
            .map(|e| e.holders.iter().map(|h| (h.txn, h.mode)).collect())
            .unwrap_or_default()
    }

    /// Holders of `id` whose mode is incompatible with `mode`, excluding
    /// `txn` itself — exactly the list a blocked callback reports to the
    /// server (paper §4.1.1, Fig. 3 client D).
    pub fn conflicting_holders(
        &self,
        id: LockableId,
        mode: LockMode,
        txn: TxnId,
    ) -> Vec<(TxnId, LockMode)> {
        self.granules
            .find(id)
            .map(|e| {
                e.holders
                    .iter()
                    .filter(|h| h.txn != txn && !h.mode.compatible(mode))
                    .map(|h| (h.txn, h.mode))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Grants `mode` on `id` to `txn` without queueing — used to
    /// replicate, at the server, a lock that is known to be held at a
    /// client (paper §4.2.1 "acquires a SH lock on X on behalf of thread
    /// C1,S"). The caller must have arranged compatibility (by the
    /// protocol's downgrade rules); this is checked in debug builds.
    pub fn force_grant(&mut self, txn: TxnId, id: LockableId, mode: LockMode) {
        let home = self.granules.home_mut(id);
        let entry = self.granules.entry(id, home);
        debug_assert!(
            entry.compatible_with_others(txn, mode),
            "force_grant({txn}, {id}, {mode}) conflicts with existing holders: {:?}",
            entry.holders
        );
        add_holder(entry, self.txns.locks(txn), id, home, txn, mode);
    }

    /// Downgrades `txn`'s lock on `id` to `to` **without** re-scanning
    /// the wait queue.
    ///
    /// The paper's callback-blocked handling (§4.2.1) downgrades, then
    /// replicates client locks with [`LockTable::force_grant`], then
    /// enqueues the upgrade — all before any waiter may be considered, so
    /// that an ordinary waiter cannot slip past the upgrader. Call
    /// [`LockTable::rescan`] once the compound step is complete. (At
    /// granules that are downgraded but *not* re-upgraded — the object
    /// entry during a page-level replication, §4.3.2 — the rescan is what
    /// lets another reader "sneak in", which the engine then detects as a
    /// second-objective violation and compensates with a callback redo.)
    ///
    /// # Panics
    ///
    /// Panics if `txn` holds no lock on `id` (protocol error).
    pub fn downgrade(&mut self, txn: TxnId, id: LockableId, to: LockMode) {
        let h = self
            .granules
            .find_mut(id)
            .and_then(|e| e.holder_mut(txn))
            .unwrap_or_else(|| panic!("downgrade: {txn} holds nothing on {id}"));
        h.mode = to;
    }

    /// Re-scans `id`'s wait queue, granting whatever has become
    /// grantable. Companion to [`LockTable::downgrade`].
    pub fn rescan(&mut self, id: LockableId) -> Vec<Grant> {
        self.scan(id)
    }

    /// Releases one logical hold of `txn` on `id` (used by callback
    /// threads when they complete). The holder disappears when its count
    /// reaches zero, and `id` from `txn`'s held list with it. Returns any
    /// grants unblocked.
    pub fn release_one(&mut self, txn: TxnId, id: LockableId) -> Vec<Grant> {
        let Some(e) = self.granules.find_mut(id) else {
            return Vec::new();
        };
        let Some(i) = e.holders.iter().position(|h| h.txn == txn) else {
            return Vec::new();
        };
        e.holders[i].count -= 1;
        if e.holders[i].count == 0 {
            e.holders.remove(i);
            self.txns.unlist(txn, |l| l.held.retain(|(g, _)| *g != id));
        }
        self.scan(id)
    }

    /// Releases every lock `txn` holds and cancels every wait it has
    /// pending (transaction end or abort).
    pub fn release_all(&mut self, txn: TxnId) -> ReleaseOutcome {
        let mut out = ReleaseOutcome::default();
        // Cancel pending waits first so the scans below don't grant them
        // (a cancel may still grant a later ticket of the same
        // transaction; what that acquires is in the held list by the
        // time it is taken).
        let tickets = (self.txns.map.get(&txn))
            .map(|l| l.waiting.clone())
            .unwrap_or_default();
        for t in tickets {
            out.cancelled.push(t);
            out.grants.extend(self.cancel(t));
        }
        // Let go of everything first, then let the waiters in: one that
        // needs two of these granules gets through both in one scan. The
        // held list says where each granule lives; a record stays in use
        // while the transaction still holds a granule in it, so each
        // handle is good until its own turn.
        let Some(mut locks) = self.txns.map.remove(&txn) else {
            return out;
        };
        let mut contended = Vec::new();
        for (id, home) in locks.held.drain(..) {
            visited();
            let Some(e) = self.granules.get_mut(id, home) else {
                continue;
            };
            e.holders.retain(|h| h.txn != txn);
            if e.queue.is_empty() {
                self.granules.drop_if_unused(id, home);
            } else {
                contended.push(id);
            }
        }
        self.txns.spare.push(locks);
        for id in contended {
            out.grants.extend(self.scan(id));
        }
        out
    }

    /// Cancels a pending acquisition (lock-wait timeout or abort).
    /// Already-acquired ancestor locks of the request remain held by the
    /// transaction and are cleaned up by [`LockTable::release_all`].
    pub fn cancel(&mut self, ticket: Ticket) -> Vec<Grant> {
        let Some(p) = self.pending.remove(&ticket) else {
            return Vec::new();
        };
        self.txns
            .unlist(p.txn, |l| l.waiting.retain(|t| *t != ticket));
        let (g, _) = p.path[p.step];
        if let Some(e) = self.granules.find_mut(g) {
            e.queue.retain(|w| w.ticket != ticket);
        }
        self.scan(g)
    }

    /// Information about a pending ticket: (txn, granule it waits at,
    /// mode requested there). `None` once granted or cancelled.
    pub fn ticket_info(&self, ticket: Ticket) -> Option<(TxnId, LockableId, LockMode)> {
        self.pending.get(&ticket).map(|p| {
            let (g, m) = p.path[p.step];
            (p.txn, g, m)
        })
    }

    /// Scans `id`'s queue, granting from the front while possible, and
    /// advancing any hierarchical requests that were waiting there (may
    /// cascade to deeper granules); then drops what `id` no longer
    /// needs. Every path that takes a waiter away from a granule ends
    /// here, so this is the one place a granule leaves the queued set.
    fn scan(&mut self, id: LockableId) -> Vec<Grant> {
        let mut grants = Vec::new();
        // Granting and re-queueing only add lock state, so `id`'s record
        // stays where it is until the end.
        let Some(home) = self.granules.home(id) else {
            return grants;
        };
        loop {
            let Some(entry) = self.granules.get_mut(id, home) else {
                return grants;
            };
            let grantable = entry.queue.front().is_some_and(|w| {
                entry.compatible_with_others(w.txn, w.convert_to.unwrap_or(w.mode))
            });
            if !grantable {
                break;
            }
            let w = entry.queue.pop_front().expect("front checked above");
            add_holder(entry, self.txns.locks(w.txn), id, home, w.txn, w.mode);
            let mut p = self
                .pending
                .remove(&w.ticket)
                .expect("waiter without pending state");
            if let Some((step, there)) = self.advance(p.txn, &p.path, p.step + 1) {
                // Re-queue at the deeper granule.
                p.step = step;
                self.enqueue(w.ticket, &p, there);
                self.pending.insert(w.ticket, p);
            } else {
                self.emit(EventKind::LockGrant {
                    txn: p.txn,
                    item: p.leaf.0,
                    mode: p.leaf.1,
                });
                self.txns
                    .unlist(p.txn, |l| l.waiting.retain(|t| *t != w.ticket));
                grants.push(Grant {
                    ticket: w.ticket,
                    txn: p.txn,
                    id: p.leaf.0,
                    mode: p.leaf.1,
                });
            }
        }
        if self
            .granules
            .get(id, home)
            .is_some_and(|e| e.queue.is_empty())
        {
            self.queued.remove(&id);
            self.granules.drop_if_unused(id, home);
        }
        grants
    }

    // ------------------------------------------------------------------
    // Adaptive bit (paper §4.1.2)
    // ------------------------------------------------------------------

    /// Sets the adaptive bit inside `txn`'s lock on `page`. The
    /// transaction must already hold a page lock (at least IX — it holds
    /// an EX lock on the requested object, paper §4.1.2).
    ///
    /// # Panics
    ///
    /// Panics if `txn` holds no lock on the page.
    pub fn set_adaptive(&mut self, txn: TxnId, page: PageId) {
        let h = self
            .granules
            .find_mut(LockableId::Page(page))
            .and_then(|e| e.holder_mut(txn))
            .unwrap_or_else(|| panic!("set_adaptive: {txn} holds no lock on {page}"));
        h.adaptive = true;
    }

    /// Clears the adaptive bit for `txn` on `page` (deescalation).
    pub fn clear_adaptive(&mut self, txn: TxnId, page: PageId) {
        if let Some(h) = self
            .granules
            .find_mut(LockableId::Page(page))
            .and_then(|e| e.holder_mut(txn))
        {
            h.adaptive = false;
        }
    }

    /// Whether `txn` holds an adaptive page lock on `page`.
    pub fn is_adaptive(&self, txn: TxnId, page: PageId) -> bool {
        self.granules
            .find(LockableId::Page(page))
            .and_then(|e| e.holder(txn))
            .is_some_and(|h| h.adaptive)
    }

    /// All transactions holding adaptive locks on `page` (multiple
    /// transactions *from the same client* may hold them simultaneously,
    /// paper §4.1.2).
    pub fn adaptive_holders(&self, page: PageId) -> Vec<TxnId> {
        self.adaptive_locks(page).collect()
    }

    /// [`LockTable::adaptive_holders`] without collecting it.
    pub fn adaptive_locks(&self, page: PageId) -> impl Iterator<Item = TxnId> + '_ {
        self.granules
            .record(page)
            .into_iter()
            .flat_map(|r| r.page.holders.iter().filter(|h| h.adaptive).map(|h| h.txn))
    }

    // ------------------------------------------------------------------
    // Introspection for the engine and for deadlock detection
    // ------------------------------------------------------------------

    /// Every lock `txn` currently holds.
    pub fn locks_of(&self, txn: TxnId) -> Vec<(LockableId, LockMode)> {
        let held = self.txns.map.get(&txn).map(|l| l.held.as_slice());
        held.unwrap_or_default()
            .iter()
            .map(|&(id, home)| {
                visited();
                let h = self
                    .granules
                    .get(id, home)
                    .and_then(|e| e.holder(txn))
                    .expect("listed as held");
                (id, h.mode)
            })
            .collect()
    }

    /// Every object lock (any mode) held on objects of `page`, plus the
    /// holder — the locks a client replicates when it purges a page that
    /// active local transactions are still using (paper §4.1.1).
    pub fn object_holders_on_page(&self, page: PageId) -> Vec<(TxnId, Oid, LockMode)> {
        self.object_entries_on_page(page)
            .flat_map(|(o, e)| e.holders.iter().map(move |h| (h.txn, o, h.mode)))
            .collect()
    }

    /// Every EX **object** lock held on objects of `page` — the payload
    /// of a deescalation reply (paper §4.1.2).
    pub fn ex_object_holders_on_page(&self, page: PageId) -> Vec<(TxnId, Oid)> {
        self.ex_object_locks_on_page(page).collect()
    }

    /// [`LockTable::ex_object_holders_on_page`] without collecting it:
    /// one pass over the page's objects that have lock state.
    pub fn ex_object_locks_on_page(&self, page: PageId) -> impl Iterator<Item = (TxnId, Oid)> + '_ {
        self.object_entries_on_page(page).flat_map(|(o, e)| {
            e.holders
                .iter()
                .filter(|h| h.mode == LockMode::Ex)
                .map(move |h| (h.txn, o))
        })
    }

    /// Edges of the waits-for graph: `(waiter, holder-or-earlier-waiter)`.
    ///
    /// A waiter waits for every incompatible holder and (because queues
    /// are FIFO) for every waiter queued ahead of it.
    pub fn waits_for_edges(&self) -> Vec<(TxnId, TxnId)> {
        let mut edges = Vec::new();
        for id in &self.queued {
            visited();
            let entry = self
                .granules
                .find(*id)
                .expect("a queued granule has an entry");
            for (i, w) in entry.queue.iter().enumerate() {
                let target = w.convert_to.unwrap_or(w.mode);
                for h in &entry.holders {
                    if h.txn != w.txn && !h.mode.compatible(target) {
                        edges.push((w.txn, h.txn));
                    }
                }
                for u in entry.queue.iter().take(i) {
                    if u.txn != w.txn {
                        edges.push((w.txn, u.txn));
                    }
                }
            }
        }
        edges
    }

    /// Runs cycle detection over the waits-for graph; returns the set of
    /// distinct cycles, each as a list of transactions.
    pub fn detect_deadlocks(&self) -> Vec<Vec<TxnId>> {
        crate::deadlock::detect_cycles(&self.waits_for_edges())
    }

    /// Every pending ticket, in no particular order.
    pub fn pending_tickets(&self) -> impl Iterator<Item = Ticket> + '_ {
        self.pending.keys().copied()
    }

    /// Transactions currently waiting (distinct).
    pub fn waiting_txns(&self) -> Vec<TxnId> {
        let mut v: Vec<TxnId> = self.pending.values().map(|p| p.txn).collect();
        v.sort();
        v.dedup();
        v
    }

    /// Test/diagnostic invariant: no two holders of any granule are
    /// incompatible (holders of the same txn excepted by construction),
    /// every index is exactly what a full scan of the table gives, and
    /// every record is either in use by exactly one page or free and
    /// empty.
    ///
    /// # Panics
    ///
    /// Panics with a description of the violated granule or index.
    pub fn assert_consistent(&self) {
        let g = &self.granules;
        let mut by_txn: HashMap<TxnId, TxnLocks> = HashMap::default();
        let mut queued = BTreeSet::new();
        for (id, home, e) in g.all() {
            assert!(!e.is_unused(), "unused entry kept for {id}");
            for (i, a) in e.holders.iter().enumerate() {
                for b in e.holders.iter().skip(i + 1) {
                    assert!(
                        a.txn == b.txn || a.mode.compatible(b.mode),
                        "incompatible holders on {id}: {}:{} vs {}:{}",
                        a.txn,
                        a.mode,
                        b.txn,
                        b.mode
                    );
                }
                by_txn.entry(a.txn).or_default().held.push((id, home));
            }
            if !e.queue.is_empty() {
                queued.insert(id);
            }
            for w in &e.queue {
                let p = self.pending.get(&w.ticket);
                assert!(
                    p.is_some_and(|p| p.txn == w.txn && p.path[p.step].0 == id),
                    "waiter {} on {id} has no matching pending state",
                    w.ticket
                );
            }
        }
        for (ticket, p) in &self.pending {
            by_txn.entry(p.txn).or_default().waiting.push(*ticket);
        }
        // The indexes keep arrival order, a scan finds hash order:
        // compare as sets.
        let mut indexed_txns = self.txns.map.clone();
        for l in by_txn.values_mut().chain(indexed_txns.values_mut()) {
            l.held.sort();
            l.waiting.sort();
        }
        assert_eq!(indexed_txns, by_txn, "per-transaction index");
        assert_eq!(self.queued, queued, "queued-granule index");
        for (i, (id, _)) in g.upper.iter().enumerate() {
            assert!(
                matches!(id, LockableId::Volume(_) | LockableId::File(_)),
                "{id} kept in the side table"
            );
            assert!(g.upper[..i].iter().all(|(o, _)| o != id), "{id} twice");
        }
        for (page, &h) in &g.pages {
            let rec = &g.recs[h as usize];
            assert!(!rec.is_empty(), "empty record kept for {page}");
            for (i, (s, _)) in rec.objects.iter().enumerate() {
                assert!(
                    rec.objects[..i].iter().all(|(o, _)| o != s),
                    "slot {s} of {page} twice"
                );
            }
        }
        let mut free = Vec::new();
        let mut next = g.free;
        while let Some(h) = next {
            assert!(free.len() < g.recs.len(), "the free records loop");
            free.push(h);
            next = g.recs[h as usize].next_free;
        }
        let mut listed = vec![false; g.recs.len()];
        for &h in g.pages.values().chain(&free) {
            assert!(
                !std::mem::replace(&mut listed[h as usize], true),
                "record {h} listed twice"
            );
        }
        assert!(
            listed.iter().all(|l| *l),
            "a record is neither in use nor free"
        );
        assert!(
            free.iter().all(|&h| g.recs[h as usize].is_empty()),
            "a free record keeps a holder, a waiter or an object"
        );
        assert!(
            g.spare.iter().all(Entry::is_unused),
            "a spare entry keeps a holder or a waiter"
        );
        assert!(
            self.txns
                .spare
                .iter()
                .all(|l| l.held.is_empty() && l.waiting.is_empty()),
            "a spare transaction list keeps a granule or a ticket"
        );
    }

    /// Number of granules with any lock state (diagnostics).
    pub fn len(&self) -> usize {
        self.granules.all().count()
    }

    /// Whether the table is completely empty.
    pub fn is_empty(&self) -> bool {
        self.granules.upper.is_empty() && self.granules.pages.is_empty() && self.pending.is_empty()
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use pscc_common::{FileId, SiteId, VolId};

    // ------------------------------------------------------------------
    // The whole-table scans the indexes replaced, kept as the reference
    // ------------------------------------------------------------------

    impl LockTable {
        fn locks_of_scan(&self, txn: TxnId) -> Vec<(LockableId, LockMode)> {
            self.granules
                .all()
                .filter_map(|(id, _, e)| e.holder(txn).map(|h| (id, h.mode)))
                .collect()
        }

        fn object_holders_on_page_scan(&self, page: PageId) -> Vec<(TxnId, Oid, LockMode)> {
            self.granules
                .all()
                .filter_map(|(id, _, e)| match id {
                    LockableId::Object(o) if o.page == page => Some((o, e)),
                    _ => None,
                })
                .flat_map(|(o, e)| e.holders.iter().map(move |h| (h.txn, o, h.mode)))
                .collect()
        }

        fn waiters_on_page_scan(&self, page: PageId) -> Vec<TxnId> {
            let mut v: Vec<TxnId> = self
                .granules
                .all()
                .filter(|(id, _, _)| page_of(*id) == Some(page))
                .flat_map(|(_, _, e)| e.queue.iter().map(|w| w.txn))
                .collect();
            v.sort();
            v.dedup();
            v
        }

        fn waits_for_edges_scan(&self) -> Vec<(TxnId, TxnId)> {
            let mut edges = Vec::new();
            for (_, _, entry) in self.granules.all() {
                for (i, w) in entry.queue.iter().enumerate() {
                    let target = w.convert_to.unwrap_or(w.mode);
                    for h in &entry.holders {
                        if h.txn != w.txn && !h.mode.compatible(target) {
                            edges.push((w.txn, h.txn));
                        }
                    }
                    for u in entry.queue.iter().take(i) {
                        if u.txn != w.txn {
                            edges.push((w.txn, u.txn));
                        }
                    }
                }
            }
            edges
        }

        fn pending_of_scan(&self, txn: TxnId) -> Vec<Ticket> {
            self.pending
                .iter()
                .filter(|(_, p)| p.txn == txn)
                .map(|(t, _)| *t)
                .collect()
        }
    }

    fn sorted<T: Ord>(mut v: Vec<T>) -> Vec<T> {
        v.sort();
        v
    }

    fn txn(n: u8) -> TxnId {
        TxnId::new(SiteId(u32::from(n)), u64::from(n))
    }

    fn page(p: u32) -> PageId {
        PageId::new(FileId::new(VolId(0), 1), p)
    }

    fn obj(p: u32, s: u16) -> LockableId {
        LockableId::Object(Oid::new(page(p), s))
    }

    /// 3 pages × 3 objects, plus the pages, their file and the volume.
    fn granule(g: u8) -> LockableId {
        match g % 14 {
            12 => LockableId::Volume(VolId(0)),
            13 => LockableId::File(FileId::new(VolId(0), 1)),
            g if g < 9 => obj(u32::from(g / 3), u16::from(g % 3)),
            g => LockableId::Page(page(u32::from(g - 9))),
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Acquire(u8, u8, u8),
        AcquireSingle(u8, u8, u8),
        TryAcquireSingle(u8, u8, u8),
        ForceGrant(u8, u8, u8),
        Downgrade(u8, u8, u8),
        ReleaseOne(u8, u8),
        CancelOldest(u8),
        ReleaseAll(u8),
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        let tgm = || (0u8..6, 0u8..14, 0u8..5);
        prop_oneof![
            tgm().prop_map(|(t, g, m)| Op::Acquire(t, g, m)),
            tgm().prop_map(|(t, g, m)| Op::Acquire(t, g, m)),
            tgm().prop_map(|(t, g, m)| Op::Acquire(t, g, m)),
            tgm().prop_map(|(t, g, m)| Op::AcquireSingle(t, g, m)),
            tgm().prop_map(|(t, g, m)| Op::TryAcquireSingle(t, g, m)),
            tgm().prop_map(|(t, g, m)| Op::ForceGrant(t, g, m)),
            tgm().prop_map(|(t, g, m)| Op::Downgrade(t, g, m)),
            (0u8..6, 0u8..14).prop_map(|(t, g)| Op::ReleaseOne(t, g)),
            (0u8..6).prop_map(Op::CancelOldest),
            (0u8..6).prop_map(Op::ReleaseAll),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// 64 × 200 operations over every mutator: after each one the
        /// indexes are what a full scan rebuilds (`assert_consistent`),
        /// and each index-driven listing has the members the old scan
        /// of the whole table finds.
        #[test]
        fn indexed_listings_agree_with_the_scans(
            ops in proptest::collection::vec(arb_op(), 200..201)
        ) {
            let mut lt = LockTable::new();
            for op in ops {
                match op {
                    Op::Acquire(t, g, m) => {
                        let _ = lt.acquire(txn(t), granule(g), LockMode::ALL[m as usize]);
                    }
                    Op::AcquireSingle(t, g, m) => {
                        let _ = lt.acquire_single(txn(t), granule(g), LockMode::ALL[m as usize]);
                    }
                    Op::TryAcquireSingle(t, g, m) => {
                        let _ = lt.try_acquire_single(txn(t), granule(g), LockMode::ALL[m as usize]);
                    }
                    Op::ForceGrant(t, g, m) => {
                        let (id, mode) = (granule(g), LockMode::ALL[m as usize]);
                        if lt.conflicting_holders(id, mode, txn(t)).is_empty() {
                            lt.force_grant(txn(t), id, mode);
                        }
                    }
                    Op::Downgrade(t, g, m) => {
                        let (id, to) = (granule(g), LockMode::ALL[m as usize]);
                        if lt.held_mode(txn(t), id).is_some_and(|h| h.covers(to)) {
                            lt.downgrade(txn(t), id, to);
                            let _ = lt.rescan(id);
                        }
                    }
                    Op::ReleaseOne(t, g) => {
                        let _ = lt.release_one(txn(t), granule(g));
                    }
                    Op::CancelOldest(t) => {
                        if let Some(tk) = lt.pending_of_scan(txn(t)).into_iter().min() {
                            let _ = lt.cancel(tk);
                        }
                    }
                    Op::ReleaseAll(t) => {
                        let out = lt.release_all(txn(t));
                        prop_assert!(lt.locks_of_scan(txn(t)).is_empty());
                        prop_assert!(lt.pending_of_scan(txn(t)).is_empty());
                        prop_assert!(out.grants.iter().all(|g| g.txn != txn(t)
                            || out.cancelled.contains(&g.ticket)));
                    }
                }
                lt.assert_consistent();
                for t in 0..6 {
                    prop_assert_eq!(
                        sorted(lt.locks_of(txn(t))),
                        sorted(lt.locks_of_scan(txn(t)))
                    );
                }
                for p in 0..3 {
                    prop_assert_eq!(
                        sorted(lt.object_holders_on_page(page(p))),
                        sorted(lt.object_holders_on_page_scan(page(p)))
                    );
                    prop_assert_eq!(
                        sorted(lt.ex_object_holders_on_page(page(p))),
                        sorted(
                            lt.object_holders_on_page_scan(page(p))
                                .into_iter()
                                .filter(|(_, _, m)| *m == LockMode::Ex)
                                .map(|(t, o, _)| (t, o))
                                .collect()
                        )
                    );
                    prop_assert_eq!(lt.waiters_on_page(page(p)), lt.waiters_on_page_scan(page(p)));
                }
                prop_assert_eq!(sorted(lt.waits_for_edges()), sorted(lt.waits_for_edges_scan()));
            }
            for t in 0..6 {
                let _ = lt.release_all(txn(t));
            }
            lt.assert_consistent();
            prop_assert!(lt.is_empty());
            prop_assert!(
                lt.txns.map.is_empty()
                    && lt.granules.upper.is_empty()
                    && lt.granules.pages.is_empty()
                    && lt.queued.is_empty()
            );
        }
    }

    #[test]
    fn release_grants_in_acquisition_order_every_time() {
        // Under each hash seed the table's maps iterate in another order;
        // the sequence of grants a release resumes must not change with it.
        let order: [(u32, u16); 8] = [
            (5, 1),
            (2, 0),
            (9, 3),
            (2, 2),
            (7, 1),
            (0, 0),
            (9, 0),
            (4, 4),
        ];
        let build = || {
            let mut lt = LockTable::new();
            for (p, s) in order {
                assert_eq!(
                    lt.acquire(txn(0), obj(p, s), LockMode::Ex).0,
                    Acquire::Granted
                );
            }
            // Waiters arrive in another order than the holder acquired.
            for (w, (p, s)) in order.iter().rev().enumerate() {
                let (a, _) = lt.acquire(txn(w as u8 + 1), obj(*p, *s), LockMode::Sh);
                assert!(matches!(a, Acquire::Wait(_)));
            }
            let out = lt.release_all(txn(0));
            lt.assert_consistent();
            out.grants.iter().map(|g| g.id).collect::<Vec<_>>()
        };
        let want: Vec<LockableId> = order.iter().map(|(p, s)| obj(*p, *s)).collect();
        for seed in 0..=3 {
            assert_eq!(pscc_common::hash::with_hash_seed(seed, build), want);
        }
    }

    #[test]
    fn cancelled_tickets_come_out_in_request_order() {
        let mut lt = LockTable::new();
        assert_eq!(
            lt.acquire(txn(0), obj(1, 0), LockMode::Ex).0,
            Acquire::Granted
        );
        assert_eq!(
            lt.acquire(txn(0), obj(2, 0), LockMode::Ex).0,
            Acquire::Granted
        );
        // Two callback threads of one transaction wait at once.
        let a = lt.acquire_single(txn(1), obj(2, 0), LockMode::Ex).0;
        let b = lt.acquire_single(txn(1), obj(1, 0), LockMode::Ex).0;
        let (Acquire::Wait(a), Acquire::Wait(b)) = (a, b) else {
            panic!("both block");
        };
        assert_eq!(lt.release_all(txn(1)).cancelled, [a, b]);
        lt.assert_consistent();
    }

    // ------------------------------------------------------------------
    // Work bounds: an operation looks at what it touches
    // ------------------------------------------------------------------

    #[test]
    fn a_big_table_is_not_scanned() {
        let visits = || ENTRIES_VISITED.with(std::cell::Cell::get);
        let mut lt = LockTable::new();
        // 20 000 object entries on 2 000 pages, held by 200 transactions.
        for i in 0..20_000u32 {
            lt.force_grant(
                txn((i % 200) as u8),
                obj(i / 10, (i % 10) as u16),
                LockMode::Sh,
            );
        }
        assert_eq!(lt.len(), 20_000);
        let t = TxnId::new(SiteId(999), 1);
        for p in [17, 400, 1999] {
            lt.force_grant(t, obj(p, 3), LockMode::Sh);
        }

        let before = visits();
        assert_eq!(lt.locks_of(t).len(), 3);
        assert_eq!(visits() - before, 3, "locks_of visits what the txn holds");

        let before = visits();
        assert_eq!(lt.object_holders_on_page(page(400)).len(), 11);
        assert_eq!(
            visits() - before,
            10,
            "one visit per locked object of the page"
        );

        let before = visits();
        assert!(lt.waits_for_edges().is_empty());
        assert_eq!(visits() - before, 0, "nobody waits: nothing to visit");
        let (a, _) = lt.acquire_single(t, obj(5, 5), LockMode::Ex);
        assert!(matches!(a, Acquire::Wait(_)));
        let before = visits();
        assert_eq!(lt.waits_for_edges().len(), 1);
        assert_eq!(visits() - before, 1, "one queued granule, one visit");

        let before = visits();
        let out = lt.release_all(t);
        assert_eq!(out.cancelled.len(), 1);
        assert_eq!(
            visits() - before,
            3,
            "release_all visits the 3 held entries"
        );
        assert_eq!(lt.len(), 20_000);
        lt.assert_consistent();
    }

    #[test]
    fn an_access_probes_the_page_map_once() {
        let probes = || PAGE_PROBES.with(std::cell::Cell::get);
        let mut lt = LockTable::new();
        // Another transaction's lock makes page 7's record exist.
        assert_eq!(
            lt.acquire(txn(0), obj(7, 0), LockMode::Sh).0,
            Acquire::Granted
        );

        // A fresh object lock under three fresh intention locks.
        let before = probes();
        assert_eq!(
            lt.acquire(txn(1), obj(7, 1), LockMode::Ex).0,
            Acquire::Granted
        );
        assert_eq!(probes() - before, 1, "fresh object lock");
        // One whose intention locks are held, and one held already.
        let before = probes();
        assert_eq!(
            lt.acquire(txn(1), obj(7, 2), LockMode::Sh).0,
            Acquire::Granted
        );
        assert_eq!(
            lt.acquire(txn(1), obj(7, 1), LockMode::Sh).0,
            Acquire::Granted
        );
        assert_eq!(probes() - before, 2, "one probe per access");

        // 4 objects on each of pages 0..5 besides what it has on page 7:
        // 30 granules (the volume and the file among them) on 6 pages,
        // page 7's record kept by the other transaction.
        for p in 0..5 {
            for s in 0..4 {
                assert_eq!(
                    lt.acquire(txn(1), obj(p, s), LockMode::Sh).0,
                    Acquire::Granted
                );
            }
        }
        assert_eq!(lt.locks_of(txn(1)).len(), 30);
        let before = probes();
        let out = lt.release_all(txn(1));
        assert!(out.grants.is_empty() && out.cancelled.is_empty());
        assert_eq!(probes() - before, 5, "one probe per record it empties");
        lt.assert_consistent();
        let before = probes();
        lt.release_all(txn(0));
        assert_eq!(probes() - before, 1);
        assert!(lt.is_empty());
        lt.assert_consistent();
    }
}
