//! The owner's page table (paper §4.1–§4.2): one record per page of
//! this site's volume that some client caches or that has consistency
//! work open on it. The record answers the owner's three questions about
//! the page: who caches it (the copy table, with the per-client ship
//! sequence numbers that defuse purge races, §4.2.4), which callbacks
//! are open on its objects, and whether it is being deescalated.

use crate::msg::{CbId, DeId};
use pscc_common::hash::HashMap;
use pscc_common::{FileId, PageId, SiteId};

/// What the owner knows about one of its pages.
#[derive(Debug, Default)]
struct OwnerPage {
    /// Client -> ship sequence number of the latest copy sent.
    copies: HashMap<SiteId, u64>,
    /// The open callback operations whose target is one of the page's
    /// objects, the dummy included (§4.3.2), in the order they opened.
    /// Two IX page locks open two dummy callbacks at once. Page-, file-
    /// and volume-target callbacks are not listed.
    callbacks: Vec<CbId>,
    /// The page's open deescalation (§4.1.2); at most one, since work on
    /// the page queues behind it.
    deescalation: Option<DeId>,
}

impl OwnerPage {
    fn is_empty(&self) -> bool {
        self.copies.is_empty() && self.callbacks.is_empty() && self.deescalation.is_none()
    }
}

/// The page table of one owning peer server. A record exists while any
/// of its three parts is non-empty.
#[derive(Debug, Default)]
pub struct PageTable {
    pages: HashMap<PageId, OwnerPage>,
    /// Callback ids listed over all records, and records with a
    /// deescalation: the per-input check matches them against the open
    /// operations without walking the pages.
    listed: (usize, usize),
}

impl PageTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies `f` to `page`'s record, if it has one, and drops the
    /// record once it is empty: the one place a single-page edit retires
    /// a record.
    fn edit<R>(&mut self, page: PageId, f: impl FnOnce(&mut OwnerPage) -> R) -> Option<R> {
        let rec = self.pages.get_mut(&page)?;
        let r = f(rec);
        if rec.is_empty() {
            self.pages.remove(&page);
        }
        Some(r)
    }

    /// Records a ship of `page` to `client`, returning the new ship
    /// sequence number to embed in the snapshot.
    pub fn record_ship(&mut self, page: PageId, client: SiteId) -> u64 {
        let rec = self.pages.entry(page).or_default();
        let e = rec.copies.entry(client).or_insert(0);
        *e += 1;
        *e
    }

    /// Handles a purge notice. Returns `true` if the entry was removed,
    /// `false` if the purge was stale (a newer copy has been shipped
    /// since — the purge race of §4.2.4) or unknown.
    pub fn purge(&mut self, page: PageId, client: SiteId, ship_seq: u64) -> bool {
        let purged = self.edit(page, |rec| {
            let current = rec.copies.get(&client) == Some(&ship_seq);
            if current {
                rec.copies.remove(&client);
            }
            current
        });
        purged.unwrap_or(false)
    }

    /// Removes the entry unconditionally (page-level callback purged the
    /// page at the client, so the server *knows* it is gone).
    pub fn drop_entry(&mut self, page: PageId, client: SiteId) {
        self.edit(page, |rec| rec.copies.remove(&client));
    }

    /// The open object callbacks on `page`'s objects.
    pub fn callbacks(&self, page: PageId) -> &[CbId] {
        self.pages.get(&page).map_or(&[], |rec| &rec.callbacks)
    }

    /// Lists callback `cb` on its target object's `page`.
    pub fn open_callback(&mut self, page: PageId, cb: CbId) {
        self.pages.entry(page).or_default().callbacks.push(cb);
        self.listed.0 += 1;
    }

    /// Unlists callback `cb` from `page`.
    pub fn close_callback(&mut self, page: PageId, cb: CbId) {
        let closed = self.edit(page, |rec| {
            let at = rec.callbacks.iter().position(|c| *c == cb)?;
            Some(rec.callbacks.remove(at))
        });
        if closed.flatten().is_some() {
            self.listed.0 -= 1;
        }
    }

    /// `page`'s open deescalation.
    pub fn deescalation(&self, page: PageId) -> Option<DeId> {
        self.pages.get(&page).and_then(|rec| rec.deescalation)
    }

    /// Records `de` as `page`'s open deescalation.
    pub fn open_deescalation(&mut self, page: PageId, de: DeId) {
        let rec = self.pages.entry(page).or_default();
        debug_assert!(rec.deescalation.is_none(), "{page}: a second deescalation");
        rec.deescalation = Some(de);
        self.listed.1 += 1;
    }

    /// Clears `page`'s open deescalation.
    pub fn close_deescalation(&mut self, page: PageId) {
        let closed = self.edit(page, |rec| rec.deescalation.take());
        if closed.flatten().is_some() {
            self.listed.1 -= 1;
        }
    }

    /// How many callback ids all records list, and how many records hold
    /// a deescalation.
    pub fn listed(&self) -> (usize, usize) {
        self.listed
    }

    /// Clients caching `page`, excluding `except`, in ascending order.
    pub fn clients_except(&self, page: PageId, except: SiteId) -> Vec<SiteId> {
        let mut v: Vec<SiteId> = (self.pages.get(&page).into_iter())
            .flat_map(|rec| rec.copies.keys().copied().filter(|&c| c != except))
            .collect();
        v.sort();
        v
    }

    /// Whether anyone besides `except` caches the page.
    pub fn cached_elsewhere(&self, page: PageId, except: SiteId) -> bool {
        (self.pages.get(&page)).is_some_and(|rec| rec.copies.keys().any(|c| *c != except))
    }

    /// Clients caching at least one page of `file` (a file is "cached" at
    /// a client if at least one of its pages is, §4.3.1).
    pub fn file_clients(&self, file: FileId) -> Vec<SiteId> {
        self.clients_of(|p| p.file == file)
    }

    /// Clients caching at least one page of `vol`.
    pub fn volume_clients(&self, vol: pscc_common::VolId) -> Vec<SiteId> {
        self.clients_of(|p| p.vol() == vol)
    }

    /// Clients caching at least one page that `of` accepts, ascending.
    fn clients_of(&self, of: impl Fn(&PageId) -> bool) -> Vec<SiteId> {
        let mut v: Vec<SiteId> = (self.pages.iter().filter(|(p, _)| of(p)))
            .flat_map(|(_, rec)| rec.copies.keys().copied())
            .collect();
        v.sort();
        v.dedup();
        v
    }

    /// Drops every entry of `client` for pages of `file` (after a
    /// successful file callback).
    pub fn drop_file_entries(&mut self, file: FileId, client: SiteId) {
        self.pages.retain(|p, rec| {
            if p.file == file {
                rec.copies.remove(&client);
            }
            !rec.is_empty()
        });
    }

    /// Drops every entry of `client` across all pages (the site crashed,
    /// so its cache no longer exists). Returns how many pages lost an
    /// entry.
    pub fn drop_site_entries(&mut self, client: SiteId) -> usize {
        let mut dropped = 0;
        self.pages.retain(|_, rec| {
            if rec.copies.remove(&client).is_some() {
                dropped += 1;
            }
            !rec.is_empty()
        });
        dropped
    }

    /// Every `(client, ship_seq)` entry for `page`, sorted by client —
    /// the retained callback obligations a migration must hand to the
    /// new owner so later writes still call cached copies back.
    pub fn entries(&self, page: PageId) -> Vec<(SiteId, u64)> {
        let mut v: Vec<(SiteId, u64)> = self
            .pages
            .get(&page)
            .map(|rec| rec.copies.iter().map(|(c, s)| (*c, *s)).collect())
            .unwrap_or_default();
        v.sort();
        v
    }

    /// Restores an entry shipped over from a migrating source, preserving
    /// its ship sequence so in-flight purges still match (§4.2.4). Keeps
    /// whichever sequence is newer if an entry already exists.
    pub fn restore(&mut self, page: PageId, client: SiteId, ship_seq: u64) {
        let e = self.pages.entry(page).or_default().copies.entry(client);
        let e = e.or_insert(0);
        *e = (*e).max(ship_seq);
    }

    /// Drops every entry for pages numbered `[lo, hi)` of the database
    /// file, returning how many `(page, client)` entries went — the
    /// source's side of a committed migration (the destination owns the
    /// obligations now).
    pub fn drop_range(&mut self, lo: u32, hi: u32) -> usize {
        let mut dropped = 0;
        self.pages.retain(|p, rec| {
            if (lo..hi).contains(&p.page) {
                dropped += rec.copies.len();
                rec.copies.clear();
            }
            !rec.is_empty()
        });
        dropped
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscc_common::VolId;

    /// A site that caches nothing.
    const NOBODY: SiteId = SiteId(99);

    fn pid(n: u32) -> PageId {
        PageId::new(FileId::new(VolId(0), 0), n)
    }

    #[test]
    fn ship_and_purge_roundtrip() {
        let mut ct = PageTable::new();
        let s1 = ct.record_ship(pid(1), SiteId(1));
        assert_eq!(s1, 1);
        assert_eq!(ct.clients_except(pid(1), NOBODY), vec![SiteId(1)]);
        assert!(ct.purge(pid(1), SiteId(1), s1));
        assert!(ct.is_empty());
    }

    #[test]
    fn stale_purge_ignored() {
        let mut ct = PageTable::new();
        let s1 = ct.record_ship(pid(1), SiteId(1));
        let s2 = ct.record_ship(pid(1), SiteId(1)); // re-ship (newer copy)
        assert!(s2 > s1);
        // The purge for the *old* copy arrives late: must be ignored.
        assert!(!ct.purge(pid(1), SiteId(1), s1));
        assert_eq!(ct.clients_except(pid(1), NOBODY), vec![SiteId(1)]);
        assert!(ct.purge(pid(1), SiteId(1), s2));
    }

    #[test]
    fn clients_except_and_elsewhere() {
        let mut ct = PageTable::new();
        ct.record_ship(pid(1), SiteId(1));
        ct.record_ship(pid(1), SiteId(2));
        assert_eq!(ct.clients_except(pid(1), SiteId(1)), vec![SiteId(2)]);
        assert!(ct.cached_elsewhere(pid(1), SiteId(1)));
        ct.drop_entry(pid(1), SiteId(2));
        assert!(!ct.cached_elsewhere(pid(1), SiteId(1)));
    }

    #[test]
    fn drop_site_entries_clears_a_crashed_client() {
        let mut ct = PageTable::new();
        ct.record_ship(pid(1), SiteId(1));
        ct.record_ship(pid(1), SiteId(2));
        ct.record_ship(pid(2), SiteId(1));
        assert_eq!(ct.drop_site_entries(SiteId(1)), 2);
        assert_eq!(ct.clients_except(pid(1), NOBODY), vec![SiteId(2)]);
        assert!(ct.clients_except(pid(2), NOBODY).is_empty());
        assert_eq!(ct.drop_site_entries(SiteId(1)), 0);
    }

    #[test]
    fn range_transfer_preserves_ship_seqs() {
        let mut ct = PageTable::new();
        ct.record_ship(pid(1), SiteId(1));
        let s = ct.record_ship(pid(1), SiteId(1)); // seq 2
        ct.record_ship(pid(1), SiteId(2));
        ct.record_ship(pid(5), SiteId(1));
        assert_eq!(ct.entries(pid(1)), vec![(SiteId(1), 2), (SiteId(2), 1)]);

        // Source side: the range [0, 3) leaves.
        assert_eq!(ct.drop_range(0, 3), 2);
        assert!(ct.clients_except(pid(1), NOBODY).is_empty());
        assert_eq!(ct.clients_except(pid(5), NOBODY), vec![SiteId(1)]);

        // Destination side: restore with the original sequences.
        let mut dst = PageTable::new();
        dst.restore(pid(1), SiteId(1), s);
        dst.restore(pid(1), SiteId(2), 1);
        // A stale restore never regresses the sequence.
        dst.restore(pid(1), SiteId(1), 1);
        assert!(!dst.purge(pid(1), SiteId(1), 1), "old-seq purge is stale");
        assert!(dst.purge(pid(1), SiteId(1), s));
    }

    #[test]
    fn a_record_lives_while_any_of_its_parts_is_open() {
        let mut ct = PageTable::new();
        ct.record_ship(pid(1), SiteId(1));
        ct.open_callback(pid(1), CbId(1));
        ct.open_callback(pid(1), CbId(2));
        ct.open_deescalation(pid(1), DeId(1));
        assert_eq!(ct.drop_site_entries(SiteId(1)), 1);
        ct.close_callback(pid(1), CbId(1));
        ct.close_callback(pid(1), CbId(1)); // not listed: no change
        assert_eq!(ct.callbacks(pid(1)), [CbId(2)]);
        assert_eq!(ct.listed(), (1, 1));
        ct.close_callback(pid(1), CbId(2));
        assert_eq!(ct.deescalation(pid(1)), Some(DeId(1)));
        assert!(!ct.is_empty());
        ct.close_deescalation(pid(1));
        assert!(ct.is_empty());
        assert_eq!(ct.listed(), (0, 0));
    }

    #[test]
    fn file_level_queries() {
        let mut ct = PageTable::new();
        ct.record_ship(pid(1), SiteId(1));
        ct.record_ship(pid(2), SiteId(2));
        let f = FileId::new(VolId(0), 0);
        assert_eq!(ct.file_clients(f), vec![SiteId(1), SiteId(2)]);
        assert_eq!(ct.volume_clients(VolId(0)), vec![SiteId(1), SiteId(2)]);
        ct.drop_file_entries(f, SiteId(1));
        assert_eq!(ct.file_clients(f), vec![SiteId(2)]);
    }
}
