//! The server's copy table (paper §4.1): which clients cache which pages
//! (and, for hierarchical locking, which files), plus the per-client ship
//! sequence numbers that defuse purge races (§4.2.4).

use pscc_common::hash::HashMap;
use pscc_common::{FileId, PageId, SiteId};

/// Copy table of one owning peer server.
#[derive(Debug, Default)]
pub struct CopyTable {
    /// page -> client -> ship sequence number of the latest copy sent.
    pages: HashMap<PageId, HashMap<SiteId, u64>>,
}

impl CopyTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a ship of `page` to `client`, returning the new ship
    /// sequence number to embed in the snapshot.
    pub fn record_ship(&mut self, page: PageId, client: SiteId) -> u64 {
        let e = self
            .pages
            .entry(page)
            .or_default()
            .entry(client)
            .or_insert(0);
        *e += 1;
        *e
    }

    /// Handles a purge notice. Returns `true` if the entry was removed,
    /// `false` if the purge was stale (a newer copy has been shipped
    /// since — the purge race of §4.2.4) or unknown.
    pub fn purge(&mut self, page: PageId, client: SiteId, ship_seq: u64) -> bool {
        let Some(clients) = self.pages.get_mut(&page) else {
            return false;
        };
        match clients.get(&client) {
            Some(cur) if *cur == ship_seq => {
                clients.remove(&client);
                if clients.is_empty() {
                    self.pages.remove(&page);
                }
                true
            }
            _ => false,
        }
    }

    /// Removes the entry unconditionally (page-level callback purged the
    /// page at the client, so the server *knows* it is gone).
    pub fn drop_entry(&mut self, page: PageId, client: SiteId) {
        if let Some(clients) = self.pages.get_mut(&page) {
            clients.remove(&client);
            if clients.is_empty() {
                self.pages.remove(&page);
            }
        }
    }

    /// Clients caching `page`.
    pub fn clients(&self, page: PageId) -> Vec<SiteId> {
        self.clients_where(page, |_| true)
    }

    /// Clients caching `page`, excluding `except`.
    pub fn clients_except(&self, page: PageId, except: SiteId) -> Vec<SiteId> {
        self.clients_where(page, |c| c != except)
    }

    /// Clients caching `page` that `keep` accepts, in ascending order.
    fn clients_where(&self, page: PageId, keep: impl Fn(SiteId) -> bool) -> Vec<SiteId> {
        let mut v: Vec<SiteId> = (self.pages.get(&page).into_iter())
            .flat_map(|m| m.keys().copied().filter(|&c| keep(c)))
            .collect();
        v.sort();
        v
    }

    /// Whether anyone besides `except` caches the page.
    pub fn cached_elsewhere(&self, page: PageId, except: SiteId) -> bool {
        (self.pages.get(&page)).is_some_and(|m| m.keys().any(|c| *c != except))
    }

    /// Clients caching at least one page of `file` (a file is "cached" at
    /// a client if at least one of its pages is, §4.3.1).
    pub fn file_clients(&self, file: FileId) -> Vec<SiteId> {
        let mut v: Vec<SiteId> = self
            .pages
            .iter()
            .filter(|(p, _)| p.file == file)
            .flat_map(|(_, m)| m.keys().copied())
            .collect();
        v.sort();
        v.dedup();
        v
    }

    /// Clients caching at least one page of `vol`.
    pub fn volume_clients(&self, vol: pscc_common::VolId) -> Vec<SiteId> {
        let mut v: Vec<SiteId> = self
            .pages
            .iter()
            .filter(|(p, _)| p.vol() == vol)
            .flat_map(|(_, m)| m.keys().copied())
            .collect();
        v.sort();
        v.dedup();
        v
    }

    /// Drops every entry of `client` for pages of `file` (after a
    /// successful file callback).
    pub fn drop_file_entries(&mut self, file: FileId, client: SiteId) {
        self.pages.retain(|p, clients| {
            if p.file == file {
                clients.remove(&client);
            }
            !clients.is_empty()
        });
    }

    /// Drops every entry of `client` across all pages (the site crashed,
    /// so its cache no longer exists). Returns how many pages lost an
    /// entry.
    pub fn drop_site_entries(&mut self, client: SiteId) -> usize {
        let mut dropped = 0;
        self.pages.retain(|_, clients| {
            if clients.remove(&client).is_some() {
                dropped += 1;
            }
            !clients.is_empty()
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
            .map(|m| m.iter().map(|(c, s)| (*c, *s)).collect())
            .unwrap_or_default();
        v.sort();
        v
    }

    /// Restores an entry shipped over from a migrating source, preserving
    /// its ship sequence so in-flight purges still match (§4.2.4). Keeps
    /// whichever sequence is newer if an entry already exists.
    pub fn restore(&mut self, page: PageId, client: SiteId, ship_seq: u64) {
        let e = self
            .pages
            .entry(page)
            .or_default()
            .entry(client)
            .or_insert(0);
        *e = (*e).max(ship_seq);
    }

    /// Drops every entry for pages numbered `[lo, hi)` of the database
    /// file, returning how many `(page, client)` entries went — the
    /// source's side of a committed migration (the destination owns the
    /// obligations now).
    pub fn drop_range(&mut self, lo: u32, hi: u32) -> usize {
        let mut dropped = 0;
        self.pages.retain(|p, clients| {
            if (lo..hi).contains(&p.page) {
                dropped += clients.len();
                false
            } else {
                true
            }
        });
        dropped
    }

    /// Number of (page, client) entries (diagnostics).
    pub fn len(&self) -> usize {
        self.pages.values().map(HashMap::len).sum()
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

    fn pid(n: u32) -> PageId {
        PageId::new(FileId::new(VolId(0), 0), n)
    }

    #[test]
    fn ship_and_purge_roundtrip() {
        let mut ct = CopyTable::new();
        let s1 = ct.record_ship(pid(1), SiteId(1));
        assert_eq!(s1, 1);
        assert_eq!(ct.clients(pid(1)), vec![SiteId(1)]);
        assert!(ct.purge(pid(1), SiteId(1), s1));
        assert!(ct.is_empty());
    }

    #[test]
    fn stale_purge_ignored() {
        let mut ct = CopyTable::new();
        let s1 = ct.record_ship(pid(1), SiteId(1));
        let s2 = ct.record_ship(pid(1), SiteId(1)); // re-ship (newer copy)
        assert!(s2 > s1);
        // The purge for the *old* copy arrives late: must be ignored.
        assert!(!ct.purge(pid(1), SiteId(1), s1));
        assert_eq!(ct.clients(pid(1)), vec![SiteId(1)]);
        assert!(ct.purge(pid(1), SiteId(1), s2));
    }

    #[test]
    fn clients_except_and_elsewhere() {
        let mut ct = CopyTable::new();
        ct.record_ship(pid(1), SiteId(1));
        ct.record_ship(pid(1), SiteId(2));
        assert_eq!(ct.clients_except(pid(1), SiteId(1)), vec![SiteId(2)]);
        assert!(ct.cached_elsewhere(pid(1), SiteId(1)));
        ct.drop_entry(pid(1), SiteId(2));
        assert!(!ct.cached_elsewhere(pid(1), SiteId(1)));
    }

    #[test]
    fn drop_site_entries_clears_a_crashed_client() {
        let mut ct = CopyTable::new();
        ct.record_ship(pid(1), SiteId(1));
        ct.record_ship(pid(1), SiteId(2));
        ct.record_ship(pid(2), SiteId(1));
        assert_eq!(ct.drop_site_entries(SiteId(1)), 2);
        assert_eq!(ct.clients(pid(1)), vec![SiteId(2)]);
        assert!(ct.clients(pid(2)).is_empty());
        assert_eq!(ct.drop_site_entries(SiteId(1)), 0);
    }

    #[test]
    fn range_transfer_preserves_ship_seqs() {
        let mut ct = CopyTable::new();
        ct.record_ship(pid(1), SiteId(1));
        let s = ct.record_ship(pid(1), SiteId(1)); // seq 2
        ct.record_ship(pid(1), SiteId(2));
        ct.record_ship(pid(5), SiteId(1));
        assert_eq!(ct.entries(pid(1)), vec![(SiteId(1), 2), (SiteId(2), 1)]);

        // Source side: the range [0, 3) leaves.
        assert_eq!(ct.drop_range(0, 3), 2);
        assert!(ct.clients(pid(1)).is_empty());
        assert_eq!(ct.clients(pid(5)), vec![SiteId(1)]);

        // Destination side: restore with the original sequences.
        let mut dst = CopyTable::new();
        dst.restore(pid(1), SiteId(1), s);
        dst.restore(pid(1), SiteId(2), 1);
        // A stale restore never regresses the sequence.
        dst.restore(pid(1), SiteId(1), 1);
        assert!(!dst.purge(pid(1), SiteId(1), 1), "old-seq purge is stale");
        assert!(dst.purge(pid(1), SiteId(1), s));
    }

    #[test]
    fn file_level_queries() {
        let mut ct = CopyTable::new();
        ct.record_ship(pid(1), SiteId(1));
        ct.record_ship(pid(2), SiteId(2));
        let f = FileId::new(VolId(0), 0);
        assert_eq!(ct.file_clients(f), vec![SiteId(1), SiteId(2)]);
        assert_eq!(ct.volume_clients(VolId(0)), vec![SiteId(1), SiteId(2)]);
        ct.drop_file_entries(f, SiteId(1));
        assert_eq!(ct.file_clients(f), vec![SiteId(2)]);
    }
}
