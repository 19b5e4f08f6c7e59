//! The callback race table (paper §4.2.4, Fig. 5).
//!
//! A callback that completes at a client *while that client has a read
//! request outstanding for the same page* registers a race: the read
//! reply already in flight may propose the called-back object as
//! "available", and the client must override that to "unavailable". Each
//! race entry remembers exactly which outstanding requests it applies to;
//! once all of them have been answered, the entry is deleted.
//!
//! The deescalation race (§4.2.4) is kept in the same structure, keyed by
//! page: while a `Deescalate` for a page has been processed, the
//! `adaptive` bit of any write grant answering a request that was
//! outstanding at that moment must be ignored.

use crate::msg::ReqId;
use pscc_common::hash::{HashMap, HashSet};
use pscc_common::PageId;

/// One registered callback race.
#[derive(Debug, Clone)]
struct RaceEntry {
    /// The slot whose "available" proposal must be overridden.
    slot: u16,
    /// The outstanding read requests the override applies to.
    pending: HashSet<ReqId>,
}

/// Client-side race bookkeeping.
#[derive(Debug, Default)]
pub struct RaceTable {
    /// Callback races, per page.
    callback: HashMap<PageId, Vec<RaceEntry>>,
    /// Deescalation races: write requests whose `adaptive` grant bit must
    /// be ignored.
    deescalated: HashSet<ReqId>,
}

impl RaceTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a callback race for `slot` of `page`, applying to the
    /// given outstanding read requests. No-op when `pending` is empty.
    pub fn register_callback_race<I: IntoIterator<Item = ReqId>>(
        &mut self,
        page: PageId,
        slot: u16,
        pending: I,
    ) {
        let set: HashSet<ReqId> = pending.into_iter().collect();
        if set.is_empty() {
            return;
        }
        self.callback
            .entry(page)
            .or_default()
            .push(RaceEntry { slot, pending: set });
    }

    /// A read reply for `req` on `page` arrived: returns the slots that
    /// must be treated as unavailable, and retires entries that have no
    /// outstanding requests left.
    pub fn consume(&mut self, page: PageId, req: ReqId) -> Vec<u16> {
        let mut raced = Vec::new();
        if let Some(entries) = self.callback.get_mut(&page) {
            for e in entries.iter_mut() {
                if e.pending.remove(&req) {
                    raced.push(e.slot);
                }
            }
            entries.retain(|e| !e.pending.is_empty());
            if entries.is_empty() {
                self.callback.remove(&page);
            }
        }
        raced.sort_unstable();
        raced.dedup();
        raced
    }

    /// Drops a request from all entries without applying it (the request
    /// was answered by an abort instead of a reply).
    pub fn forget_request(&mut self, req: ReqId) {
        self.callback.retain(|_, entries| {
            for e in entries.iter_mut() {
                e.pending.remove(&req);
            }
            entries.retain(|e| !e.pending.is_empty());
            !entries.is_empty()
        });
        self.deescalated.remove(&req);
    }

    /// Registers a deescalation race for outstanding write requests.
    pub fn register_deescalation<I: IntoIterator<Item = ReqId>>(&mut self, reqs: I) {
        self.deescalated.extend(reqs);
    }

    /// Whether `req`'s adaptive grant bit must be ignored; consumes the
    /// entry.
    pub fn consume_deescalation(&mut self, req: ReqId) -> bool {
        self.deescalated.remove(&req)
    }

    /// Number of live callback race entries (diagnostics/stats).
    pub fn len(&self) -> usize {
        self.callback.values().map(Vec::len).sum()
    }

    /// Whether no races are registered.
    pub fn is_empty(&self) -> bool {
        self.callback.is_empty() && self.deescalated.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscc_common::{FileId, VolId};

    fn pid(n: u32) -> PageId {
        PageId::new(FileId::new(VolId(0), 0), n)
    }

    #[test]
    fn race_applies_to_registered_requests_only() {
        let mut rt = RaceTable::new();
        rt.register_callback_race(pid(1), 3, [ReqId(10)]);
        // A different request on the same page: unaffected.
        assert!(rt.consume(pid(1), ReqId(11)).is_empty());
        assert_eq!(rt.consume(pid(1), ReqId(10)), vec![3]);
        // Entry retired.
        assert!(rt.consume(pid(1), ReqId(10)).is_empty());
        assert!(rt.is_empty());
    }

    #[test]
    fn race_with_multiple_pending_requests() {
        let mut rt = RaceTable::new();
        rt.register_callback_race(pid(1), 2, [ReqId(1), ReqId(2)]);
        assert_eq!(rt.consume(pid(1), ReqId(1)), vec![2]);
        assert_eq!(rt.consume(pid(1), ReqId(2)), vec![2]);
        assert!(rt.is_empty());
    }

    #[test]
    fn empty_registration_is_noop() {
        let mut rt = RaceTable::new();
        rt.register_callback_race(pid(1), 2, []);
        assert!(rt.is_empty());
    }

    #[test]
    fn multiple_slots_same_page() {
        let mut rt = RaceTable::new();
        rt.register_callback_race(pid(1), 2, [ReqId(1)]);
        rt.register_callback_race(pid(1), 5, [ReqId(1)]);
        assert_eq!(rt.consume(pid(1), ReqId(1)), vec![2, 5]);
    }

    #[test]
    fn forget_request_cleans_up() {
        let mut rt = RaceTable::new();
        rt.register_callback_race(pid(1), 2, [ReqId(1)]);
        rt.register_deescalation([ReqId(1)]);
        rt.forget_request(ReqId(1));
        assert!(rt.is_empty());
    }

    #[test]
    fn deescalation_race_consumed_once() {
        let mut rt = RaceTable::new();
        rt.register_deescalation([ReqId(7)]);
        assert!(rt.consume_deescalation(ReqId(7)));
        assert!(!rt.consume_deescalation(ReqId(7)));
    }
}
