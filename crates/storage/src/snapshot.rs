//! A page copy as shipped from an owner to a client: the raw page image,
//! the availability mask the server computed under the §4.2.3 marking
//! rule, and the ship sequence number used to detect stale purge notices
//! (the purge race of paper §4.2.4).

use crate::avail::AvailMask;
use crate::page::SlottedPage;
use pscc_common::PageId;

/// A shipped page copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageSnapshot {
    /// Which page this is a copy of.
    pub page: PageId,
    /// The page image.
    pub image: SlottedPage,
    /// Proposed availability of each object (paper §4.2.3: the *final*
    /// availability at the client also depends on the client's current
    /// cached state and its fetch's callback-race marks).
    pub avail: AvailMask,
    /// How many times the owner has shipped this page to this client;
    /// echoed in purge notices so the owner can ignore a purge that an
    /// out-of-order later fetch has already superseded.
    pub ship_seq: u64,
}

impl PageSnapshot {
    /// Approximate wire size in bytes (for the network cost model).
    pub fn wire_size(&self) -> usize {
        self.image.size() + 32
    }
}

pscc_common::impl_wire!(struct PageSnapshot {
    page,
    image,
    avail,
    ship_seq,
});

#[cfg(test)]
mod tests {
    use super::*;
    use pscc_common::{FileId, VolId};

    #[test]
    fn snapshot_roundtrips_fields() {
        let mut img = SlottedPage::new(128);
        let s = img.insert(b"payload").unwrap();
        let snap = PageSnapshot {
            page: PageId::new(FileId::new(VolId(0), 1), 9),
            image: img.clone(),
            avail: AvailMask::all_available(1),
            ship_seq: 7,
        };
        assert_eq!(snap.image.get(s), Some(&b"payload"[..]));
        assert!(snap.avail.is_available(0));
        assert!(snap.wire_size() > 128);
    }
}
