//! Versioned ownership directory: the dynamic successor of the static
//! [`OwnerMap`].
//!
//! The paper fixes data placement at volume-creation time (§5.5); online
//! migration re-homes a page range while the cluster runs. Every site —
//! owner and caching client alike — holds an [`OwnershipDirectory`]: an
//! [`OwnerMap`] stamped with a monotonically increasing **layout
//! version**. A committed migration bumps the version at the source, the
//! destination, and (lazily, via [`Message::WrongOwner`] redirects) at
//! every client that still routes by the old layout.
//!
//! The version is the fence: a request that reaches a site which no
//! longer owns the page is refused with `WrongOwner { layout, new_owner }`
//! carrying the *newer* layout, and the client applies the move locally
//! before re-routing. A `WrongOwner` carrying a layout no newer than the
//! client's own is ignored as stale (the destination has simply not
//! activated yet) and retried with backoff — the directory never moves
//! backwards.
//!
//! [`Message::WrongOwner`]: crate::msg::Message::WrongOwner

use pscc_common::{PageId, SiteId};

use crate::owner_map::{OwnerMap, OwnershipError};

// The serialized form persisted in WAL checkpoints and shipped in
// migration records, `(version, ranges)`, is the WAL's own definition.
pub use pscc_wal::LayoutImage;

/// An [`OwnerMap`] stamped with a layout version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwnershipDirectory {
    version: u64,
    map: OwnerMap,
}

impl OwnershipDirectory {
    /// Wraps a boot-time placement map as layout version 1.
    pub fn new(map: OwnerMap) -> Self {
        OwnershipDirectory { version: 1, map }
    }

    /// The current layout version.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The underlying map (static-placement queries: `pages_of`, …).
    pub fn map(&self) -> &OwnerMap {
        &self.map
    }

    /// The owner of `page`, or a typed refusal if no range covers it.
    pub fn try_owner(&self, page: PageId) -> Result<SiteId, OwnershipError> {
        self.map.owner(page)
    }

    /// The owner of `page`, if any range covers it.
    pub fn owner_of(&self, page: PageId) -> Option<SiteId> {
        self.map.owner(page).ok()
    }

    /// The covering range of `page`: `(lo, hi, owner)`.
    pub fn locate(&self, page: PageId) -> Option<(u32, u32, SiteId)> {
        self.map.locate(page)
    }

    /// All page numbers owned by `site` (database of `total_pages`).
    pub fn pages_of(&self, site: SiteId, total_pages: u32) -> Vec<u32> {
        self.map.pages_of(site, total_pages)
    }

    /// Every owning site.
    pub fn owners(&self) -> Vec<SiteId> {
        self.map.owners()
    }

    /// Applies a committed move: pages `[lo, hi)` re-home to `to`, and
    /// the directory advances to `version`. Ignored (returns `false`) if
    /// `version` is not newer than the current layout — moves are
    /// monotone and idempotent, so replaying a stale or duplicate move
    /// image is harmless.
    pub fn apply_move(&mut self, lo: u32, hi: u32, to: SiteId, version: u64) -> bool {
        if version <= self.version || lo >= hi {
            return false;
        }
        let mut ranges = match &self.map {
            // A single-owner map becomes a ranged one spanning all pages.
            OwnerMap::Single(s) => vec![(0, u32::MAX, *s)],
            OwnerMap::Ranges(rs) => rs.clone(),
        };
        // Subtract the moved span from every overlapping range…
        let mut next: Vec<(u32, u32, SiteId)> = Vec::with_capacity(ranges.len() + 2);
        for (rlo, rhi, owner) in ranges.drain(..) {
            if rhi <= lo || rlo >= hi {
                next.push((rlo, rhi, owner));
                continue;
            }
            if rlo < lo {
                next.push((rlo, lo, owner));
            }
            if rhi > hi {
                next.push((hi, rhi, owner));
            }
        }
        // …then insert it under its new owner and renormalize.
        next.push((lo, hi, to));
        next.sort_by_key(|(rlo, _, _)| *rlo);
        let mut merged: Vec<(u32, u32, SiteId)> = Vec::with_capacity(next.len());
        for r in next {
            match merged.last_mut() {
                Some(last) if last.1 == r.0 && last.2 == r.2 => last.1 = r.1,
                _ => merged.push(r),
            }
        }
        self.map = OwnerMap::Ranges(merged);
        self.version = version;
        true
    }

    /// The serialized layout for WAL checkpoints / migration records.
    pub fn to_image(&self) -> LayoutImage {
        let ranges = match &self.map {
            OwnerMap::Single(s) => vec![(0, u32::MAX, *s)],
            OwnerMap::Ranges(rs) => rs.clone(),
        };
        (self.version, ranges)
    }

    /// Rebuilds a directory from a persisted [`LayoutImage`].
    pub fn from_image(image: &LayoutImage) -> Self {
        OwnershipDirectory {
            version: image.0,
            map: OwnerMap::Ranges(image.1.clone()),
        }
    }

    /// Adopts `image` if it is newer than the current layout.
    pub fn adopt_image(&mut self, image: &LayoutImage) -> bool {
        if image.0 <= self.version {
            return false;
        }
        *self = Self::from_image(image);
        true
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
    fn boot_directory_is_version_one() {
        let d = OwnershipDirectory::new(OwnerMap::Single(SiteId(3)));
        assert_eq!(d.version(), 1);
        assert_eq!(d.try_owner(pid(7)), Ok(SiteId(3)));
        assert_eq!(d.locate(pid(7)), Some((0, u32::MAX, SiteId(3))));
    }

    #[test]
    fn apply_move_splits_and_bumps() {
        let mut d = OwnershipDirectory::new(OwnerMap::Ranges(vec![
            (0, 100, SiteId(1)),
            (100, 200, SiteId(2)),
        ]));
        assert!(d.apply_move(20, 60, SiteId(2), 2));
        assert_eq!(d.version(), 2);
        assert_eq!(d.owner_of(pid(19)), Some(SiteId(1)));
        assert_eq!(d.owner_of(pid(20)), Some(SiteId(2)));
        assert_eq!(d.owner_of(pid(59)), Some(SiteId(2)));
        assert_eq!(d.owner_of(pid(60)), Some(SiteId(1)));
        assert_eq!(d.owner_of(pid(150)), Some(SiteId(2)));
        // Every page stays covered.
        for p in 0..200 {
            assert!(d.owner_of(pid(p)).is_some(), "page {p} uncovered");
        }
    }

    #[test]
    fn apply_move_merges_adjacent_same_owner() {
        let mut d = OwnershipDirectory::new(OwnerMap::Ranges(vec![
            (0, 100, SiteId(1)),
            (100, 200, SiteId(2)),
        ]));
        assert!(d.apply_move(50, 100, SiteId(2), 2));
        assert_eq!(
            d.map(),
            &OwnerMap::Ranges(vec![(0, 50, SiteId(1)), (50, 200, SiteId(2))])
        );
    }

    #[test]
    fn stale_or_duplicate_moves_are_ignored() {
        let mut d = OwnershipDirectory::new(OwnerMap::Ranges(vec![(0, 10, SiteId(1))]));
        assert!(d.apply_move(0, 5, SiteId(2), 2));
        assert!(!d.apply_move(0, 5, SiteId(2), 2), "duplicate version");
        assert!(!d.apply_move(5, 10, SiteId(2), 1), "older version");
        assert_eq!(d.owner_of(pid(7)), Some(SiteId(1)));
    }

    #[test]
    fn single_map_promotes_to_ranges_on_move() {
        let mut d = OwnershipDirectory::new(OwnerMap::Single(SiteId(0)));
        assert!(d.apply_move(10, 20, SiteId(1), 2));
        assert_eq!(d.owner_of(pid(9)), Some(SiteId(0)));
        assert_eq!(d.owner_of(pid(10)), Some(SiteId(1)));
        assert_eq!(d.owner_of(pid(20)), Some(SiteId(0)));
    }

    #[test]
    fn image_round_trip() {
        let mut d = OwnershipDirectory::new(OwnerMap::Ranges(vec![
            (0, 100, SiteId(1)),
            (100, 200, SiteId(2)),
        ]));
        d.apply_move(0, 30, SiteId(2), 5);
        let img = d.to_image();
        let d2 = OwnershipDirectory::from_image(&img);
        assert_eq!(d, d2);

        let mut stale = OwnershipDirectory::new(OwnerMap::Single(SiteId(1)));
        assert!(stale.adopt_image(&img));
        assert_eq!(stale.version(), 5);
        assert!(!stale.adopt_image(&img), "same version not re-adopted");
    }
}
