//! Static data-placement map: which peer server owns which page.
//!
//! In client-server configuration a single site owns the whole database;
//! in peer-servers configuration the database is partitioned by page
//! number (the paper partitions HOTCOLD by hot range and UNIFORM into ten
//! equal pieces, §5.5).

use pscc_common::{PageId, SiteId};

/// A page that no range of the layout covers.
///
/// With static layouts this was a configuration error (and panicked);
/// with online migration an uncovered page is a reachable transient —
/// a stale layout image, a range mid-move — so lookups surface it as a
/// typed error that callers turn into a traced refusal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OwnershipError {
    /// The page no range covers.
    pub page: PageId,
}

impl std::fmt::Display for OwnershipError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "no owner for page {}", self.page)
    }
}

impl std::error::Error for OwnershipError {}

/// Which site owns each page of the (single, conceptual) database file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OwnerMap {
    /// One site owns everything (client-server configuration).
    Single(SiteId),
    /// Ownership by page-number range: `(start, end_exclusive, owner)`,
    /// sorted, covering the whole database (peer-servers configuration).
    Ranges(Vec<(u32, u32, SiteId)>),
}

impl OwnerMap {
    /// The owner of `page`, or [`OwnershipError`] if no range covers it.
    pub fn owner(&self, page: PageId) -> Result<SiteId, OwnershipError> {
        match self {
            OwnerMap::Single(s) => Ok(*s),
            OwnerMap::Ranges(rs) => rs
                .iter()
                .find(|(lo, hi, _)| (*lo..*hi).contains(&page.page))
                .map(|(_, _, s)| *s)
                .ok_or(OwnershipError { page }),
        }
    }

    /// The covering range of `page`: `(lo, hi, owner)`. `Single` maps
    /// report one range spanning every page number.
    pub fn locate(&self, page: PageId) -> Option<(u32, u32, SiteId)> {
        match self {
            OwnerMap::Single(s) => Some((0, u32::MAX, *s)),
            OwnerMap::Ranges(rs) => rs
                .iter()
                .find(|(lo, hi, _)| (*lo..*hi).contains(&page.page))
                .copied(),
        }
    }

    /// All page numbers owned by `site` within a database of
    /// `total_pages` pages.
    pub fn pages_of(&self, site: SiteId, total_pages: u32) -> Vec<u32> {
        match self {
            OwnerMap::Single(s) if *s == site => (0..total_pages).collect(),
            OwnerMap::Single(_) => Vec::new(),
            OwnerMap::Ranges(rs) => rs
                .iter()
                .filter(|(_, _, o)| *o == site)
                .flat_map(|(lo, hi, _)| *lo..(*hi).min(total_pages))
                .collect(),
        }
    }

    /// Every owning site.
    pub fn owners(&self) -> Vec<SiteId> {
        match self {
            OwnerMap::Single(s) => vec![*s],
            OwnerMap::Ranges(rs) => {
                let mut v: Vec<SiteId> = rs.iter().map(|(_, _, s)| *s).collect();
                v.sort();
                v.dedup();
                v
            }
        }
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
    fn single_owner() {
        let m = OwnerMap::Single(SiteId(0));
        assert_eq!(m.owner(pid(123)), Ok(SiteId(0)));
        assert_eq!(m.pages_of(SiteId(0), 5), vec![0, 1, 2, 3, 4]);
        assert!(m.pages_of(SiteId(1), 5).is_empty());
        assert_eq!(m.owners(), vec![SiteId(0)]);
    }

    #[test]
    fn ranged_owners() {
        let m = OwnerMap::Ranges(vec![(0, 10, SiteId(1)), (10, 20, SiteId(2))]);
        assert_eq!(m.owner(pid(0)), Ok(SiteId(1)));
        assert_eq!(m.owner(pid(9)), Ok(SiteId(1)));
        assert_eq!(m.owner(pid(10)), Ok(SiteId(2)));
        assert_eq!(m.pages_of(SiteId(2), 20), (10..20).collect::<Vec<_>>());
        assert_eq!(m.owners(), vec![SiteId(1), SiteId(2)]);
        assert_eq!(m.locate(pid(9)), Some((0, 10, SiteId(1))));
    }

    #[test]
    fn uncovered_page_is_a_typed_error() {
        let m = OwnerMap::Ranges(vec![(0, 10, SiteId(1))]);
        let err = m.owner(pid(10)).unwrap_err();
        assert_eq!(err.page, pid(10));
        assert_eq!(err.to_string(), format!("no owner for page {}", pid(10)));
        assert_eq!(m.locate(pid(10)), None);
    }
}
