//! Identifiers for sites, applications, transactions, and the four-level
//! locking hierarchy (volume / file / page / object).
//!
//! Every identifier is a plain-old-data newtype or small struct so that it
//! can be used as a `HashMap`/`BTreeMap` key, shipped over the wire in
//! its [`Wire`](crate::wire::Wire) encoding, and printed in traces. A
//! [`LockableId`] is the sum of the four hierarchy levels and knows its
//! own [`parent`](LockableId::parent), which is what the hierarchical
//! lock manager walks when acquiring intention locks.

use std::fmt;

/// A disk volume. Each volume is owned and managed by exactly one peer
/// server (paper §3.1).
///
/// # Examples
///
/// ```
/// # use pscc_common::VolId;
/// let v = VolId(3);
/// assert_eq!(format!("{v}"), "vol3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VolId(pub u32);

impl fmt::Display for VolId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vol{}", self.0)
    }
}

/// A file within a volume. Files group pages and are a lockable granule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct FileId {
    /// Owning volume.
    pub vol: VolId,
    /// File number unique within the volume.
    pub file: u32,
}

impl FileId {
    /// Creates a file identifier.
    pub fn new(vol: VolId, file: u32) -> Self {
        Self { vol, file }
    }
}

impl fmt::Display for FileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.f{}", self.vol, self.file)
    }
}

/// A page within a file. Pages are the unit of data transfer, client
/// caching, and (for the `PS` protocol) concurrency control.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PageId {
    /// Owning file (which in turn names the owning volume).
    pub file: FileId,
    /// Page number unique within the file.
    pub page: u32,
}

impl PageId {
    /// Creates a page identifier.
    pub fn new(file: FileId, page: u32) -> Self {
        Self { file, page }
    }

    /// The volume this page ultimately belongs to.
    pub fn vol(&self) -> VolId {
        self.file.vol
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.p{}", self.file, self.page)
    }
}

/// Slot number reserved for the per-page *dummy object* used by
/// hierarchical callbacks (paper §4.3.2). Real objects always use slots
/// strictly below this value.
pub const DUMMY_SLOT: u16 = u16::MAX;

/// An object identifier: a page plus a slot within the page.
///
/// The dummy object of page `p` is `Oid::dummy(p)`; it exists only as a
/// lockable/available granule, never as stored bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Oid {
    /// Page holding the object.
    pub page: PageId,
    /// Slot within the page.
    pub slot: u16,
}

impl Oid {
    /// Creates an object identifier.
    pub fn new(page: PageId, slot: u16) -> Self {
        Self { page, slot }
    }

    /// The reserved dummy object of `page` (paper §4.3.2).
    pub fn dummy(page: PageId) -> Self {
        Self {
            page,
            slot: DUMMY_SLOT,
        }
    }

    /// Whether this is a page's reserved dummy object.
    pub fn is_dummy(&self) -> bool {
        self.slot == DUMMY_SLOT
    }
}

impl fmt::Display for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_dummy() {
            write!(f, "{}.dummy", self.page)
        } else {
            write!(f, "{}.o{}", self.page, self.slot)
        }
    }
}

/// A peer-server site. In client-server configuration one site owns the
/// whole database and the others act as (multithreaded) clients; in
/// peer-servers configuration every site owns a partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SiteId(pub u32);

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// An application program instance (the paper runs ten of them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct AppId(pub u32);

impl fmt::Display for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "app{}", self.0)
    }
}

/// A globally unique transaction identifier: the site where the
/// transaction originates plus a sequence number unique within that site
/// (paper §4, notation). The sequence number doubles as the transaction's
/// age for victim selection (lower = older).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TxnId {
    /// Home site (where the master thread runs).
    pub site: SiteId,
    /// Per-site sequence number; globally usable as an age when combined
    /// with the site id for tie-breaking.
    pub seq: u64,
}

impl TxnId {
    /// Creates a transaction id.
    pub fn new(site: SiteId, seq: u64) -> Self {
        Self { site, seq }
    }
}

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}.{}", self.site.0, self.seq)
    }
}

/// The level of a granule in the locking hierarchy, coarsest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum LockLevel {
    /// A whole disk volume.
    #[default]
    Volume,
    /// A file of pages.
    File,
    /// A single page.
    Page,
    /// A single object within a page.
    Object,
}

impl fmt::Display for LockLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LockLevel::Volume => "volume",
            LockLevel::File => "file",
            LockLevel::Page => "page",
            LockLevel::Object => "object",
        };
        f.write_str(s)
    }
}

/// Any granule that can be locked: one of the four hierarchy levels.
///
/// # Examples
///
/// ```
/// # use pscc_common::{LockableId, Oid, PageId, FileId, VolId, LockLevel};
/// let oid = Oid::new(PageId::new(FileId::new(VolId(0), 1), 2), 3);
/// let id = LockableId::from(oid);
/// assert_eq!(id.level(), LockLevel::Object);
/// let ancestors: Vec<_> = id.ancestors().collect();
/// assert_eq!(ancestors.len(), 3); // page, file, volume
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LockableId {
    /// A volume granule.
    Volume(VolId),
    /// A file granule.
    File(FileId),
    /// A page granule.
    Page(PageId),
    /// An object granule.
    Object(Oid),
}

impl LockableId {
    /// The hierarchy level of this granule.
    pub fn level(&self) -> LockLevel {
        match self {
            LockableId::Volume(_) => LockLevel::Volume,
            LockableId::File(_) => LockLevel::File,
            LockableId::Page(_) => LockLevel::Page,
            LockableId::Object(_) => LockLevel::Object,
        }
    }

    /// The immediate parent granule, or `None` for a volume.
    pub fn parent(&self) -> Option<LockableId> {
        match self {
            LockableId::Volume(_) => None,
            LockableId::File(f) => Some(LockableId::Volume(f.vol)),
            LockableId::Page(p) => Some(LockableId::File(p.file)),
            LockableId::Object(o) => Some(LockableId::Page(o.page)),
        }
    }

    /// Iterator over ancestors from the immediate parent up to the volume.
    pub fn ancestors(&self) -> Ancestors {
        Ancestors {
            next: self.parent(),
        }
    }

    /// The path from the volume down to (and including) this granule —
    /// the order in which the hierarchical lock manager acquires locks.
    pub fn path_from_root(&self) -> Vec<LockableId> {
        let mut path: Vec<LockableId> = self.ancestors().collect();
        path.reverse();
        path.push(*self);
        path
    }
}

impl From<VolId> for LockableId {
    fn from(v: VolId) -> Self {
        LockableId::Volume(v)
    }
}
impl From<FileId> for LockableId {
    fn from(f: FileId) -> Self {
        LockableId::File(f)
    }
}
impl From<PageId> for LockableId {
    fn from(p: PageId) -> Self {
        LockableId::Page(p)
    }
}
impl From<Oid> for LockableId {
    fn from(o: Oid) -> Self {
        LockableId::Object(o)
    }
}

impl fmt::Display for LockableId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockableId::Volume(v) => write!(f, "{v}"),
            LockableId::File(x) => write!(f, "{x}"),
            LockableId::Page(p) => write!(f, "{p}"),
            LockableId::Object(o) => write!(f, "{o}"),
        }
    }
}

crate::impl_wire!(struct VolId { 0 });
crate::impl_wire!(struct FileId { vol, file });
crate::impl_wire!(struct PageId { file, page });
crate::impl_wire!(struct Oid { page, slot });
crate::impl_wire!(struct SiteId { 0 });
crate::impl_wire!(struct TxnId { site, seq });
crate::impl_wire!(
    enum LockableId {
        Volume(v),
        File(f),
        Page(p),
        Object(o),
    }
);

/// Iterator over a granule's ancestors, produced by
/// [`LockableId::ancestors`].
#[derive(Debug, Clone)]
pub struct Ancestors {
    next: Option<LockableId>,
}

impl Iterator for Ancestors {
    type Item = LockableId;

    fn next(&mut self) -> Option<LockableId> {
        let cur = self.next.take();
        if let Some(c) = cur {
            self.next = c.parent();
        }
        cur
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oid() -> Oid {
        Oid::new(PageId::new(FileId::new(VolId(7), 3), 11), 4)
    }

    #[test]
    fn parents_walk_up_the_hierarchy() {
        let o = LockableId::from(oid());
        let p = o.parent().unwrap();
        let f = p.parent().unwrap();
        let v = f.parent().unwrap();
        assert_eq!(p.level(), LockLevel::Page);
        assert_eq!(f.level(), LockLevel::File);
        assert_eq!(v.level(), LockLevel::Volume);
        assert_eq!(v.parent(), None);
    }

    #[test]
    fn path_from_root_is_top_down() {
        let o = LockableId::from(oid());
        let path = o.path_from_root();
        assert_eq!(path.len(), 4);
        assert_eq!(path[0].level(), LockLevel::Volume);
        assert_eq!(path[3], o);
    }

    #[test]
    fn levels_are_ordered_coarse_to_fine() {
        assert!(LockLevel::Volume < LockLevel::File);
        assert!(LockLevel::File < LockLevel::Page);
        assert!(LockLevel::Page < LockLevel::Object);
    }

    #[test]
    fn dummy_object_is_distinct_from_real_slots() {
        let p = oid().page;
        let d = Oid::dummy(p);
        assert!(d.is_dummy());
        assert_ne!(d, Oid::new(p, 0));
        assert_eq!(LockableId::from(d).parent(), Some(LockableId::Page(p)));
    }

    #[test]
    fn display_is_nonempty_and_stable() {
        assert_eq!(format!("{}", oid()), "vol7.f3.p11.o4");
        assert_eq!(format!("{}", TxnId::new(SiteId(2), 9)), "T2.9");
        assert_eq!(format!("{}", Oid::dummy(oid().page)), "vol7.f3.p11.dummy");
    }

    #[test]
    fn txn_age_orders_by_seq_then_site() {
        let older = TxnId::new(SiteId(9), 1);
        let newer = TxnId::new(SiteId(0), 2);
        assert!(older.seq < newer.seq);
    }
}
