//! A disk volume: files, pages, objects, allocation, and forwarding.
//!
//! Each volume is owned and managed by a single peer server (paper §3.1).
//! Everything is in memory; the simulation harness charges disk latency
//! when a non-resident page is touched.

use crate::page::{SlottedPage, SLOT_SIZE};
use pscc_common::hash::HashMap;
use pscc_common::{FileId, Oid, PageId, PsccError, SystemConfig, VolId};
use std::collections::BTreeMap;

/// Marker prefix distinguishing a forwarding tombstone from object bytes.
/// Object payloads written through [`Volume::write_object`] are stored
/// verbatim; a forwarded slot stores `FORWARD_MAGIC ++ serialized Oid`.
const FORWARD_MAGIC: [u8; 4] = *b"\xffFWD";

/// Per-file metadata.
#[derive(Debug, Clone, Default)]
struct FileMeta {
    pages: Vec<u32>,
}

/// A volume of slotted pages organized into files.
///
/// # Examples
///
/// ```
/// # use pscc_storage::Volume;
/// # use pscc_common::{VolId, SystemConfig, Oid};
/// let cfg = SystemConfig::small();
/// let vol = Volume::create_database(VolId(0), &cfg);
/// assert_eq!(vol.page_count(), cfg.database_pages as usize);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Volume {
    id: VolId,
    page_size: u32,
    files: BTreeMap<u32, FileMeta>,
    pages: HashMap<PageId, SlottedPage>,
    next_file: u32,
    next_page: u32,
}

impl Volume {
    /// Creates an empty volume.
    pub fn new(id: VolId, page_size: u32) -> Self {
        Volume {
            id,
            page_size,
            ..Default::default()
        }
    }

    /// Builds the paper's database: one file of `cfg.database_pages`
    /// pages, each holding `cfg.objects_per_page` objects of
    /// `cfg.object_size()` bytes (Table 1).
    pub fn create_database(id: VolId, cfg: &SystemConfig) -> Self {
        Self::formatted(id, cfg, 0..cfg.database_pages)
    }

    /// Builds a partition of the paper's database holding only the pages
    /// in `page_numbers` of a conceptual global file. Page *numbers* stay
    /// globally meaningful; only residency is partitioned.
    pub fn create_partition(id: VolId, cfg: &SystemConfig, page_numbers: &[u32]) -> Self {
        Self::formatted(id, cfg, page_numbers.iter().copied())
    }

    /// A volume of one file holding the pages `page_numbers`, in that
    /// order, each a clone of one page formatted with the paper's
    /// objects: every page of the database starts as the same image, one
    /// shared buffer until a page is first written.
    fn formatted(id: VolId, cfg: &SystemConfig, page_numbers: impl Iterator<Item = u32>) -> Self {
        let mut template = SlottedPage::new(cfg.page_size);
        let body = vec![0u8; cfg.object_size() as usize];
        for _ in 0..cfg.objects_per_page {
            template.insert(&body).expect("object must fit by config");
        }
        let mut vol = Volume::new(id, cfg.page_size);
        let file = vol.create_file();
        let meta = vol.files.get_mut(&file.file).expect("file exists");
        for n in page_numbers {
            vol.pages.insert(PageId::new(file, n), template.clone());
            meta.pages.push(n);
            vol.next_page = vol.next_page.max(n + 1);
        }
        vol
    }

    /// The volume id.
    pub fn id(&self) -> VolId {
        self.id
    }

    /// The page size in bytes.
    pub fn page_size(&self) -> u32 {
        self.page_size
    }

    /// Creates a new, empty file.
    pub fn create_file(&mut self) -> FileId {
        let f = self.next_file;
        self.next_file += 1;
        self.files.insert(f, FileMeta::default());
        FileId::new(self.id, f)
    }

    /// All files in the volume.
    pub fn files(&self) -> Vec<FileId> {
        self.files
            .keys()
            .map(|f| FileId::new(self.id, *f))
            .collect()
    }

    /// Allocates a fresh page in `file`.
    ///
    /// # Panics
    ///
    /// Panics if the file does not belong to this volume.
    pub fn allocate_page(&mut self, file: FileId) -> PageId {
        assert_eq!(file.vol, self.id, "file {file} not on this volume");
        let n = self.next_page;
        self.next_page += 1;
        let pid = PageId::new(file, n);
        self.pages.insert(pid, SlottedPage::new(self.page_size));
        self.files
            .get_mut(&file.file)
            .unwrap_or_else(|| panic!("no such file {file}"))
            .pages
            .push(n);
        pid
    }

    /// The pages of `file`, in allocation order.
    pub fn file_pages(&self, file: FileId) -> impl Iterator<Item = PageId> + '_ {
        self.files
            .get(&file.file)
            .into_iter()
            .flat_map(move |m| m.pages.iter().map(move |n| PageId::new(file, *n)))
    }

    /// Whether the page exists on this volume.
    pub fn contains_page(&self, page: PageId) -> bool {
        self.pages.contains_key(&page)
    }

    /// Immutable access to a page.
    pub fn page(&self, page: PageId) -> Option<&SlottedPage> {
        self.pages.get(&page)
    }

    /// Mutable access to a page.
    pub fn page_mut(&mut self, page: PageId) -> Option<&mut SlottedPage> {
        self.pages.get_mut(&page)
    }

    /// Replaces a page wholesale (installing a shipped copy).
    pub fn install_page(&mut self, page: PageId, data: SlottedPage) {
        self.pages.insert(page, data);
    }

    /// Removes a page wholesale (its ownership migrated away), returning
    /// it if present.
    pub fn remove_page(&mut self, page: PageId) -> Option<SlottedPage> {
        self.pages.remove(&page)
    }

    /// Every page on the volume, in id order — including pages installed
    /// by ownership migration, which live under their original file id
    /// and so are invisible to [`Volume::file_pages`].
    pub fn all_pages(&self) -> impl Iterator<Item = (&PageId, &SlottedPage)> {
        let mut pages: Vec<_> = self.pages.iter().collect();
        pages.sort_unstable_by_key(|(p, _)| **p);
        pages.into_iter()
    }

    /// Total pages on the volume.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Creates an object in `page`, returning its id.
    ///
    /// # Errors
    ///
    /// [`PsccError::NoSuchPage`] if the page does not exist;
    /// [`PsccError::PageFull`] if it cannot hold the record.
    pub fn create_object(&mut self, page: PageId, body: &[u8]) -> Result<Oid, PsccError> {
        let p = self
            .pages
            .get_mut(&page)
            .ok_or(PsccError::NoSuchPage(page))?;
        let slot = p.insert(body).ok_or(PsccError::PageFull(page))?;
        Ok(Oid::new(page, slot))
    }

    /// Reads an object's bytes, following at most one forwarding hop
    /// (paper §4.4: a grown object may have been forwarded).
    pub fn read_object(&self, oid: Oid) -> Option<&[u8]> {
        let bytes = self.pages.get(&oid.page)?.get(oid.slot)?;
        if let Some(fwd) = decode_forward(bytes) {
            return self.pages.get(&fwd.page)?.get(fwd.slot);
        }
        Some(bytes)
    }

    /// Where an object's bytes physically live (identity unless
    /// forwarded).
    pub fn resolve_forward(&self, oid: Oid) -> Oid {
        self.pages
            .get(&oid.page)
            .and_then(|p| p.get(oid.slot))
            .and_then(decode_forward)
            .unwrap_or(oid)
    }

    /// Writes an object's bytes in place, following one forwarding hop.
    ///
    /// # Errors
    ///
    /// [`PsccError::NoSuchObject`] if absent, [`PsccError::PageFull`] if
    /// the new size does not fit on the (possibly forwarded-to) page —
    /// the caller should then use [`Volume::write_object_forwarding`].
    pub fn write_object(&mut self, oid: Oid, body: &[u8]) -> Result<(), PsccError> {
        // One search of the page map unless the slot is forwarded.
        let home = self
            .pages
            .get_mut(&oid.page)
            .ok_or(PsccError::NoSuchObject(oid))?;
        let fwd = match home.get(oid.slot) {
            None => return Err(PsccError::NoSuchObject(oid)),
            Some(bytes) => decode_forward(bytes),
        };
        let (p, target) = match fwd {
            None => (home, oid),
            Some(t) => match self.pages.get_mut(&t.page) {
                Some(p) if p.get(t.slot).is_some() => (p, t),
                _ => return Err(PsccError::NoSuchObject(oid)),
            },
        };
        p.update(target.slot, body)
            .map_err(|_| PsccError::PageFull(target.page))
    }

    /// Writes an object, forwarding it to `overflow` if it no longer
    /// fits on its home page (the System-R-style forwarding of paper
    /// §4.4). The original slot is replaced by a tombstone so the
    /// object's id remains valid.
    ///
    /// # Errors
    ///
    /// [`PsccError::PageFull`] if the overflow page cannot hold it
    /// either.
    pub fn write_object_forwarding(
        &mut self,
        oid: Oid,
        body: &[u8],
        overflow: PageId,
    ) -> Result<(), PsccError> {
        match self.write_object(oid, body) {
            Err(PsccError::PageFull(_)) => {}
            other => return other,
        }
        let fwd_oid = self.create_object(overflow, body)?;
        let tomb = encode_forward(fwd_oid);
        let home = self
            .pages
            .get_mut(&oid.page)
            .ok_or(PsccError::NoSuchObject(oid))?;
        home.update(oid.slot, &tomb)
            .map_err(|_| PsccError::PageFull(oid.page))?;
        Ok(())
    }

    /// Deletes an object (and its forwarded body, if any).
    pub fn delete_object(&mut self, oid: Oid) -> Result<(), PsccError> {
        let target = self.resolve_forward(oid);
        if target != oid {
            if let Some(p) = self.pages.get_mut(&target.page) {
                p.delete(target.slot);
            }
        }
        let p = self
            .pages
            .get_mut(&oid.page)
            .ok_or(PsccError::NoSuchObject(oid))?;
        if p.get(oid.slot).is_none() {
            return Err(PsccError::NoSuchObject(oid));
        }
        p.delete(oid.slot);
        Ok(())
    }

    /// Free bytes on `page` (for the server-side space reservation of
    /// size-growing updates, paper §4.4).
    pub fn page_free_space(&self, page: PageId) -> Option<usize> {
        self.pages.get(&page).map(|p| p.free_space())
    }

    /// Minimum record size that still fits a new slot on `page`.
    pub fn page_fits(&self, page: PageId, len: usize) -> bool {
        self.pages
            .get(&page)
            .is_some_and(|p| p.free_space() >= len + SLOT_SIZE)
    }
}

/// Decodes a forwarding tombstone, returning the target if `bytes` is
/// one. Clients use this to follow forwarded objects in their cached
/// page copies (paper §4.4's System-R-style forwarding).
pub fn forward_target(bytes: &[u8]) -> Option<Oid> {
    decode_forward(bytes)
}

fn encode_forward(target: Oid) -> Vec<u8> {
    let mut v = FORWARD_MAGIC.to_vec();
    v.extend_from_slice(&target.page.file.vol.0.to_le_bytes());
    v.extend_from_slice(&target.page.file.file.to_le_bytes());
    v.extend_from_slice(&target.page.page.to_le_bytes());
    v.extend_from_slice(&target.slot.to_le_bytes());
    v
}

fn decode_forward(bytes: &[u8]) -> Option<Oid> {
    if bytes.len() != FORWARD_MAGIC.len() + 14 || bytes[..4] != FORWARD_MAGIC {
        return None;
    }
    let vol = VolId(u32::from_le_bytes(bytes[4..8].try_into().ok()?));
    let file = u32::from_le_bytes(bytes[8..12].try_into().ok()?);
    let page = u32::from_le_bytes(bytes[12..16].try_into().ok()?);
    let slot = u16::from_le_bytes(bytes[16..18].try_into().ok()?);
    Some(Oid::new(PageId::new(FileId::new(vol, file), page), slot))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_vol() -> Volume {
        Volume::create_database(VolId(0), &SystemConfig::small())
    }

    #[test]
    fn create_database_matches_config() {
        let cfg = SystemConfig::small();
        let vol = small_vol();
        assert_eq!(vol.page_count(), cfg.database_pages as usize);
        let file = vol.files()[0];
        let first = vol.file_pages(file).next().unwrap();
        let page = vol.page(first).unwrap();
        assert_eq!(page.live_slots().len(), cfg.objects_per_page as usize);
    }

    /// The builds the template replaced: each page allocated or
    /// installed on its own, then filled object by object.
    fn reference(id: VolId, cfg: &SystemConfig, page_numbers: Option<&[u32]>) -> Volume {
        let mut vol = Volume::new(id, cfg.page_size);
        let file = vol.create_file();
        let body = vec![0u8; cfg.object_size() as usize];
        let pids: Vec<PageId> = match page_numbers {
            None => (0..cfg.database_pages)
                .map(|_| vol.allocate_page(file))
                .collect(),
            Some(numbers) => numbers
                .iter()
                .map(|&n| {
                    let pid = PageId::new(file, n);
                    vol.install_page(pid, SlottedPage::new(cfg.page_size));
                    vol.files.get_mut(&file.file).unwrap().pages.push(n);
                    vol.next_page = vol.next_page.max(n + 1);
                    pid
                })
                .collect(),
        };
        for pid in pids {
            for _ in 0..cfg.objects_per_page {
                vol.create_object(pid, &body).unwrap();
            }
        }
        vol
    }

    fn assert_same_volume(got: &Volume, want: &Volume) {
        assert_eq!((got.id, got.page_size), (want.id, want.page_size));
        assert_eq!(got.files(), want.files());
        for f in want.files() {
            assert!(got.file_pages(f).eq(want.file_pages(f)), "pages of {f}");
        }
        assert_eq!(
            (got.next_file, got.next_page),
            (want.next_file, want.next_page)
        );
        assert_eq!(got.page_count(), want.page_count());
        assert!(got.pages == want.pages, "every page image");
    }

    #[test]
    fn template_volumes_equal_object_by_object_builds() {
        for cfg in [SystemConfig::paper(), SystemConfig::small()] {
            let db = Volume::create_database(VolId(3), &cfg);
            assert_same_volume(&db, &reference(VolId(3), &cfg, None));
            drop(db);
            let every_third: Vec<u32> = (1..cfg.database_pages).step_by(3).collect();
            for numbers in [&every_third[..], &[7, 2, 9][..], &[][..]] {
                let part = Volume::create_partition(VolId(1), &cfg, numbers);
                assert_same_volume(&part, &reference(VolId(1), &cfg, Some(numbers)));
            }
        }
    }

    #[test]
    fn object_read_write_roundtrip() {
        let mut vol = small_vol();
        let file = vol.files()[0];
        let pid = vol.file_pages(file).next().unwrap();
        let oid = Oid::new(pid, 3);
        let body = vec![42u8; SystemConfig::small().object_size() as usize];
        vol.write_object(oid, &body).unwrap();
        assert_eq!(vol.read_object(oid), Some(&body[..]));
    }

    #[test]
    fn create_and_delete_object() {
        let mut vol = Volume::new(VolId(1), 1024);
        let f = vol.create_file();
        let p = vol.allocate_page(f);
        let oid = vol.create_object(p, b"hello").unwrap();
        assert_eq!(vol.read_object(oid), Some(&b"hello"[..]));
        vol.delete_object(oid).unwrap();
        assert_eq!(vol.read_object(oid), None);
        assert!(matches!(
            vol.delete_object(oid),
            Err(PsccError::NoSuchObject(_))
        ));
    }

    #[test]
    fn grow_forwards_when_page_full() {
        let mut vol = Volume::new(VolId(1), 128);
        let f = vol.create_file();
        let home = vol.allocate_page(f);
        let overflow = vol.allocate_page(f);
        let a = vol.create_object(home, &[1u8; 40]).unwrap();
        let _b = vol.create_object(home, &[2u8; 40]).unwrap();
        // Growing `a` to 80 bytes cannot fit on the 128-byte home page.
        vol.write_object_forwarding(a, &[3u8; 80], overflow)
            .unwrap();
        // Id stays valid; reads follow the tombstone.
        assert_eq!(vol.read_object(a), Some(&[3u8; 80][..]));
        assert_ne!(vol.resolve_forward(a), a);
        assert_eq!(vol.resolve_forward(a).page, overflow);
        // Writing through the forwarded id updates the overflow copy.
        vol.write_object(a, &[4u8; 80]).unwrap();
        assert_eq!(vol.read_object(a), Some(&[4u8; 80][..]));
        // Deleting removes both tombstone and body.
        vol.delete_object(a).unwrap();
        assert_eq!(vol.read_object(a), None);
    }

    #[test]
    fn forwarding_not_triggered_when_fits() {
        let mut vol = Volume::new(VolId(1), 1024);
        let f = vol.create_file();
        let home = vol.allocate_page(f);
        let overflow = vol.allocate_page(f);
        let a = vol.create_object(home, &[1u8; 10]).unwrap();
        vol.write_object_forwarding(a, &[2u8; 20], overflow)
            .unwrap();
        assert_eq!(vol.resolve_forward(a), a, "should grow in place");
    }

    #[test]
    fn partition_creates_requested_pages_only() {
        let cfg = SystemConfig::small();
        let vol = Volume::create_partition(VolId(3), &cfg, &[5, 9, 100]);
        assert_eq!(vol.page_count(), 3);
        let f = vol.files()[0];
        assert!(vol.contains_page(PageId::new(f, 9)));
        assert!(!vol.contains_page(PageId::new(f, 6)));
    }

    #[test]
    fn page_free_space_reporting() {
        let mut vol = Volume::new(VolId(1), 256);
        let f = vol.create_file();
        let p = vol.allocate_page(f);
        let before = vol.page_free_space(p).unwrap();
        vol.create_object(p, &[0u8; 50]).unwrap();
        let after = vol.page_free_space(p).unwrap();
        assert_eq!(before - after, 50 + SLOT_SIZE);
        assert!(vol.page_fits(p, 100));
        assert!(!vol.page_fits(p, 500));
    }
}
