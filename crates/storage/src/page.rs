//! A slotted page with a byte-accurate layout.
//!
//! ```text
//! +--------+-----------------------------+------------------+
//! | header | records, growing upward ... | ... slot array   |
//! | 16 B   |                             |   growing down   |
//! +--------+-----------------------------+------------------+
//! ```
//!
//! Header: `[0..8)` page LSN, `[8..10)` slot count, `[10..12)` free-space
//! offset (start of the unallocated middle region), `[12..14)` bytes lost
//! to holes (reclaimable by compaction), `[14..16)` reserved. Each slot
//! descriptor is 4 bytes at the end of the page: `(offset u16, len u16)`,
//! slot `i` at `page_size - 4*(i+1)`. A dead slot has offset
//! [`DEAD_OFFSET`]. Records are raw object bytes.
//!
//! The image is one refcounted buffer. A clone shares it, and a
//! mutator copies it only while it is shared, so a page shipped,
//! snapshotted or cached elsewhere costs a refcount until one side
//! writes (DESIGN.md §13). A [`PageSlice`] borrows an object's bytes
//! from that buffer: while one is alive, the next write to the page
//! copies the whole image, so no slice is held across a mutation.

use pscc_common::wire::{self, Wire, WireError};
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// The page sizes [`SlottedPage::new`] accepts (offsets are 16-bit).
const PAGE_SIZES: std::ops::RangeInclusive<usize> = 64..=65_536;
/// Size of the page header in bytes.
pub const HEADER_SIZE: usize = 16;
/// Size of one slot descriptor in bytes.
pub const SLOT_SIZE: usize = 4;
/// Offset marker for a deleted (dead) slot.
const DEAD_OFFSET: u16 = u16::MAX;

/// A slotted data page.
///
/// # Examples
///
/// ```
/// # use pscc_storage::SlottedPage;
/// let mut p = SlottedPage::new(512);
/// let s = p.insert(b"hello").unwrap();
/// assert_eq!(p.get(s), Some(&b"hello"[..]));
/// p.update(s, b"world").unwrap();
/// assert_eq!(p.get(s), Some(&b"world"[..]));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlottedPage {
    data: Arc<[u8]>,
}

/// An object's bytes as a refcounted slice of the page image they were
/// read from, or as a buffer of their own ([`PageSlice::from`] adopts a
/// `Vec` without copying it).
#[derive(Clone)]
pub struct PageSlice(Backing);

#[derive(Clone)]
enum Backing {
    Image {
        image: Arc<[u8]>,
        start: usize,
        end: usize,
    },
    Owned(Vec<u8>),
}

impl Deref for PageSlice {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &self.0 {
            Backing::Image { image, start, end } => &image[*start..*end],
            Backing::Owned(bytes) => bytes,
        }
    }
}

impl From<Vec<u8>> for PageSlice {
    fn from(bytes: Vec<u8>) -> Self {
        PageSlice(Backing::Owned(bytes))
    }
}

impl PartialEq for PageSlice {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for PageSlice {}

impl fmt::Debug for PageSlice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl SlottedPage {
    /// Creates an empty page of `page_size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `page_size` is smaller than 64 bytes or larger than
    /// 65 536 (offsets are 16-bit).
    pub fn new(page_size: u32) -> Self {
        assert!(
            PAGE_SIZES.contains(&(page_size as usize)),
            "unsupported page size"
        );
        let mut p = SlottedPage {
            data: Arc::from(vec![0; page_size as usize]),
        };
        p.set_free_offset(HEADER_SIZE as u16);
        p
    }

    fn u16_at(&self, off: usize) -> u16 {
        u16::from_le_bytes([self.data[off], self.data[off + 1]])
    }

    /// The image, for writing: copied first if another page, snapshot
    /// or [`PageSlice`] shares it.
    fn buf_mut(&mut self) -> &mut [u8] {
        Arc::make_mut(&mut self.data)
    }

    fn set_u16(&mut self, off: usize, v: u16) {
        self.buf_mut()[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }

    /// The page LSN (set by the recovery layer after applying a log
    /// record).
    pub fn lsn(&self) -> u64 {
        u64::from_le_bytes(self.data[0..8].try_into().expect("8 bytes"))
    }

    /// Sets the page LSN.
    pub fn set_lsn(&mut self, lsn: u64) {
        self.buf_mut()[0..8].copy_from_slice(&lsn.to_le_bytes());
    }

    /// Number of slots ever allocated (including dead ones).
    pub fn slot_count(&self) -> u16 {
        self.u16_at(8)
    }

    fn set_slot_count(&mut self, v: u16) {
        self.set_u16(8, v);
    }

    fn free_offset(&self) -> u16 {
        self.u16_at(10)
    }

    fn set_free_offset(&mut self, v: u16) {
        self.set_u16(10, v);
    }

    fn hole_bytes(&self) -> u16 {
        self.u16_at(12)
    }

    fn set_hole_bytes(&mut self, v: u16) {
        self.set_u16(12, v);
    }

    fn slot_pos(&self, slot: u16) -> usize {
        self.data.len() - SLOT_SIZE * (slot as usize + 1)
    }

    fn slot(&self, slot: u16) -> Option<(u16, u16)> {
        if slot >= self.slot_count() {
            return None;
        }
        let pos = self.slot_pos(slot);
        let off = self.u16_at(pos);
        let len = self.u16_at(pos + 2);
        if off == DEAD_OFFSET {
            None
        } else {
            Some((off, len))
        }
    }

    fn set_slot(&mut self, slot: u16, off: u16, len: u16) {
        let pos = self.slot_pos(slot);
        self.set_u16(pos, off);
        self.set_u16(pos + 2, len);
    }

    /// Contiguous free bytes in the middle region, accounting for the
    /// slot array.
    pub fn contiguous_free(&self) -> usize {
        let slots_start = self.data.len() - SLOT_SIZE * self.slot_count() as usize;
        slots_start.saturating_sub(self.free_offset() as usize)
    }

    /// Total reclaimable free bytes (contiguous + holes).
    pub fn free_space(&self) -> usize {
        self.contiguous_free() + self.hole_bytes() as usize
    }

    /// Whether a record of `len` bytes fits in a *new* slot.
    pub fn fits(&self, len: usize) -> bool {
        self.free_space() >= len + SLOT_SIZE
    }

    /// Inserts a record, returning its slot. Returns `None` if the page
    /// is full even after compaction.
    pub fn insert(&mut self, bytes: &[u8]) -> Option<u16> {
        if !self.fits(bytes.len()) {
            return None;
        }
        // Reuse a dead slot if any (no new slot-array growth).
        let reuse = (0..self.slot_count()).find(|s| {
            let pos = self.slot_pos(*s);
            self.u16_at(pos) == DEAD_OFFSET
        });
        let need = bytes.len() + if reuse.is_some() { 0 } else { SLOT_SIZE };
        if self.contiguous_free() < need {
            self.compact();
        }
        if self.contiguous_free() < need {
            return None;
        }
        let slot = match reuse {
            Some(s) => s,
            None => {
                let s = self.slot_count();
                self.set_slot_count(s + 1);
                s
            }
        };
        let off = self.free_offset();
        self.buf_mut()[off as usize..off as usize + bytes.len()].copy_from_slice(bytes);
        self.set_free_offset(off + bytes.len() as u16);
        self.set_slot(slot, off, bytes.len() as u16);
        Some(slot)
    }

    /// Reads the record in `slot`, if live.
    pub fn get(&self, slot: u16) -> Option<&[u8]> {
        self.slot(slot)
            .map(|(off, len)| &self.data[off as usize..(off + len) as usize])
    }

    /// The record in `slot`, if live, as a slice sharing this image: no
    /// bytes are copied and nothing is allocated.
    pub fn slice(&self, slot: u16) -> Option<PageSlice> {
        self.slot(slot).map(|(off, len)| {
            PageSlice(Backing::Image {
                image: Arc::clone(&self.data),
                start: off as usize,
                end: (off + len) as usize,
            })
        })
    }

    /// Whether the two pages share one image buffer (neither has been
    /// written since one was cloned from the other).
    #[doc(hidden)]
    pub fn shares_buffer_with(&self, other: &SlottedPage) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// Overwrites the record in `slot`. Same-size updates happen in
    /// place; size-changing updates relocate within the page. Returns
    /// `Err(())` if the new size does not fit (the caller must forward
    /// the object to another page, paper §4.4).
    #[allow(clippy::result_unit_err)] // the only failure is "does not fit"
    pub fn update(&mut self, slot: u16, bytes: &[u8]) -> Result<(), ()> {
        let (off, len) = self.slot(slot).ok_or(())?;
        if bytes.len() == len as usize {
            self.buf_mut()[off as usize..(off + len) as usize].copy_from_slice(bytes);
            return Ok(());
        }
        if bytes.len() < len as usize {
            // Shrink in place; the tail becomes a hole.
            self.buf_mut()[off as usize..off as usize + bytes.len()].copy_from_slice(bytes);
            self.set_slot(slot, off, bytes.len() as u16);
            self.set_hole_bytes(self.hole_bytes() + (len as usize - bytes.len()) as u16);
            return Ok(());
        }
        // Grow: old space becomes a hole; relocate to the free region.
        // The record's own bytes count as reclaimable.
        if self.free_space() + (len as usize) < bytes.len() {
            return Err(());
        }
        self.set_hole_bytes(self.hole_bytes() + len);
        self.set_slot(slot, DEAD_OFFSET, 0);
        if self.contiguous_free() < bytes.len() {
            self.compact();
        }
        let off = self.free_offset();
        self.buf_mut()[off as usize..off as usize + bytes.len()].copy_from_slice(bytes);
        self.set_free_offset(off + bytes.len() as u16);
        self.set_slot(slot, off, bytes.len() as u16);
        Ok(())
    }

    /// Deletes the record in `slot` (the slot may be reused by later
    /// inserts).
    pub fn delete(&mut self, slot: u16) {
        if let Some((_, len)) = self.slot(slot) {
            self.set_hole_bytes(self.hole_bytes() + len);
            self.set_slot(slot, DEAD_OFFSET, 0);
        }
    }

    /// Live slots, in slot order.
    pub fn live_slots(&self) -> Vec<u16> {
        (0..self.slot_count())
            .filter(|s| self.slot(*s).is_some())
            .collect()
    }

    /// Rewrites all live records contiguously, in slot order, turning
    /// holes into contiguous free space. The records are read from the
    /// old image into a copy of it, which becomes this page's image.
    pub fn compact(&mut self) {
        let mut page = SlottedPage {
            data: Arc::clone(&self.data),
        };
        let mut off = HEADER_SIZE as u16;
        for s in 0..self.slot_count() {
            let Some(bytes) = self.get(s) else {
                continue;
            };
            let len = bytes.len() as u16;
            page.buf_mut()[off as usize..(off + len) as usize].copy_from_slice(bytes);
            page.set_slot(s, off, len);
            off += len;
        }
        page.set_free_offset(off);
        page.set_hole_bytes(0);
        *self = page;
    }

    /// The raw page bytes (for shipping and checksums).
    pub fn as_bytes(&self) -> &[u8] {
        &self.data
    }

    /// Reconstructs a page from raw bytes, copied into a refcounted
    /// buffer of its own.
    pub fn from_bytes(data: Vec<u8>) -> Self {
        SlottedPage {
            data: Arc::from(data),
        }
    }

    /// Page size in bytes.
    pub fn size(&self) -> usize {
        self.data.len()
    }

    /// Checks that the image is a layout this type's methods can work on
    /// without indexing outside it: a size [`SlottedPage::new`] accepts,
    /// a slot array below the header, a free offset inside the record
    /// area, every live record inside the allocated part of it, and no
    /// more live and hole bytes than that part holds.
    fn check_layout(&self) -> Result<(), &'static str> {
        if !PAGE_SIZES.contains(&self.data.len()) {
            return Err("page size outside 64..=65536");
        }
        let slots_start = self
            .data
            .len()
            .checked_sub(SLOT_SIZE * self.slot_count() as usize)
            .filter(|s| *s >= HEADER_SIZE)
            .ok_or("slot array overlaps the page header")?;
        let free = self.free_offset() as usize;
        if !(HEADER_SIZE..=slots_start).contains(&free) {
            return Err("free offset outside the record area");
        }
        let mut used = self.hole_bytes() as usize;
        for slot in 0..self.slot_count() {
            let Some((off, len)) = self.slot(slot) else {
                continue;
            };
            if (off as usize) < HEADER_SIZE || off as usize + len as usize > free {
                return Err("live slot outside the record area");
            }
            used += len as usize;
        }
        if used > free - HEADER_SIZE {
            return Err("records and holes exceed the record area");
        }
        Ok(())
    }
}

/// A page image is its bytes; decoding refuses an image whose layout
/// would make the page's own methods index outside it.
impl Wire for SlottedPage {
    fn put(&self, out: &mut Vec<u8>) {
        wire::put_bytes(&self.data, out);
    }

    fn get(input: &mut &[u8]) -> Result<Self, WireError> {
        let page = SlottedPage {
            data: Arc::from(wire::get_bytes(input)?),
        };
        page.check_layout().map_err(WireError::Invalid)?;
        Ok(page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut p = SlottedPage::new(256);
        let a = p.insert(b"alpha").unwrap();
        let b = p.insert(b"beta").unwrap();
        assert_ne!(a, b);
        assert_eq!(p.get(a), Some(&b"alpha"[..]));
        assert_eq!(p.get(b), Some(&b"beta"[..]));
        assert_eq!(p.live_slots(), vec![a, b]);
    }

    #[test]
    fn a_slice_shares_the_image_and_an_owned_one_keeps_its_buffer() {
        let mut p = SlottedPage::new(256);
        let s = p.insert(b"alpha").unwrap();
        let read = p.slice(s).unwrap();
        assert_eq!(&*read, b"alpha");
        assert_eq!(read.as_ptr(), p.get(s).unwrap().as_ptr());
        let bytes = b"large object".to_vec();
        let at = bytes.as_ptr();
        let owned = PageSlice::from(bytes);
        assert_eq!((&*owned, owned.as_ptr()), (&b"large object"[..], at));
        assert_eq!(read, PageSlice::from(b"alpha".to_vec()));
    }

    #[test]
    fn same_size_update_in_place() {
        let mut p = SlottedPage::new(256);
        let s = p.insert(&[1u8; 16]).unwrap();
        let free = p.free_space();
        p.update(s, &[2u8; 16]).unwrap();
        assert_eq!(p.get(s), Some(&[2u8; 16][..]));
        assert_eq!(p.free_space(), free);
    }

    #[test]
    fn shrink_creates_hole_grow_relocates() {
        let mut p = SlottedPage::new(256);
        let s = p.insert(&[7u8; 32]).unwrap();
        p.update(s, &[8u8; 8]).unwrap();
        assert_eq!(p.get(s).unwrap().len(), 8);
        p.update(s, &[9u8; 40]).unwrap();
        assert_eq!(p.get(s), Some(&[9u8; 40][..]));
    }

    #[test]
    fn grow_uses_compaction_when_fragmented() {
        let mut p = SlottedPage::new(128); // 112 usable
        let a = p.insert(&[1u8; 30]).unwrap();
        let b = p.insert(&[2u8; 30]).unwrap();
        let c = p.insert(&[3u8; 30]).unwrap();
        p.delete(b);
        // Contiguous free is small, but holes allow a 50-byte record.
        assert!(p.update(a, &[4u8; 50]).is_ok());
        assert_eq!(p.get(a), Some(&[4u8; 50][..]));
        assert_eq!(p.get(c), Some(&[3u8; 30][..]));
    }

    #[test]
    fn full_page_rejects_insert_and_grow() {
        let mut p = SlottedPage::new(128);
        let s = p.insert(&[0u8; 100]).unwrap();
        assert_eq!(p.insert(&[0u8; 32]), None);
        assert!(p.update(s, &[0u8; 120]).is_err());
        // Original record intact after the failed grow.
        assert_eq!(p.get(s), Some(&[0u8; 100][..]));
    }

    #[test]
    fn delete_then_reuse_slot() {
        let mut p = SlottedPage::new(256);
        let a = p.insert(b"one").unwrap();
        let _b = p.insert(b"two").unwrap();
        p.delete(a);
        assert_eq!(p.get(a), None);
        let c = p.insert(b"three").unwrap();
        assert_eq!(c, a, "dead slot should be reused");
        assert_eq!(p.get(c), Some(&b"three"[..]));
    }

    #[test]
    fn lsn_roundtrip_and_serialization() {
        let mut p = SlottedPage::new(256);
        p.set_lsn(0xDEADBEEF);
        let s = p.insert(b"x").unwrap();
        let q = SlottedPage::from_bytes(p.as_bytes().to_vec());
        assert_eq!(q.lsn(), 0xDEADBEEF);
        assert_eq!(q.get(s), Some(&b"x"[..]));
    }

    #[test]
    fn many_small_objects_fill_page() {
        let mut p = SlottedPage::new(4096);
        let mut n = 0;
        while p.insert(&[n as u8; 100]).is_some() {
            n += 1;
        }
        // (4096-16)/(100+4) = ~39
        assert!(n >= 38, "expected ~39 inserts, got {n}");
        assert!(p.free_space() < 104 + SLOT_SIZE);
    }

    #[test]
    fn compact_preserves_content() {
        let mut p = SlottedPage::new(512);
        let slots: Vec<u16> = (0..8).map(|i| p.insert(&[i as u8; 20]).unwrap()).collect();
        for s in slots.iter().step_by(2) {
            p.delete(*s);
        }
        p.compact();
        for (i, s) in slots.iter().enumerate() {
            if i % 2 == 0 {
                assert_eq!(p.get(*s), None);
            } else {
                assert_eq!(p.get(*s), Some(&[i as u8; 20][..]));
            }
        }
        assert_eq!(p.hole_bytes(), 0);
    }

    #[test]
    fn decoding_refuses_layouts_the_methods_would_index_outside() {
        let mut good = SlottedPage::new(128);
        good.insert(&[5u8; 20]).unwrap();
        let decode = |page: &SlottedPage| {
            let mut image = Vec::new();
            page.put(&mut image);
            pscc_common::wire::decode::<SlottedPage>(&image)
        };
        assert_eq!(decode(&good), Ok(good.clone()));
        let broken = |edit: &dyn Fn(&mut SlottedPage)| {
            let mut page = good.clone();
            edit(&mut page);
            decode(&page)
        };
        let refused = |why| Err(WireError::Invalid(why));
        for size in [3, 63, 65_537] {
            assert_eq!(
                decode(&SlottedPage::from_bytes(vec![0; size])),
                refused("page size outside 64..=65536")
            );
        }
        assert_eq!(
            broken(&|p| p.set_slot_count(29)),
            refused("slot array overlaps the page header")
        );
        assert_eq!(
            broken(&|p| p.set_free_offset(125)),
            refused("free offset outside the record area")
        );
        assert_eq!(
            broken(&|p| p.set_slot(0, 30, 20)),
            refused("live slot outside the record area")
        );
        assert_eq!(
            broken(&|p| p.set_hole_bytes(1)),
            refused("records and holes exceed the record area")
        );
    }

    #[test]
    #[should_panic(expected = "unsupported page size")]
    fn tiny_page_rejected() {
        let _ = SlottedPage::new(32);
    }
}
