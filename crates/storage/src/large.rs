//! SHORE-style large objects (paper §4.4): an object whose content spans
//! multiple pages is stored as a tree of pages private to the object. The
//! bottom layer holds the data; a header object (small, living on an
//! ordinary slotted page with other small objects) points at the tree and
//! is the granule the consistency protocol locks.
//!
//! Access to byte ranges goes through the header's index, which here is a
//! flat page list (adequate for the paper's sizes; the B-tree shape only
//! matters for multi-gigabyte objects).

use pscc_common::{Oid, PageId, PsccError};
use std::collections::BTreeMap;

/// The header of a large object: total size and the ordered list of data
/// pages. Serialized into an ordinary small-object slot; the consistency
/// protocol locks the header `Oid` (paper §4.4: "access to large objects
/// can be controlled by locking their headers").
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LargeHeader {
    /// Total byte length of the object.
    pub size: u64,
    /// Data pages, each holding `page_payload` bytes except the last.
    pub pages: Vec<PageId>,
}

impl LargeHeader {
    /// Serializes the header for storage in a slot.
    pub fn encode(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(16 + self.pages.len() * 14);
        v.extend_from_slice(&self.size.to_le_bytes());
        v.extend_from_slice(&(self.pages.len() as u32).to_le_bytes());
        for p in &self.pages {
            v.extend_from_slice(&p.file.vol.0.to_le_bytes());
            v.extend_from_slice(&p.file.file.to_le_bytes());
            v.extend_from_slice(&p.page.to_le_bytes());
        }
        v
    }

    /// Parses a header from slot bytes.
    pub fn decode(bytes: &[u8]) -> Option<LargeHeader> {
        if bytes.len() < 12 {
            return None;
        }
        let size = u64::from_le_bytes(bytes[0..8].try_into().ok()?);
        let n = u32::from_le_bytes(bytes[8..12].try_into().ok()?) as usize;
        if bytes.len() != 12 + n * 12 {
            return None;
        }
        let mut pages = Vec::with_capacity(n);
        for i in 0..n {
            let off = 12 + i * 12;
            let vol = u32::from_le_bytes(bytes[off..off + 4].try_into().ok()?);
            let file = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().ok()?);
            let page = u32::from_le_bytes(bytes[off + 8..off + 12].try_into().ok()?);
            pages.push(PageId::new(
                pscc_common::FileId::new(pscc_common::VolId(vol), file),
                page,
            ));
        }
        Some(LargeHeader { size, pages })
    }
}

/// Storage for large-object data pages (raw byte pages, not slotted —
/// they are private to one object and never share space, paper §4.4).
#[derive(Debug, Clone, Default)]
pub struct LargeObjectStore {
    page_payload: u32,
    pages: BTreeMap<PageId, Vec<u8>>,
    next_page: u32,
}

impl LargeObjectStore {
    /// Creates a store whose data pages carry `page_payload` bytes each.
    pub fn new(page_payload: u32) -> Self {
        LargeObjectStore {
            page_payload,
            pages: BTreeMap::new(),
            next_page: 1_000_000, // distinct number space from small pages
        }
    }

    /// Bytes of payload per data page.
    pub fn page_payload(&self) -> u32 {
        self.page_payload
    }

    /// Creates a large object with the given content; returns the header
    /// to be stored via the small-object path (the caller picks where the
    /// header `Oid` lives).
    pub fn create(&mut self, file: pscc_common::FileId, content: &[u8]) -> LargeHeader {
        let mut pages = Vec::new();
        for chunk in content.chunks(self.page_payload as usize) {
            let pid = PageId::new(file, self.next_page);
            self.next_page += 1;
            self.pages.insert(pid, chunk.to_vec());
            pages.push(pid);
        }
        LargeHeader {
            size: content.len() as u64,
            pages,
        }
    }

    /// Reads `len` bytes at `offset` of the object described by `header`.
    ///
    /// # Errors
    ///
    /// [`PsccError::InvalidOperation`] if the range exceeds the object.
    pub fn read(
        &self,
        header: &LargeHeader,
        offset: u64,
        len: usize,
    ) -> Result<Vec<u8>, PsccError> {
        if offset + len as u64 > header.size {
            return Err(PsccError::InvalidOperation(
                "large-object read out of range",
            ));
        }
        let mut out = Vec::with_capacity(len);
        let mut pos = offset;
        let end = offset + len as u64;
        while pos < end {
            let pg_idx = (pos / self.page_payload as u64) as usize;
            let pg_off = (pos % self.page_payload as u64) as usize;
            let page = self
                .pages
                .get(&header.pages[pg_idx])
                .ok_or(PsccError::InvalidOperation("missing large-object page"))?;
            let take = ((end - pos) as usize).min(page.len() - pg_off);
            out.extend_from_slice(&page[pg_off..pg_off + take]);
            pos += take as u64;
        }
        Ok(out)
    }

    /// Overwrites `bytes` at `offset`; the range must lie within the
    /// object (appends go through [`LargeObjectStore::append`]).
    ///
    /// # Errors
    ///
    /// [`PsccError::InvalidOperation`] if the range exceeds the object.
    pub fn write(
        &mut self,
        header: &LargeHeader,
        offset: u64,
        bytes: &[u8],
    ) -> Result<(), PsccError> {
        if offset + bytes.len() as u64 > header.size {
            return Err(PsccError::InvalidOperation(
                "large-object write out of range",
            ));
        }
        let mut pos = offset;
        let mut src = 0usize;
        while src < bytes.len() {
            let pg_idx = (pos / self.page_payload as u64) as usize;
            let pg_off = (pos % self.page_payload as u64) as usize;
            let page = self
                .pages
                .get_mut(&header.pages[pg_idx])
                .ok_or(PsccError::InvalidOperation("missing large-object page"))?;
            let take = (bytes.len() - src).min(page.len() - pg_off);
            page[pg_off..pg_off + take].copy_from_slice(&bytes[src..src + take]);
            pos += take as u64;
            src += take;
        }
        Ok(())
    }

    /// Appends bytes, growing the page tree; returns the updated header
    /// (the caller re-stores it through the header's small-object slot).
    pub fn append(
        &mut self,
        header: &LargeHeader,
        file: pscc_common::FileId,
        bytes: &[u8],
    ) -> LargeHeader {
        let mut h = header.clone();
        let mut rest = bytes;
        // Fill the tail page first.
        let tail_used = (h.size % self.page_payload as u64) as usize;
        if tail_used != 0 {
            let tail = h.pages.last().copied().expect("nonempty");
            let page = self.pages.get_mut(&tail).expect("tail page exists");
            let take = rest.len().min(self.page_payload as usize - tail_used);
            page.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
        }
        for chunk in rest.chunks(self.page_payload as usize) {
            let pid = PageId::new(file, self.next_page);
            self.next_page += 1;
            self.pages.insert(pid, chunk.to_vec());
            h.pages.push(pid);
        }
        h.size += bytes.len() as u64;
        h
    }

    /// Copies one data page (shipping it to a client cache).
    pub fn page(&self, pid: PageId) -> Option<&[u8]> {
        self.pages.get(&pid).map(Vec::as_slice)
    }

    /// Installs a shipped data page copy.
    pub fn install_page(&mut self, pid: PageId, data: Vec<u8>) {
        self.pages.insert(pid, data);
    }

    /// Drops the object's pages (delete).
    pub fn destroy(&mut self, header: &LargeHeader) {
        for p in &header.pages {
            self.pages.remove(p);
        }
    }
}

/// Convenience: where a large object's header lives plus its parsed form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LargeObjectRef {
    /// Slot of the header object.
    pub header_oid: Oid,
    /// Parsed header.
    pub header: LargeHeader,
}

impl LargeObjectRef {
    /// Pairs a header with the slot it is stored in.
    pub fn new(header_oid: Oid, header: LargeHeader) -> Self {
        LargeObjectRef { header_oid, header }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscc_common::{FileId, VolId};

    fn file() -> FileId {
        FileId::new(VolId(0), 7)
    }

    #[test]
    fn header_encode_decode_roundtrip() {
        let h = LargeHeader {
            size: 1234,
            pages: vec![
                PageId::new(file(), 1_000_000),
                PageId::new(file(), 1_000_001),
            ],
        };
        assert_eq!(LargeHeader::decode(&h.encode()), Some(h));
        assert_eq!(LargeHeader::decode(b"garbage"), None);
    }

    #[test]
    fn create_read_write_across_page_boundaries() {
        let mut st = LargeObjectStore::new(100);
        let content: Vec<u8> = (0..250u32).map(|i| i as u8).collect();
        let h = st.create(file(), &content);
        assert_eq!(h.pages.len(), 3);
        assert_eq!(h.size, 250);
        // Read straddling two pages.
        assert_eq!(st.read(&h, 90, 20).unwrap(), content[90..110]);
        // Write straddling pages.
        st.write(&h, 95, &[9u8; 10]).unwrap();
        let got = st.read(&h, 90, 20).unwrap();
        assert_eq!(&got[..5], &content[90..95]);
        assert_eq!(&got[5..15], &[9u8; 10]);
        assert_eq!(&got[15..], &content[105..110]);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut st = LargeObjectStore::new(64);
        let h = st.create(file(), &[0u8; 100]);
        assert!(st.read(&h, 90, 20).is_err());
        assert!(st.write(&h, 99, &[0, 0]).is_err());
    }

    #[test]
    fn append_grows_tree() {
        let mut st = LargeObjectStore::new(50);
        let h = st.create(file(), &[1u8; 70]); // pages: 50 + 20
        assert_eq!(h.pages.len(), 2);
        let h2 = st.append(&h, file(), &[2u8; 60]); // tail fills to 50, +30
        assert_eq!(h2.size, 130);
        assert_eq!(h2.pages.len(), 3);
        let all = st.read(&h2, 0, 130).unwrap();
        assert_eq!(&all[..70], &[1u8; 70][..]);
        assert_eq!(&all[70..], &[2u8; 60][..]);
    }

    #[test]
    fn destroy_removes_pages() {
        let mut st = LargeObjectStore::new(50);
        let h = st.create(file(), &[1u8; 120]);
        let pid = h.pages[0];
        assert!(st.page(pid).is_some());
        st.destroy(&h);
        assert!(st.page(pid).is_none());
    }

    #[test]
    fn empty_object() {
        let mut st = LargeObjectStore::new(50);
        let h = st.create(file(), &[]);
        assert_eq!(h.size, 0);
        assert!(h.pages.is_empty());
        assert_eq!(st.read(&h, 0, 0).unwrap(), Vec::<u8>::new());
        let h2 = st.append(&h, file(), b"abc");
        assert_eq!(st.read(&h2, 0, 3).unwrap(), b"abc");
    }
}
