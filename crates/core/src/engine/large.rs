//! Large objects (paper §4.4): objects spanning multiple pages are
//! stored as private page trees reached through a small *header* object.
//! Access control rides entirely on the header's lock, acquired through
//! the ordinary PS-AA object path: SH to read, EX to update. Data pages
//! cached at a client stay valid without locks; an update invalidates
//! all other cached copies of the touched data pages before the write
//! permission is acknowledged, so a later reader (who must first win the
//! header lock) re-fetches fresh pages.
//!
//! Usage contract (enforced with graceful errors, documented in the
//! [`AppOp`] variants):
//! * `CreateLarge` requires an explicit EX lock on the header's page;
//! * `ReadLarge` requires having `Read` the header in this transaction;
//! * `WriteLarge` requires an EX lock on the header (e.g. via
//!   `AppOp::Lock`).

use super::{PeerServer, ReqCont};
use crate::msg::{Message, ReqId};
use pscc_common::hash::HashMap;
use pscc_common::{LockMode, LockableId, Oid, PageId, SiteId, TxnId};
use pscc_storage::{LargeHeader, PageSlice};

/// Encodes a header [`Oid`] into the `Done.data` payload of
/// `CreateLarge`.
pub fn encode_header_oid(oid: Oid) -> Vec<u8> {
    let mut v = Vec::with_capacity(14);
    v.extend_from_slice(&oid.page.file.vol.0.to_le_bytes());
    v.extend_from_slice(&oid.page.file.file.to_le_bytes());
    v.extend_from_slice(&oid.page.page.to_le_bytes());
    v.extend_from_slice(&oid.slot.to_le_bytes());
    v
}

/// Decodes the header [`Oid`] from a `CreateLarge` reply.
pub fn decode_header_oid(bytes: &[u8]) -> Option<Oid> {
    if bytes.len() != 14 {
        return None;
    }
    let vol = u32::from_le_bytes(bytes[0..4].try_into().ok()?);
    let file = u32::from_le_bytes(bytes[4..8].try_into().ok()?);
    let page = u32::from_le_bytes(bytes[8..12].try_into().ok()?);
    let slot = u16::from_le_bytes(bytes[12..14].try_into().ok()?);
    Some(Oid::new(
        PageId::new(
            pscc_common::FileId::new(pscc_common::VolId(vol), file),
            page,
        ),
        slot,
    ))
}

/// A client-side large-object read in progress: pages still needed, and
/// what to assemble once they arrive.
#[derive(Debug)]
pub(crate) struct LargeRead {
    pub txn: TxnId,
    pub header: LargeHeader,
    pub offset: u64,
    pub len: u32,
    /// Fetch request → page, still outstanding.
    pub pending: HashMap<ReqId, PageId>,
}

impl PeerServer {
    // ------------------------------------------------------------------
    // Client side
    // ------------------------------------------------------------------

    pub(crate) fn client_create_large(
        &mut self,
        txn: TxnId,
        header_page: PageId,
        content: Vec<u8>,
    ) {
        // The EX page lock must already be held (explicit Lock op).
        if !self
            .locks
            .held_covers(txn, LockableId::Page(header_page), LockMode::Ex)
        {
            self.complete_op(txn, None);
            return;
        }
        let Some(owner) = self.client_route(txn, header_page) else {
            return;
        };
        let req = self.issue(txn, owner, ReqCont::CreateLarge);
        self.send(
            owner,
            Message::CreateLargeReq {
                req,
                txn,
                header_page,
                content,
            },
        );
    }

    pub(crate) fn client_create_large_ok(&mut self, req: ReqId, header: Oid) {
        if let Some(r) = self.settle_running(req) {
            self.complete_op(r.txn, Some(encode_header_oid(header).into()));
        }
    }

    /// Reads `len` bytes at `offset` of the large object whose header is
    /// `header`. The header must be readable through this transaction's
    /// cache (a prior `Read(header)`).
    pub(crate) fn client_read_large(&mut self, txn: TxnId, header: Oid, offset: u64, len: u32) {
        let cached = self.cache.read_object(header);
        let header_bytes = match &cached {
            Some(b) => Some(&b[..]),
            // Owner-local fast path: the header lives on our volume.
            None if self.owners.owner_of(header.page) == Some(self.site) => {
                self.volume.read_object(header)
            }
            None => None,
        };
        let Some(hdr) = header_bytes.and_then(LargeHeader::decode) else {
            self.complete_op(txn, None);
            return;
        };
        if offset + len as u64 > hdr.size {
            self.complete_op(txn, None);
            return;
        }
        // Which data pages does the range touch, and which are missing
        // locally? (The owner's own store counts as local.)
        let payload = self.large_payload_per_page();
        let first = (offset / payload) as usize;
        let last = ((offset + len.max(1) as u64 - 1) / payload) as usize;
        let Some(owner) = self.client_route(txn, header.page) else {
            return;
        };
        let mut pending = HashMap::default();
        for pg in hdr.pages[first..=last].iter() {
            let have = self.large_cache.contains_key(pg)
                || (owner == self.site && self.large.page(*pg).is_some());
            if !have {
                let req = self.fresh_req();
                pending.insert(req, *pg);
            }
        }
        if pending.is_empty() {
            let data = self.assemble_large(&hdr, offset, len);
            self.complete_op(txn, data.map(PageSlice::from));
            return;
        }
        for (req, pg) in &pending {
            self.send(
                owner,
                Message::FetchLargePage {
                    req: *req,
                    page: *pg,
                },
            );
        }
        let op = LargeRead {
            txn,
            header: hdr,
            offset,
            len,
            pending,
        };
        self.large_reads.push(op);
    }

    /// Data pages carry a full page of payload.
    fn large_payload_per_page(&self) -> u64 {
        self.cfg.page_size as u64
    }

    fn assemble_large(&mut self, hdr: &LargeHeader, offset: u64, len: u32) -> Option<Vec<u8>> {
        let payload = self.large_payload_per_page();
        let mut out = Vec::with_capacity(len as usize);
        let mut pos = offset;
        let end = offset + len as u64;
        while pos < end {
            let idx = (pos / payload) as usize;
            let off = (pos % payload) as usize;
            let pg = hdr.pages.get(idx)?;
            let bytes: &[u8] = match self.large_cache.get(pg) {
                Some(b) => b,
                None => self.large.page(*pg)?,
            };
            let take = ((end - pos) as usize).min(bytes.len().saturating_sub(off));
            if take == 0 {
                return None;
            }
            out.extend_from_slice(&bytes[off..off + take]);
            pos += take as u64;
        }
        Some(out)
    }

    pub(crate) fn client_large_page_reply(&mut self, req: ReqId, page: PageId, bytes: Vec<u8>) {
        self.large_cache.insert(page, bytes);
        let mut finished = Vec::new();
        for (i, op) in self.large_reads.iter_mut().enumerate() {
            op.pending.remove(&req);
            if op.pending.is_empty() {
                finished.push(i);
            }
        }
        // Complete finished reads (back to front to keep indices valid).
        for i in finished.into_iter().rev() {
            let op = self.large_reads.remove(i);
            if !self.txn_is_running(op.txn) {
                continue;
            }
            let data = self.assemble_large(&op.header, op.offset, op.len);
            self.complete_op(op.txn, data.map(PageSlice::from));
        }
    }

    /// Updates a byte range; requires the EX header lock.
    pub(crate) fn client_write_large(
        &mut self,
        txn: TxnId,
        header: Oid,
        offset: u64,
        bytes: Vec<u8>,
    ) {
        if !self
            .locks
            .held_covers(txn, LockableId::Object(header), LockMode::Ex)
        {
            self.complete_op(txn, None);
            return;
        }
        let Some(owner) = self.client_route(txn, header.page) else {
            return;
        };
        let req = self.issue(txn, owner, ReqCont::WriteLarge);
        self.send(
            owner,
            Message::WriteLargeReq {
                req,
                txn,
                header,
                offset,
                bytes,
            },
        );
    }

    pub(crate) fn client_write_large_ok(&mut self, req: ReqId) {
        if let Some(r) = self.settle_running(req) {
            self.complete_op(r.txn, None);
        }
    }

    pub(crate) fn client_large_inval(&mut self, from: SiteId, inv: ReqId, pages: Vec<PageId>) {
        for p in pages {
            self.large_cache.remove(&p);
        }
        self.send(from, Message::LargeInvalOk { inv });
    }

    // ------------------------------------------------------------------
    // Owner side
    // ------------------------------------------------------------------

    pub(crate) fn server_create_large(
        &mut self,
        req: ReqId,
        from: SiteId,
        txn: TxnId,
        header_page: PageId,
        content: Vec<u8>,
    ) {
        self.txns.spread(txn);
        let file = header_page.file;
        let hdr = self.large.create(file, &content);
        match self.volume.create_object(header_page, &hdr.encode()) {
            Ok(header) => {
                self.touch_resident(header_page, true);
                self.send(from, Message::CreateLargeOk { req, header });
            }
            Err(_) => {
                // Header page full: undo the data pages; the client's op
                // completes empty (graceful error).
                self.large.destroy(&hdr);
                self.send(
                    from,
                    Message::CreateLargeOk {
                        req,
                        header: Oid::new(header_page, u16::MAX - 1),
                    },
                );
            }
        }
    }

    pub(crate) fn server_fetch_large(&mut self, req: ReqId, from: SiteId, page: PageId) {
        let Some(bytes) = self.large.page(page).map(<[u8]>::to_vec) else {
            return;
        };
        // Large pages share the page table (distinct page-number space).
        self.page_table.record_ship(page, from);
        self.touch_resident(page, false);
        self.send(from, Message::LargePageReply { req, page, bytes });
    }

    pub(crate) fn server_write_large(
        &mut self,
        req: ReqId,
        from: SiteId,
        txn: TxnId,
        header: Oid,
        offset: u64,
        bytes: Vec<u8>,
    ) {
        self.txns.spread(txn);
        // The EX header lock must be held at the server by this txn —
        // that is the §4.4 protection.
        if !self
            .locks
            .held_covers(txn, LockableId::Object(header), LockMode::Ex)
        {
            self.send(from, Message::WriteLargeOk { req });
            return;
        }
        let Some(hdr_bytes) = self.volume.read_object(header).map(<[u8]>::to_vec) else {
            self.send(from, Message::WriteLargeOk { req });
            return;
        };
        let Some(hdr) = LargeHeader::decode(&hdr_bytes) else {
            self.send(from, Message::WriteLargeOk { req });
            return;
        };
        if self.large.write(&hdr, offset, &bytes).is_err() {
            self.send(from, Message::WriteLargeOk { req });
            return;
        }
        // Invalidate other cached copies of the touched pages before
        // granting (paper §4.4: the server calls back the page from all
        // other clients caching it, then grants update permission).
        let payload = self.cfg.page_size as u64;
        let first = (offset / payload) as usize;
        let last = ((offset + bytes.len().max(1) as u64 - 1) / payload) as usize;
        let touched: Vec<PageId> = hdr.pages[first..=last.min(hdr.pages.len() - 1)].to_vec();
        let mut targets: Vec<SiteId> = Vec::new();
        for p in &touched {
            for s in self.page_table.clients_except(*p, from) {
                if s != self.site && !targets.contains(&s) {
                    targets.push(s);
                }
            }
            // Our own cached copy (owner as client) drops synchronously.
            self.large_cache.remove(p);
            self.page_table.drop_entry(*p, self.site);
            self.touch_resident(*p, true);
        }
        if targets.is_empty() {
            self.send(from, Message::WriteLargeOk { req });
            return;
        }
        let inv = self.fresh_req();
        self.large_invals
            .insert(inv, (from, req, targets.iter().copied().collect()));
        for s in targets {
            for p in &touched {
                self.page_table.drop_entry(*p, s);
            }
            self.send(
                s,
                Message::LargeInval {
                    inv,
                    pages: touched.clone(),
                },
            );
        }
    }

    pub(crate) fn server_large_inval_ok(&mut self, from: SiteId, inv: ReqId) {
        let done = {
            let Some((_, _, pending)) = self.large_invals.get_mut(&inv) else {
                return;
            };
            pending.remove(&from);
            pending.is_empty()
        };
        if done {
            let Some((to, req, _)) = self.large_invals.remove(&inv) else {
                self.obs.record(pscc_obs::EventKind::StaleDrop {
                    what: "large-object invalidation ack without operation",
                });
                return;
            };
            self.send(to, Message::WriteLargeOk { req });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_oid_roundtrip() {
        let oid = Oid::new(
            PageId::new(pscc_common::FileId::new(pscc_common::VolId(3), 1), 12_345),
            7,
        );
        assert_eq!(decode_header_oid(&encode_header_oid(oid)), Some(oid));
        assert_eq!(decode_header_oid(b"short"), None);
    }
}
