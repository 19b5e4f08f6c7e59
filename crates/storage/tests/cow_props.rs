//! Property test: a page and its clones share one image until written,
//! and sharing is invisible. Random inserts, updates, deletes,
//! compactions and LSN stamps go to a page and to clones of it; each
//! copy must hold exactly the bytes of a reference page that owns a
//! plain `Vec` and sees only that copy's operations, so no copy sees
//! another's change, and each copy's wire encoding is the reference's.

use proptest::prelude::*;
use pscc_common::wire::Wire;
use pscc_storage::{SlottedPage, HEADER_SIZE, SLOT_SIZE};

/// The slotted page over a plain `Vec<u8>`, same layout and algorithm
/// (see `pscc_storage::SlottedPage`): header `[0..8)` LSN, `[8..10)`
/// slot count, `[10..12)` free offset, `[12..14)` hole bytes; slot `i`
/// is `(offset, len)` at `size - 4 * (i + 1)`, offset `u16::MAX` dead.
#[derive(Clone)]
struct Reference {
    data: Vec<u8>,
}

const DEAD: u16 = u16::MAX;

impl Reference {
    fn new(size: usize) -> Self {
        let mut r = Reference {
            data: vec![0; size],
        };
        r.set(10, HEADER_SIZE as u16);
        r
    }

    fn at(&self, off: usize) -> u16 {
        u16::from_le_bytes([self.data[off], self.data[off + 1]])
    }

    fn set(&mut self, off: usize, v: u16) {
        self.data[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }

    fn count(&self) -> u16 {
        self.at(8)
    }

    fn slot_pos(&self, slot: u16) -> usize {
        self.data.len() - SLOT_SIZE * (slot as usize + 1)
    }

    fn slot(&self, slot: u16) -> Option<(usize, usize)> {
        if slot >= self.count() {
            return None;
        }
        let pos = self.slot_pos(slot);
        let off = self.at(pos);
        (off != DEAD).then(|| (off as usize, self.at(pos + 2) as usize))
    }

    fn set_slot(&mut self, slot: u16, off: u16, len: u16) {
        let pos = self.slot_pos(slot);
        self.set(pos, off);
        self.set(pos + 2, len);
    }

    fn contiguous_free(&self) -> usize {
        let slots = self.data.len() - SLOT_SIZE * self.count() as usize;
        slots.saturating_sub(self.at(10) as usize)
    }

    fn free_space(&self) -> usize {
        self.contiguous_free() + self.at(12) as usize
    }

    fn get(&self, slot: u16) -> Option<&[u8]> {
        self.slot(slot).map(|(off, len)| &self.data[off..off + len])
    }

    /// Writes `bytes` at the free offset into `slot`.
    fn place(&mut self, slot: u16, bytes: &[u8]) {
        let off = self.at(10);
        self.data[off as usize..off as usize + bytes.len()].copy_from_slice(bytes);
        self.set(10, off + bytes.len() as u16);
        self.set_slot(slot, off, bytes.len() as u16);
    }

    fn insert(&mut self, bytes: &[u8]) -> Option<u16> {
        if self.free_space() < bytes.len() + SLOT_SIZE {
            return None;
        }
        let reuse = (0..self.count()).find(|s| self.at(self.slot_pos(*s)) == DEAD);
        let need = bytes.len() + if reuse.is_some() { 0 } else { SLOT_SIZE };
        if self.contiguous_free() < need {
            self.compact();
        }
        if self.contiguous_free() < need {
            return None;
        }
        let slot = reuse.unwrap_or_else(|| {
            let s = self.count();
            self.set(8, s + 1);
            s
        });
        self.place(slot, bytes);
        Some(slot)
    }

    fn update(&mut self, slot: u16, bytes: &[u8]) -> Result<(), ()> {
        let (off, len) = self.slot(slot).ok_or(())?;
        if bytes.len() <= len {
            self.data[off..off + bytes.len()].copy_from_slice(bytes);
            if bytes.len() < len {
                self.set_slot(slot, off as u16, bytes.len() as u16);
                let holes = self.at(12) + (len - bytes.len()) as u16;
                self.set(12, holes);
            }
            return Ok(());
        }
        if self.free_space() + len < bytes.len() {
            return Err(());
        }
        let holes = self.at(12) + len as u16;
        self.set(12, holes);
        self.set_slot(slot, DEAD, 0);
        if self.contiguous_free() < bytes.len() {
            self.compact();
        }
        self.place(slot, bytes);
        Ok(())
    }

    fn delete(&mut self, slot: u16) {
        if let Some((_, len)) = self.slot(slot) {
            let holes = self.at(12) + len as u16;
            self.set(12, holes);
            self.set_slot(slot, DEAD, 0);
        }
    }

    fn compact(&mut self) {
        let live: Vec<(u16, Vec<u8>)> = (0..self.count())
            .filter_map(|s| self.get(s).map(|b| (s, b.to_vec())))
            .collect();
        let mut off = HEADER_SIZE as u16;
        for (s, bytes) in live {
            self.data[off as usize..off as usize + bytes.len()].copy_from_slice(&bytes);
            self.set_slot(s, off, bytes.len() as u16);
            off += bytes.len() as u16;
        }
        self.set(10, off);
        self.set(12, 0);
    }

    fn set_lsn(&mut self, lsn: u64) {
        self.data[0..8].copy_from_slice(&lsn.to_le_bytes());
    }
}

#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<u8>),
    Update(u8, Vec<u8>),
    Delete(u8),
    Compact,
    SetLsn(u64),
    /// A new copy, cloned from copy `n` (modulo the copies so far).
    Clone(u8),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..60).prop_map(Op::Insert),
        (any::<u8>(), proptest::collection::vec(any::<u8>(), 0..60))
            .prop_map(|(s, b)| Op::Update(s, b)),
        any::<u8>().prop_map(Op::Delete),
        Just(Op::Compact),
        any::<u64>().prop_map(Op::SetLsn),
        any::<u8>().prop_map(Op::Clone),
    ]
}

fn encoded(page: &SlottedPage) -> Vec<u8> {
    let mut out = Vec::new();
    page.put(&mut out);
    out
}

/// The encoding a page with the reference's bytes has: its length as
/// a wire `Vec<u8>`, then the bytes.
fn reference_encoding(r: &Reference) -> Vec<u8> {
    let mut out = Vec::new();
    r.data.put(&mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn clones_share_until_written_and_never_see_each_others_writes(
        ops in proptest::collection::vec((any::<u8>(), arb_op()), 1..120),
    ) {
        const MAX_COPIES: usize = 5;
        let mut copies = vec![SlottedPage::new(512)];
        let mut refs = vec![Reference::new(512)];
        for (target, op) in ops {
            let i = target as usize % copies.len();
            let (page, r) = (&mut copies[i], &mut refs[i]);
            let pick = |k: u8, r: &Reference| {
                let live: Vec<u16> = (0..r.count()).filter(|s| r.get(*s).is_some()).collect();
                (!live.is_empty()).then(|| live[k as usize % live.len()])
            };
            match op {
                Op::Insert(bytes) => prop_assert_eq!(page.insert(&bytes), r.insert(&bytes)),
                Op::Update(k, bytes) => {
                    if let Some(slot) = pick(k, r) {
                        prop_assert_eq!(page.update(slot, &bytes), r.update(slot, &bytes));
                    }
                }
                Op::Delete(k) => {
                    if let Some(slot) = pick(k, r) {
                        page.delete(slot);
                        r.delete(slot);
                    }
                }
                Op::Compact => {
                    page.compact();
                    r.compact();
                }
                Op::SetLsn(lsn) => {
                    page.set_lsn(lsn);
                    r.set_lsn(lsn);
                }
                Op::Clone(n) => {
                    let n = n as usize % copies.len();
                    if copies.len() < MAX_COPIES {
                        let copy = copies[n].clone();
                        prop_assert!(copy.shares_buffer_with(&copies[n]));
                        copies.push(copy);
                        refs.push(refs[n].clone());
                    }
                }
            }
            for (page, r) in copies.iter().zip(&refs) {
                prop_assert_eq!(page.as_bytes(), &r.data[..]);
                prop_assert_eq!(page.lsn().to_le_bytes(), r.data[0..8]);
                for slot in 0..r.count() {
                    prop_assert_eq!(page.get(slot), r.get(slot));
                    let slice = page.slice(slot);
                    prop_assert_eq!(slice.as_deref(), r.get(slot));
                }
            }
        }
        for (page, r) in copies.iter().zip(&refs) {
            prop_assert_eq!(encoded(page), reference_encoding(r));
        }
    }
}

/// A write to a shared page takes its own image: the clone and a slice
/// taken before the write keep the old bytes.
#[test]
fn a_write_to_a_shared_page_leaves_its_clone_and_its_slices_their_bytes() {
    let mut page = SlottedPage::new(256);
    let slot = page.insert(b"before").expect("fits");
    let snapshot = page.clone();
    let slice = page.slice(slot).expect("live");
    page.update(slot, b"after!").expect("same size");
    assert!(!page.shares_buffer_with(&snapshot));
    assert_eq!(&*slice, b"before");
    assert_eq!(snapshot.get(slot), Some(&b"before"[..]));
    assert_eq!(page.get(slot), Some(&b"after!"[..]));
}
