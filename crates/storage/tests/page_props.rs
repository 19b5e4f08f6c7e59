//! Property tests: the slotted page must behave like a `HashMap<slot,
//! Vec<u8>>` under any sequence of inserts, updates, and deletes, and
//! must never lose bytes to fragmentation that compaction could reclaim;
//! every image it builds must pass the wire decoder's layout check, and
//! every image that passes it must be safe to operate on.

use proptest::prelude::*;
use pscc_common::hash::HashMap;
use pscc_common::wire::{self, Wire};
use pscc_storage::{SlottedPage, HEADER_SIZE, SLOT_SIZE};

#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<u8>),
    Update(u8, Vec<u8>),
    Delete(u8),
    Compact,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..60).prop_map(Op::Insert),
        (any::<u8>(), proptest::collection::vec(any::<u8>(), 0..60))
            .prop_map(|(s, b)| Op::Update(s, b)),
        any::<u8>().prop_map(Op::Delete),
        Just(Op::Compact),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn page_matches_model(ops in proptest::collection::vec(arb_op(), 1..80)) {
        let mut page = SlottedPage::new(1024);
        let mut model: HashMap<u16, Vec<u8>> = HashMap::default();

        for op in ops {
            match op {
                Op::Insert(bytes) => {
                    if let Some(slot) = page.insert(&bytes) {
                        prop_assert!(!model.contains_key(&slot), "slot reuse of a live slot");
                        model.insert(slot, bytes);
                    } else {
                        // Failure legal only if it genuinely doesn't fit.
                        prop_assert!(
                            page.free_space() < bytes.len() + SLOT_SIZE,
                            "insert refused though free={} len={}",
                            page.free_space(),
                            bytes.len()
                        );
                    }
                }
                Op::Update(k, bytes) => {
                    let slots: Vec<u16> = model.keys().copied().collect();
                    if slots.is_empty() { continue; }
                    let slot = slots[k as usize % slots.len()];
                    match page.update(slot, &bytes) {
                        Ok(()) => { model.insert(slot, bytes); }
                        Err(()) => {
                            let old = model[&slot].len();
                            prop_assert!(
                                page.free_space() + old < bytes.len(),
                                "update refused though reclaimable space sufficed"
                            );
                        }
                    }
                }
                Op::Delete(k) => {
                    let slots: Vec<u16> = model.keys().copied().collect();
                    if slots.is_empty() { continue; }
                    let slot = slots[k as usize % slots.len()];
                    page.delete(slot);
                    model.remove(&slot);
                }
                Op::Compact => page.compact(),
            }

            // Model equivalence after every op.
            for (slot, bytes) in &model {
                prop_assert_eq!(page.get(*slot), Some(&bytes[..]));
            }
            let live = page.live_slots();
            prop_assert_eq!(live.len(), model.len());

            // Space accounting: total bytes + free space + slot array +
            // header never exceeds the page.
            let used: usize = model.values().map(Vec::len).sum();
            prop_assert!(
                used + page.free_space() + HEADER_SIZE
                    + SLOT_SIZE * page.slot_count() as usize
                    <= page.size() + 64 // small slack for dead-slot descriptors
            );
        }

        // Serialization: a byte-level round trip preserves everything,
        // and the decoder's layout check accepts what the methods built.
        let copy = SlottedPage::from_bytes(page.as_bytes().to_vec());
        for (slot, bytes) in &model {
            prop_assert_eq!(copy.get(*slot), Some(&bytes[..]));
        }
        let mut image = Vec::new();
        page.put(&mut image);
        prop_assert_eq!(wire::decode::<SlottedPage>(&image), Ok(page));
    }

    /// A peer's page image with corrupted header or slot bytes either
    /// fails to decode or is a page every method works on.
    #[test]
    fn decoded_images_are_safe_to_use(
        lens in proptest::collection::vec(0usize..60, 0..12),
        flips in proptest::collection::vec((0usize..40, any::<u8>()), 1..6),
        body in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let mut page = SlottedPage::new(512);
        for (i, len) in lens.iter().enumerate() {
            page.insert(&vec![i as u8; *len]);
            if i % 3 == 2 {
                page.delete((i / 2) as u16);
            }
        }
        let mut image = Vec::new();
        page.put(&mut image);
        // Bytes 4..20 are the page header, the last 20 its slot array.
        let n = image.len();
        for (at, value) in flips {
            let pos = if at < 16 { 4 + at } else { n - (at - 15) };
            image[pos] = value;
        }
        if let Ok(mut got) = wire::decode::<SlottedPage>(&image) {
            for slot in 0..got.slot_count() {
                let _ = got.get(slot);
            }
            let live = got.live_slots();
            if let Some(&slot) = live.first() {
                let _ = got.update(slot, &body);
                got.delete(slot);
            }
            let _ = got.insert(&body);
            if let Some(&slot) = live.last() {
                let _ = got.update(slot, &body);
            }
            got.compact();
            let _ = got.insert(&body);
            prop_assert!(got.free_space() <= got.size());
        }
    }

    #[test]
    fn compaction_is_transparent(lens in proptest::collection::vec(1usize..50, 1..15),
                                 dels in proptest::collection::vec(any::<bool>(), 1..15)) {
        let mut page = SlottedPage::new(2048);
        let mut live = Vec::new();
        for (i, len) in lens.iter().enumerate() {
            if let Some(s) = page.insert(&vec![i as u8; *len]) {
                live.push((s, vec![i as u8; *len]));
            }
        }
        for (i, d) in dels.iter().enumerate() {
            if *d && i < live.len() {
                page.delete(live[i].0);
            }
        }
        let expected: Vec<_> = live
            .iter()
            .enumerate()
            .filter(|(i, _)| !(*i < dels.len() && dels[*i]))
            .map(|(_, e)| e.clone())
            .collect();
        page.compact();
        for (s, bytes) in &expected {
            prop_assert_eq!(page.get(*s), Some(&bytes[..]));
        }
    }
}
