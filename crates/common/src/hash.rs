//! The workspace's one hasher, behind every `HashMap` and `HashSet`.
//!
//! Every table key here is a small integer id (a site, a transaction, a
//! page, an object, a request number). Some ids arrive from peers, but
//! the failure model has crash and omission faults and no malicious peer
//! (DESIGN.md §6), so no table needs protection against keys chosen to
//! collide. SipHash, which
//! `std`'s `RandomState` uses for that protection, cost a fifth of the
//! simulator's time. [`FixedHasher`] is a multiply-rotate hash instead:
//! each word does `state = (state + word) * K`, and `finish` rotates the
//! well-mixed high bits down to where the table takes its bucket index.
//! The constants are those of rustc's `FxHasher`.
//!
//! A map's hasher starts from a seed that [`FixedState::default`] reads
//! once, when the map is built. It is 0 unless a test runs under
//! [`with_hash_seed`], which lets a run-twice determinism test build its
//! second copy with a different iteration order and so still fail when a
//! decision follows hash order (DESIGN.md §13).
//!
//! Clippy's `disallowed-types` keeps `std`'s own `HashMap` / `HashSet` out
//! of the workspace; use [`HashMap`] and [`HashSet`] from here.

use std::cell::Cell;
use std::hash::{BuildHasher, Hasher};

/// The multiplier of each word; rustc-hash 2's 64-bit constant.
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// A `HashMap` with the workspace's hasher. Build one with `default()`
/// or `with_capacity_and_hasher(n, Default::default())`.
#[allow(clippy::disallowed_types)]
pub type HashMap<K, V> = std::collections::HashMap<K, V, FixedState>;

/// A `HashSet` with the workspace's hasher.
#[allow(clippy::disallowed_types)]
pub type HashSet<T> = std::collections::HashSet<T, FixedState>;

/// A multiply-rotate hasher for integer keys. Not resistant to keys
/// chosen to collide; see the module docs for why none are.
#[derive(Debug)]
pub struct FixedHasher {
    state: u64,
}

impl FixedHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.state = self.state.wrapping_add(word).wrapping_mul(K);
    }
}

impl std::hash::Hasher for FixedHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // The length first, so strings that differ only in trailing
        // zero bytes hash apart; then whole words, then the zero-padded
        // rest.
        self.add(bytes.len() as u64);
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("an 8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state.rotate_left(26)
    }
}

thread_local! {
    static SEED: Cell<u64> = const { Cell::new(0) };
}

/// Builds [`FixedHasher`]s that start from this map's seed.
#[derive(Debug, Clone, Copy)]
pub struct FixedState {
    seed: u64,
}

impl Default for FixedState {
    /// Reads the seed of the calling thread: 0, or the one a
    /// [`with_hash_seed`] around the caller set. The map keeps it for its
    /// whole life, so changing the seed never moves a live map's keys.
    fn default() -> Self {
        FixedState {
            seed: SEED.with(Cell::get),
        }
    }
}

impl BuildHasher for FixedState {
    type Hasher = FixedHasher;

    #[inline]
    fn build_hasher(&self) -> FixedHasher {
        FixedHasher { state: self.seed }
    }
}

/// Runs `f` with every map and set it builds on this thread seeded with
/// `seed`, then restores the previous seed (also if `f` panics). For
/// determinism tests only: the same work under two seeds visits its
/// tables in two orders, and must still give the same answer.
#[doc(hidden)]
pub fn with_hash_seed<R>(seed: u64, f: impl FnOnce() -> R) -> R {
    struct Restore(u64);
    impl Drop for Restore {
        fn drop(&mut self) {
            SEED.with(|s| s.set(self.0));
        }
    }
    let _restore = Restore(SEED.with(|s| s.replace(seed)));
    f()
}

/// FNV-1a (64-bit) over `bytes`: a fingerprint that no hash seed moves,
/// for golden values pinned in tests.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A 32-bit checksum of `bytes` that no hash seed moves, for frames that
/// outlive the process: the seed-0 [`FixedHasher`] over them (their
/// length, then eight bytes per multiply), then MurmurHash3's 64-bit
/// finalizer, folded to 32 bits. Every step after a word is a bijection
/// of the state, so a change to one word always changes the 64-bit
/// result; the finalizer spreads that change over both halves before
/// the fold.
pub fn checksum32(bytes: &[u8]) -> u32 {
    let mut h = FixedHasher { state: 0 };
    h.write(bytes);
    let mut x = h.finish();
    x = (x ^ (x >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    x = (x ^ (x >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^= x >> 33;
    (x ^ (x >> 32)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FileId, Oid, PageId, VolId};

    fn page(p: u32) -> PageId {
        PageId::new(FileId::new(VolId(1), 0), p)
    }

    /// An identity hash: the last word written, as is.
    #[derive(Default)]
    struct LastWord(u64);

    impl Hasher for LastWord {
        fn write(&mut self, _: &[u8]) {
            unreachable!("ids write integers")
        }
        fn write_u16(&mut self, i: u16) {
            self.0 = u64::from(i);
        }
        fn write_u32(&mut self, i: u32) {
            self.0 = u64::from(i);
        }
        fn finish(&self) -> u64 {
            self.0
        }
    }

    /// Checks that 4 096 consecutive pages and objects spread over the
    /// buckets and the tags of the table hashbrown builds for them.
    ///
    /// hashbrown keeps a table at most 7/8 full, so 4 096 keys get 8 192
    /// buckets, indexed by the low 13 bits of the hash; its 7-bit tag is
    /// the top 7 bits. A random hash fills 2·(1 − e^−½) ≈ 78.7 % of the
    /// buckets the keys could at most fill, and all 128 tags.
    fn spread_check(state: &impl BuildHasher) -> Result<(), String> {
        let pages: Vec<PageId> = (0..4096).map(page).collect();
        let oids: Vec<Oid> = (0..4096u32)
            .map(|i| Oid::new(page(i / 16), (i % 16) as u16))
            .collect();
        let distinct = |hashes: &[u64], bits: &dyn Fn(u64) -> u64, width: u32| {
            let seen: std::collections::BTreeSet<u64> = hashes.iter().map(|&h| bits(h)).collect();
            seen.len() as f64 / hashes.len().min(1 << width) as f64
        };
        for (what, hashes) in [
            (
                "pages",
                pages.iter().map(|k| state.hash_one(k)).collect::<Vec<_>>(),
            ),
            ("oids", oids.iter().map(|k| state.hash_one(k)).collect()),
        ] {
            let buckets = distinct(&hashes, &|h| h & 0x1fff, 13);
            let tags = distinct(&hashes, &|h| h >> 57, 7);
            if buckets < 0.75 || tags < 0.9 {
                return Err(format!(
                    "{what}: {:.1} % distinct buckets, {:.1} % distinct tags",
                    buckets * 100.0,
                    tags * 100.0
                ));
            }
        }
        Ok(())
    }

    #[test]
    fn equal_keys_hash_equal() {
        let a = FixedState::default();
        let b = FixedState::default();
        let o = Oid::new(page(7), 3);
        assert_eq!(a.hash_one(o), b.hash_one(Oid::new(page(7), 3)));
        assert_eq!(a.hash_one("abc"), b.hash_one(String::from("abc")));
    }

    #[test]
    fn seeds_change_every_hash() {
        let zero = FixedState::default();
        let other = with_hash_seed(0x9e37_79b9_7f4a_7c15, FixedState::default);
        assert_eq!(with_hash_seed(5, || SEED.with(Cell::get)), 5);
        assert_eq!(SEED.with(Cell::get), 0, "the seed is restored");
        for p in 0..256 {
            assert_ne!(zero.hash_one(page(p)), other.hash_one(page(p)));
        }
    }

    #[test]
    fn byte_strings_of_different_lengths_differ() {
        let hash_bytes = |b: &[u8]| {
            let mut h = FixedState { seed: 0 }.build_hasher();
            h.write(b);
            h.finish()
        };
        let lens: Vec<u64> = (0..=17).map(|n| hash_bytes(&vec![0u8; n])).collect();
        let distinct: std::collections::BTreeSet<_> = lens.iter().collect();
        assert_eq!(distinct.len(), lens.len(), "zero strings of 0..=17 bytes");
        assert_ne!(hash_bytes(b"abcdefgh"), hash_bytes(b"abcdefgh\0"));
    }

    #[test]
    fn checksum_ignores_the_seed_and_sees_every_byte() {
        let bytes: Vec<u8> = (0..61u8).map(|b| b.wrapping_mul(37)).collect();
        let sum = checksum32(&bytes);
        for seed in 1..=3 {
            assert_eq!(with_hash_seed(seed, || checksum32(&bytes)), sum);
        }
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(checksum32(&flipped), sum, "bit {bit} of byte {i}");
            }
        }
        // The length counts: trailing zeros are not padding.
        assert_ne!(checksum32(&[0; 5]), checksum32(&[0; 6]));
        assert_ne!(checksum32(&[]), checksum32(&[0; 8]));
    }

    #[test]
    fn sequential_ids_spread_over_buckets_and_tags() {
        spread_check(&FixedState::default()).unwrap();
        // The check has teeth: an identity hash gives every key tag 0,
        // and an object's slot alone picks its bucket.
        let identity = std::hash::BuildHasherDefault::<LastWord>::default();
        assert!(spread_check(&identity).is_err());
    }
}
