//! The no-lost-update ledger: what the benchmark believes it wrote.
//!
//! `AppOp::Write { bytes: None }` bumps a little-endian counter in an
//! object's first eight bytes, and every object starts at zero. So after
//! the drain each object's counter must equal the number of such writes
//! by *committed* transactions. A lost update, a dirty write that
//! survived an abort, or a write applied twice shows as a mismatch.

use pscc_common::Oid;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// The most-written objects always checked, whatever the sample.
const ALWAYS_CHECK: usize = 500;

/// Committed `Write{bytes:None}` ops per object.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    counts: HashMap<Oid, u64>,
}

impl Ledger {
    /// Records the writes of one committed transaction.
    pub fn commit(&mut self, script: &[(Oid, bool)]) {
        for (oid, _) in script.iter().filter(|(_, write)| *write) {
            *self.counts.entry(*oid).or_default() += 1;
        }
    }

    /// Folds another generator's ledger into this one.
    pub fn merge(&mut self, other: Ledger) {
        for (oid, n) in other.counts {
            *self.counts.entry(oid).or_default() += n;
        }
    }

    /// Objects written at least once.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// The `(object, expected counter)` pairs to verify, in a
    /// reproducible order: all of them up to `cap`, else the
    /// [`ALWAYS_CHECK`] most-written plus a seeded sample of the rest.
    pub fn to_verify(&self, cap: usize, seed: u64) -> Vec<(Oid, u64)> {
        let mut all: Vec<(Oid, u64)> = self.counts.iter().map(|(o, n)| (*o, *n)).collect();
        // Most-written first; the object id breaks ties so that the
        // HashMap's iteration order never reaches the result.
        all.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        if all.len() <= cap {
            return all;
        }
        let keep = ALWAYS_CHECK.min(cap);
        let mut rng = StdRng::seed_from_u64(seed);
        // Partial Fisher-Yates over the tail.
        for i in keep..cap {
            let j = rng.gen_range(i..all.len());
            all.swap(i, j);
        }
        all.truncate(cap);
        all
    }
}

/// The counter an object's bytes carry.
pub fn counter_of(data: &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(data.get(0..8)?.try_into().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscc_common::{FileId, PageId, VolId};

    fn oid(page: u32, slot: u16) -> Oid {
        Oid::new(PageId::new(FileId::new(VolId(0), 0), page), slot)
    }

    #[test]
    fn counts_only_writes_and_merges() {
        let mut a = Ledger::default();
        a.commit(&[(oid(1, 0), true), (oid(1, 1), false), (oid(1, 0), true)]);
        let mut b = Ledger::default();
        b.commit(&[(oid(1, 0), true), (oid(2, 0), true)]);
        a.merge(b);
        assert_eq!(a.len(), 2);
        let v = a.to_verify(10, 1);
        assert_eq!(v, vec![(oid(1, 0), 3), (oid(2, 0), 1)]);
    }

    #[test]
    fn sample_keeps_the_most_written_and_repeats() {
        let mut l = Ledger::default();
        for p in 0..2_000u32 {
            l.commit(&[(oid(p, 0), true)]);
        }
        for p in 0..ALWAYS_CHECK as u32 {
            l.commit(&[(oid(p, 0), true)]);
        }
        let v = l.to_verify(800, 7);
        assert_eq!(v.len(), 800);
        assert!(v[..ALWAYS_CHECK].iter().all(|(_, n)| *n == 2));
        assert!(v[ALWAYS_CHECK..].iter().all(|(_, n)| *n == 1));
        assert_eq!(v, l.to_verify(800, 7));
        assert_ne!(v, l.to_verify(800, 8));
        let distinct: std::collections::HashSet<_> = v.iter().map(|(o, _)| *o).collect();
        assert_eq!(distinct.len(), 800);
    }

    #[test]
    fn reads_the_counter() {
        let mut bytes = vec![0u8; 16];
        bytes[0] = 5;
        assert_eq!(counter_of(&bytes), Some(5));
        assert_eq!(counter_of(&[1, 2, 3]), None);
    }
}
