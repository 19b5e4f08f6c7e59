//! Per-object availability bits (paper §4.1): "a page-based buffer
//! manager [is] extended to keep track of the 'available' objects within
//! each cached page."
//!
//! A mask covers up to 62 real object slots plus the page's reserved
//! *dummy object* (paper §4.3.2), which occupies the top bit.

use pscc_common::ids::DUMMY_SLOT;

const DUMMY_BIT: u64 = 1 << 63;
/// Maximum real slot index representable.
pub const MAX_SLOT: u16 = 62;

/// A bitmask of available objects within one cached page copy.
///
/// # Examples
///
/// ```
/// # use pscc_storage::AvailMask;
/// let mut m = AvailMask::all_available(5);
/// assert!(m.is_available(3));
/// m.set_unavailable(3);
/// assert!(!m.is_available(3));
/// assert!(m.is_dummy_available());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct AvailMask {
    bits: u64,
}

impl AvailMask {
    /// A mask with no objects available (not even the dummy).
    pub const NONE: AvailMask = AvailMask { bits: 0 };

    /// A mask with the first `n_slots` objects and the dummy available.
    ///
    /// # Panics
    ///
    /// Panics if `n_slots > 63`.
    pub fn all_available(n_slots: u16) -> Self {
        assert!(
            n_slots as u32 <= MAX_SLOT as u32 + 1,
            "too many slots for mask"
        );
        let bits = if n_slots == 0 {
            0
        } else {
            (1u64 << n_slots) - 1
        };
        AvailMask {
            bits: bits | DUMMY_BIT,
        }
    }

    fn bit(slot: u16) -> u64 {
        if slot == DUMMY_SLOT {
            DUMMY_BIT
        } else {
            assert!(slot <= MAX_SLOT, "slot {slot} out of mask range");
            1u64 << slot
        }
    }

    /// Whether `slot` (possibly [`DUMMY_SLOT`]) is available.
    pub fn is_available(&self, slot: u16) -> bool {
        self.bits & Self::bit(slot) != 0
    }

    /// Marks `slot` available.
    pub fn set_available(&mut self, slot: u16) {
        self.bits |= Self::bit(slot);
    }

    /// Marks `slot` unavailable (the object is purged from this copy).
    pub fn set_unavailable(&mut self, slot: u16) {
        self.bits &= !Self::bit(slot);
    }

    /// Whether the dummy object is available.
    pub fn is_dummy_available(&self) -> bool {
        self.bits & DUMMY_BIT != 0
    }

    /// Whether the first `n_slots` objects *and* the dummy are all
    /// available — the paper's "fully cached" test (§4.3.2).
    pub fn fully_available(&self, n_slots: u16) -> bool {
        self.bits & Self::all_available(n_slots).bits == Self::all_available(n_slots).bits
    }

    /// Number of available real slots among the first `n_slots`.
    pub fn count_available(&self, n_slots: u16) -> u32 {
        let real = if n_slots == 0 {
            0
        } else {
            (1u64 << n_slots) - 1
        };
        (self.bits & real).count_ones()
    }

    /// Union with another mask (both copies' availabilities).
    pub fn union(&self, other: AvailMask) -> AvailMask {
        AvailMask {
            bits: self.bits | other.bits,
        }
    }
}

pscc_common::impl_wire!(struct AvailMask { bits });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_available_includes_dummy() {
        let m = AvailMask::all_available(20);
        assert!(m.fully_available(20));
        assert!(m.is_dummy_available());
        for s in 0..20 {
            assert!(m.is_available(s));
        }
        assert!(!m.is_available(20));
    }

    #[test]
    fn set_clear_roundtrip() {
        let mut m = AvailMask::NONE;
        assert!(!m.is_available(7));
        m.set_available(7);
        assert!(m.is_available(7));
        m.set_unavailable(7);
        assert!(!m.is_available(7));
    }

    #[test]
    fn dummy_slot_is_independent() {
        let mut m = AvailMask::all_available(4);
        m.set_unavailable(DUMMY_SLOT);
        assert!(!m.is_dummy_available());
        assert!(m.is_available(0));
        assert!(!m.fully_available(4));
        m.set_available(DUMMY_SLOT);
        assert!(m.fully_available(4));
    }

    #[test]
    fn count_and_union() {
        let mut a = AvailMask::NONE;
        a.set_available(0);
        a.set_available(2);
        let mut b = AvailMask::NONE;
        b.set_available(2);
        b.set_available(3);
        let u = a.union(b);
        assert_eq!(u.count_available(8), 3);
    }

    #[test]
    fn zero_slots() {
        let m = AvailMask::all_available(0);
        assert!(m.is_dummy_available());
        assert_eq!(m.count_available(0), 0);
        assert!(m.fully_available(0));
    }

    #[test]
    #[should_panic(expected = "out of mask range")]
    fn oversized_slot_panics() {
        let _ = AvailMask::NONE.is_available(63);
    }
}
