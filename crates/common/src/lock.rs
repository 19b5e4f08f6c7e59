//! The five multigranularity lock modes of Gray's hierarchical locking
//! scheme (paper §4, ref. 12): `IS`, `IX`, `SH`, `SIX`, `EX`, with the
//! standard compatibility matrix and the supremum (least-upper-bound)
//! table used for lock conversions.

use std::fmt;

/// A multigranularity lock mode.
///
/// Ordering note: the derived `Ord` is *not* the lock-strength lattice
/// (`SH` and `IX` are incomparable); use [`LockMode::sup`] and
/// [`LockMode::covers`] for lattice queries.
///
/// # Examples
///
/// ```
/// # use pscc_common::LockMode;
/// assert!(LockMode::Is.compatible(LockMode::Six));
/// assert!(!LockMode::Six.compatible(LockMode::Six));
/// assert_eq!(LockMode::Sh.sup(LockMode::Ix), LockMode::Six);
/// assert!(LockMode::Ex.covers(LockMode::Sh));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum LockMode {
    /// Intention shared.
    #[default]
    Is,
    /// Intention exclusive.
    Ix,
    /// Shared.
    Sh,
    /// Shared + intention exclusive.
    Six,
    /// Exclusive.
    Ex,
}

impl LockMode {
    /// All modes, in declaration order.
    pub const ALL: [LockMode; 5] = [
        LockMode::Is,
        LockMode::Ix,
        LockMode::Sh,
        LockMode::Six,
        LockMode::Ex,
    ];

    /// Whether two modes held by *different* transactions can coexist.
    ///
    /// The matrix (rows = held, columns = requested):
    ///
    /// |     | IS | IX | SH | SIX | EX |
    /// |-----|----|----|----|-----|----|
    /// | IS  | ✓  | ✓  | ✓  | ✓   | ✗  |
    /// | IX  | ✓  | ✓  | ✗  | ✗   | ✗  |
    /// | SH  | ✓  | ✗  | ✓  | ✗   | ✗  |
    /// | SIX | ✓  | ✗  | ✗  | ✗   | ✗  |
    /// | EX  | ✗  | ✗  | ✗  | ✗   | ✗  |
    #[inline]
    pub fn compatible(self, other: LockMode) -> bool {
        use LockMode::*;
        match (self, other) {
            (Is, Ex) | (Ex, Is) => false,
            (Is, _) | (_, Is) => true,
            (Ix, Ix) | (Sh, Sh) => true,
            _ => false,
        }
    }

    /// Least upper bound of two modes in the lock-strength lattice; used
    /// when a transaction converts a lock it already holds.
    #[inline]
    pub fn sup(self, other: LockMode) -> LockMode {
        use LockMode::*;
        match (self, other) {
            (a, b) if a == b => a,
            (Is, x) | (x, Is) => x,
            (Ex, _) | (_, Ex) => Ex,
            (Six, _) | (_, Six) => Six,
            (Ix, Sh) | (Sh, Ix) => Six,
            // Remaining pairs are equal-mode, already handled.
            (a, _) => a,
        }
    }

    /// Whether holding `self` implies every right granted by `other`
    /// (i.e. `sup(self, other) == self`).
    #[inline]
    pub fn covers(self, other: LockMode) -> bool {
        self.sup(other) == self
    }

    /// Whether this mode permits reading the granule itself (not merely
    /// intent on descendants).
    pub fn is_read(self) -> bool {
        matches!(self, LockMode::Sh | LockMode::Six | LockMode::Ex)
    }

    /// Whether this mode permits writing the granule itself.
    pub fn is_write(self) -> bool {
        matches!(self, LockMode::Ex)
    }

    /// Whether this is an intention mode (`IS`, `IX`, or `SIX`, which
    /// carries intent in addition to `SH`).
    pub fn is_intention(self) -> bool {
        matches!(self, LockMode::Is | LockMode::Ix | LockMode::Six)
    }

    /// The intention mode a request in this mode requires on every
    /// ancestor granule (paper §4: "the lock manager automatically
    /// acquires the appropriate intention mode locks on the ancestors").
    #[inline]
    pub fn ancestor_intention(self) -> LockMode {
        match self {
            LockMode::Is | LockMode::Sh => LockMode::Is,
            LockMode::Ix | LockMode::Ex | LockMode::Six => LockMode::Ix,
        }
    }
}

impl fmt::Display for LockMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LockMode::Is => "IS",
            LockMode::Ix => "IX",
            LockMode::Sh => "SH",
            LockMode::Six => "SIX",
            LockMode::Ex => "EX",
        };
        f.write_str(s)
    }
}

crate::impl_wire!(
    enum LockMode {
        Is,
        Ix,
        Sh,
        Six,
        Ex,
    }
);

#[cfg(test)]
mod tests {
    use super::LockMode::{self, *};

    /// The textbook compatibility matrix, row = held, col = requested.
    const MATRIX: [[bool; 5]; 5] = [
        // IS     IX     SH     SIX    EX
        [true, true, true, true, false],     // IS
        [true, true, false, false, false],   // IX
        [true, false, true, false, false],   // SH
        [true, false, false, false, false],  // SIX
        [false, false, false, false, false], // EX
    ];

    #[test]
    fn compatibility_matches_grays_matrix() {
        for (i, held) in LockMode::ALL.iter().enumerate() {
            for (j, req) in LockMode::ALL.iter().enumerate() {
                assert_eq!(held.compatible(*req), MATRIX[i][j], "compat({held}, {req})");
            }
        }
    }

    #[test]
    fn compatibility_is_symmetric() {
        for a in LockMode::ALL {
            for b in LockMode::ALL {
                assert_eq!(a.compatible(b), b.compatible(a), "sym({a},{b})");
            }
        }
    }

    #[test]
    fn sup_is_commutative_idempotent_and_bounded() {
        for a in LockMode::ALL {
            assert_eq!(a.sup(a), a);
            for b in LockMode::ALL {
                let s = a.sup(b);
                assert_eq!(s, b.sup(a), "comm({a},{b})");
                assert!(s.covers(a), "sup({a},{b})={s} must cover {a}");
                assert!(s.covers(b), "sup({a},{b})={s} must cover {b}");
            }
        }
    }

    #[test]
    fn sup_is_associative() {
        for a in LockMode::ALL {
            for b in LockMode::ALL {
                for c in LockMode::ALL {
                    assert_eq!(a.sup(b).sup(c), a.sup(b.sup(c)));
                }
            }
        }
    }

    #[test]
    fn known_sups() {
        assert_eq!(Ix.sup(Sh), Six);
        assert_eq!(Is.sup(Ex), Ex);
        assert_eq!(Six.sup(Ix), Six);
        assert_eq!(Sh.sup(Ex), Ex);
    }

    #[test]
    fn stronger_mode_is_never_more_compatible() {
        // If s covers w, then anything compatible with s is compatible
        // with w (monotonicity of the matrix along the lattice).
        for w in LockMode::ALL {
            for s in LockMode::ALL {
                if s.covers(w) {
                    for o in LockMode::ALL {
                        if s.compatible(o) {
                            assert!(w.compatible(o), "{s} covers {w} but {w} !compat {o}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn ancestor_intentions() {
        assert_eq!(Sh.ancestor_intention(), Is);
        assert_eq!(Is.ancestor_intention(), Is);
        assert_eq!(Ex.ancestor_intention(), Ix);
        assert_eq!(Ix.ancestor_intention(), Ix);
        assert_eq!(Six.ancestor_intention(), Ix);
    }

    #[test]
    fn read_write_predicates() {
        assert!(Sh.is_read() && Six.is_read() && Ex.is_read());
        assert!(!Is.is_read() && !Ix.is_read());
        assert!(Ex.is_write() && !Six.is_write());
        assert!(Is.is_intention() && Ix.is_intention() && Six.is_intention());
        assert!(!Sh.is_intention() && !Ex.is_intention());
    }
}
