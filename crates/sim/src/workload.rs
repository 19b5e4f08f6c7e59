//! The workload model of the paper's Table 2.
//!
//! Each application generates transactions as strings of object
//! references. A transaction touches `trans_size` pages on average; on
//! each page it accesses `page_locality` objects (uniform in the given
//! range); page choice is directed to the application's *hot range* with
//! probability `hot_acc_prob`, otherwise to its cold range; each object
//! read leads to an update with the region's write probability.
//!
//! | Parameter | HOTCOLD | UNIFORM | HICON |
//! |---|---|---|---|
//! | TransSize | 90 or 30 | 90 or 30 | 90 or 30 |
//! | PageLocality | 1–7 or 8–16 | 〃 | 〃 |
//! | HotBounds (app *n*) | `450(n-1)..450n` | — | `0..2250` |
//! | ColdBounds | rest of DB | whole DB | rest of DB |
//! | HotAccProb | 0.8 | — | 0.8 |
//! | Write prob | 0.02–0.5 | 0.02–0.5 | 0.02–0.5 |

use pscc_common::{FileId, Oid, PageId, SystemConfig, VolId};
use rand::Rng;

/// Which of the paper's three data-sharing patterns to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// High per-application locality, moderate sharing (80% of accesses
    /// to a private 450-page hot range).
    HotCold,
    /// No affinity: uniform over the whole database.
    Uniform,
    /// All applications share the same 2 250-page skew range — very high
    /// contention.
    HiCon,
    /// Every application directs `hot_acc_prob` of its accesses at the
    /// *same* `hot_range_pages`-page range — a flash crowd descending on
    /// one hot file. Run read-mostly, this is the edge tier's showcase:
    /// one owner fields the whole crowd under Strict, while a
    /// bounded-stale tier absorbs the re-reads at the edges
    /// (DESIGN.md §11).
    FlashCrowd,
    /// Accesses uniform over the shared `hicon_range_pages` range with
    /// no cold tail: every client touches every owner's pages,
    /// maximizing the owner→edge invalidation fan-out under
    /// watch-based tiers.
    Fanout,
}

impl std::fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            WorkloadKind::HotCold => "HOTCOLD",
            WorkloadKind::Uniform => "UNIFORM",
            WorkloadKind::HiCon => "HICON",
            WorkloadKind::FlashCrowd => "FLASHCROWD",
            WorkloadKind::Fanout => "FANOUT",
        };
        f.write_str(s)
    }
}

/// A fully parameterized workload (Table 2 row).
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// The sharing pattern.
    pub kind: WorkloadKind,
    /// Mean pages accessed per transaction (90 or 30 in the paper).
    pub trans_size: u32,
    /// Objects accessed per page: inclusive range (1–7 or 8–16).
    pub page_locality: (u16, u16),
    /// Probability a page access goes to the hot range (0.8; unused for
    /// UNIFORM).
    pub hot_acc_prob: f64,
    /// Probability an object read leads to an update, hot range.
    pub hot_write_prob: f64,
    /// Probability an object read leads to an update, cold range.
    pub cold_write_prob: f64,
    /// Pages per application hot range (450 in the paper's HOTCOLD).
    pub hot_range_pages: u32,
    /// The shared skew range for HICON (2 250 pages).
    pub hicon_range_pages: u32,
}

impl WorkloadSpec {
    /// The paper's setting for `kind` at the given write probability and
    /// (trans_size, locality) pair.
    pub fn paper(kind: WorkloadKind, write_prob: f64, high_locality: bool) -> Self {
        let (trans_size, page_locality) = if high_locality {
            (30, (8, 16))
        } else {
            (90, (1, 7))
        };
        WorkloadSpec {
            kind,
            trans_size,
            page_locality,
            hot_acc_prob: 0.8,
            hot_write_prob: write_prob,
            cold_write_prob: write_prob,
            hot_range_pages: 450,
            hicon_range_pages: 2_250,
        }
    }

    /// A scaled-down variant for tests/quick runs: ranges shrink with the
    /// database.
    pub fn scaled(mut self, factor: u32) -> Self {
        self.hot_range_pages = (self.hot_range_pages / factor).max(4);
        self.hicon_range_pages = (self.hicon_range_pages / factor).max(8);
        self.trans_size = (self.trans_size / factor).max(3);
        self
    }

    /// The hot page-number range of application `n` (0-based) in a
    /// database of `db_pages` pages.
    pub fn hot_bounds(&self, app: u32, db_pages: u32) -> std::ops::Range<u32> {
        match self.kind {
            WorkloadKind::HotCold => {
                let lo = (app * self.hot_range_pages) % db_pages.max(1);
                let hi = (lo + self.hot_range_pages).min(db_pages);
                lo..hi
            }
            WorkloadKind::HiCon => 0..self.hicon_range_pages.min(db_pages),
            // One crowd, one range: every application shares the first
            // `hot_range_pages` pages.
            WorkloadKind::FlashCrowd => 0..self.hot_range_pages.min(db_pages),
            WorkloadKind::Fanout => 0..self.hicon_range_pages.min(db_pages),
            WorkloadKind::Uniform => 0..db_pages,
        }
    }

    /// Generates one transaction's reference string for application
    /// `app`: a list of `(object, is_update)` accesses.
    pub fn generate<R: Rng>(
        &self,
        app: u32,
        cfg: &SystemConfig,
        owner_vol: impl Fn(u32) -> VolId,
        rng: &mut R,
    ) -> Vec<(Oid, bool)> {
        let db = cfg.database_pages;
        let hot = self.hot_bounds(app, db);
        // Uniform around the mean: [ceil(T/2), floor(3T/2)].
        let lo = (self.trans_size / 2).max(1);
        let hi = self.trans_size + self.trans_size / 2;
        let n_pages = rng.gen_range(lo..=hi);
        let mut refs = Vec::new();
        for _ in 0..n_pages {
            let (page, wp) = match self.kind {
                WorkloadKind::Uniform => (rng.gen_range(0..db), self.cold_write_prob),
                WorkloadKind::Fanout if !hot.is_empty() => {
                    // No cold tail: fan out uniformly over the shared
                    // range.
                    (rng.gen_range(hot.clone()), self.cold_write_prob)
                }
                _ => {
                    if rng.gen_bool(self.hot_acc_prob) && !hot.is_empty() {
                        (rng.gen_range(hot.clone()), self.hot_write_prob)
                    } else {
                        // Cold: anywhere outside the hot range.
                        let mut p = rng.gen_range(0..db);
                        while hot.contains(&p) && hot.len() < db as usize {
                            p = rng.gen_range(0..db);
                        }
                        (p, self.cold_write_prob)
                    }
                }
            };
            let n_obj = rng
                .gen_range(self.page_locality.0..=self.page_locality.1)
                .min(cfg.objects_per_page);
            // Distinct slots on the page.
            let mut slots: Vec<u16> = (0..cfg.objects_per_page).collect();
            for i in 0..n_obj as usize {
                let j = rng.gen_range(i..slots.len());
                slots.swap(i, j);
            }
            let pid = PageId::new(FileId::new(owner_vol(page), 0), page);
            for &slot in slots.iter().take(n_obj as usize) {
                let write = rng.gen_bool(wp);
                refs.push((Oid::new(pid, slot), write));
            }
        }
        refs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg() -> SystemConfig {
        SystemConfig::paper()
    }

    #[test]
    fn hotcold_hot_ranges_are_disjoint() {
        let w = WorkloadSpec::paper(WorkloadKind::HotCold, 0.2, false);
        let a = w.hot_bounds(0, 11_250);
        let b = w.hot_bounds(1, 11_250);
        assert_eq!(a, 0..450);
        assert_eq!(b, 450..900);
    }

    #[test]
    fn hicon_ranges_are_shared() {
        let w = WorkloadSpec::paper(WorkloadKind::HiCon, 0.2, false);
        assert_eq!(w.hot_bounds(0, 11_250), w.hot_bounds(7, 11_250));
        assert_eq!(w.hot_bounds(0, 11_250), 0..2_250);
    }

    #[test]
    fn flashcrowd_ranges_are_shared_and_hot() {
        let w = WorkloadSpec::paper(WorkloadKind::FlashCrowd, 0.02, false);
        assert_eq!(w.hot_bounds(0, 11_250), w.hot_bounds(7, 11_250));
        assert_eq!(w.hot_bounds(0, 11_250), 0..450);
    }

    #[test]
    fn fanout_accesses_stay_in_shared_range() {
        let c = cfg();
        let w = WorkloadSpec::paper(WorkloadKind::Fanout, 0.02, false);
        let mut rng = StdRng::seed_from_u64(7);
        let refs = w.generate(3, &c, |_| VolId(0), &mut rng);
        assert!(!refs.is_empty());
        let range = w.hot_bounds(3, c.database_pages);
        assert!(refs.iter().all(|(o, _)| range.contains(&o.page.page)));
    }

    #[test]
    fn average_transaction_length_matches_paper() {
        // Both (90, 1–7) and (30, 8–16) should average ~360 objects.
        let c = cfg();
        let mut rng = StdRng::seed_from_u64(1);
        for high in [false, true] {
            let w = WorkloadSpec::paper(WorkloadKind::HotCold, 0.1, high);
            let total: usize = (0..200)
                .map(|_| w.generate(0, &c, |_| VolId(0), &mut rng).len())
                .sum();
            let avg = total as f64 / 200.0;
            assert!(
                (300.0..420.0).contains(&avg),
                "avg transaction length {avg} (high={high})"
            );
        }
    }

    #[test]
    fn hotcold_respects_hot_access_probability() {
        let c = cfg();
        let w = WorkloadSpec::paper(WorkloadKind::HotCold, 0.1, false);
        let mut rng = StdRng::seed_from_u64(2);
        let refs = w.generate(2, &c, |_| VolId(0), &mut rng);
        let hot = w.hot_bounds(2, c.database_pages);
        let in_hot = refs
            .iter()
            .filter(|(o, _)| hot.contains(&o.page.page))
            .count();
        let frac = in_hot as f64 / refs.len() as f64;
        assert!((0.6..0.95).contains(&frac), "hot fraction {frac}");
    }

    #[test]
    fn write_probability_is_respected() {
        let c = cfg();
        let mut rng = StdRng::seed_from_u64(3);
        for wp in [0.02, 0.5] {
            let w = WorkloadSpec::paper(WorkloadKind::Uniform, wp, false);
            let mut writes = 0usize;
            let mut total = 0usize;
            for _ in 0..50 {
                let refs = w.generate(0, &c, |_| VolId(0), &mut rng);
                writes += refs.iter().filter(|(_, w)| *w).count();
                total += refs.len();
            }
            let frac = writes as f64 / total as f64;
            assert!(
                (frac - wp).abs() < wp * 0.5 + 0.01,
                "write fraction {frac} for prob {wp}"
            );
        }
    }

    #[test]
    fn objects_on_page_are_distinct() {
        let c = cfg();
        let w = WorkloadSpec::paper(WorkloadKind::Uniform, 0.1, true);
        let mut rng = StdRng::seed_from_u64(4);
        let refs = w.generate(0, &c, |_| VolId(0), &mut rng);
        // Per page, slots must not repeat within a page visit. Group by
        // consecutive same-page runs.
        let mut i = 0;
        while i < refs.len() {
            let page = refs[i].0.page;
            let mut slots = pscc_common::hash::HashSet::default();
            while i < refs.len() && refs[i].0.page == page {
                assert!(slots.insert(refs[i].0.slot), "duplicate slot on {page}");
                i += 1;
            }
        }
    }

    #[test]
    fn scaled_shrinks_ranges() {
        let w = WorkloadSpec::paper(WorkloadKind::HotCold, 0.1, false).scaled(25);
        assert_eq!(w.hot_range_pages, 18);
        assert_eq!(w.trans_size, 3);
    }
}
