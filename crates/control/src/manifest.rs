//! The desired-state half of the control plane.

use pscc_common::{tiers_fingerprint, ConsistencyTier, EdgeTierSpec, SimDuration, SiteId};
use std::fmt;

/// What the operator wants a site to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DesiredState {
    /// The site should be serving, in an epoch of at least `min_epoch`.
    /// A rolling restart is declared by setting `min_epoch` to one more
    /// than the site's current epoch: the only way the cluster can
    /// converge is to take the site through a full
    /// drain → stop → recover → rejoin cycle.
    Up {
        /// Minimum acceptable epoch (1 = any running instance).
        min_epoch: u64,
    },
    /// The site should be stopped (drained first, never yanked).
    Down,
}

/// One site's row in the manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteSpec {
    /// The site.
    pub site: SiteId,
    /// What it should be.
    pub desired: DesiredState,
}

/// A declared ownership migration: re-home the page range `[lo, hi)`
/// from `from` to `to`. Moves are executed one at a time, in order,
/// through the engine's crash-safe Prepare → Transfer → Commit state
/// machine (DESIGN.md §10); the supervisor only issues the prepare and
/// commit nudges and watches layout versions converge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MoveRange {
    /// First page number of the range (inclusive).
    pub lo: u32,
    /// One past the last page number (exclusive).
    pub hi: u32,
    /// Current owner, which must drive the migration.
    pub from: SiteId,
    /// New owner.
    pub to: SiteId,
}

/// A declared per-file consistency tier at one owner site (DESIGN.md
/// §11). The rows for a site together declare its *complete* non-Strict
/// tier map: the reconciler issues one `SetTier` action per row and waits
/// for the site's observed tier fingerprint to equal the fingerprint of
/// exactly these rows, so a row with [`ConsistencyTier::Strict`]
/// retires a file's tier and files with tiers not declared here keep
/// the operation from converging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierAssignment {
    /// The owner site whose tier map the row belongs to.
    pub site: SiteId,
    /// File number the tier applies to.
    pub file: u32,
    /// The consistency dial for that file.
    pub tier: ConsistencyTier,
}

/// A declarative description of the cluster the operator wants,
/// together with the safety envelope the reconciler must respect while
/// getting there.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterManifest {
    /// Desired state per site, in reconciliation (walk) order.
    pub sites: Vec<SiteSpec>,
    /// How many sites may be mid-operation (draining, stopped, or
    /// recovering) at once. `1` is the classic one-at-a-time roll.
    pub max_unavailable: usize,
    /// Deadline for each individual step (drain, stop, restart,
    /// undrain). A step that misses it is retried with a widening
    /// deadline until `max_step_retries` is exhausted.
    pub step_timeout: SimDuration,
    /// Retries per step before the whole operation aborts and rolls
    /// back.
    pub max_step_retries: u32,
    /// Ownership migrations to execute (in order, one at a time) once
    /// the site walk has nothing in flight. Usually empty.
    pub moves: Vec<MoveRange>,
    /// Per-file consistency tiers to roll out, site by site, once the
    /// site walk and the moves are done. Tier changes need no drain:
    /// the engine applies them online (installing one purges the stale
    /// edge copies of the retuned file). Usually empty.
    pub tiers: Vec<TierAssignment>,
}

/// A manifest the reconciler refuses to run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManifestError {
    /// No sites: nothing to reconcile.
    Empty,
    /// The same site appears twice; the walk order would be ambiguous.
    DuplicateSite(SiteId),
    /// `max_unavailable == 0` can never make progress.
    ZeroMaxUnavailable,
    /// A zero step timeout would retry every step on its first tick.
    ZeroStepTimeout,
    /// A move with `lo >= hi` names no pages.
    EmptyMove,
    /// A move whose source and destination are the same site.
    MoveToSelf(SiteId),
    /// A move names a site the manifest does not list.
    MoveUnknownSite(SiteId),
    /// A tier row names a site the manifest does not list.
    TierUnknownSite(SiteId),
    /// Two tier rows name the same `(site, file)`; the resulting tier
    /// would depend on send order.
    DuplicateTier(SiteId, u32),
    /// A non-Strict tier row carries a zero staleness bound (the engine
    /// would reject the resulting config).
    ZeroTierBound(SiteId, u32),
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManifestError::Empty => write!(f, "manifest lists no sites"),
            ManifestError::DuplicateSite(s) => write!(f, "site {s:?} appears twice"),
            ManifestError::ZeroMaxUnavailable => {
                write!(f, "max_unavailable must be >= 1 to make progress")
            }
            ManifestError::ZeroStepTimeout => write!(f, "step_timeout must be non-zero"),
            ManifestError::EmptyMove => write!(f, "move range is empty (lo >= hi)"),
            ManifestError::MoveToSelf(s) => {
                write!(f, "move names site {s:?} as both source and destination")
            }
            ManifestError::MoveUnknownSite(s) => {
                write!(f, "move names site {s:?} which the manifest does not list")
            }
            ManifestError::TierUnknownSite(s) => {
                write!(
                    f,
                    "tier row names site {s:?} which the manifest does not list"
                )
            }
            ManifestError::DuplicateTier(s, file) => {
                write!(f, "site {s:?} file {file} has two tier rows")
            }
            ManifestError::ZeroTierBound(s, file) => {
                write!(f, "site {s:?} file {file} declares a zero staleness bound")
            }
        }
    }
}

impl std::error::Error for ManifestError {}

impl ClusterManifest {
    /// The manifest for a rolling restart: every `(site, current_epoch)`
    /// pair becomes `Up { min_epoch: current_epoch + 1 }`, so the only
    /// converged state is one where each site has been reborn at least
    /// once, in walk order, at most `max_unavailable` at a time.
    pub fn rolling_restart(
        current: &[(SiteId, u64)],
        max_unavailable: usize,
        step_timeout: SimDuration,
    ) -> Self {
        ClusterManifest {
            sites: current
                .iter()
                .map(|&(site, epoch)| SiteSpec {
                    site,
                    desired: DesiredState::Up {
                        min_epoch: epoch + 1,
                    },
                })
                .collect(),
            max_unavailable,
            step_timeout,
            max_step_retries: 3,
            moves: Vec::new(),
            tiers: Vec::new(),
        }
    }

    /// The sites with tier rows, in first-appearance order (the tier
    /// rollout walks them one at a time).
    pub fn tier_sites(&self) -> Vec<SiteId> {
        let mut out = Vec::new();
        for t in &self.tiers {
            if !out.contains(&t.site) {
                out.push(t.site);
            }
        }
        out
    }

    /// The tier fingerprint `site` must report for its rollout to count
    /// as done (the fingerprint of exactly this manifest's rows for it;
    /// Strict rows are transparent, matching the engine's probe).
    pub fn tiers_fp_for(&self, site: SiteId) -> u64 {
        tiers_fingerprint(
            self.tiers
                .iter()
                .filter(|t| t.site == site)
                .map(|t| EdgeTierSpec {
                    file: t.file,
                    tier: t.tier,
                }),
        )
    }

    /// Structural sanity, checked by [`crate::Supervisor::new`].
    pub fn validate(&self) -> Result<(), ManifestError> {
        if self.sites.is_empty() {
            return Err(ManifestError::Empty);
        }
        let mut seen = pscc_common::hash::HashSet::default();
        for s in &self.sites {
            if !seen.insert(s.site) {
                return Err(ManifestError::DuplicateSite(s.site));
            }
        }
        if self.max_unavailable == 0 {
            return Err(ManifestError::ZeroMaxUnavailable);
        }
        if self.step_timeout == SimDuration::ZERO {
            return Err(ManifestError::ZeroStepTimeout);
        }
        for mv in &self.moves {
            if mv.lo >= mv.hi {
                return Err(ManifestError::EmptyMove);
            }
            if mv.from == mv.to {
                return Err(ManifestError::MoveToSelf(mv.from));
            }
            for s in [mv.from, mv.to] {
                if !seen.contains(&s) {
                    return Err(ManifestError::MoveUnknownSite(s));
                }
            }
        }
        let mut tier_seen = pscc_common::hash::HashSet::default();
        for t in &self.tiers {
            if !seen.contains(&t.site) {
                return Err(ManifestError::TierUnknownSite(t.site));
            }
            if !tier_seen.insert((t.site, t.file)) {
                return Err(ManifestError::DuplicateTier(t.site, t.file));
            }
            if t.tier.bound() == Some(SimDuration::ZERO) {
                return Err(ManifestError::ZeroTierBound(t.site, t.file));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolling_restart_bumps_epochs() {
        let m = ClusterManifest::rolling_restart(
            &[(SiteId(0), 1), (SiteId(1), 4)],
            1,
            SimDuration::from_secs(1),
        );
        assert_eq!(m.sites.len(), 2);
        assert_eq!(m.sites[1].desired, DesiredState::Up { min_epoch: 5 });
        assert_eq!(m.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_degenerate_manifests() {
        let ok = ClusterManifest::rolling_restart(&[(SiteId(0), 1)], 1, SimDuration::from_secs(1));

        let mut m = ok.clone();
        m.sites.clear();
        assert_eq!(m.validate(), Err(ManifestError::Empty));

        let mut m = ok.clone();
        m.sites.push(m.sites[0]);
        assert_eq!(m.validate(), Err(ManifestError::DuplicateSite(SiteId(0))));

        let mut m = ok.clone();
        m.max_unavailable = 0;
        assert_eq!(m.validate(), Err(ManifestError::ZeroMaxUnavailable));

        let mut m = ok;
        m.step_timeout = SimDuration::ZERO;
        assert_eq!(m.validate(), Err(ManifestError::ZeroStepTimeout));
    }

    #[test]
    fn validate_rejects_degenerate_moves() {
        let ok = ClusterManifest::rolling_restart(
            &[(SiteId(0), 1), (SiteId(1), 1)],
            1,
            SimDuration::from_secs(1),
        );
        let mv = |lo, hi, from, to| MoveRange {
            lo,
            hi,
            from: SiteId(from),
            to: SiteId(to),
        };

        let mut m = ok.clone();
        m.moves = vec![mv(0, 100, 0, 1)];
        assert_eq!(m.validate(), Ok(()));

        let mut m = ok.clone();
        m.moves = vec![mv(100, 100, 0, 1)];
        assert_eq!(m.validate(), Err(ManifestError::EmptyMove));

        let mut m = ok.clone();
        m.moves = vec![mv(0, 100, 1, 1)];
        assert_eq!(m.validate(), Err(ManifestError::MoveToSelf(SiteId(1))));

        let mut m = ok;
        m.moves = vec![mv(0, 100, 0, 7)];
        assert_eq!(m.validate(), Err(ManifestError::MoveUnknownSite(SiteId(7))));
    }

    #[test]
    fn validate_rejects_degenerate_tiers() {
        let ok = ClusterManifest::rolling_restart(&[(SiteId(0), 1)], 1, SimDuration::from_secs(1));
        let row = |site, file, tier| TierAssignment {
            site: SiteId(site),
            file,
            tier,
        };
        let bs = ConsistencyTier::BoundedStale {
            ttl: SimDuration::from_millis(5),
        };

        let mut m = ok.clone();
        m.tiers = vec![row(0, 0, bs)];
        assert_eq!(m.validate(), Ok(()));
        assert_eq!(m.tier_sites(), vec![SiteId(0)]);
        assert_eq!(
            m.tiers_fp_for(SiteId(0)),
            tiers_fingerprint([EdgeTierSpec { file: 0, tier: bs }])
        );

        let mut m = ok.clone();
        m.tiers = vec![row(7, 0, bs)];
        assert_eq!(m.validate(), Err(ManifestError::TierUnknownSite(SiteId(7))));

        let mut m = ok.clone();
        m.tiers = vec![row(0, 2, bs), row(0, 2, ConsistencyTier::Strict)];
        assert_eq!(
            m.validate(),
            Err(ManifestError::DuplicateTier(SiteId(0), 2))
        );

        let mut m = ok;
        m.tiers = vec![row(
            0,
            0,
            ConsistencyTier::WatchBased {
                fallback_ttl: SimDuration::ZERO,
            },
        )];
        assert_eq!(
            m.validate(),
            Err(ManifestError::ZeroTierBound(SiteId(0), 0))
        );
    }
}
