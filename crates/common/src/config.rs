//! System-wide configuration: protocol selection and the platform
//! constants of the paper's Table 1.

use crate::ids::{LockableId, Oid};
use crate::time::Duration;
use std::fmt;

/// Which cache-consistency protocol the system runs (paper §5: SHORE's
/// system-wide locking granularity plus the adaptive-locking switch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Protocol {
    /// Basic page server: page-level locking and page-level callbacks.
    Ps,
    /// Object-level locking with adaptive callbacks, adaptive *locking*
    /// disabled (paper's PS-OA).
    PsOa,
    /// Fully adaptive: object-level locking with adaptive callbacks *and*
    /// adaptive page locks (paper's PS-AA — the contribution).
    #[default]
    PsAa,
}

impl Protocol {
    /// Whether concurrency control operates at object granularity.
    pub fn object_level(self) -> bool {
        !matches!(self, Protocol::Ps)
    }

    /// Whether adaptive page locks are granted on write requests.
    pub fn adaptive_locking(self) -> bool {
        matches!(self, Protocol::PsAa)
    }

    /// The granule an access to `oid` locks: the object itself at
    /// object granularity, its page under PS. The engine runs one access
    /// path for all three protocols and takes this granule at the client
    /// and at the owner.
    pub fn granule(self, oid: Oid) -> LockableId {
        if self.object_level() {
            LockableId::Object(oid)
        } else {
            LockableId::Page(oid.page)
        }
    }
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Protocol::Ps => "PS",
            Protocol::PsOa => "PS-OA",
            Protocol::PsAa => "PS-AA",
        };
        f.write_str(s)
    }
}

/// Per-file consistency dial for read-only edge sites. `Strict` files
/// never touch the edge tier and keep the paper's serializable behavior
/// byte-for-byte; the other tiers trade bounded staleness for lock-free
/// local reads (in the spirit of cache serializability for read-only
/// edge transactions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ConsistencyTier {
    /// Serializable reads through the owner, exactly as today.
    #[default]
    Strict,
    /// Edge copies are served without locks for up to `ttl` after the
    /// fetch request was sent; past that the edge refetches through the
    /// owner. The staleness of any answered read is bounded by `ttl`.
    BoundedStale { ttl: Duration },
    /// Edge copies are kept fresh by the owner's invalidation stream
    /// (piggybacked on the callback lane). While the watch lease is
    /// live, staleness is bounded by the invalidation propagation delay;
    /// when the watch is severed (partition, owner crash, lease expiry)
    /// the copy degrades to `BoundedStale { ttl: fallback_ttl }`
    /// semantics measured from its validation time.
    WatchBased { fallback_ttl: Duration },
}

impl ConsistencyTier {
    /// The hard staleness bound an edge read under this tier may carry,
    /// or `None` for `Strict` (which never serves from the edge).
    pub fn bound(self) -> Option<Duration> {
        match self {
            ConsistencyTier::Strict => None,
            ConsistencyTier::BoundedStale { ttl } => Some(ttl),
            ConsistencyTier::WatchBased { fallback_ttl } => Some(fallback_ttl),
        }
    }

    /// Whether reads of this tier may be answered from an edge copy.
    pub fn edge_cacheable(self) -> bool {
        !matches!(self, ConsistencyTier::Strict)
    }

    /// Whether this tier subscribes to the owner's invalidation stream.
    pub fn watch_based(self) -> bool {
        matches!(self, ConsistencyTier::WatchBased { .. })
    }
}

impl fmt::Display for ConsistencyTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConsistencyTier::Strict => f.write_str("strict"),
            ConsistencyTier::BoundedStale { ttl } => write!(f, "bounded_stale({ttl})"),
            ConsistencyTier::WatchBased { fallback_ttl } => write!(f, "watch({fallback_ttl})"),
        }
    }
}

crate::impl_wire!(enum ConsistencyTier {
    Strict,
    BoundedStale { ttl },
    WatchBased { fallback_ttl },
});

/// Assigns a [`ConsistencyTier`] to one file (by file number, uniform
/// across volumes — the workloads address file 0 of each owner's
/// volume).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeTierSpec {
    /// File number the tier applies to. Must be `< PARTITION_FILES`.
    pub file: u32,
    /// The consistency dial for that file.
    pub tier: ConsistencyTier,
}

/// Platform configuration, defaulting to the paper's Table 1.
///
/// | Quantity | Paper value |
/// |---|---|
/// | NumApplications | 10 |
/// | ClientBufSize | 25% of DB |
/// | ServerBufSize | 50% of DB |
/// | PeerServerBufSize | 25% of DB |
/// | PageSize | 4096 bytes |
/// | DatabaseSize | 11 250 pages (45 MB) |
/// | ObjectsPerPage | 20 |
///
/// # Examples
///
/// ```
/// # use pscc_common::SystemConfig;
/// let cfg = SystemConfig::paper();
/// assert_eq!(cfg.database_pages, 11_250);
/// assert_eq!(cfg.client_buf_pages(), 2_812);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Number of concurrent application programs.
    pub num_applications: u32,
    /// Size of the database in pages.
    pub database_pages: u32,
    /// Client cache size as a fraction of the database.
    pub client_buf_frac: f64,
    /// Server cache size as a fraction of the database.
    pub server_buf_frac: f64,
    /// Peer-server cache size as a fraction of the database (used when
    /// every node plays both roles).
    pub peer_buf_frac: f64,
    /// Page size in bytes.
    pub page_size: u32,
    /// Objects per page.
    pub objects_per_page: u16,
    /// Which consistency protocol to run.
    pub protocol: Protocol,
    /// Initial lock-wait timeout, before enough waits have been observed
    /// to adapt (paper §5.5 adapts it to 1.5 × (mean + stddev)).
    pub initial_lock_timeout: Duration,
    /// Multiplier applied to the adaptive timeout estimate (paper: 1.5).
    pub timeout_multiplier: f64,
    /// Lower clamp on the adaptive lock-wait timeout. Chaos tests tighten
    /// this far below the default so orphan detection fires quickly.
    pub lock_timeout_floor: Duration,
    /// Upper clamp on the adaptive lock-wait timeout.
    pub lock_timeout_ceiling: Duration,
    /// Whether servers arm per-client lease timers and declare a client
    /// dead when its lease expires without a heartbeat. Off by default so
    /// failure-free workloads are byte-for-byte unchanged.
    pub leases_enabled: bool,
    /// How often a client sends a heartbeat to each server it talks to.
    pub heartbeat_interval: Duration,
    /// How long a server waits past the last heartbeat before declaring
    /// the client crashed. Must comfortably exceed `heartbeat_interval`.
    pub lease_duration: Duration,
    /// Bound on how long an owner waits for a callback response before
    /// treating the unresponsive client as crashed (only when leases are
    /// enabled; complements the lease timer for clients that heartbeat
    /// but wedge mid-callback).
    pub callback_response_timeout: Duration,
    /// Capacity of each bounded transport mailbox (per lane). Sized so
    /// failure-free workloads never block on it; overload tests shrink
    /// it to exercise backpressure.
    pub mailbox_capacity: u32,
    /// Per-owner request credits a client starts with. A credit is
    /// consumed by each data/lock request on the wire and returned by
    /// its reply; at zero the client queues locally instead of sending.
    pub fetch_credits: u32,
    /// Cap on concurrently admitted remote data requests at a server.
    /// Beyond it, new requests are answered with `Busy { retry_after }`
    /// and retried by the client with exponential backoff.
    pub admission_cap: u32,
    /// The `retry_after` hint a shed request carries back to the client
    /// (base of its exponential, jittered backoff).
    pub busy_retry_hint: Duration,
    /// Per-file consistency tiers for edge sites. Files not listed are
    /// `Strict`. Empty by default: no edge machinery arms and every
    /// read takes the serializable path, byte-for-byte unchanged.
    pub edge_tiers: Vec<EdgeTierSpec>,
}

/// A knob combination [`SystemConfig::validate`] rejects: each variant is a
/// configuration that would not crash at construction time but would wedge,
/// deadlock, or silently misbehave at runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `admission_cap == 0`: every remote data request would be shed with
    /// `Busy` forever and no transaction could ever fetch remote data.
    ZeroAdmissionCap,
    /// `fetch_credits == 0`: clients could never put a data request on the
    /// wire — all work queues locally and the cluster is silently idle.
    ZeroFetchCredits,
    /// `mailbox_capacity` below the consistency-lane minimum. The lossless
    /// lane must absorb at least a small burst of callbacks/commit/2PC
    /// traffic per peer or the transport blocks senders into a cycle.
    MailboxBelowConsistencyMinimum { capacity: u32, minimum: u32 },
    /// `lock_timeout_floor > lock_timeout_ceiling`: the adaptive clamp is
    /// empty and the timeout oscillates between contradictory bounds.
    TimeoutFloorAboveCeiling { floor: Duration, ceiling: Duration },
    /// `leases_enabled` with `lease_duration <= heartbeat_interval`: every
    /// lease would expire before its renewing heartbeat can arrive, so the
    /// cluster declares healthy peers dead in a loop.
    LeaseWithinHeartbeat {
        lease: Duration,
        heartbeat: Duration,
    },
    /// `busy_retry_hint == 0`: shed requests would retry immediately,
    /// turning admission control into a hot spin loop instead of backoff.
    ZeroBusyRetryHint,
    /// `timeout_multiplier` is not a positive finite number, so the
    /// adaptive lock-timeout estimate collapses to zero or NaN.
    NonPositiveTimeoutMultiplier { value: f64 },
    /// A structural size knob (`num_applications`, `database_pages`,
    /// `objects_per_page`, or `page_size`) is zero / too small to hold a
    /// single object.
    DegenerateSize { what: &'static str },
    /// A buffer fraction is outside `[0, 1]` or not finite.
    BufFracOutOfRange { what: &'static str, value: f64 },
    /// An edge tier carries a zero TTL: every copy would be stale the
    /// instant it arrives and the edge degenerates to fetch-through on
    /// every read while still paying the subscription machinery.
    ZeroTierTtl { file: u32 },
    /// An edge tier's TTL exceeds [`MAX_TIER_TTL`]: a bound that long is
    /// almost certainly a unit mistake, and a watch severed under it
    /// would serve hour-old data while claiming to be "bounded".
    TierTtlAboveMax { file: u32, ttl: Duration },
    /// A `WatchBased` tier with a zero `fallback_ttl`: the moment a
    /// partition or owner crash severs the watch, the edge would have no
    /// bound to degrade to and could never answer another read.
    WatchWithoutFallback { file: u32 },
    /// A tier names a file number outside `0..PARTITION_FILES` — it
    /// would silently never match any page and the operator's intent is
    /// lost.
    TierOnUnknownFile { file: u32 },
    /// Two tier entries name the same file; which one wins would depend
    /// on map-insertion order.
    DuplicateTierFile { file: u32 },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroAdmissionCap => {
                write!(f, "admission_cap must be > 0 (0 sheds every data request forever)")
            }
            ConfigError::ZeroFetchCredits => {
                write!(f, "fetch_credits must be > 0 (0 queues every request locally forever)")
            }
            ConfigError::MailboxBelowConsistencyMinimum { capacity, minimum } => write!(
                f,
                "mailbox_capacity {capacity} is below the consistency-lane minimum {minimum}"
            ),
            ConfigError::TimeoutFloorAboveCeiling { floor, ceiling } => write!(
                f,
                "lock_timeout_floor ({floor:?}) exceeds lock_timeout_ceiling ({ceiling:?})"
            ),
            ConfigError::LeaseWithinHeartbeat { lease, heartbeat } => write!(
                f,
                "lease_duration ({lease:?}) must exceed heartbeat_interval ({heartbeat:?}) when leases are enabled"
            ),
            ConfigError::ZeroBusyRetryHint => {
                write!(f, "busy_retry_hint must be > 0 (0 spins on Busy instead of backing off)")
            }
            ConfigError::NonPositiveTimeoutMultiplier { value } => {
                write!(f, "timeout_multiplier must be positive and finite, got {value}")
            }
            ConfigError::DegenerateSize { what } => {
                write!(f, "{what} is zero or too small to be usable")
            }
            ConfigError::BufFracOutOfRange { what, value } => {
                write!(f, "{what} must lie in [0, 1], got {value}")
            }
            ConfigError::ZeroTierTtl { file } => {
                write!(f, "edge tier for file {file} has a zero TTL (every copy would be instantly stale)")
            }
            ConfigError::TierTtlAboveMax { file, ttl } => write!(
                f,
                "edge tier for file {file} has TTL {ttl} above the {MAX_TIER_TTL} maximum (likely a unit mistake)"
            ),
            ConfigError::WatchWithoutFallback { file } => write!(
                f,
                "watch-based tier for file {file} needs a nonzero fallback_ttl to degrade to when the watch is severed"
            ),
            ConfigError::TierOnUnknownFile { file } => write!(
                f,
                "edge tier names unknown file {file} (a volume has {PARTITION_FILES} file)"
            ),
            ConfigError::DuplicateTierFile { file } => {
                write!(f, "file {file} appears in more than one edge tier entry")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Smallest mailbox the consistency lane tolerates: room for a burst of
/// callback + commit + liveness control frames from one peer without
/// blocking the sender (see `ConfigError::MailboxBelowConsistencyMinimum`).
pub const MIN_MAILBOX_CAPACITY: u32 = 4;

/// Largest staleness bound an edge tier may declare (one hour of
/// virtual time). Bounds past this are treated as configuration
/// mistakes by [`SystemConfig::validate`], not tuning choices.
pub const MAX_TIER_TTL: Duration = Duration::from_secs(3_600);

/// Files in each owner's volume (`Volume::create_partition` makes one).
/// An edge tier's file number must be below it.
pub const PARTITION_FILES: u32 = 1;

impl SystemConfig {
    /// The configuration of the paper's Table 1.
    pub fn paper() -> Self {
        Self {
            num_applications: 10,
            database_pages: 11_250,
            client_buf_frac: 0.25,
            server_buf_frac: 0.50,
            peer_buf_frac: 0.25,
            page_size: 4_096,
            objects_per_page: 20,
            protocol: Protocol::PsAa,
            initial_lock_timeout: Duration::from_millis(2_000),
            timeout_multiplier: 1.5,
            lock_timeout_floor: Duration::from_millis(50),
            lock_timeout_ceiling: Duration::from_secs(30),
            leases_enabled: false,
            heartbeat_interval: Duration::from_millis(500),
            lease_duration: Duration::from_millis(2_000),
            callback_response_timeout: Duration::from_secs(10),
            mailbox_capacity: 4_096,
            fetch_credits: 64,
            admission_cap: 256,
            busy_retry_hint: Duration::from_millis(10),
            edge_tiers: Vec::new(),
        }
    }

    /// A scaled-down configuration for fast tests: same shape, ~1/25 the
    /// data.
    pub fn small() -> Self {
        Self {
            num_applications: 4,
            database_pages: 450,
            page_size: 1_024,
            objects_per_page: 10,
            ..Self::paper()
        }
    }

    /// Client cache capacity in pages.
    pub fn client_buf_pages(&self) -> u32 {
        (self.database_pages as f64 * self.client_buf_frac) as u32
    }

    /// Server cache capacity in pages.
    pub fn server_buf_pages(&self) -> u32 {
        (self.database_pages as f64 * self.server_buf_frac) as u32
    }

    /// Peer-server cache capacity in pages.
    pub fn peer_buf_pages(&self) -> u32 {
        (self.database_pages as f64 * self.peer_buf_frac) as u32
    }

    /// Object payload size in bytes such that `objects_per_page` objects
    /// plus slot overhead fit on one page.
    pub fn object_size(&self) -> u32 {
        // Reserve ~64 bytes of header and 8 bytes of slot per object.
        let usable = self.page_size.saturating_sub(64) / self.objects_per_page as u32;
        usable.saturating_sub(8).max(8)
    }

    /// Reject knob combinations that would not fail at construction but
    /// would wedge or misbehave at runtime (latent deadlocks, hot spins,
    /// empty clamp ranges). Entry points — both `Simulation`
    /// constructors, the threaded harness, and the `repro` binary — call
    /// this before instantiating any site.
    ///
    /// # Examples
    ///
    /// ```
    /// # use pscc_common::SystemConfig;
    /// assert!(SystemConfig::paper().validate().is_ok());
    /// let mut bad = SystemConfig::small();
    /// bad.admission_cap = 0;
    /// assert!(bad.validate().is_err());
    /// ```
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.admission_cap == 0 {
            return Err(ConfigError::ZeroAdmissionCap);
        }
        if self.fetch_credits == 0 {
            return Err(ConfigError::ZeroFetchCredits);
        }
        if self.mailbox_capacity < MIN_MAILBOX_CAPACITY {
            return Err(ConfigError::MailboxBelowConsistencyMinimum {
                capacity: self.mailbox_capacity,
                minimum: MIN_MAILBOX_CAPACITY,
            });
        }
        if self.lock_timeout_floor > self.lock_timeout_ceiling {
            return Err(ConfigError::TimeoutFloorAboveCeiling {
                floor: self.lock_timeout_floor,
                ceiling: self.lock_timeout_ceiling,
            });
        }
        if self.leases_enabled && self.lease_duration <= self.heartbeat_interval {
            return Err(ConfigError::LeaseWithinHeartbeat {
                lease: self.lease_duration,
                heartbeat: self.heartbeat_interval,
            });
        }
        if self.busy_retry_hint == Duration::ZERO {
            return Err(ConfigError::ZeroBusyRetryHint);
        }
        if !self.timeout_multiplier.is_finite() || self.timeout_multiplier <= 0.0 {
            return Err(ConfigError::NonPositiveTimeoutMultiplier {
                value: self.timeout_multiplier,
            });
        }
        if self.num_applications == 0 {
            return Err(ConfigError::DegenerateSize {
                what: "num_applications",
            });
        }
        if self.database_pages == 0 {
            return Err(ConfigError::DegenerateSize {
                what: "database_pages",
            });
        }
        if self.objects_per_page == 0 {
            return Err(ConfigError::DegenerateSize {
                what: "objects_per_page",
            });
        }
        // One object plus its slot plus the page header must fit.
        if self.page_size < 64 + 8 + 8 {
            return Err(ConfigError::DegenerateSize { what: "page_size" });
        }
        for (what, value) in [
            ("client_buf_frac", self.client_buf_frac),
            ("server_buf_frac", self.server_buf_frac),
            ("peer_buf_frac", self.peer_buf_frac),
        ] {
            if !value.is_finite() || !(0.0..=1.0).contains(&value) {
                return Err(ConfigError::BufFracOutOfRange { what, value });
            }
        }
        let mut tiered_files = crate::hash::HashSet::default();
        for spec in &self.edge_tiers {
            if spec.file >= PARTITION_FILES {
                return Err(ConfigError::TierOnUnknownFile { file: spec.file });
            }
            if !tiered_files.insert(spec.file) {
                return Err(ConfigError::DuplicateTierFile { file: spec.file });
            }
            match spec.tier {
                ConsistencyTier::Strict => {}
                ConsistencyTier::BoundedStale { ttl } => {
                    if ttl == Duration::ZERO {
                        return Err(ConfigError::ZeroTierTtl { file: spec.file });
                    }
                    if ttl > MAX_TIER_TTL {
                        return Err(ConfigError::TierTtlAboveMax {
                            file: spec.file,
                            ttl,
                        });
                    }
                }
                ConsistencyTier::WatchBased { fallback_ttl } => {
                    if fallback_ttl == Duration::ZERO {
                        return Err(ConfigError::WatchWithoutFallback { file: spec.file });
                    }
                    if fallback_ttl > MAX_TIER_TTL {
                        return Err(ConfigError::TierTtlAboveMax {
                            file: spec.file,
                            ttl: fallback_ttl,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// The consistency tier of `file`, defaulting to `Strict` for files
    /// with no explicit entry.
    pub fn tier_of(&self, file: u32) -> ConsistencyTier {
        self.edge_tiers
            .iter()
            .find(|s| s.file == file)
            .map(|s| s.tier)
            .unwrap_or(ConsistencyTier::Strict)
    }

    /// A deterministic fingerprint of the tier map, used by the control
    /// plane to observe whether a site has converged on the desired
    /// tiers without shipping the whole map in every probe.
    pub fn tiers_fingerprint(&self) -> u64 {
        tiers_fingerprint(self.edge_tiers.iter().copied())
    }
}

/// FNV-1a over a canonically sorted `(file, tier)` list. `Strict`
/// entries are skipped so "no entry" and "explicit Strict" fingerprint
/// identically (they behave identically).
pub fn tiers_fingerprint<I: IntoIterator<Item = EdgeTierSpec>>(tiers: I) -> u64 {
    let mut entries: Vec<(u32, u64, u64)> = tiers
        .into_iter()
        .filter(|s| s.tier.edge_cacheable())
        .map(|s| {
            let (kind, ttl) = match s.tier {
                ConsistencyTier::Strict => unreachable!(),
                ConsistencyTier::BoundedStale { ttl } => (1u64, ttl.as_micros()),
                ConsistencyTier::WatchBased { fallback_ttl } => (2u64, fallback_ttl.as_micros()),
            };
            (s.file, kind, ttl)
        })
        .collect();
    entries.sort_unstable();
    entries.dedup();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (file, kind, ttl) in entries {
        for word in [file as u64, kind, ttl] {
            for byte in word.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_table1_values() {
        let c = SystemConfig::paper();
        assert_eq!(c.num_applications, 10);
        assert_eq!(c.page_size, 4_096);
        assert_eq!(c.objects_per_page, 20);
        assert_eq!(c.server_buf_pages(), 5_625);
        assert_eq!(c.peer_buf_pages(), 2_812);
        // 45 MB database.
        assert_eq!(c.database_pages as u64 * c.page_size as u64, 46_080_000);
    }

    #[test]
    fn object_size_fits_on_page() {
        let c = SystemConfig::paper();
        let per_obj = c.object_size() + 8;
        assert!(per_obj * c.objects_per_page as u32 + 64 <= c.page_size);
        let s = SystemConfig::small();
        assert!((s.object_size() + 8) * s.objects_per_page as u32 + 64 <= s.page_size);
    }

    #[test]
    fn failure_knob_defaults_preserve_legacy_behavior() {
        let c = SystemConfig::paper();
        assert!(!c.leases_enabled);
        assert_eq!(c.lock_timeout_floor, Duration::from_millis(50));
        assert_eq!(c.lock_timeout_ceiling, Duration::from_secs(30));
        assert!(c.lease_duration > c.heartbeat_interval);
        // small() inherits the failure knobs from paper().
        assert_eq!(SystemConfig::small().lease_duration, c.lease_duration);
    }

    #[test]
    fn overload_knob_defaults_preserve_legacy_behavior() {
        let c = SystemConfig::paper();
        // Credits/admission far above what the paper workloads generate
        // (10 applications, one outstanding request each), so the seed
        // experiments never stall, shed, or block on a mailbox.
        assert!(c.fetch_credits > c.num_applications);
        assert!(c.admission_cap > c.num_applications);
        assert!(c.mailbox_capacity >= c.admission_cap);
        assert!(c.busy_retry_hint < c.initial_lock_timeout);
        // small() inherits the overload knobs from paper().
        assert_eq!(SystemConfig::small().admission_cap, c.admission_cap);
    }

    #[test]
    fn validate_accepts_shipped_configs() {
        assert_eq!(SystemConfig::paper().validate(), Ok(()));
        assert_eq!(SystemConfig::small().validate(), Ok(()));
        // The chaos thundering-herd config: tiny but legal overload knobs.
        let mut herd = SystemConfig::small();
        herd.admission_cap = 2;
        herd.fetch_credits = 1;
        assert_eq!(herd.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_latent_deadlocks() {
        let base = SystemConfig::small;

        let mut c = base();
        c.admission_cap = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroAdmissionCap));

        let mut c = base();
        c.fetch_credits = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroFetchCredits));

        let mut c = base();
        c.mailbox_capacity = MIN_MAILBOX_CAPACITY - 1;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::MailboxBelowConsistencyMinimum { .. })
        ));

        let mut c = base();
        c.lock_timeout_floor = Duration::from_secs(60);
        assert!(matches!(
            c.validate(),
            Err(ConfigError::TimeoutFloorAboveCeiling { .. })
        ));

        let mut c = base();
        c.leases_enabled = true;
        c.lease_duration = c.heartbeat_interval;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::LeaseWithinHeartbeat { .. })
        ));
        // Leases off: the same pair is fine because no lease timer arms.
        c.leases_enabled = false;
        assert_eq!(c.validate(), Ok(()));

        let mut c = base();
        c.busy_retry_hint = Duration::ZERO;
        assert_eq!(c.validate(), Err(ConfigError::ZeroBusyRetryHint));

        let mut c = base();
        c.timeout_multiplier = 0.0;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::NonPositiveTimeoutMultiplier { .. })
        ));

        let mut c = base();
        c.database_pages = 0;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::DegenerateSize { .. })
        ));

        let mut c = base();
        c.server_buf_frac = 1.5;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::BufFracOutOfRange { .. })
        ));
        let err = c.validate().unwrap_err();
        assert!(err.to_string().contains("server_buf_frac"));
    }

    #[test]
    fn validate_rejects_bad_edge_tiers() {
        let base = SystemConfig::small;

        let mut c = base();
        c.edge_tiers = vec![EdgeTierSpec {
            file: 0,
            tier: ConsistencyTier::BoundedStale {
                ttl: Duration::ZERO,
            },
        }];
        assert_eq!(c.validate(), Err(ConfigError::ZeroTierTtl { file: 0 }));

        let mut c = base();
        c.edge_tiers = vec![EdgeTierSpec {
            file: 0,
            tier: ConsistencyTier::BoundedStale {
                ttl: Duration::from_secs(100_000),
            },
        }];
        assert!(matches!(
            c.validate(),
            Err(ConfigError::TierTtlAboveMax { file: 0, .. })
        ));

        let mut c = base();
        c.edge_tiers = vec![EdgeTierSpec {
            file: 0,
            tier: ConsistencyTier::WatchBased {
                fallback_ttl: Duration::ZERO,
            },
        }];
        assert_eq!(
            c.validate(),
            Err(ConfigError::WatchWithoutFallback { file: 0 })
        );

        let mut c = base();
        c.edge_tiers = vec![EdgeTierSpec {
            file: 7,
            tier: ConsistencyTier::BoundedStale {
                ttl: Duration::from_millis(100),
            },
        }];
        assert_eq!(
            c.validate(),
            Err(ConfigError::TierOnUnknownFile { file: 7 })
        );

        let mut c = base();
        let spec = EdgeTierSpec {
            file: 0,
            tier: ConsistencyTier::WatchBased {
                fallback_ttl: Duration::from_millis(250),
            },
        };
        c.edge_tiers = vec![spec, spec];
        assert_eq!(
            c.validate(),
            Err(ConfigError::DuplicateTierFile { file: 0 })
        );

        // A well-formed tier map passes, and tier_of falls back to Strict.
        let mut c = base();
        c.edge_tiers = vec![EdgeTierSpec {
            file: 0,
            tier: ConsistencyTier::BoundedStale {
                ttl: Duration::from_millis(100),
            },
        }];
        assert_eq!(c.validate(), Ok(()));
        assert!(c.tier_of(0).edge_cacheable());
        assert_eq!(c.tier_of(3), ConsistencyTier::Strict);
    }

    #[test]
    fn tiers_fingerprint_is_order_insensitive_and_strict_transparent() {
        let bs = |file| EdgeTierSpec {
            file,
            tier: ConsistencyTier::BoundedStale {
                ttl: Duration::from_millis(50),
            },
        };
        let strict = EdgeTierSpec {
            file: 9,
            tier: ConsistencyTier::Strict,
        };
        let a = tiers_fingerprint([bs(0), bs(1)]);
        let b = tiers_fingerprint([bs(1), bs(0), strict]);
        assert_eq!(a, b);
        assert_ne!(a, tiers_fingerprint([bs(0)]));
        // Empty map and all-Strict map fingerprint identically.
        assert_eq!(tiers_fingerprint([]), tiers_fingerprint([strict]));
    }

    #[test]
    fn protocol_flags() {
        assert!(!Protocol::Ps.object_level());
        assert!(Protocol::PsOa.object_level() && !Protocol::PsOa.adaptive_locking());
        assert!(Protocol::PsAa.object_level() && Protocol::PsAa.adaptive_locking());
        assert_eq!(format!("{}", Protocol::PsOa), "PS-OA");
        let oid = Oid::new(
            crate::PageId::new(crate::FileId::new(crate::VolId(0), 0), 3),
            2,
        );
        assert_eq!(Protocol::Ps.granule(oid), LockableId::Page(oid.page));
        assert_eq!(Protocol::PsOa.granule(oid), LockableId::Object(oid));
        assert_eq!(Protocol::PsAa.granule(oid), LockableId::Object(oid));
    }
}
