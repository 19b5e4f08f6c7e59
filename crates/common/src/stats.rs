//! Counters collected by the engine and aggregated by the experiment
//! harness. The paper's analysis is largely in terms of message counts,
//! I/O counts, and contention events, so these are first-class here.

use std::fmt;
use std::ops::AddAssign;

/// Event counters for one site (or, summed, for a whole system).
///
/// All fields are public by design: this is a passive, compound record in
/// the C-struct spirit, produced by the engine and consumed by reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counters {
    /// Transactions committed.
    pub commits: u64,
    /// Transactions aborted (all reasons).
    pub aborts: u64,
    /// Aborts due to local deadlock victim selection.
    pub deadlock_aborts: u64,
    /// Aborts due to lock-wait timeout.
    pub timeout_aborts: u64,
    /// Messages sent (all kinds).
    pub msgs_sent: u64,
    /// Read (fetch) requests sent to an owner.
    pub read_requests: u64,
    /// Write-permission requests sent to an owner.
    pub write_requests: u64,
    /// Callback requests issued by this site as owner.
    pub callbacks_sent: u64,
    /// Callback requests that found the target page locally unused and
    /// purged the whole page.
    pub callbacks_purged_page: u64,
    /// Callback requests that deescalated to a single object.
    pub callbacks_object_only: u64,
    /// Callback requests that blocked on a local lock.
    pub callbacks_blocked: u64,
    /// Adaptive page locks granted by this site as owner (PS-AA).
    pub adaptive_grants: u64,
    /// Object writes satisfied locally under an adaptive page lock
    /// (server messages saved).
    pub adaptive_hits: u64,
    /// Deescalation requests issued by this site as owner.
    pub deescalations: u64,
    /// Pages shipped to clients.
    pub pages_shipped: u64,
    /// Object reads satisfied from the local cache without any message.
    pub cache_hits: u64,
    /// Object reads that required a fetch.
    pub cache_misses: u64,
    /// Disk reads performed.
    pub disk_reads: u64,
    /// Disk writes performed (including log forces).
    pub disk_writes: u64,
    /// Lock waits that actually blocked.
    pub lock_waits: u64,
    /// Callback race occurrences detected and handled (paper §4.2.4).
    pub callback_races: u64,
    /// Purge races detected (stale purge ignored).
    pub purge_races: u64,
    /// Hierarchical-callback second rounds (second-objective violations,
    /// paper §4.3.2).
    pub callback_redos: u64,
    /// Pages purged from a client cache (evictions + callbacks).
    pub pages_purged: u64,
    /// Client/site crashes detected via lease expiry or callback-response
    /// timeout at an owning server.
    pub crashes_detected: u64,
    /// Orphan transactions aborted on behalf of a crashed client.
    pub orphans_aborted: u64,
    /// Faults injected by the chaos harness (drops, delays, duplicates,
    /// reorders, partitions, crashes) attributed to this site.
    pub faults_injected: u64,
    /// Log records re-applied by restart recovery's redo pass.
    pub recovery_redo_records: u64,
    /// Before-images applied by restart recovery's undo pass.
    pub recovery_undo_records: u64,
    /// Server epoch bumps (one per completed restart recovery).
    pub epoch_bumps: u64,
    /// Remote data requests refused with `Busy` by an overloaded server
    /// (admission control; each is retried by the client).
    pub requests_shed: u64,
    /// Requests a client queued locally because it was out of credits
    /// for the target owner (credit-based flow control).
    pub credits_stalled: u64,
    /// Retries of requests previously shed with `Busy`, after backoff.
    pub busy_retries: u64,
    /// Remote data requests refused because their transaction was
    /// already aborted here (the request was reordered behind its own
    /// abort on a slower transport lane).
    pub stale_requests_refused: u64,
    /// Graceful drains begun at this site (the control plane's drain op).
    pub drains_started: u64,
    /// Graceful drains that reached the drained state (WAL forced, all
    /// admitted work retired).
    pub drains_completed: u64,
    /// Ownership migrations begun at this site as the source.
    pub migrations_started: u64,
    /// Ownership migrations whose MigrationCommit record was forced
    /// durable at this site as the source.
    pub migrations_committed: u64,
    /// Ownership migrations rolled back (supervisor abort or crash
    /// before the commit record).
    pub migrations_aborted: u64,
    /// `WrongOwner` redirects this site followed as a client (its layout
    /// was stale and a newer one re-routed the request).
    pub wrong_owner_redirects: u64,
    /// Bytes of page images and copy-table entries shipped to migration
    /// destinations.
    pub transfer_bytes: u64,
    /// Reads answered lock-free from the local edge cache (tiered files
    /// only; `Strict` files never count here).
    pub edge_hits: u64,
    /// Edge reads that fell through to an owner fetch (cold copy,
    /// expired lease, severed watch, or invalidated page).
    pub edge_misses: u64,
    /// Page invalidations published by this site as owner to edge
    /// subscribers on commit (one per page per subscriber).
    pub edge_invalidations: u64,
    /// Edge subscriptions reaped: lease-expired entries collected at
    /// publish time plus subscriptions dropped when their edge site was
    /// declared dead.
    pub edge_subs_reaped: u64,
}

impl AddAssign for Counters {
    fn add_assign(&mut self, o: Counters) {
        self.commits += o.commits;
        self.aborts += o.aborts;
        self.deadlock_aborts += o.deadlock_aborts;
        self.timeout_aborts += o.timeout_aborts;
        self.msgs_sent += o.msgs_sent;
        self.read_requests += o.read_requests;
        self.write_requests += o.write_requests;
        self.callbacks_sent += o.callbacks_sent;
        self.callbacks_purged_page += o.callbacks_purged_page;
        self.callbacks_object_only += o.callbacks_object_only;
        self.callbacks_blocked += o.callbacks_blocked;
        self.adaptive_grants += o.adaptive_grants;
        self.adaptive_hits += o.adaptive_hits;
        self.deescalations += o.deescalations;
        self.pages_shipped += o.pages_shipped;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        self.disk_reads += o.disk_reads;
        self.disk_writes += o.disk_writes;
        self.lock_waits += o.lock_waits;
        self.callback_races += o.callback_races;
        self.purge_races += o.purge_races;
        self.callback_redos += o.callback_redos;
        self.pages_purged += o.pages_purged;
        self.crashes_detected += o.crashes_detected;
        self.orphans_aborted += o.orphans_aborted;
        self.faults_injected += o.faults_injected;
        self.recovery_redo_records += o.recovery_redo_records;
        self.recovery_undo_records += o.recovery_undo_records;
        self.epoch_bumps += o.epoch_bumps;
        self.requests_shed += o.requests_shed;
        self.credits_stalled += o.credits_stalled;
        self.busy_retries += o.busy_retries;
        self.stale_requests_refused += o.stale_requests_refused;
        self.drains_started += o.drains_started;
        self.drains_completed += o.drains_completed;
        self.migrations_started += o.migrations_started;
        self.migrations_committed += o.migrations_committed;
        self.migrations_aborted += o.migrations_aborted;
        self.wrong_owner_redirects += o.wrong_owner_redirects;
        self.transfer_bytes += o.transfer_bytes;
        self.edge_hits += o.edge_hits;
        self.edge_misses += o.edge_misses;
        self.edge_invalidations += o.edge_invalidations;
        self.edge_subs_reaped += o.edge_subs_reaped;
    }
}

impl fmt::Display for Counters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "commits={} aborts={} (dl={}, to={}) msgs={} reads={} writes={} \
             cb={} (page={}, obj={}, blocked={}, redo={}) adaptive={}/{} deesc={} \
             shipped={} hits={} misses={} io={}r/{}w waits={} races cb={} purge={} \
             crashes={} orphans={} faults={} recovery={}r/{}u epochs={} \
             shed={} stalled={} busy_retries={} drains={}/{} \
             migrations={}/{}/{} redirects={} transfer={}B \
             edge={}h/{}m inval={} subs_reaped={}",
            self.commits,
            self.aborts,
            self.deadlock_aborts,
            self.timeout_aborts,
            self.msgs_sent,
            self.read_requests,
            self.write_requests,
            self.callbacks_sent,
            self.callbacks_purged_page,
            self.callbacks_object_only,
            self.callbacks_blocked,
            self.callback_redos,
            self.adaptive_grants,
            self.adaptive_hits,
            self.deescalations,
            self.pages_shipped,
            self.cache_hits,
            self.cache_misses,
            self.disk_reads,
            self.disk_writes,
            self.lock_waits,
            self.callback_races,
            self.purge_races,
            self.crashes_detected,
            self.orphans_aborted,
            self.faults_injected,
            self.recovery_redo_records,
            self.recovery_undo_records,
            self.epoch_bumps,
            self.requests_shed,
            self.credits_stalled,
            self.busy_retries,
            self.drains_started,
            self.drains_completed,
            self.migrations_started,
            self.migrations_committed,
            self.migrations_aborted,
            self.wrong_owner_redirects,
            self.transfer_bytes,
            self.edge_hits,
            self.edge_misses,
            self.edge_invalidations,
            self.edge_subs_reaped,
        )
    }
}

impl Counters {
    /// Sums an iterator of per-site counters into one record.
    pub fn total<I: IntoIterator<Item = Counters>>(iter: I) -> Counters {
        let mut t = Counters::default();
        for c in iter {
            t += c;
        }
        t
    }

    /// Every field as a `(name, value)` pair, in declaration order. The
    /// metrics exporters and the histogram-vs-counter audit tests iterate
    /// this instead of hard-coding the field list in several places.
    #[must_use]
    pub fn fields(&self) -> [(&'static str, u64); 45] {
        [
            ("commits", self.commits),
            ("aborts", self.aborts),
            ("deadlock_aborts", self.deadlock_aborts),
            ("timeout_aborts", self.timeout_aborts),
            ("msgs_sent", self.msgs_sent),
            ("read_requests", self.read_requests),
            ("write_requests", self.write_requests),
            ("callbacks_sent", self.callbacks_sent),
            ("callbacks_purged_page", self.callbacks_purged_page),
            ("callbacks_object_only", self.callbacks_object_only),
            ("callbacks_blocked", self.callbacks_blocked),
            ("adaptive_grants", self.adaptive_grants),
            ("adaptive_hits", self.adaptive_hits),
            ("deescalations", self.deescalations),
            ("pages_shipped", self.pages_shipped),
            ("cache_hits", self.cache_hits),
            ("cache_misses", self.cache_misses),
            ("disk_reads", self.disk_reads),
            ("disk_writes", self.disk_writes),
            ("lock_waits", self.lock_waits),
            ("callback_races", self.callback_races),
            ("purge_races", self.purge_races),
            ("callback_redos", self.callback_redos),
            ("pages_purged", self.pages_purged),
            ("crashes_detected", self.crashes_detected),
            ("orphans_aborted", self.orphans_aborted),
            ("faults_injected", self.faults_injected),
            ("recovery_redo_records", self.recovery_redo_records),
            ("recovery_undo_records", self.recovery_undo_records),
            ("epoch_bumps", self.epoch_bumps),
            ("requests_shed", self.requests_shed),
            ("credits_stalled", self.credits_stalled),
            ("busy_retries", self.busy_retries),
            ("stale_requests_refused", self.stale_requests_refused),
            ("drains_started", self.drains_started),
            ("drains_completed", self.drains_completed),
            ("migrations_started", self.migrations_started),
            ("migrations_committed", self.migrations_committed),
            ("migrations_aborted", self.migrations_aborted),
            ("wrong_owner_redirects", self.wrong_owner_redirects),
            ("transfer_bytes", self.transfer_bytes),
            ("edge_hits", self.edge_hits),
            ("edge_misses", self.edge_misses),
            ("edge_invalidations", self.edge_invalidations),
            ("edge_subs_reaped", self.edge_subs_reaped),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_assign_sums_fields() {
        let mut a = Counters {
            commits: 1,
            msgs_sent: 5,
            ..Default::default()
        };
        a += Counters {
            commits: 2,
            disk_reads: 3,
            ..Default::default()
        };
        assert_eq!(a.commits, 3);
        assert_eq!(a.msgs_sent, 5);
        assert_eq!(a.disk_reads, 3);
    }

    #[test]
    fn total_of_many() {
        let t = Counters::total((0..4).map(|_| Counters {
            callbacks_sent: 2,
            ..Default::default()
        }));
        assert_eq!(t.callbacks_sent, 8);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", Counters::default()).is_empty());
    }

    #[test]
    fn fields_are_unique_and_track_values() {
        let c = Counters {
            pages_purged: 9,
            ..Default::default()
        };
        let fields = c.fields();
        let mut names: Vec<&str> = fields.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), fields.len());
        assert_eq!(
            fields.iter().find(|(n, _)| *n == "pages_purged"),
            Some(&("pages_purged", 9))
        );
    }
}
