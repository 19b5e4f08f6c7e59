//! Counters collected by the engine and aggregated by the experiment
//! harness. The paper's analysis is largely in terms of message counts,
//! I/O counts, and contention events, so these are first-class here.

use std::fmt;
use std::ops::AddAssign;

/// Writes [`Counters`] from one table: each field once, with its doc
/// comment. The struct, its `+=`, its [`Counters::fields`] list and, through
/// that list, its `Display` all come from the same rows.
macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// Event counters for one site (or, summed, for a whole system).
        ///
        /// All fields are public by design: this is a passive, compound
        /// record in the C-struct spirit, produced by the engine and
        /// consumed by reports.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct Counters {
            $($(#[$doc])* pub $name: u64,)*
        }

        /// The number of counters (the length of [`Counters::fields`]).
        const FIELDS: usize = [$(stringify!($name)),*].len();

        impl AddAssign for Counters {
            fn add_assign(&mut self, o: Counters) {
                $(self.$name += o.$name;)*
            }
        }

        impl Counters {
            /// Every field as a `(name, value)` pair, in declaration
            /// order. The metrics exporters, `Display` and the
            /// histogram-vs-counter audit tests iterate this instead of
            /// hard-coding the field list in several places.
            #[must_use]
            pub fn fields(&self) -> [(&'static str, u64); FIELDS] {
                [$((stringify!($name), self.$name)),*]
            }
        }
    };
}

counters! {
    /// Transactions committed.
    commits,
    /// Transactions aborted (all reasons).
    aborts,
    /// Aborts due to local deadlock victim selection.
    deadlock_aborts,
    /// Aborts due to lock-wait timeout.
    timeout_aborts,
    /// Messages sent (all kinds).
    msgs_sent,
    /// Read (fetch) requests sent to an owner.
    read_requests,
    /// Write-permission requests sent to an owner.
    write_requests,
    /// Callback requests issued by this site as owner.
    callbacks_sent,
    /// Callback requests that found the target page locally unused and
    /// purged the whole page.
    callbacks_purged_page,
    /// Callback requests that deescalated to a single object.
    callbacks_object_only,
    /// Callback requests that blocked on a local lock.
    callbacks_blocked,
    /// Adaptive page locks granted by this site as owner (PS-AA).
    adaptive_grants,
    /// Object writes satisfied locally under an adaptive page lock
    /// (server messages saved).
    adaptive_hits,
    /// Deescalation requests issued by this site as owner.
    deescalations,
    /// Pages shipped to clients.
    pages_shipped,
    /// Object reads satisfied from the local cache without any message.
    cache_hits,
    /// Object reads that required a fetch.
    cache_misses,
    /// Disk reads performed.
    disk_reads,
    /// Disk writes performed (including log forces).
    disk_writes,
    /// Lock waits that actually blocked.
    lock_waits,
    /// Callback race occurrences detected and handled (paper §4.2.4).
    callback_races,
    /// Purge races detected (stale purge ignored).
    purge_races,
    /// Hierarchical-callback second rounds (second-objective violations,
    /// paper §4.3.2).
    callback_redos,
    /// Pages purged from a client cache (evictions + callbacks).
    pages_purged,
    /// Client/site crashes detected via lease expiry or callback-response
    /// timeout at an owning server.
    crashes_detected,
    /// Orphan transactions aborted on behalf of a crashed client.
    orphans_aborted,
    /// Faults injected by the chaos harness (drops, delays, duplicates,
    /// reorders, partitions, crashes) attributed to this site.
    faults_injected,
    /// Log records re-applied by restart recovery's redo pass.
    recovery_redo_records,
    /// Before-images applied by restart recovery's undo pass.
    recovery_undo_records,
    /// Server epoch bumps (one per completed restart recovery).
    epoch_bumps,
    /// Remote data requests refused with `Busy` by an overloaded server
    /// (admission control; each is retried by the client).
    requests_shed,
    /// Requests a client queued locally because it was out of credits
    /// for the target owner (credit-based flow control).
    credits_stalled,
    /// Retries of requests previously shed with `Busy`, after backoff.
    busy_retries,
    /// Remote data requests refused because their transaction was
    /// already aborted here (the request was reordered behind its own
    /// abort on a slower transport lane).
    stale_requests_refused,
    /// Graceful drains begun at this site (the control plane's drain op).
    drains_started,
    /// Graceful drains that reached the drained state (WAL forced, all
    /// admitted work retired).
    drains_completed,
    /// Ownership migrations begun at this site as the source.
    migrations_started,
    /// Ownership migrations whose MigrationCommit record was forced
    /// durable at this site as the source.
    migrations_committed,
    /// Ownership migrations rolled back (supervisor abort or crash
    /// before the commit record).
    migrations_aborted,
    /// `WrongOwner` redirects this site followed as a client (its layout
    /// was stale and a newer one re-routed the request).
    wrong_owner_redirects,
    /// Bytes of page images and copy-table entries shipped to migration
    /// destinations.
    transfer_bytes,
    /// Reads answered lock-free from the local edge cache (tiered files
    /// only; `Strict` files never count here).
    edge_hits,
    /// Edge reads that fell through to an owner fetch (cold copy,
    /// expired lease, severed watch, or invalidated page).
    edge_misses,
    /// Page invalidations published by this site as owner to edge
    /// subscribers on commit (one per page per subscriber).
    edge_invalidations,
    /// Edge subscriptions reaped: lease-expired entries collected at
    /// publish time plus subscriptions dropped when their edge site was
    /// declared dead.
    edge_subs_reaped,
}

impl fmt::Display for Counters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (name, value)) in self.fields().into_iter().enumerate() {
            let sep = if i == 0 { "" } else { " " };
            write!(f, "{sep}{name}={value}")?;
        }
        Ok(())
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
    fn display_prints_every_field_as_name_value() {
        let c = Counters {
            commits: 4,
            edge_subs_reaped: 2,
            ..Default::default()
        };
        let text = c.to_string();
        let pairs: Vec<&str> = text.split(' ').collect();
        assert_eq!(pairs.len(), c.fields().len());
        assert_eq!(pairs.first(), Some(&"commits=4"));
        assert_eq!(pairs.last(), Some(&"edge_subs_reaped=2"));
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
