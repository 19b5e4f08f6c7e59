//! Online invariant auditing over merged multi-site traces
//! (DESIGN.md §9).
//!
//! The [`InvariantAuditor`] tails a merged event stream and checks
//! protocol invariants that no single site can check alone:
//!
//! 1. **One EX copy** — at any site's lock table, at most one
//!    transaction holds `EX` on a given item at a time.
//! 2. **No grant before callback ack** — an owner must not grant `EX`
//!    to a transaction while its callback fan-out for that item still
//!    has pending (un-acked, un-crashed) recipients.
//! 3. **No data served to dead transactions / drained sites** — a site
//!    must not send a data verdict for a transaction it tombstoned,
//!    and a fully drained site must not send data verdicts at all
//!    until it is undrained or restarts.
//! 4. **Epoch monotonicity** — a site's recovery epoch strictly
//!    increases across restarts, and the epochs a client observes for
//!    a given server never go backwards.
//! 5. **One authoritative owner** — ownership migration never leaves
//!    two sites authoritative for the same page range: a
//!    `MigrationLanded` claim at a layout version no newer than an
//!    existing claim by a *different* site is a split-brain, and a
//!    source site must not acknowledge page writes (`WriteAck`) for a
//!    range after its `MigrationCommitted` record — unless a later
//!    migration handed the range back. Migration state is durable (WAL
//!    records survive restarts), so unlike checks 1–3 it is *not*
//!    cleared when a site crashes.
//! 6. **Edge staleness bound** — a lock-free edge read of a tiered
//!    file must never return data older than its tier's bound: an
//!    `EdgeRead` at time `t` with bound `b` must serve a version at
//!    least as new as the newest `EdgePageCommitted` for that page at
//!    or before `t − b`, and its self-reported age must be below `b`.
//!    Commit versions are WAL LSNs (durable), so like check 5 this
//!    state survives crash-clears.
//!
//! All state is keyed by the *recording* site, so the per-site `seq`
//! order inside the merged stream (see `merge_traces`) is the only
//! ordering the checks rely on — cross-site clock skew cannot create
//! false positives. Feed events in merged order; duplicated deliveries
//! (chaos `dup`) are harmless because every mutation is idempotent.

use crate::event::{EventKind, TraceEvent};
use pscc_common::hash::{HashMap, HashSet};
use pscc_common::{LockMode, LockableId, SimTime, SiteId, TxnId};
use std::fmt;

/// One invariant violation found in the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Virtual time of the offending event.
    pub at: SimTime,
    /// Site that recorded the offending event.
    pub site: SiteId,
    /// Which check fired (stable label).
    pub check: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[t={}µs site={}] {}: {}",
            self.at.as_micros(),
            self.site.0,
            self.check,
            self.detail
        )
    }
}

/// Streaming auditor: [`feed`](InvariantAuditor::feed) events in merged
/// order, then [`finish`](InvariantAuditor::finish).
#[derive(Debug, Default)]
pub struct InvariantAuditor {
    violations: Vec<Violation>,
    /// check 1: (site, item) -> EX holder.
    ex_holder: HashMap<(SiteId, LockableId), TxnId>,
    /// check 2: (owner site, txn, item) -> callback recipients still
    /// pending an ack.
    cb_pending: HashMap<(SiteId, TxnId, LockableId), HashSet<SiteId>>,
    /// check 2: (owner site, txn, item) danced down, not yet re-upgraded.
    danced: HashSet<(SiteId, TxnId, LockableId)>,
    /// check 3: per site, transactions tombstoned there.
    tombstoned: HashMap<SiteId, HashSet<TxnId>>,
    /// check 3: sites currently fully drained.
    drained: HashSet<SiteId>,
    /// check 4: last recovery epoch announced by each site.
    recovered_epoch: HashMap<SiteId, u64>,
    /// check 4: last epoch each client observed for each server.
    observed_epoch: HashMap<(SiteId, SiteId), u64>,
    /// check 5: newest authoritative claim per migrated range
    /// (layout version, owner). Durable — survives crash-clears.
    range_claim: HashMap<(u32, u32), (u64, SiteId)>,
    /// check 5: ranges each site has committed away, with the layout
    /// version of the commit. Durable — survives crash-clears.
    committed_away: HashMap<SiteId, HashSet<(u32, u32, u64)>>,
    /// check 6: per-page publish history `(commit time, version)`, in
    /// merged order. Durable — survives crash-clears (versions are WAL
    /// LSNs, monotone across owner restarts).
    edge_commits: HashMap<pscc_common::PageId, Vec<(SimTime, u64)>>,
}

/// Message labels that carry a data verdict to a transaction's home.
fn is_data_verdict(label: &str) -> bool {
    matches!(
        label,
        "read_reply" | "write_granted" | "lock_granted" | "large_page_reply" | "object_bytes"
    )
}

impl InvariantAuditor {
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn violate(&mut self, e: &TraceEvent, check: &'static str, detail: String) {
        self.violations.push(Violation {
            at: e.at,
            site: e.site,
            check,
            detail,
        });
    }

    /// Releases every record of `txn` at recording site `site`.
    fn clear_txn(&mut self, site: SiteId, txn: TxnId) {
        self.ex_holder
            .retain(|(s, _), t| !(*s == site && *t == txn));
        self.cb_pending
            .retain(|(s, t, _), _| !(*s == site && *t == txn));
        self.danced.retain(|(s, t, _)| !(*s == site && *t == txn));
    }

    /// Feeds one event; call in merged-stream order.
    pub fn feed(&mut self, e: &TraceEvent) {
        let site = e.site;
        match &e.kind {
            EventKind::LockGrant { txn, item, mode } => {
                if *mode == LockMode::Ex {
                    // Check 2 first: the grant must not race its own
                    // callback fan-out — except the re-upgrade that ends a
                    // callback dance (Fig. 4, §4.3.2), whose write verdict
                    // still waits for every ack.
                    let redo = self.danced.remove(&(site, *txn, *item));
                    if let Some(pending) = self.cb_pending.get(&(site, *txn, *item)) {
                        if !pending.is_empty() && !redo {
                            let n = pending.len();
                            self.violate(
                                e,
                                "grant_before_callback_ack",
                                format!("EX on {item:?} granted to {txn} with {n} callback ack(s) outstanding"),
                            );
                        }
                    }
                    // Check 1: one EX copy per (site, item).
                    if let Some(prev) = self.ex_holder.get(&(site, *item)) {
                        if prev != txn {
                            let prev = *prev;
                            self.violate(
                                e,
                                "one_ex_copy",
                                format!(
                                    "EX on {item:?} granted to {txn} while {prev} still holds EX"
                                ),
                            );
                        }
                    }
                    self.ex_holder.insert((site, *item), *txn);
                } else if self.ex_holder.get(&(site, *item)) == Some(txn) {
                    // A weaker re-grant to the holder (deescalation /
                    // §4.3.2 re-acquire) supersedes its EX record.
                    self.ex_holder.remove(&(site, *item));
                }
            }
            EventKind::LockDowngrade { txn, item } => {
                if self.ex_holder.get(&(site, *item)) == Some(txn) {
                    self.ex_holder.remove(&(site, *item));
                }
                self.danced.insert((site, *txn, *item));
            }
            EventKind::LocksReleased { txn }
            | EventKind::Abort { txn, .. }
            | EventKind::OrphanAborted { txn, .. } => {
                self.clear_txn(site, *txn);
            }
            EventKind::CallbackSent { to, txn, item } => {
                self.cb_pending
                    .entry((site, *txn, *item))
                    .or_default()
                    .insert(*to);
            }
            EventKind::CallbackPurged {
                from, txn, item, ..
            }
            | EventKind::CallbackBlocked { from, txn, item } => {
                // Purge acks the callback; a blocked report moves the
                // conflict into the §4.3.2 lock dance, where the lock
                // table itself (audited by check 1) orders the grant.
                if let Some(p) = self.cb_pending.get_mut(&(site, *txn, *item)) {
                    p.remove(from);
                }
            }
            EventKind::CrashDetected { site: dead } => {
                // The owner proceeds without the dead site's acks.
                for p in self.cb_pending.values_mut() {
                    p.remove(dead);
                }
                self.drained.remove(dead);
            }
            EventKind::TxnTombstoned { txn } => {
                self.tombstoned.entry(site).or_default().insert(*txn);
            }
            EventKind::DrainDone { site: s } => {
                self.drained.insert(*s);
            }
            EventKind::Undrained { site: s } => {
                self.drained.remove(s);
            }
            EventKind::FaultInjected { from, to, what } if from == to => {
                // The harness marks crashes and restarts as self-faults.
                // Either way the site's volatile state is gone: its lock
                // table, callback fan-outs, tombstones, and drain gate
                // do not survive into the next incarnation. (A restarted
                // owner's `Recovered` event lands before the harness
                // re-enables its ring, so this marker is the reliable
                // signal.)
                if matches!(*what, "crash" | "restart") {
                    let s = *from;
                    self.ex_holder.retain(|(site, _), _| *site != s);
                    self.cb_pending.retain(|(site, _, _), _| *site != s);
                    self.danced.retain(|(site, _, _)| *site != s);
                    self.tombstoned.remove(&s);
                    self.drained.remove(&s);
                }
            }
            EventKind::Recovered { site: s, epoch, .. } => {
                // Check 4a: strictly increasing per site.
                if let Some(prev) = self.recovered_epoch.get(s) {
                    if *epoch <= *prev {
                        let prev = *prev;
                        self.violate(
                            e,
                            "epoch_monotonicity",
                            format!("site {} recovered at epoch {epoch} after epoch {prev}", s.0),
                        );
                    }
                }
                self.recovered_epoch
                    .entry(*s)
                    .and_modify(|p| *p = (*p).max(*epoch))
                    .or_insert(*epoch);
                // A restart clears the site's drained/tombstone state.
                self.drained.remove(s);
                self.tombstoned.remove(s);
            }
            EventKind::Rejoined { server, epoch } => {
                // Check 4b: a client's view of a server never regresses.
                let key = (site, *server);
                if let Some(prev) = self.observed_epoch.get(&key) {
                    if *epoch < *prev {
                        let prev = *prev;
                        self.violate(
                            e,
                            "epoch_monotonicity",
                            format!(
                                "site {} observed server {} at epoch {epoch} after epoch {prev}",
                                site.0, server.0
                            ),
                        );
                    }
                }
                let slot = self.observed_epoch.entry(key).or_insert(*epoch);
                *slot = (*slot).max(*epoch);
            }
            EventKind::MigrationCommitted {
                site: src,
                lo,
                hi,
                to,
                layout,
            } => {
                // The commit record durably names `to` the one
                // authoritative owner; the source must stop acking
                // writes on the range from this point on.
                self.committed_away
                    .entry(*src)
                    .or_default()
                    .insert((*lo, *hi, *layout));
                let slot = self.range_claim.entry((*lo, *hi)).or_insert((0, *to));
                if *layout > slot.0 {
                    *slot = (*layout, *to);
                }
            }
            EventKind::MigrationLanded {
                site: dst,
                lo,
                hi,
                layout,
                ..
            } => {
                // Check 5a: a landing at a layout no newer than an
                // existing claim by a different site means two sites
                // both believe they own the range.
                if let Some((prev_layout, prev_owner)) = self.range_claim.get(&(*lo, *hi)) {
                    if *prev_layout >= *layout && prev_owner != dst {
                        let (pl, po) = (*prev_layout, prev_owner.0);
                        self.violate(
                            e,
                            "one_authoritative_owner",
                            format!(
                                "site {} landed [{lo},{hi}) at layout {layout} but site {po} \
                                 holds it at layout {pl}",
                                dst.0
                            ),
                        );
                    }
                }
                let slot = self.range_claim.entry((*lo, *hi)).or_insert((0, *dst));
                if *layout >= slot.0 {
                    *slot = (*layout, *dst);
                }
                // A later migration may hand the range back: forget the
                // destination's older committed-away records for it.
                if let Some(gone) = self.committed_away.get_mut(dst) {
                    gone.retain(|(l, h, v)| *v >= *layout || *h <= *lo || *l >= *hi);
                }
            }
            EventKind::WriteAck { page, to } => {
                // Check 5b: no write acked by a source after its
                // migration commit for the page's range.
                let n = page.page;
                if let Some(gone) = self.committed_away.get(&site) {
                    if let Some((lo, hi, v)) = gone.iter().find(|(l, h, _)| *l <= n && n < *h) {
                        self.violate(
                            e,
                            "write_after_migrate",
                            format!(
                                "site {} acked write of page {n} to s{} after committing \
                                 [{lo},{hi}) away at layout {v}",
                                site.0, to.0
                            ),
                        );
                    }
                }
            }
            EventKind::EdgePageCommitted { page, version } => {
                let hist = self.edge_commits.entry(*page).or_default();
                // Duplicated deliveries and 2PC re-publishes are
                // harmless: only strictly newer versions extend the
                // history.
                if hist.last().is_none_or(|(_, v)| *v < *version) {
                    hist.push((e.at, *version));
                }
            }
            EventKind::EdgeRead {
                page,
                version,
                age_us,
                bound_us,
            } => {
                // Check 6a: the edge itself must judge the copy inside
                // its bound before serving.
                if *age_us >= *bound_us {
                    self.violate(
                        e,
                        "edge_staleness_bound",
                        format!(
                            "edge read of {page:?} served at age {age_us}µs, at or past its \
                             {bound_us}µs bound"
                        ),
                    );
                }
                // Check 6b: cross-site ground truth — every commit the
                // bound obliges the edge to have seen must be reflected.
                let horizon = e.at.as_micros().saturating_sub(*bound_us);
                if let Some(hist) = self.edge_commits.get(page) {
                    let required = hist
                        .iter()
                        .filter(|(at, _)| at.as_micros() <= horizon)
                        .map(|(_, v)| *v)
                        .max()
                        .unwrap_or(0);
                    if *version < required {
                        self.violate(
                            e,
                            "edge_staleness_bound",
                            format!(
                                "edge read of {page:?} served version {version} but version \
                                 {required} was committed before the {bound_us}µs horizon"
                            ),
                        );
                    }
                }
            }
            EventKind::MsgSend { ctx, to, label } if is_data_verdict(label) => {
                // Check 3a: no data verdict for a tombstoned txn.
                if self
                    .tombstoned
                    .get(&site)
                    .is_some_and(|t| t.contains(&ctx.txn))
                {
                    self.violate(
                        e,
                        "data_to_dead_txn",
                        format!("{label} sent to s{} for tombstoned {}", to.0, ctx.txn),
                    );
                }
                // Check 3b: a fully drained site serves no data.
                if self.drained.contains(&site) {
                    self.violate(
                        e,
                        "data_while_drained",
                        format!("{label} sent to s{} while site {} is drained", to.0, site.0),
                    );
                }
            }
            _ => {}
        }
    }

    /// Finishes the audit and returns the violations found.
    #[must_use]
    pub fn finish(self) -> Vec<Violation> {
        self.violations
    }

    /// Violations found so far (streaming use).
    #[must_use]
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }
}

/// Audits a complete merged stream in one call.
#[must_use]
pub fn audit_events(events: &[TraceEvent]) -> Vec<Violation> {
    let mut a = InvariantAuditor::new();
    for e in events {
        a.feed(e);
    }
    a.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;
    use pscc_common::{AbortReason, FileId, PageId, SpanId, TraceCtx, VolId};

    fn txn(site: u32, seq: u64) -> TxnId {
        TxnId::new(SiteId(site), seq)
    }

    fn item(page: u32) -> LockableId {
        LockableId::Page(PageId::new(FileId::new(VolId(0), 0), page))
    }

    fn ev(seq: u64, site: u32, at: u64, kind: EventKind) -> TraceEvent {
        TraceEvent {
            seq,
            site: SiteId(site),
            at: SimTime::from_micros(at),
            wall_micros: at,
            kind,
        }
    }

    fn grant(seq: u64, site: u32, at: u64, t: TxnId, i: LockableId, mode: LockMode) -> TraceEvent {
        ev(
            seq,
            site,
            at,
            EventKind::LockGrant {
                txn: t,
                item: i,
                mode,
            },
        )
    }

    #[test]
    fn double_ex_is_caught_and_release_clears() {
        let a = txn(0, 1);
        let b = txn(1, 1);
        // Clean handoff: grant, release, grant.
        let ok = vec![
            grant(1, 2, 10, a, item(1), LockMode::Ex),
            ev(2, 2, 20, EventKind::LocksReleased { txn: a }),
            grant(3, 2, 30, b, item(1), LockMode::Ex),
        ];
        assert!(audit_events(&ok).is_empty());
        // Second EX without a release: violation.
        let bad = vec![
            grant(1, 2, 10, a, item(1), LockMode::Ex),
            grant(2, 2, 20, b, item(1), LockMode::Ex),
        ];
        let v = audit_events(&bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].check, "one_ex_copy");
        // Downgrade (§4.3.2) also clears the EX record.
        let danced = vec![
            grant(1, 2, 10, a, item(1), LockMode::Ex),
            ev(
                2,
                2,
                15,
                EventKind::LockDowngrade {
                    txn: a,
                    item: item(1),
                },
            ),
            grant(3, 2, 20, b, item(1), LockMode::Ex),
        ];
        assert!(audit_events(&danced).is_empty());
    }

    #[test]
    fn grant_before_callback_ack_is_caught() {
        let t = txn(0, 1);
        let cb = |seq, at| {
            ev(
                seq,
                2,
                at,
                EventKind::CallbackSent {
                    to: SiteId(1),
                    txn: t,
                    item: item(1),
                },
            )
        };
        // Grant while the ack is outstanding: violation.
        let bad = vec![cb(1, 10), grant(2, 2, 20, t, item(1), LockMode::Ex)];
        let v = audit_events(&bad);
        assert!(v.iter().any(|v| v.check == "grant_before_callback_ack"));
        // Acked first: clean.
        let ok = vec![
            cb(1, 10),
            ev(
                2,
                2,
                15,
                EventKind::CallbackPurged {
                    from: SiteId(1),
                    txn: t,
                    item: item(1),
                    purged_page: true,
                },
            ),
            grant(3, 2, 20, t, item(1), LockMode::Ex),
        ];
        assert!(audit_events(&ok).is_empty());
        // Recipient declared crashed: the owner may proceed.
        let crashed = vec![
            cb(1, 10),
            ev(2, 2, 15, EventKind::CrashDetected { site: SiteId(1) }),
            grant(3, 2, 20, t, item(1), LockMode::Ex),
        ];
        assert!(audit_events(&crashed).is_empty());
    }

    #[test]
    fn dance_reupgrade_is_exempt_from_check_2() {
        let (t, x) = (txn(0, 1), item(1));
        let at = |seq, kind| ev(seq, 2, seq * 10, kind);
        let cb = |seq, to| {
            at(
                seq,
                EventKind::CallbackSent {
                    to: SiteId(to),
                    txn: t,
                    item: x,
                },
            )
        };
        let down = |seq, txn| at(seq, EventKind::LockDowngrade { txn, item: x });
        let ex = |seq| grant(seq, 2, seq * 10, t, x, LockMode::Ex);
        let blocked = EventKind::CallbackBlocked {
            from: SiteId(1),
            txn: t,
            item: x,
        };
        let first = |v: Vec<TraceEvent>| audit_events(&v).first().map(|v| v.check);
        // Fig. 4: site 1 reports the callback blocked; the owner
        // downgrades EX→SH and re-grants EX while site 3's ack is still
        // pending. That re-upgrade is the dance, not an early grant.
        let danced = vec![
            ex(1),
            cb(2, 1),
            cb(3, 3),
            at(4, blocked.clone()),
            down(5, t),
            ex(6),
        ];
        assert_eq!(first(danced.clone()), None);
        // The exemption covers one re-upgrade only.
        let again = [danced, vec![ex(7)]].concat();
        assert_eq!(first(again), Some("grant_before_callback_ack"));
        // Another transaction's downgrade exempts nothing.
        let other = vec![
            cb(2, 1),
            cb(3, 3),
            at(4, blocked),
            down(5, txn(1, 1)),
            ex(6),
        ];
        assert_eq!(first(other), Some("grant_before_callback_ack"));
        // The mark dies with the transaction.
        let released = EventKind::LocksReleased { txn: t };
        let gone = vec![cb(2, 3), down(3, t), at(4, released), cb(5, 3), ex(6)];
        assert_eq!(first(gone), Some("grant_before_callback_ack"));
    }

    #[test]
    fn data_to_dead_txn_and_drained_site() {
        let t = txn(0, 1);
        let send = |seq, at, label| {
            ev(
                seq,
                2,
                at,
                EventKind::MsgSend {
                    ctx: TraceCtx {
                        txn: t,
                        origin: SiteId(0),
                        span: SpanId(1),
                        parent: SpanId::NONE,
                    },
                    to: SiteId(0),
                    label,
                },
            )
        };
        let bad = vec![
            ev(1, 2, 10, EventKind::TxnTombstoned { txn: t }),
            send(2, 20, "read_reply"),
        ];
        let v = audit_events(&bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].check, "data_to_dead_txn");
        // Heartbeats and aborts from a tombstoning site are fine.
        let ok = vec![
            ev(1, 2, 10, EventKind::TxnTombstoned { txn: t }),
            send(2, 20, "txn_aborted"),
        ];
        assert!(audit_events(&ok).is_empty());
        let drained = vec![
            ev(1, 2, 10, EventKind::DrainDone { site: SiteId(2) }),
            send(2, 20, "read_reply"),
        ];
        assert_eq!(audit_events(&drained)[0].check, "data_while_drained");
        let undrained = vec![
            ev(1, 2, 10, EventKind::DrainDone { site: SiteId(2) }),
            ev(2, 2, 15, EventKind::Undrained { site: SiteId(2) }),
            send(3, 20, "read_reply"),
        ];
        assert!(audit_events(&undrained).is_empty());
    }

    #[test]
    fn epoch_regressions_are_caught() {
        let rec = |seq, at, epoch| {
            ev(
                seq,
                2,
                at,
                EventKind::Recovered {
                    site: SiteId(2),
                    epoch,
                    redo: 0,
                    undo: 0,
                    in_doubt: 0,
                },
            )
        };
        assert!(audit_events(&[rec(1, 10, 1), rec(2, 20, 2)]).is_empty());
        let v = audit_events(&[rec(1, 10, 2), rec(2, 20, 2)]);
        assert_eq!(v[0].check, "epoch_monotonicity");
        // Client view regression.
        let joined = |seq, at, epoch| {
            ev(
                seq,
                0,
                at,
                EventKind::Rejoined {
                    server: SiteId(2),
                    epoch,
                },
            )
        };
        assert!(audit_events(&[joined(1, 10, 3), joined(2, 20, 3)]).is_empty());
        let v = audit_events(&[joined(1, 10, 3), joined(2, 20, 2)]);
        assert_eq!(v[0].check, "epoch_monotonicity");
        // Abort clears tombstone-adjacent state without firing anything.
        let t = txn(0, 9);
        assert!(audit_events(&[ev(
            1,
            2,
            5,
            EventKind::Abort {
                txn: t,
                reason: AbortReason::Internal
            }
        )])
        .is_empty());
    }

    #[test]
    fn split_brain_landing_is_caught() {
        let commit = |seq, at, src: u32, to: u32, layout| {
            ev(
                seq,
                src,
                at,
                EventKind::MigrationCommitted {
                    site: SiteId(src),
                    lo: 0,
                    hi: 100,
                    to: SiteId(to),
                    layout,
                },
            )
        };
        let land = |seq, at, dst: u32, from: u32, layout| {
            ev(
                seq,
                dst,
                at,
                EventKind::MigrationLanded {
                    site: SiteId(dst),
                    from: SiteId(from),
                    lo: 0,
                    hi: 100,
                    layout,
                },
            )
        };
        // Clean migration 1 -> 2, then a later one 2 -> 3: no violation.
        let ok = vec![
            commit(1, 10, 1, 2, 2),
            land(2, 20, 2, 1, 2),
            commit(3, 30, 2, 3, 3),
            land(4, 40, 3, 2, 3),
        ];
        assert!(audit_events(&ok).is_empty());
        // A second site landing the same range at the same layout:
        // split brain.
        let bad = vec![
            commit(1, 10, 1, 2, 2),
            land(2, 20, 2, 1, 2),
            land(3, 30, 3, 1, 2),
        ];
        let v = audit_events(&bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].check, "one_authoritative_owner");
        // Duplicate delivery of the same landing is idempotent.
        let dup = vec![
            commit(1, 10, 1, 2, 2),
            land(2, 20, 2, 1, 2),
            land(3, 30, 2, 1, 2),
        ];
        assert!(audit_events(&dup).is_empty());
    }

    #[test]
    fn edge_staleness_bound_is_checked() {
        let page = PageId::new(FileId::new(VolId(1), 0), 5);
        let committed =
            |seq, at, version| ev(seq, 1, at, EventKind::EdgePageCommitted { page, version });
        let read = |seq, at, version, age_us, bound_us| {
            ev(
                seq,
                3,
                at,
                EventKind::EdgeRead {
                    page,
                    version,
                    age_us,
                    bound_us,
                },
            )
        };
        // v2 commits at t=10_000; a read at t=15_000 with a 10ms bound
        // only obliges commits up to t=5_000, so serving v1 is legal.
        let ok = vec![
            committed(1, 2_000, 1),
            committed(2, 10_000, 2),
            read(3, 15_000, 1, 8_000, 10_000),
        ];
        assert!(audit_events(&ok).is_empty());
        // The same stale read at t=25_000 is past the horizon: caught.
        let bad = vec![
            committed(1, 2_000, 1),
            committed(2, 10_000, 2),
            read(3, 25_000, 1, 9_000, 10_000),
        ];
        let v = audit_events(&bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].check, "edge_staleness_bound");
        assert!(v[0].detail.contains("version 2"), "{}", v[0].detail);
        // Serving the required version at the horizon is clean.
        let fresh = vec![
            committed(1, 2_000, 1),
            committed(2, 10_000, 2),
            read(3, 25_000, 2, 3_000, 10_000),
        ];
        assert!(audit_events(&fresh).is_empty());
        // A self-reported age at/above the bound is caught even with no
        // commit history at all.
        let over = vec![read(1, 50_000, 7, 10_000, 10_000)];
        assert_eq!(audit_events(&over)[0].check, "edge_staleness_bound");
        // Commit history is durable: a crash marker does not license
        // stale serves afterwards.
        let crashed = vec![
            committed(1, 2_000, 1),
            committed(2, 10_000, 2),
            ev(
                3,
                1,
                12_000,
                EventKind::FaultInjected {
                    from: SiteId(1),
                    to: SiteId(1),
                    what: "crash",
                },
            ),
            read(4, 30_000, 1, 5_000, 10_000),
        ];
        assert_eq!(audit_events(&crashed).len(), 1);
    }

    #[test]
    fn write_ack_after_commit_is_caught() {
        let page = |n| PageId::new(FileId::new(VolId(1), 0), n);
        let ack = |seq, at, site: u32, n| {
            ev(
                seq,
                site,
                at,
                EventKind::WriteAck {
                    page: page(n),
                    to: SiteId(0),
                },
            )
        };
        let commit = ev(
            2,
            1,
            20,
            EventKind::MigrationCommitted {
                site: SiteId(1),
                lo: 0,
                hi: 100,
                to: SiteId(2),
                layout: 2,
            },
        );
        // Ack before the commit, and an ack outside the range after it:
        // clean. Ack inside the range after the commit: violation.
        let bad = vec![
            ack(1, 10, 1, 5),
            commit.clone(),
            ack(3, 30, 1, 200),
            ack(4, 40, 1, 5),
        ];
        let v = audit_events(&bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].check, "write_after_migrate");
        // The range migrating back re-licenses the source.
        let regained = vec![
            commit,
            ev(
                3,
                1,
                30,
                EventKind::MigrationLanded {
                    site: SiteId(1),
                    from: SiteId(2),
                    lo: 0,
                    hi: 100,
                    layout: 3,
                },
            ),
            ack(4, 40, 1, 5),
        ];
        assert!(audit_events(&regained).is_empty());
    }
}
