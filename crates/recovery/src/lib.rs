//! # pscc-recovery
//!
//! ARIES-style restart recovery for owner/server sites.
//!
//! The paper's redo-at-server scheme (§3.3) already routes every
//! committed update through the owner's log, so the owner can survive a
//! crash by replaying it. [`restart`] consumes the
//! [`DurableState`](pscc_wal::DurableState) a crashed
//! [`ServerLog`](pscc_wal::ServerLog) left behind — the last fuzzy
//! checkpoint plus the forced log tail — and runs the three classic
//! passes:
//!
//! 1. **Analysis** walks the checkpoint's active-transaction table and
//!    the decoded tail (tolerating a torn final frame), classifying
//!    each transaction as a *winner* (a durable `Commit` record), a
//!    *loser* (ended by `Abort`, or never ended and not prepared), or
//!    *in doubt* (a durable `Prepare` with no outcome — 2PC
//!    participants awaiting the coordinator's decision).
//! 2. **Redo** repeats history: every data record in the tail is
//!    re-applied through [`pscc_wal::redo_upto`], which skips records
//!    the page's header LSN shows were already reflected in the
//!    checkpoint base (the idempotence that makes fuzzy checkpoints
//!    sound).
//! 3. **Undo** rolls losers back through their before-images in
//!    reverse LSN order, using the checkpoint ATT for records the
//!    truncated log no longer holds.
//!
//! In-doubt transactions are *not* undone: their records are handed
//! back so the engine can re-register them in flight, re-lock their
//! objects, and query the coordinator (presumed abort). The crate is
//! deliberately engine-free — it maps `DurableState` to a recovered
//! [`Volume`](pscc_storage::Volume) plus a [`RestartOutcome`]; epochs,
//! rejoin, and 2PC resolution live in `pscc-core`.

use pscc_common::hash::{HashMap, HashSet};
use pscc_common::{PsccError, TxnId};
use pscc_storage::Volume;
use pscc_wal::{
    apply_undo, decode_log, redo_upto, DurableState, LogPayload, LogRecord, Lsn, ServerLog,
};

/// What the analysis/redo/undo passes did (exported through the
/// recovery counters and the `recovery_time` histogram).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Frames decoded from the durable log tail.
    pub analyzed_records: usize,
    /// Whether the tail was torn (truncated at the first bad frame).
    pub torn_tail: bool,
    /// Data records re-applied by the redo pass.
    pub redo_applied: u64,
    /// Data records skipped because the page LSN already covered them.
    pub redo_skipped: u64,
    /// Before-images applied by the undo pass.
    pub undo_applied: u64,
    /// Transactions with a durable commit outcome.
    pub winners: usize,
    /// Transactions rolled back.
    pub losers: usize,
    /// Prepared transactions awaiting the coordinator's decision.
    pub in_doubt: usize,
    /// Distinct pages touched by redo/undo (the reconstructed DPT).
    pub dirty_pages: usize,
    /// Highest LSN seen; the rebuilt log resumes past it.
    pub max_lsn: Lsn,
}

/// A recovered server: the reconstructed volume, a log primed to
/// continue from it, and the in-doubt transactions the engine must
/// resolve with their coordinators.
#[derive(Debug)]
pub struct RestartOutcome {
    /// The volume with winners redone and losers undone.
    pub volume: Volume,
    /// A log resuming past `max_lsn`, with in-doubt records in flight
    /// and the winner set retained for outcome queries.
    pub log: ServerLog,
    /// In-doubt transaction ids, sorted (deterministic resolution
    /// order).
    pub in_doubt: Vec<TxnId>,
    /// Pass statistics.
    pub report: RecoveryReport,
}

/// Per-transaction analysis state.
#[derive(Default)]
struct TxnState {
    /// Data records, append order; ATT records first (they predate the
    /// tail), tail records tagged with their LSNs.
    records: Vec<LogRecord>,
    prepared: bool,
}

/// Runs restart recovery. `init` is the volume image a freshly booted
/// server would construct (the medium before any logged update); it is
/// only used when no checkpoint was ever taken.
pub fn restart(init: Volume, durable: &DurableState) -> RestartOutcome {
    let mut report = RecoveryReport::default();

    // ---- Analysis ----
    let mut volume;
    let mut active: HashMap<TxnId, TxnState> = HashMap::default();
    let mut winners: HashSet<TxnId> = HashSet::default();
    let mut losers: HashMap<TxnId, Vec<LogRecord>> = HashMap::default();
    let mut max_lsn = Lsn(0);
    match &durable.checkpoint {
        Some(ckpt) => {
            volume = ckpt.base.clone();
            max_lsn = ckpt.base_lsn;
            winners.extend(ckpt.committed.iter().copied());
            for (txn, entry) in &ckpt.att {
                active.insert(
                    *txn,
                    TxnState {
                        records: entry.records.clone(),
                        prepared: entry.prepared,
                    },
                );
            }
        }
        None => volume = init,
    }
    let (tail, torn) = decode_log(&durable.log);
    report.torn_tail = torn;
    report.analyzed_records = tail.len();
    for (lsn, rec) in &tail {
        max_lsn = max_lsn.max(*lsn);
        match &rec.payload {
            LogPayload::Update { .. } | LogPayload::Create { .. } | LogPayload::Delete { .. } => {
                active.entry(rec.txn).or_default().records.push(rec.clone());
            }
            LogPayload::Prepare => active.entry(rec.txn).or_default().prepared = true,
            LogPayload::Commit => {
                winners.insert(rec.txn);
                active.remove(&rec.txn);
            }
            LogPayload::Abort => {
                if let Some(st) = active.remove(&rec.txn) {
                    losers.insert(rec.txn, st.records);
                }
            }
            // Ownership-migration records are transaction-less control
            // records; the engine resolves them itself (roll forward past
            // MigrateCommit, roll back before it) after this pass.
            LogPayload::MigrateBegin { .. }
            | LogPayload::MigrateCommit { .. }
            | LogPayload::MigrateRollback { .. }
            | LogPayload::MigrateEnd { .. }
            | LogPayload::MigrateIn { .. }
            | LogPayload::MigrateInEnd { .. }
            | LogPayload::MigrateLand { .. } => {}
        }
    }
    // Transactions still active at end of log: in doubt if prepared,
    // losers otherwise.
    let mut in_doubt: HashMap<TxnId, Vec<LogRecord>> = HashMap::default();
    for (txn, st) in active {
        if st.prepared {
            in_doubt.insert(txn, st.records);
        } else {
            losers.insert(txn, st.records);
        }
    }

    // ---- Redo: repeat history over the tail ----
    let mut dirty: HashSet<pscc_common::PageId> = HashSet::default();
    for (lsn, rec) in &tail {
        if let Some(page) = rec.payload.page() {
            dirty.insert(page);
            match redo_upto(&mut volume, rec, *lsn) {
                Ok(true) => report.redo_applied += 1,
                Ok(false) => report.redo_skipped += 1,
                Err(e) => redo_overflow(&mut volume, rec, *lsn, e),
            }
        }
    }

    // ---- Undo: roll losers back, newest first ----
    let mut loser_ids: Vec<TxnId> = losers.keys().copied().collect();
    loser_ids.sort();
    for txn in &loser_ids {
        for rec in losers[txn].iter().rev() {
            if let Some(page) = rec.payload.page() {
                dirty.insert(page);
            }
            // Undo of an update whose redo never landed (e.g. behind a
            // torn tail) degrades to rewriting the before-image, which
            // is idempotent; tolerate storage misses.
            if apply_undo(&mut volume, rec).is_ok() {
                report.undo_applied += 1;
            }
        }
    }

    report.winners = winners.len();
    report.losers = loser_ids.len();
    report.in_doubt = in_doubt.len();
    report.dirty_pages = dirty.len();
    report.max_lsn = max_lsn;

    let mut in_doubt_ids: Vec<TxnId> = in_doubt.keys().copied().collect();
    in_doubt_ids.sort();
    let log = ServerLog::after_recovery(max_lsn, in_doubt, winners);
    RestartOutcome {
        volume,
        log,
        in_doubt: in_doubt_ids,
        report,
    }
}

/// Redo hit a full page: replay the engine's §4.4 forwarding by moving
/// the record to a freshly allocated overflow page. Any other error is
/// a replay divergence — loud in debug, skipped in release.
fn redo_overflow(volume: &mut Volume, rec: &LogRecord, lsn: Lsn, err: PsccError) {
    let (oid, body) = match &rec.payload {
        LogPayload::Update { oid, after, .. } => (oid, after),
        LogPayload::Create { oid, body } => (oid, body),
        _ => {
            debug_assert!(false, "redo failed: {err:?}");
            return;
        }
    };
    if !matches!(err, PsccError::PageFull(_)) {
        debug_assert!(false, "redo failed: {err:?}");
        return;
    }
    let file = volume.files()[0];
    let overflow = volume.allocate_page(file);
    let fwd = volume.write_object_forwarding(*oid, body, overflow);
    debug_assert!(fwd.is_ok(), "restart forwarding failed: {fwd:?}");
    pscc_wal::stamp_page_lsn(volume, oid.page, lsn);
    pscc_wal::stamp_page_lsn(volume, overflow, lsn);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscc_common::{Oid, SiteId, SystemConfig, VolId};
    use pscc_wal::{apply_redo, stamp_page_lsn};

    fn fresh_volume() -> (Volume, Vec<Oid>) {
        let cfg = SystemConfig::small();
        let mut vol = Volume::create_database(VolId(0), &cfg);
        let file = vol.files()[0];
        let pages: Vec<_> = vol.file_pages(file).take(3).collect();
        let oids: Vec<Oid> = pages.iter().map(|p| Oid::new(*p, 0)).collect();
        let body = vec![0u8; 16];
        for oid in &oids {
            vol.write_object(*oid, &body).unwrap();
        }
        (vol, oids)
    }

    /// Drives a ServerLog + volume the way the engine does: append,
    /// apply, stamp.
    fn run(log: &mut ServerLog, vol: &mut Volume, rec: LogRecord) {
        let lsn = log.append(rec.clone());
        if let Some(page) = rec.payload.page() {
            apply_redo(vol, &rec).unwrap();
            stamp_page_lsn(vol, page, lsn);
        }
    }

    fn commit(log: &mut ServerLog, vol: &mut Volume, txn: TxnId) {
        run(
            log,
            vol,
            LogRecord {
                txn,
                payload: LogPayload::Commit,
            },
        );
        log.force();
        log.end_txn(txn, false);
        let _ = vol;
    }

    #[test]
    fn committed_survive_uncommitted_roll_back() {
        let (init, oids) = fresh_volume();
        let mut vol = init.clone();
        let mut log = ServerLog::new();
        let t1 = TxnId::new(SiteId(1), 1);
        let t2 = TxnId::new(SiteId(2), 1);

        run(
            &mut log,
            &mut vol,
            LogRecord::update(t1, oids[0], vec![0; 16], vec![1; 16]),
        );
        commit(&mut log, &mut vol, t1);
        // t2's update is durable (a later force covers it) but t2 never
        // commits.
        run(
            &mut log,
            &mut vol,
            LogRecord::update(t2, oids[1], vec![0; 16], vec![2; 16]),
        );
        log.force();

        let out = restart(init, &log.crash_image());
        assert_eq!(out.volume.read_object(oids[0]), Some(&[1u8; 16][..]));
        assert_eq!(out.volume.read_object(oids[1]), Some(&[0u8; 16][..]));
        assert!(out.in_doubt.is_empty());
        assert_eq!(out.report.winners, 1);
        assert_eq!(out.report.losers, 1);
        assert!(out.report.redo_applied >= 2);
        assert_eq!(out.report.undo_applied, 1);
        assert!(out.log.was_committed(t1));
        assert!(!out.log.was_committed(t2));
    }

    #[test]
    fn unforced_records_are_lost_not_undone() {
        let (init, oids) = fresh_volume();
        let mut vol = init.clone();
        let mut log = ServerLog::new();
        let t1 = TxnId::new(SiteId(1), 1);
        run(
            &mut log,
            &mut vol,
            LogRecord::update(t1, oids[0], vec![0; 16], vec![9; 16]),
        );
        // Never forced: the crash image holds nothing.
        let out = restart(init, &log.crash_image());
        assert_eq!(out.volume.read_object(oids[0]), Some(&[0u8; 16][..]));
        assert_eq!(out.report.analyzed_records, 0);
        assert_eq!(out.report.max_lsn, Lsn(0));
    }

    #[test]
    fn prepared_transactions_stay_in_doubt() {
        let (init, oids) = fresh_volume();
        let mut vol = init.clone();
        let mut log = ServerLog::new();
        let t1 = TxnId::new(SiteId(3), 5);
        run(
            &mut log,
            &mut vol,
            LogRecord::update(t1, oids[2], vec![0; 16], vec![7; 16]),
        );
        run(
            &mut log,
            &mut vol,
            LogRecord {
                txn: t1,
                payload: LogPayload::Prepare,
            },
        );
        log.force();

        let out = restart(init, &log.crash_image());
        assert_eq!(out.in_doubt, vec![t1]);
        // Updates kept (redone), undo information re-registered in
        // flight for a possible later abort decision.
        assert_eq!(out.volume.read_object(oids[2]), Some(&[7u8; 16][..]));
        assert_eq!(out.log.in_flight_of(t1).len(), 1);
        assert_eq!(out.report.in_doubt, 1);
        assert_eq!(out.report.undo_applied, 0);
    }

    #[test]
    fn recovers_across_a_checkpoint() {
        let (init, oids) = fresh_volume();
        let mut vol = init.clone();
        let mut log = ServerLog::new();
        let t1 = TxnId::new(SiteId(1), 1);
        let t2 = TxnId::new(SiteId(1), 2);
        let t3 = TxnId::new(SiteId(2), 1);

        // t1 commits before the checkpoint; t3 is mid-flight across it.
        run(
            &mut log,
            &mut vol,
            LogRecord::update(t1, oids[0], vec![0; 16], vec![1; 16]),
        );
        commit(&mut log, &mut vol, t1);
        run(
            &mut log,
            &mut vol,
            LogRecord::update(t3, oids[2], vec![0; 16], vec![3; 16]),
        );
        log.checkpoint(vol.clone());

        // After the checkpoint: t2 commits, t3 never finishes.
        run(
            &mut log,
            &mut vol,
            LogRecord::update(t2, oids[1], vec![0; 16], vec![2; 16]),
        );
        commit(&mut log, &mut vol, t2);

        let out = restart(init, &log.crash_image());
        assert_eq!(out.volume.read_object(oids[0]), Some(&[1u8; 16][..]));
        assert_eq!(out.volume.read_object(oids[1]), Some(&[2u8; 16][..]));
        // t3's pre-checkpoint update came from the ATT and was undone.
        assert_eq!(out.volume.read_object(oids[2]), Some(&[0u8; 16][..]));
        assert_eq!(out.report.undo_applied, 1);
        // The pre-checkpoint history is in the base, not replayed.
        assert_eq!(out.report.analyzed_records, 2);
        assert!(out.log.was_committed(t1));
        assert!(out.log.was_committed(t2));
    }

    #[test]
    fn torn_tail_is_reported_and_survivable() {
        let (init, oids) = fresh_volume();
        let mut vol = init.clone();
        let mut log = ServerLog::new();
        let t1 = TxnId::new(SiteId(1), 1);
        run(
            &mut log,
            &mut vol,
            LogRecord::update(t1, oids[0], vec![0; 16], vec![1; 16]),
        );
        commit(&mut log, &mut vol, t1);
        let mut image = log.crash_image();
        image.log.truncate(image.log.len() - 3);

        let out = restart(init, &image);
        assert!(out.report.torn_tail);
        // The Commit frame was torn off: t1 is a loser, rolled back.
        assert_eq!(out.volume.read_object(oids[0]), Some(&[0u8; 16][..]));
        assert!(!out.log.was_committed(t1));
    }
}
