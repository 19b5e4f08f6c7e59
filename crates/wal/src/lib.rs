//! # pscc-wal
//!
//! The logging substrate for the paper's **redo-at-server** update
//! propagation scheme (paper §3.3):
//!
//! * a client generates a [`LogRecord`] whenever it updates a cached
//!   object, storing it in its local [`LogCache`];
//! * log records are shipped to the owning server at commit (or earlier,
//!   when a dirty page is evicted from the client cache);
//! * the server's [`ServerLog`] assigns LSNs, and [`apply_redo`] installs
//!   the updates into the server's copy of the data — re-reading pages
//!   from disk when they are not resident (the cost the simulation
//!   charges);
//! * on abort, the server undoes already-shipped updates with
//!   [`apply_undo`], and the client simply discards its log cache and
//!   purges the updated objects (paper §3.3).
//!
//! Two-phase commit is represented by control records
//! ([`LogPayload::Prepare`], [`LogPayload::Commit`], [`LogPayload::Abort`])
//! whose forcing the engine charges as log-disk writes.
//!
//! # Restart recovery
//!
//! The server log is *replayable*: [`ServerLog::append`] serializes every
//! record into a checksummed byte image, [`ServerLog::force`] makes
//! what was appended durable, and
//! [`ServerLog::checkpoint`] takes a fuzzy checkpoint — a base volume
//! snapshot, the active-transaction table (with prepared flags), the
//! dirty page table, and the cumulative commit outcomes — then truncates
//! the image. [`ServerLog::crash_image`] yields the [`DurableState`]
//! that survives a crash; `pscc-recovery` runs ARIES-style
//! analysis → redo → undo over it ([`decode_log`] tolerates a torn tail,
//! [`redo_upto`] skips records already reflected in a page's LSN), and
//! [`ServerLog::after_recovery`] rebuilds the log with the surviving
//! in-doubt transactions. See DESIGN.md §6.
//!
//! # Examples
//!
//! ```
//! use pscc_wal::{LogCache, LogRecord};
//! use pscc_common::{Oid, PageId, FileId, VolId, TxnId, SiteId};
//!
//! let txn = TxnId::new(SiteId(1), 1);
//! let oid = Oid::new(PageId::new(FileId::new(VolId(0), 0), 3), 2);
//! let mut cache = LogCache::new();
//! cache.append(LogRecord::update(txn, oid, vec![0; 4], vec![1; 4]));
//! assert_eq!(cache.drain_txn(txn).len(), 1);
//! assert!(cache.drain_txn(txn).is_empty());
//! ```

use pscc_common::hash::{checksum32, HashMap, HashSet};
use pscc_common::wire::{self, Wire};
use pscc_common::{Oid, PageId, PsccError, SiteId, TxnId};
use pscc_storage::{SlottedPage, Volume};
use std::fmt;

/// A log sequence number assigned by a server's log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Lsn(pub u64);

impl fmt::Display for Lsn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lsn{}", self.0)
    }
}

/// What a log record describes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogPayload {
    /// An object overwrite, with before- and after-images (the
    /// before-image enables server-side undo of shipped-but-uncommitted
    /// updates).
    Update {
        /// The updated object.
        oid: Oid,
        /// Its bytes before the update.
        before: Vec<u8>,
        /// Its bytes after the update.
        after: Vec<u8>,
    },
    /// Object creation.
    Create {
        /// The new object's id.
        oid: Oid,
        /// Its initial bytes.
        body: Vec<u8>,
    },
    /// Object deletion.
    Delete {
        /// The deleted object.
        oid: Oid,
        /// Its bytes before deletion (for undo).
        before: Vec<u8>,
    },
    /// 2PC: participant is prepared.
    Prepare,
    /// Transaction commit.
    Commit,
    /// Transaction abort.
    Abort,
    /// Ownership migration, source side: pages `[lo, hi)` are frozen and
    /// about to ship to `to`. A `MigrateBegin` with no later
    /// `MigrateCommit`/`MigrateRollback` is an in-doubt migration that
    /// restart recovery resolves by rolling it *back* (presumed abort —
    /// the source stays authoritative).
    MigrateBegin {
        /// First page number of the moving range.
        lo: u32,
        /// One past the last page number.
        hi: u32,
        /// The destination site.
        to: SiteId,
    },
    /// Ownership migration, source side: the point of no return. Once
    /// this record is durable the range belongs to `to` at layout
    /// version `layout`, and restart recovery rolls the migration
    /// *forward* (re-activating the destination if needed).
    MigrateCommit {
        /// First page number of the moved range.
        lo: u32,
        /// One past the last page number.
        hi: u32,
        /// The new owner.
        to: SiteId,
        /// The layout version the commit publishes.
        layout: u64,
    },
    /// Ownership migration, source side: the migration was abandoned
    /// before commit (supervisor abort or crash); the source remains
    /// authoritative.
    MigrateRollback {
        /// First page number of the range.
        lo: u32,
        /// One past the last page number.
        hi: u32,
    },
    /// Ownership migration, source side: cleanup finished (the
    /// destination acknowledged activation). Purely an optimization —
    /// recovery treats a missing `MigrateEnd` after a `MigrateCommit`
    /// as "re-offer activation to the destination".
    MigrateEnd {
        /// First page number of the range.
        lo: u32,
        /// One past the last page number.
        hi: u32,
    },
    /// Ownership migration, destination side: one transferred page
    /// image. Logged (and forced, with [`LogPayload::MigrateInEnd`])
    /// before the destination acknowledges the transfer, so a crashed
    /// destination can re-stage the images from its own log.
    MigrateIn {
        /// The migrating source.
        from: SiteId,
        /// The transferred page.
        page: PageId,
        /// Its full image at transfer time.
        image: SlottedPage,
    },
    /// Ownership migration, destination side: the transfer of `[lo, hi)`
    /// from `from` is complete (`n` pages) at prospective layout
    /// `layout`. An `InEnd` with no later [`LogPayload::MigrateLand`]
    /// is an in-doubt inbound migration: the restarted destination asks
    /// the source whether the commit record made it.
    MigrateInEnd {
        /// The migrating source.
        from: SiteId,
        /// First page number of the range.
        lo: u32,
        /// One past the last page number.
        hi: u32,
        /// The layout version the migration will publish.
        layout: u64,
        /// Number of transferred pages.
        n: u32,
    },
    /// Ownership migration, destination side: the range is activated
    /// here at layout `layout` — this site is now the one authoritative
    /// owner.
    MigrateLand {
        /// The migrating source.
        from: SiteId,
        /// First page number of the range.
        lo: u32,
        /// One past the last page number.
        hi: u32,
        /// The published layout version.
        layout: u64,
    },
}

impl LogPayload {
    /// The page a data payload touches (`None` for control records).
    pub fn page(&self) -> Option<PageId> {
        match self {
            LogPayload::Update { oid, .. }
            | LogPayload::Create { oid, .. }
            | LogPayload::Delete { oid, .. } => Some(oid.page),
            _ => None,
        }
    }
}

pscc_common::impl_wire!(struct Lsn { 0 });
pscc_common::impl_wire!(enum LogPayload {
    Update { oid, before, after },
    Create { oid, body },
    Delete { oid, before },
    Prepare,
    Commit,
    Abort,
    MigrateBegin { lo, hi, to },
    MigrateCommit { lo, hi, to, layout },
    MigrateRollback { lo, hi },
    MigrateEnd { lo, hi },
    MigrateIn { from, page, image },
    MigrateInEnd { from, lo, hi, layout, n },
    MigrateLand { from, lo, hi, layout },
});
pscc_common::impl_wire!(struct LogRecord { txn, payload });

/// One log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// The transaction that generated it.
    pub txn: TxnId,
    /// What it describes.
    pub payload: LogPayload,
}

impl LogRecord {
    /// Builds an update record.
    pub fn update(txn: TxnId, oid: Oid, before: Vec<u8>, after: Vec<u8>) -> Self {
        LogRecord {
            txn,
            payload: LogPayload::Update { oid, before, after },
        }
    }

    /// Approximate wire size in bytes (network cost model).
    pub fn wire_size(&self) -> usize {
        24 + match &self.payload {
            LogPayload::Update { before, after, .. } => before.len() + after.len(),
            LogPayload::Create { body, .. } => body.len(),
            LogPayload::Delete { before, .. } => before.len(),
            LogPayload::MigrateIn { image, .. } => image.as_bytes().len(),
            _ => 0,
        }
    }
}

/// A client-side log cache: records accumulate per transaction and are
/// shipped at commit, or earlier for a page being evicted while dirty.
///
/// Records are stored per transaction (append order kept inside each),
/// with a per-page list of the transactions that logged against the
/// page, so commit and abort take their own list and an eviction looks
/// only at the transactions that touched the evicted page.
#[derive(Debug, Clone, Default)]
pub struct LogCache {
    /// Each transaction's records, append order, with the cache-wide
    /// append number of each (what orders a multi-transaction drain).
    by_txn: HashMap<TxnId, Vec<(u64, LogRecord)>>,
    /// Transactions holding at least one record against the page.
    by_page: HashMap<PageId, Vec<TxnId>>,
    appended: u64,
    len: usize,
}

impl LogCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a record.
    pub fn append(&mut self, rec: LogRecord) {
        if let Some(page) = rec.payload.page() {
            let txns = self.by_page.entry(page).or_default();
            if !txns.contains(&rec.txn) {
                txns.push(rec.txn);
            }
        }
        self.appended += 1;
        self.len += 1;
        self.by_txn
            .entry(rec.txn)
            .or_default()
            .push((self.appended, rec));
    }

    /// Removes and returns all records of `txn`, in append order
    /// (commit-time shipping).
    pub fn drain_txn(&mut self, txn: TxnId) -> Vec<LogRecord> {
        let records = self.by_txn.remove(&txn).unwrap_or_default();
        self.len -= records.len();
        for (_, rec) in &records {
            let Some(page) = rec.payload.page() else {
                continue;
            };
            if let Some(txns) = self.by_page.get_mut(&page) {
                txns.retain(|t| *t != txn);
                if txns.is_empty() {
                    self.by_page.remove(&page);
                }
            }
        }
        records.into_iter().map(|(_, rec)| rec).collect()
    }

    /// Removes and returns all records touching `page`, in append order
    /// (early shipping on dirty-page eviction, paper §3.3).
    pub fn drain_page(&mut self, page: PageId) -> Vec<LogRecord> {
        let mut take = Vec::new();
        for txn in self.by_page.remove(&page).unwrap_or_default() {
            let Some(records) = self.by_txn.remove(&txn) else {
                continue;
            };
            let (on_page, keep): (Vec<_>, Vec<_>) = records
                .into_iter()
                .partition(|(_, r)| r.payload.page() == Some(page));
            take.extend(on_page);
            if !keep.is_empty() {
                self.by_txn.insert(txn, keep);
            }
        }
        self.len -= take.len();
        take.sort_unstable_by_key(|(n, _)| *n);
        take.into_iter().map(|(_, rec)| rec).collect()
    }

    /// Discards all records of `txn` (client-side abort, paper §3.3:
    /// "when a transaction aborts, it deletes its log records from the
    /// log cache").
    pub fn discard_txn(&mut self, txn: TxnId) {
        self.drain_txn(txn);
    }

    /// Records currently cached (diagnostics).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pages with cached records for `txn` (used at commit to know what
    /// to mark clean).
    pub fn pages_of(&self, txn: TxnId) -> Vec<PageId> {
        let mut v: Vec<PageId> = self
            .by_txn
            .get(&txn)
            .into_iter()
            .flatten()
            .filter_map(|(_, r)| r.payload.page())
            .collect();
        v.sort();
        v.dedup();
        v
    }

    /// Test/diagnostic invariant: the per-page index and the record
    /// count are exactly what a full scan of the records gives, and no
    /// transaction keeps an empty list.
    ///
    /// # Panics
    ///
    /// Panics with a description of the first mismatch.
    pub fn assert_consistent(&self) {
        let mut scanned: HashMap<PageId, Vec<TxnId>> = HashMap::default();
        let mut len = 0;
        for (txn, records) in &self.by_txn {
            assert!(!records.is_empty(), "empty record list kept for {txn}");
            len += records.len();
            for page in self.pages_of(*txn) {
                scanned.entry(page).or_default().push(*txn);
            }
        }
        assert_eq!(len, self.len, "record count");
        let mut indexed = self.by_page.clone();
        for txns in scanned.values_mut().chain(indexed.values_mut()) {
            txns.sort();
        }
        assert_eq!(indexed, scanned, "per-page transaction index");
    }
}

/// One active-transaction-table entry in a fuzzy checkpoint: the
/// transaction's applied data records (undo information that would
/// otherwise be lost to log truncation) and whether it had prepared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttEntry {
    /// Applied data records, append order.
    pub records: Vec<LogRecord>,
    /// Whether a `Prepare` control record preceded the checkpoint.
    pub prepared: bool,
}

/// The serialized ownership layout carried in checkpoints: a layout
/// version plus `(lo, hi, owner)` page-number ranges. `pscc-core`'s
/// ownership directory produces and adopts it.
pub type LayoutImage = (u64, Vec<(u32, u32, SiteId)>);

/// A fuzzy checkpoint: everything restart analysis needs besides the
/// post-checkpoint log tail.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Volume snapshot as of the checkpoint (page LSNs included, so
    /// redo can skip records the base already reflects).
    pub base: Volume,
    /// All records with LSN ≤ this are reflected in `base` or `att`.
    pub base_lsn: Lsn,
    /// Active-transaction table: in-flight transactions at checkpoint.
    pub att: HashMap<TxnId, AttEntry>,
    /// Dirty page table: pages touched since the previous checkpoint
    /// with their recovery LSNs (first dirtying record).
    pub dpt: Vec<(PageId, Lsn)>,
    /// Cumulative commit outcomes (presumed abort makes this the only
    /// side the coordinator must be able to re-learn).
    pub committed: HashSet<TxnId>,
    /// The ownership layout as of the checkpoint, if migrations ever
    /// changed it here (`None` on layouts still at boot version). The
    /// restarted engine adopts it, then rolls forward any later
    /// `MigrateCommit`/`MigrateLand` records from the log tail.
    pub layout: Option<LayoutImage>,
}

/// What survives a server crash: the last checkpoint (if any) plus the
/// forced byte image of the log tail. Records appended but never forced
/// are lost, exactly as on a real machine.
#[derive(Debug, Clone, Default)]
pub struct DurableState {
    /// The last fuzzy checkpoint taken, if any.
    pub checkpoint: Option<Checkpoint>,
    /// Encoded log records since that checkpoint (see [`decode_log`]).
    pub log: Vec<u8>,
}

/// The server-side log: assigns LSNs, tracks durability, and remembers
/// applied-but-uncommitted records per transaction so they can be undone
/// on abort. Every record is serialized into a byte image as it is
/// appended; the forced prefix of that image is what survives an owner
/// crash (see [`DurableState`]). A record is kept once: a data record
/// moves into its transaction's in-flight list, a control record is
/// only its frame.
#[derive(Debug, Default)]
pub struct ServerLog {
    next_lsn: u64,
    durable_lsn: u64,
    /// Applied data records of in-flight transactions, append order.
    in_flight: HashMap<TxnId, Vec<LogRecord>>,
    /// In-flight transactions that have logged a `Prepare`.
    prepared: HashSet<TxnId>,
    /// Transactions that have logged a `Commit` (cumulative).
    committed: HashSet<TxnId>,
    /// The LSN and page of each data record since the last checkpoint,
    /// append order: what the checkpoint's dirty page table is made of.
    dirtied: Vec<(Lsn, PageId)>,
    /// Encoded frames of every record since the last checkpoint (the
    /// log tail); the first `durable_len` bytes are forced.
    image: Vec<u8>,
    durable_len: usize,
    /// The last fuzzy checkpoint.
    checkpoint: Option<Checkpoint>,
    /// The current ownership layout, stamped into future checkpoints
    /// (`None` until a migration first changes it).
    layout: Option<LayoutImage>,
}

impl ServerLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds a log after restart recovery: LSN allocation resumes
    /// past everything in the durable image, the in-doubt transactions'
    /// records are re-registered in flight (with their prepared flag),
    /// and the recovered commit outcomes are retained for
    /// outcome queries. The caller should take a fresh checkpoint
    /// immediately so the new durable image is self-contained.
    pub fn after_recovery(
        max_lsn: Lsn,
        in_doubt: HashMap<TxnId, Vec<LogRecord>>,
        committed: HashSet<TxnId>,
    ) -> Self {
        ServerLog {
            next_lsn: max_lsn.0,
            durable_lsn: max_lsn.0,
            prepared: in_doubt.keys().copied().collect(),
            in_flight: in_doubt,
            committed,
            dirtied: Vec::new(),
            image: Vec::new(),
            durable_len: 0,
            checkpoint: None,
            layout: None,
        }
    }

    /// Sets the ownership layout stamped into future checkpoints. The
    /// engine calls this whenever a migration changes its directory (and
    /// once after restart, with the rolled-forward layout).
    pub fn set_layout(&mut self, layout: LayoutImage) {
        self.layout = Some(layout);
    }

    /// Appends a record, returning its LSN: encodes its frame into the
    /// log tail, and keeps a data record for possible undo until
    /// [`ServerLog::end_txn`].
    pub fn append(&mut self, rec: LogRecord) -> Lsn {
        self.next_lsn += 1;
        let lsn = Lsn(self.next_lsn);
        encode_frame(&mut self.image, lsn, &rec);
        if let Some(page) = rec.payload.page() {
            self.dirtied.push((lsn, page));
        }
        match rec.payload {
            LogPayload::Update { .. } | LogPayload::Create { .. } | LogPayload::Delete { .. } => {
                self.in_flight.entry(rec.txn).or_default().push(rec);
            }
            LogPayload::Prepare => {
                self.prepared.insert(rec.txn);
            }
            LogPayload::Commit => {
                self.committed.insert(rec.txn);
            }
            // Migration records carry a sentinel transaction and no undo
            // state; they matter only to the restart analysis pass.
            LogPayload::Abort
            | LogPayload::MigrateBegin { .. }
            | LogPayload::MigrateCommit { .. }
            | LogPayload::MigrateRollback { .. }
            | LogPayload::MigrateEnd { .. }
            | LogPayload::MigrateIn { .. }
            | LogPayload::MigrateInEnd { .. }
            | LogPayload::MigrateLand { .. } => {}
        }
        lsn
    }

    /// Forces the log to disk; returns `true` if anything needed writing
    /// (i.e. the engine should charge one log-disk I/O). The records
    /// appended since the last force, already encoded, join the
    /// crash-surviving prefix of the image.
    pub fn force(&mut self) -> bool {
        if self.durable_lsn == self.next_lsn {
            return false;
        }
        self.durable_len = self.image.len();
        self.durable_lsn = self.next_lsn;
        true
    }

    /// The forced prefix of the log tail's image.
    fn durable(&self) -> &[u8] {
        &self.image[..self.durable_len]
    }

    /// Takes a fuzzy checkpoint against `base` (the caller's current
    /// volume image, cloned) and truncates the log tail. Forces first;
    /// returns `true` if that force needed a log-disk write (the caller
    /// charges the I/O).
    pub fn checkpoint(&mut self, base: Volume) -> bool {
        let wrote = self.force();
        let mut dpt: HashMap<PageId, Lsn> = HashMap::default();
        for (lsn, page) in self.dirtied.drain(..) {
            dpt.entry(page).or_insert(lsn);
        }
        let mut dpt: Vec<(PageId, Lsn)> = dpt.into_iter().collect();
        dpt.sort();
        let att = self
            .in_flight
            .iter()
            .map(|(t, recs)| {
                (
                    *t,
                    AttEntry {
                        records: recs.clone(),
                        prepared: self.prepared.contains(t),
                    },
                )
            })
            .collect();
        self.checkpoint = Some(Checkpoint {
            base,
            base_lsn: Lsn(self.durable_lsn),
            att,
            dpt,
            committed: self.committed.clone(),
            layout: self.layout.clone(),
        });
        self.image.clear();
        self.durable_len = 0;
        wrote
    }

    /// The state that would survive a crash right now: the last
    /// checkpoint plus the *forced* portion of the log tail. Unforced
    /// records are lost, as they would be on a real machine.
    pub fn crash_image(&self) -> DurableState {
        DurableState {
            checkpoint: self.checkpoint.clone(),
            log: self.durable().to_vec(),
        }
    }

    /// The applied-but-unfinished records of `txn` (undo candidates).
    pub fn in_flight_of(&self, txn: TxnId) -> &[LogRecord] {
        self.in_flight.get(&txn).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Forgets `txn`'s in-flight records (commit), or returns them in
    /// reverse order for undo (abort).
    pub fn end_txn(&mut self, txn: TxnId, abort: bool) -> Vec<LogRecord> {
        self.prepared.remove(&txn);
        let mut recs = self.in_flight.remove(&txn).unwrap_or_default();
        if abort {
            recs.reverse();
            recs
        } else {
            Vec::new()
        }
    }

    /// Highest assigned LSN.
    pub fn current_lsn(&self) -> Lsn {
        Lsn(self.next_lsn)
    }

    /// Highest LSN known durable (forced).
    pub fn durable_lsn(&self) -> Lsn {
        Lsn(self.durable_lsn)
    }

    /// Records appended since the last checkpoint (its age in log
    /// records; the whole log if no checkpoint was ever taken).
    pub fn checkpoint_age(&self) -> u64 {
        let base = self.checkpoint.as_ref().map(|c| c.base_lsn.0).unwrap_or(0);
        self.next_lsn - base
    }

    /// Whether `txn` logged a `Commit` (here or before a recovered
    /// crash) — the coordinator-side answer to an outcome query.
    pub fn was_committed(&self, txn: TxnId) -> bool {
        self.committed.contains(&txn)
    }
}

/// Applies one record's redo (after-image) to the volume — the server
/// "redoes the operations indicated by the log records in order to
/// install the updates" (paper §3.3).
///
/// # Errors
///
/// Propagates storage errors (missing page/object, page full).
pub fn apply_redo(vol: &mut Volume, rec: &LogRecord) -> Result<(), PsccError> {
    match &rec.payload {
        LogPayload::Update { oid, after, .. } => vol.write_object(*oid, after),
        LogPayload::Create { oid, body } => {
            // Creation targeted a specific slot at the client; recreate at
            // the same slot if free, otherwise the home page decides.
            match vol.read_object(*oid) {
                Some(_) => vol.write_object(*oid, body),
                None => {
                    let got = vol.create_object(oid.page, body)?;
                    debug_assert_eq!(got.slot, oid.slot, "slot allocation diverged");
                    Ok(())
                }
            }
        }
        LogPayload::Delete { oid, .. } => vol.delete_object(*oid),
        _ => Ok(()),
    }
}

/// Applies one record's undo (before-image) to the volume — used when a
/// transaction aborts after some of its updates were already shipped
/// (paper §3.3: "any updates of the aborting transaction that have
/// already been shipped to the server are undone by the server").
///
/// # Errors
///
/// Propagates storage errors.
pub fn apply_undo(vol: &mut Volume, rec: &LogRecord) -> Result<(), PsccError> {
    match &rec.payload {
        LogPayload::Update { oid, before, .. } => vol.write_object(*oid, before),
        LogPayload::Create { oid, .. } => vol.delete_object(*oid),
        LogPayload::Delete { oid, before } => match vol.read_object(*oid) {
            Some(_) => vol.write_object(*oid, before),
            None => {
                let got = vol.create_object(oid.page, before)?;
                debug_assert_eq!(got.slot, oid.slot, "slot allocation diverged");
                Ok(())
            }
        },
        _ => Ok(()),
    }
}

#[cfg(test)]
thread_local! {
    /// Frames this thread has encoded (the force tests count them).
    static FRAMES_ENCODED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Appends one `[len | checksum | payload]` frame to `buf`: the
/// payload's length and [`checksum32`] as little-endian `u32`s, then
/// the [`Wire`] encoding of `(lsn, record)`.
fn encode_frame(buf: &mut Vec<u8>, lsn: Lsn, rec: &LogRecord) {
    #[cfg(test)]
    FRAMES_ENCODED.with(|n| n.set(n.get() + 1));
    let header = buf.len();
    buf.extend_from_slice(&[0; 8]);
    lsn.put(buf);
    rec.put(buf);
    let payload = &buf[header + 8..];
    let len = u32::try_from(payload.len()).expect("a log record under 4 GiB");
    let sum = checksum32(payload);
    buf[header..header + 4].copy_from_slice(&len.to_le_bytes());
    buf[header + 4..header + 8].copy_from_slice(&sum.to_le_bytes());
}

/// Decodes a durable log image back into `(lsn, record)` pairs.
///
/// A crash can tear the tail of the image mid-frame; analysis must not
/// panic on it. Decoding stops at the first incomplete, checksum-corrupt
/// or undecodable frame and reports it through the second return value
/// — the intact prefix is the recoverable log.
pub fn decode_log(bytes: &[u8]) -> (Vec<(Lsn, LogRecord)>, bool) {
    let mut out = Vec::new();
    let mut rest = bytes;
    while !rest.is_empty() {
        let Ok(pair) = next_frame(&mut rest) else {
            return (out, true);
        };
        out.push(pair);
    }
    (out, false)
}

/// Decodes the frame at the front of `rest` and advances past it.
fn next_frame(rest: &mut &[u8]) -> Result<(Lsn, LogRecord), wire::WireError> {
    let (len, sum) = <(u32, u32)>::get(rest)?;
    let payload = wire::take(rest, len as usize)?;
    if checksum32(payload) != sum {
        return Err(wire::WireError::Invalid("log frame checksum"));
    }
    wire::decode(payload)
}

/// Stamps `page`'s header LSN after a redo application, never moving it
/// backwards (the monotone page LSN is what makes restart redo
/// idempotent).
pub fn stamp_page_lsn(vol: &mut Volume, page: PageId, lsn: Lsn) {
    if let Some(p) = vol.page_mut(page) {
        if p.lsn() < lsn.0 {
            p.set_lsn(lsn.0);
        }
    }
}

/// Restart redo of one record: skipped (returning `Ok(false)`) when the
/// target page's LSN shows the update already applied, else applied via
/// [`apply_redo`] and stamped.
///
/// # Errors
///
/// Propagates storage errors from [`apply_redo`].
pub fn redo_upto(vol: &mut Volume, rec: &LogRecord, lsn: Lsn) -> Result<bool, PsccError> {
    if let Some(page) = rec.payload.page() {
        if let Some(p) = vol.page(page) {
            if p.lsn() >= lsn.0 {
                return Ok(false);
            }
        }
        apply_redo(vol, rec)?;
        stamp_page_lsn(vol, page, lsn);
        Ok(true)
    } else {
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscc_common::{SiteId, SystemConfig, VolId};

    fn setup() -> (Volume, Oid, TxnId) {
        let cfg = SystemConfig::small();
        let mut vol = Volume::create_database(VolId(0), &cfg);
        let file = vol.files()[0];
        let page = vol.file_pages(file).next().unwrap();
        let oid = Oid::new(page, 0);
        let body = vec![7u8; cfg.object_size() as usize];
        vol.write_object(oid, &body).unwrap();
        (vol, oid, TxnId::new(SiteId(1), 1))
    }

    #[test]
    fn redo_installs_after_image() {
        let (mut vol, oid, txn) = setup();
        let before = vol.read_object(oid).unwrap().to_vec();
        let after = vec![9u8; before.len()];
        let rec = LogRecord::update(txn, oid, before.clone(), after.clone());
        apply_redo(&mut vol, &rec).unwrap();
        assert_eq!(vol.read_object(oid), Some(&after[..]));
        apply_undo(&mut vol, &rec).unwrap();
        assert_eq!(vol.read_object(oid), Some(&before[..]));
    }

    #[test]
    fn create_and_delete_redo_undo() {
        let mut vol = Volume::new(VolId(0), 1024);
        let f = vol.create_file();
        let p = vol.allocate_page(f);
        let txn = TxnId::new(SiteId(1), 1);
        let oid = Oid::new(p, 0);

        let create = LogRecord {
            txn,
            payload: LogPayload::Create {
                oid,
                body: b"new".to_vec(),
            },
        };
        apply_redo(&mut vol, &create).unwrap();
        assert_eq!(vol.read_object(oid), Some(&b"new"[..]));
        apply_undo(&mut vol, &create).unwrap();
        assert_eq!(vol.read_object(oid), None);

        apply_redo(&mut vol, &create).unwrap();
        let del = LogRecord {
            txn,
            payload: LogPayload::Delete {
                oid,
                before: b"new".to_vec(),
            },
        };
        apply_redo(&mut vol, &del).unwrap();
        assert_eq!(vol.read_object(oid), None);
        apply_undo(&mut vol, &del).unwrap();
        assert_eq!(vol.read_object(oid), Some(&b"new"[..]));
    }

    #[test]
    fn log_cache_drains_by_txn_and_page() {
        let (_, oid, t1) = setup();
        let t2 = TxnId::new(SiteId(1), 2);
        let mut cache = LogCache::new();
        cache.append(LogRecord::update(t1, oid, vec![1], vec![2]));
        cache.append(LogRecord::update(t2, oid, vec![3], vec![4]));
        let other = Oid::new(PageId::new(oid.page.file, oid.page.page + 1), 0);
        cache.append(LogRecord::update(t1, other, vec![5], vec![6]));

        assert_eq!(cache.pages_of(t1), {
            let mut v = vec![oid.page, other.page];
            v.sort();
            v
        });
        let by_page = cache.drain_page(oid.page);
        assert_eq!(by_page.len(), 2);
        let rest = cache.drain_txn(t1);
        assert_eq!(rest.len(), 1);
        assert!(cache.is_empty());
    }

    /// The log cache as it was: one list for the whole site, every
    /// drain a pass over all of it. The per-transaction store must hand
    /// out the same records in the same order.
    #[derive(Default)]
    struct FlatModel(Vec<LogRecord>);

    impl FlatModel {
        fn drain(&mut self, pick: impl Fn(&LogRecord) -> bool) -> Vec<LogRecord> {
            let (take, keep) = std::mem::take(&mut self.0).into_iter().partition(pick);
            self.0 = keep;
            take
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// 32 × 400 appends, drains and discards over 4 transactions and
        /// 5 pages.
        #[test]
        fn log_cache_agrees_with_one_flat_list(
            ops in proptest::collection::vec((0u8..8, 0u64..4, 0u32..5, 0u16..3), 400..401)
        ) {
            use proptest::prelude::*;
            let (_, oid, _) = setup();
            let txn = |n: u64| TxnId::new(SiteId(1), n);
            let at = |p: u32, s: u16| Oid::new(PageId::new(oid.page.file, p), s);
            let mut cache = LogCache::new();
            let mut model = FlatModel::default();
            for (serial, (kind, t, p, s)) in ops.into_iter().enumerate() {
                match kind {
                    0..=4 => {
                        let rec =
                            LogRecord::update(txn(t), at(p, s), vec![serial as u8], vec![1]);
                        cache.append(rec.clone());
                        model.0.push(rec);
                    }
                    5 => prop_assert_eq!(
                        cache.drain_txn(txn(t)),
                        model.drain(|r| r.txn == txn(t))
                    ),
                    6 => prop_assert_eq!(
                        cache.drain_page(at(p, 0).page),
                        model.drain(|r| r.payload.page() == Some(at(p, 0).page))
                    ),
                    _ => {
                        cache.discard_txn(txn(t));
                        model.drain(|r| r.txn == txn(t));
                    }
                }
                cache.assert_consistent();
                prop_assert_eq!(cache.len(), model.0.len());
            }
            for t in 0..4 {
                prop_assert_eq!(cache.drain_txn(txn(t)), model.drain(|r| r.txn == txn(t)));
            }
            prop_assert!(cache.is_empty() && cache.by_txn.is_empty() && cache.by_page.is_empty());
        }
    }

    #[test]
    fn discard_on_abort() {
        let (_, oid, t1) = setup();
        let mut cache = LogCache::new();
        cache.append(LogRecord::update(t1, oid, vec![1], vec![2]));
        cache.discard_txn(t1);
        assert!(cache.is_empty());
    }

    #[test]
    fn server_log_tracks_in_flight_and_undo_order() {
        let (_, oid, t1) = setup();
        let mut log = ServerLog::new();
        let l1 = log.append(LogRecord::update(t1, oid, vec![1], vec![2]));
        let l2 = log.append(LogRecord::update(t1, oid, vec![2], vec![3]));
        assert!(l1 < l2);
        assert_eq!(log.in_flight_of(t1).len(), 2);
        let undo = log.end_txn(t1, true);
        // Reverse order: newest first.
        assert!(
            matches!(&undo[0].payload, LogPayload::Update { before, .. } if before == &vec![2])
        );
        assert!(log.in_flight_of(t1).is_empty());
    }

    #[test]
    fn force_is_idempotent_until_new_records() {
        let (_, oid, t1) = setup();
        let mut log = ServerLog::new();
        log.append(LogRecord::update(t1, oid, vec![1], vec![2]));
        assert!(log.force());
        assert!(!log.force());
        log.append(LogRecord {
            txn: t1,
            payload: LogPayload::Commit,
        });
        assert!(log.force());
    }

    /// The durable image of `tail`, the records appended since the last
    /// checkpoint with their LSNs, once every one up to `durable_lsn` is
    /// forced: each one's frame, encoded on its own, in LSN order.
    fn image_by_scan(tail: &[(Lsn, LogRecord)], durable_lsn: Lsn) -> Vec<u8> {
        let mut image = Vec::new();
        for (lsn, rec) in tail.iter().filter(|(lsn, _)| *lsn <= durable_lsn) {
            encode_frame(&mut image, *lsn, rec);
        }
        image
    }

    #[test]
    fn force_writes_the_image_a_full_scan_would() {
        let (vol, oid, _) = setup();
        for seed in 0..8u64 {
            // Knuth's LCG: the sequence only has to be varied and repeat.
            let mut state = seed;
            let mut below = |n: u64| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 33) % n
            };
            let mut log = ServerLog::new();
            let mut tail = Vec::new();
            let mut forces = 0;
            for step in 0..400u64 {
                let txn = TxnId::new(SiteId(1), step / 4);
                let rec = match below(20) {
                    0..=11 => {
                        let image = vec![below(256) as u8; below(24) as usize];
                        Some(LogRecord::update(txn, oid, image.clone(), image))
                    }
                    12..=13 => Some(LogRecord {
                        txn,
                        payload: LogPayload::Commit,
                    }),
                    14..=17 => {
                        // Unforced records are not durable yet.
                        let before = image_by_scan(&tail, log.durable_lsn());
                        assert_eq!(log.durable(), before, "seed {seed} step {step}");
                        log.force();
                        let expected = image_by_scan(&tail, log.durable_lsn());
                        assert_eq!(log.durable(), expected, "seed {seed} step {step}");
                        forces += 1;
                        None
                    }
                    18 => {
                        log.checkpoint(vol.clone());
                        tail.clear();
                        assert!(log.durable().is_empty() && log.image.is_empty());
                        None
                    }
                    _ => {
                        // A restart: LSNs resume, the tail starts empty.
                        log.force();
                        log = ServerLog::after_recovery(
                            log.current_lsn(),
                            HashMap::default(),
                            HashSet::default(),
                        );
                        tail.clear();
                        None
                    }
                };
                if let Some(rec) = rec {
                    tail.push((log.append(rec.clone()), rec));
                }
            }
            assert!(forces > 20, "seed {seed} forced only {forces} times");
            log.force();
            assert_eq!(log.durable(), image_by_scan(&tail, log.durable_lsn()));
            let (recs, torn) = decode_log(log.durable());
            assert!(!torn);
            assert_eq!(recs, tail);
        }
    }

    #[test]
    fn force_encodes_only_the_records_appended_since_the_last_one() {
        // Each record is encoded once, when it is appended: forcing the
        // last three records of a long tail encodes those three and
        // nothing else, and the force itself encodes nothing.
        let (_, oid, t1) = setup();
        let mut log = ServerLog::new();
        for i in 0..100_000u32 {
            log.append(LogRecord::update(t1, oid, vec![i as u8], vec![1]));
            if i % 100 == 99 {
                log.force();
            }
        }
        assert_eq!(log.durable_lsn(), Lsn(100_000));
        let before = FRAMES_ENCODED.with(std::cell::Cell::get);
        let image_len = log.durable().len();
        for _ in 0..3 {
            log.append(LogRecord::update(t1, oid, vec![7], vec![8]));
        }
        let appended = FRAMES_ENCODED.with(std::cell::Cell::get);
        assert!(log.force());
        assert_eq!(FRAMES_ENCODED.with(std::cell::Cell::get), appended);
        assert_eq!(appended - before, 3);
        let (recs, torn) = decode_log(&log.durable()[image_len..]);
        assert!(!torn);
        let lsns: Vec<Lsn> = recs.iter().map(|(lsn, _)| *lsn).collect();
        assert_eq!(lsns, [Lsn(100_001), Lsn(100_002), Lsn(100_003)]);
        assert!(!log.force());
    }

    #[test]
    fn control_records_are_not_in_flight() {
        let t1 = TxnId::new(SiteId(1), 1);
        let mut log = ServerLog::new();
        log.append(LogRecord {
            txn: t1,
            payload: LogPayload::Prepare,
        });
        assert!(log.in_flight_of(t1).is_empty());
    }

    #[test]
    fn wire_size_scales_with_images() {
        let (_, oid, t1) = setup();
        let small = LogRecord::update(t1, oid, vec![0; 4], vec![0; 4]);
        let big = LogRecord::update(t1, oid, vec![0; 400], vec![0; 400]);
        assert!(big.wire_size() > small.wire_size());
    }

    #[test]
    fn durable_image_roundtrips_and_omits_unforced_tail() {
        let (_, oid, t1) = setup();
        let mut log = ServerLog::new();
        log.append(LogRecord::update(t1, oid, vec![1], vec![2]));
        log.append(LogRecord {
            txn: t1,
            payload: LogPayload::Commit,
        });
        assert!(log.force());
        // Appended after the force: lost at a crash.
        log.append(LogRecord::update(t1, oid, vec![2], vec![3]));

        let image = log.crash_image();
        let (recs, torn) = decode_log(&image.log);
        assert!(!torn);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].0, Lsn(1));
        assert!(matches!(recs[1].1.payload, LogPayload::Commit));
    }

    #[test]
    fn torn_tail_truncates_instead_of_panicking() {
        let (_, oid, t1) = setup();
        let mut log = ServerLog::new();
        log.append(LogRecord::update(t1, oid, vec![1; 8], vec![2; 8]));
        log.append(LogRecord::update(t1, oid, vec![2; 8], vec![3; 8]));
        log.force();
        let full = log.crash_image().log;

        // Tear the image mid-way through the second frame.
        for cut in [full.len() - 1, full.len() - 9, 4] {
            let (recs, torn) = decode_log(&full[..cut]);
            assert!(torn, "cut at {cut} should report a torn tail");
            assert!(recs.len() <= 1);
        }
        // Flip a payload byte: checksum catches it, prefix survives.
        let mut corrupt = full.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0xff;
        let (recs, torn) = decode_log(&corrupt);
        assert!(torn);
        assert_eq!(recs.len(), 1);
    }

    /// One record of every payload variant, in declaration order.
    fn samples() -> Vec<LogRecord> {
        let (vol, oid, txn) = setup();
        let site = SiteId(2);
        let image = vol.page(oid.page).expect("the object's page").clone();
        [
            LogPayload::Update {
                oid,
                before: vec![1; 24],
                after: vec![2; 24],
            },
            LogPayload::Create {
                oid,
                body: vec![3; 8],
            },
            LogPayload::Delete {
                oid,
                before: vec![4; 8],
            },
            LogPayload::Prepare,
            LogPayload::Commit,
            LogPayload::Abort,
            LogPayload::MigrateBegin {
                lo: 0,
                hi: 8,
                to: site,
            },
            LogPayload::MigrateCommit {
                lo: 0,
                hi: 8,
                to: site,
                layout: 2,
            },
            LogPayload::MigrateRollback { lo: 0, hi: 8 },
            LogPayload::MigrateEnd { lo: 0, hi: 8 },
            LogPayload::MigrateIn {
                from: site,
                page: oid.page,
                image,
            },
            LogPayload::MigrateInEnd {
                from: site,
                lo: 0,
                hi: 8,
                layout: 2,
                n: 1,
            },
            LogPayload::MigrateLand {
                from: site,
                lo: 0,
                hi: 8,
                layout: 2,
            },
        ]
        .into_iter()
        .map(|payload| LogRecord { txn, payload })
        .collect()
    }

    /// The declaration position of a payload's variant. No wildcard: a
    /// new variant must be added here, and then to `samples()`.
    fn variant_index(p: &LogPayload) -> usize {
        match p {
            LogPayload::Update { .. } => 0,
            LogPayload::Create { .. } => 1,
            LogPayload::Delete { .. } => 2,
            LogPayload::Prepare => 3,
            LogPayload::Commit => 4,
            LogPayload::Abort => 5,
            LogPayload::MigrateBegin { .. } => 6,
            LogPayload::MigrateCommit { .. } => 7,
            LogPayload::MigrateRollback { .. } => 8,
            LogPayload::MigrateEnd { .. } => 9,
            LogPayload::MigrateIn { .. } => 10,
            LogPayload::MigrateInEnd { .. } => 11,
            LogPayload::MigrateLand { .. } => 12,
        }
    }

    /// The durable image of `records`, forced at LSNs 1, 2, ...
    fn image_of(records: &[LogRecord]) -> Vec<u8> {
        let mut log = ServerLog::new();
        for r in records {
            log.append(r.clone());
        }
        log.force();
        log.crash_image().log
    }

    #[test]
    fn every_payload_variant_round_trips() {
        let records = samples();
        let kinds: Vec<usize> = records.iter().map(|r| variant_index(&r.payload)).collect();
        assert_eq!(kinds, (0..13).collect::<Vec<_>>());
        let (got, torn) = decode_log(&image_of(&records));
        assert!(!torn);
        let lsns: Vec<Lsn> = (1..=13).map(Lsn).collect();
        assert_eq!(got, lsns.into_iter().zip(records).collect::<Vec<_>>());
    }

    #[test]
    fn every_strict_prefix_of_a_frame_is_a_torn_tail() {
        for rec in samples() {
            let image = image_of(std::slice::from_ref(&rec));
            for cut in 1..image.len() {
                assert_eq!(
                    decode_log(&image[..cut]),
                    (Vec::new(), true),
                    "{:?} cut at {cut}",
                    rec.payload
                );
            }
        }
    }

    #[test]
    fn a_frame_whose_payload_does_not_decode_is_a_torn_tail() {
        // A well-formed frame around a payload with an unknown tag: the
        // checksum holds, the record does not.
        let mut payload = Vec::new();
        Lsn(1).put(&mut payload);
        TxnId::new(SiteId(1), 1).put(&mut payload);
        payload.push(13);
        let mut image = (payload.len() as u32).to_le_bytes().to_vec();
        image.extend_from_slice(&checksum32(&payload).to_le_bytes());
        image.extend_from_slice(&payload);
        let good = image_of(&samples()[..1]);
        let (got, torn) = decode_log(&[good.as_slice(), &image].concat());
        assert!(torn);
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn every_single_byte_flip_is_caught() {
        let image = image_of(&samples());
        let (whole, torn) = decode_log(&image);
        assert!(!torn);
        for at in 0..image.len() {
            for flip in [0x01, 0x80, 0xff] {
                let mut damaged = image.clone();
                damaged[at] ^= flip;
                let (got, torn) = decode_log(&damaged);
                assert!(
                    torn && got.len() < whole.len() && got[..] == whole[..got.len()],
                    "byte {at} ^ {flip:#04x}: {} records, torn {torn}",
                    got.len()
                );
            }
        }
    }

    #[test]
    fn no_hash_seed_moves_the_image() {
        let image = image_of(&samples());
        for seed in 0..=3 {
            let again = pscc_common::hash::with_hash_seed(seed, || image_of(&samples()));
            assert_eq!(again, image, "hash seed {seed}");
        }
    }

    #[test]
    fn log_frame_bytes_are_pinned() {
        // A changed encoding must fail here, and bump `WIRE_VERSION`.
        let oid = Oid::new(PageId::new(pscc_common::FileId::new(VolId(0), 3), 5), 2);
        let rec = LogRecord::update(TxnId::new(SiteId(1), 2), oid, vec![1, 2], vec![3, 4]);
        let mut frame = Vec::new();
        encode_frame(&mut frame, Lsn(7), &rec);
        #[rustfmt::skip]
        let expected = [
            47, 0, 0, 0,                // payload length
            0x4f, 0x19, 0xa4, 0x2c,     // checksum32 of the payload
            7, 0, 0, 0, 0, 0, 0, 0,     // lsn
            1, 0, 0, 0,                 // txn.site
            2, 0, 0, 0, 0, 0, 0, 0,     // txn.seq
            0,                          // LogPayload::Update
            0, 0, 0, 0, 3, 0, 0, 0,     // oid.page.file (vol, file)
            5, 0, 0, 0, 2, 0,           // oid.page.page, oid.slot
            2, 0, 0, 0, 1, 2,           // before
            2, 0, 0, 0, 3, 4,           // after
        ];
        assert_eq!(frame, expected);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Corrupted and random images decode to a prefix, never a panic.
        #[test]
        fn damaged_images_never_panic(
            flips in proptest::collection::vec((proptest::prelude::any::<u32>(), proptest::prelude::any::<u8>()), 1..8),
            junk in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..200),
        ) {
            let records = samples();
            let mut image = image_of(&records);
            for (at, value) in flips {
                let at = at as usize % image.len();
                image[at] ^= value | 1;
            }
            let (got, torn) = decode_log(&image);
            proptest::prop_assert!(torn || got.len() == records.len());
            let (got, _) = decode_log(&junk);
            proptest::prop_assert!(got.len() <= junk.len() / 8);
        }
    }

    #[test]
    fn checkpoint_snapshots_att_and_truncates() {
        let (vol, oid, t1) = setup();
        let t2 = TxnId::new(SiteId(2), 1);
        let mut log = ServerLog::new();
        log.append(LogRecord::update(t1, oid, vec![1], vec![2]));
        log.append(LogRecord {
            txn: t1,
            payload: LogPayload::Prepare,
        });
        log.append(LogRecord::update(t2, oid, vec![2], vec![3]));
        log.append(LogRecord {
            txn: t2,
            payload: LogPayload::Commit,
        });
        log.end_txn(t2, false);
        assert!(log.checkpoint(vol.clone()));

        let image = log.crash_image();
        let ckpt = image.checkpoint.expect("checkpoint taken");
        assert_eq!(ckpt.base_lsn, Lsn(4));
        assert_eq!(ckpt.att.len(), 1);
        assert!(ckpt.att[&t1].prepared);
        assert!(ckpt.committed.contains(&t2));
        assert_eq!(ckpt.dpt.len(), 1);
        assert_eq!(ckpt.dpt[0], (oid.page, Lsn(1)));
        // Tail truncated: nothing new to decode, nothing to force.
        assert!(decode_log(&image.log).0.is_empty());
        assert!(!log.force());
        assert_eq!(log.checkpoint_age(), 0);
    }

    #[test]
    fn migration_records_survive_the_durable_image() {
        let (vol, oid, _) = setup();
        let sentinel = TxnId::new(SiteId(3), u64::MAX);
        let mut log = ServerLog::new();
        log.append(LogRecord {
            txn: sentinel,
            payload: LogPayload::MigrateBegin {
                lo: 0,
                hi: 8,
                to: SiteId(2),
            },
        });
        let image = vol.page(oid.page).unwrap().clone();
        log.append(LogRecord {
            txn: sentinel,
            payload: LogPayload::MigrateIn {
                from: SiteId(1),
                page: oid.page,
                image: image.clone(),
            },
        });
        log.append(LogRecord {
            txn: sentinel,
            payload: LogPayload::MigrateCommit {
                lo: 0,
                hi: 8,
                to: SiteId(2),
                layout: 2,
            },
        });
        // Migration records are control records: never in flight, page-less.
        assert!(log.in_flight_of(sentinel).is_empty());
        assert!(log.force());

        let (recs, torn) = decode_log(&log.crash_image().log);
        assert!(!torn);
        assert_eq!(recs.len(), 3);
        assert!(recs.iter().all(|(_, r)| r.payload.page().is_none()));
        match &recs[1].1.payload {
            LogPayload::MigrateIn { image: got, .. } => assert_eq!(got, &image),
            other => panic!("unexpected {other:?}"),
        }
        assert!(recs[1].1.wire_size() > recs[0].1.wire_size());
    }

    #[test]
    fn checkpoint_carries_the_layout_image() {
        let (vol, _, _) = setup();
        let mut log = ServerLog::new();
        log.checkpoint(vol.clone());
        assert_eq!(
            log.crash_image().checkpoint.unwrap().layout,
            None,
            "boot layout is implicit"
        );
        let layout: LayoutImage = (3, vec![(0, 10, SiteId(2)), (10, 20, SiteId(1))]);
        log.set_layout(layout.clone());
        log.checkpoint(vol.clone());
        assert_eq!(log.crash_image().checkpoint.unwrap().layout, Some(layout));
    }

    #[test]
    fn redo_upto_skips_already_stamped_pages() {
        let (mut vol, oid, t1) = setup();
        let before = vol.read_object(oid).unwrap().to_vec();
        let after = vec![9u8; before.len()];
        let rec = LogRecord::update(t1, oid, before.clone(), after.clone());
        assert!(redo_upto(&mut vol, &rec, Lsn(5)).unwrap());
        assert_eq!(vol.page(oid.page).unwrap().lsn(), 5);

        // Same or older LSN: already applied, skipped.
        let older = LogRecord::update(t1, oid, before.clone(), vec![1u8; before.len()]);
        assert!(!redo_upto(&mut vol, &older, Lsn(5)).unwrap());
        assert!(!redo_upto(&mut vol, &older, Lsn(3)).unwrap());
        assert_eq!(vol.read_object(oid), Some(&after[..]));

        // Newer LSN: applies and advances the stamp.
        assert!(redo_upto(&mut vol, &older, Lsn(6)).unwrap());
        assert_eq!(vol.page(oid.page).unwrap().lsn(), 6);
    }

    #[test]
    fn after_recovery_resumes_lsns_and_outcomes() {
        let (_, oid, t1) = setup();
        let t2 = TxnId::new(SiteId(2), 7);
        let mut in_doubt = HashMap::default();
        in_doubt.insert(t1, vec![LogRecord::update(t1, oid, vec![1], vec![2])]);
        let mut log = ServerLog::after_recovery(Lsn(42), in_doubt, [t2].into_iter().collect());
        assert_eq!(log.current_lsn(), Lsn(42));
        assert_eq!(log.durable_lsn(), Lsn(42));
        assert!(log.was_committed(t2));
        assert!(!log.was_committed(t1));
        assert_eq!(log.in_flight_of(t1).len(), 1);
        assert_eq!(
            log.append(LogRecord::update(t1, oid, vec![2], vec![3])),
            Lsn(43)
        );
    }
}
