//! Crash-safe online ownership migration (DESIGN.md §10).
//!
//! A migration re-homes the page-number range `[lo, hi)` from this site
//! (the *source*) to a destination peer while the cluster serves
//! traffic. The supervisor drives it in two control ops —
//! [`ControlOp::MigratePrepare`] then [`ControlOp::MigrateCommit`] —
//! and observes each step in the source's [`MigrationPhase`] and
//! layout version; no step is answered. Every step is fenced by WAL
//! records so a crash at any point resolves to exactly one
//! authoritative owner:
//!
//! 1. **Prepare** — freeze new work on the range (remote requests shed
//!    with `Busy`, owner-local accesses queued), wait for in-flight
//!    work on it to drain (the `MigrationCheck` timer, one
//!    `busy_retry_hint` per tick), force a [`LogPayload::MigrateBegin`]
//!    record, stand `Prepared`.
//! 2. **Transfer** — ship the range's page images and copy-table
//!    entries in one [`Message::TransferChunk`]. The destination stages
//!    them (not yet installed), forces [`LogPayload::MigrateIn`] +
//!    [`LogPayload::MigrateInEnd`], and acks.
//! 3. **Commit** — on [`Message::TransferAck`] the source forces
//!    [`LogPayload::MigrateCommit`]: the point of no return. The layout
//!    version bumps, the range leaves the copy table and buffer, and
//!    stale requests are refused with [`Message::WrongOwner`] carrying
//!    the new layout (clients re-route and retry; PR 4 backoff absorbs
//!    the race with the destination's activation).
//! 4. **Activate / Cleanup** — the destination installs the staged
//!    pages, adopts the layout, logs [`LogPayload::MigrateLand`] and
//!    checkpoints (the landed images ride the checkpoint base), then
//!    acks; the source logs a lazy [`LogPayload::MigrateEnd`], drops
//!    its images, and returns to `Idle` at the new layout.
//!
//! Crash matrix (resolved by [`PeerServer::recover_migrations`]):
//!
//! | crash at            | durable state            | resolution          |
//! |---------------------|--------------------------|---------------------|
//! | source, pre-commit  | `MigrateBegin` only      | roll back: append `MigrateRollback`, stay authoritative, tell the destination to discard |
//! | source, post-commit | `MigrateCommit`, no `End`| roll forward: the moved range's residue in the volume re-offers `MigrateActivate` |
//! | dest, staged        | `MigrateInEnd`, no `Land`| in doubt: re-stage from own log, ask the source via `QueryMigration` |
//! | dest, landed        | `MigrateLand`+checkpoint | done: duplicate activates re-ack idempotently |
//!
//! [`Message::QueryMigration`] is answered *statelessly* from the
//! directory (`layout reached` ∧ `range no longer ours` ⇔ committed),
//! so the answer survives checkpoint truncation of the source's log.
//!
//! A repeated control op finds its work done or under way and does
//! nothing twice: a second prepare while a migration is in flight, or
//! once the range has moved, changes nothing; a commit or abort with no
//! migration in flight changes nothing.
//!
//! [`ControlOp::MigratePrepare`]: crate::ControlOp::MigratePrepare
//! [`ControlOp::MigrateCommit`]: crate::ControlOp::MigrateCommit

use super::{DiskCont, PeerServer, TimerKind};
use crate::msg::{DiskOp, Input, Message};
use pscc_common::{LockableId, PageId, SimTime, SiteId, Stage, TxnId};
use pscc_storage::SlottedPage;
use pscc_wal::{LogPayload, LogRecord};

/// The transaction id migration WAL records are stamped with. `seq` is
/// `u64::MAX`, which the per-site allocator never reaches, so the
/// sentinel can never collide with a real transaction.
pub(crate) fn migration_txn(site: SiteId) -> TxnId {
    TxnId::new(site, u64::MAX)
}

/// Where a site stands in an outbound migration (a test/metrics probe;
/// the control plane mirrors it as `MigrationObs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationPhase {
    /// No outbound migration in flight.
    Idle,
    /// Range frozen; waiting for in-flight work on it to drain and the
    /// `MigrateBegin` record to force.
    Preparing,
    /// `MigrateBegin` is durable; awaiting the supervisor's commit op.
    Prepared,
    /// `TransferChunk` shipped; awaiting the destination's durable ack.
    Transferring,
    /// `MigrateCommit` is durable (point of no return); awaiting the
    /// destination's activation.
    Committing,
}

/// Book-keeping for an in-progress outbound migration at the source.
#[derive(Debug)]
pub(crate) struct MigrationState {
    pub lo: u32,
    pub hi: u32,
    pub to: SiteId,
    pub phase: MigrationPhase,
    /// When the range froze (the migration-pause histogram's start).
    pub started: SimTime,
    /// The layout version the commit will publish.
    pub layout: u64,
    /// Owner-local work that arrived for the frozen range; re-driven
    /// after commit (it re-routes) or rollback (it proceeds here).
    pub queued: Vec<Input>,
}

/// A staged (not yet installed) inbound migration at the destination.
#[derive(Debug)]
pub(crate) struct MigrationInbound {
    pub from: SiteId,
    pub lo: u32,
    pub hi: u32,
    pub layout: u64,
    pub pages: Vec<(PageId, SlottedPage)>,
    pub copies: Vec<(PageId, SiteId, u64)>,
    /// Whether the staging force completed and `TransferAck` went out.
    pub acked: bool,
}

impl PeerServer {
    // ------------------------------------------------------------------
    // Probes
    // ------------------------------------------------------------------

    /// The layout version this site routes by.
    pub fn layout_version(&self) -> u64 {
        self.owners.version()
    }

    /// Where this site stands in an outbound migration.
    pub fn migration_phase(&self) -> MigrationPhase {
        self.migrating
            .as_ref()
            .map_or(MigrationPhase::Idle, |m| m.phase)
    }

    /// Whether an inbound migration is staged but not yet landed.
    pub fn migration_inbound(&self) -> bool {
        self.migrating_in.is_some()
    }

    // ------------------------------------------------------------------
    // Source: prepare
    // ------------------------------------------------------------------

    /// Handles [`ControlOp::MigratePrepare`]: freeze the range and start
    /// draining in-flight work on it.
    ///
    /// [`ControlOp::MigratePrepare`]: crate::ControlOp::MigratePrepare
    pub(crate) fn migrate_prepare(&mut self, lo: u32, hi: u32, to: SiteId) {
        // A migration in flight (a retry of this one, or another move:
        // the supervisor runs one at a time and will retry) or a range
        // that already moved (a committed migration this retry crossed)
        // leaves nothing to start.
        let probe = PageId::new(
            pscc_common::FileId::new(pscc_common::VolId(self.site.0), 0),
            lo,
        );
        if self.migrating.is_some() || self.owners.owner_of(probe) != Some(self.site) {
            return;
        }
        let layout = self.owners.version() + 1;
        self.migrating = Some(MigrationState {
            lo,
            hi,
            to,
            phase: MigrationPhase::Preparing,
            started: self.now,
            layout,
            queued: Vec::new(),
        });
        self.stats.migrations_started += 1;
        self.obs.record(pscc_obs::EventKind::MigrationBegin {
            site: self.site,
            lo,
            hi,
            to,
        });
        // The range may already be trivially quiescent.
        self.migration_check_fired();
    }

    fn arm_migration_check(&mut self) {
        self.arm(TimerKind::MigrationCheck, self.cfg.busy_retry_hint);
    }

    /// Page ids on this volume whose page number falls in `[lo, hi)`.
    fn range_pages(&self, lo: u32, hi: u32) -> Vec<PageId> {
        self.volume
            .all_pages()
            .map(|(p, _)| *p)
            .filter(|p| (lo..hi).contains(&p.page))
            .collect()
    }

    /// Nothing in flight touches the frozen range: no lock state on its
    /// pages or their objects, no callback/deescalation operation, no
    /// data-bearing disk continuation.
    fn migration_range_quiescent(&self, lo: u32, hi: u32) -> bool {
        let in_range = |p: &PageId| (lo..hi).contains(&p.page);
        for page in self.range_pages(lo, hi) {
            if !self.locks.holders(LockableId::Page(page)).is_empty()
                || !self.locks.object_holders_on_page(page).is_empty()
                || !self.locks.adaptive_holders(page).is_empty()
                || !self.locks.waiters_on_page(page).is_empty()
            {
                return false;
            }
        }
        let cb_touches = |t: &LockableId| match t {
            LockableId::Object(oid) => in_range(&oid.page),
            LockableId::Page(p) => in_range(p),
            // Whole-file/volume callbacks are rare; be conservative.
            LockableId::File(_) | LockableId::Volume(_) => true,
        };
        if self.cb_ops.values().any(|op| cb_touches(&op.target)) {
            return false;
        }
        if self.de_ops.values().any(|op| in_range(&op.page)) {
            return false;
        }
        !self.disk_conts.values().any(|c| match c {
            DiskCont::Ship { page, .. } => in_range(page),
            // Commit application may touch any page; wait it out.
            DiskCont::CommitApply(_) | DiskCont::CommitForced(_) => true,
            _ => false,
        })
    }

    /// The periodic `MigrationCheck` tick: force the begin record once
    /// the range is quiescent, otherwise look again next tick.
    pub(crate) fn migration_check_fired(&mut self) {
        let Some(m) = &self.migrating else {
            return; // migration aborted while the timer was in flight
        };
        if m.phase != MigrationPhase::Preparing {
            return; // stale fire
        }
        let (lo, hi, to) = (m.lo, m.hi, m.to);
        if !self.migration_range_quiescent(lo, hi) {
            self.arm_migration_check();
            return;
        }
        self.log.append(LogRecord {
            txn: migration_txn(self.site),
            payload: LogPayload::MigrateBegin { lo, hi, to },
        });
        if self.log.force() {
            self.disk(DiskOp::WriteLog, DiskCont::MigratePrepareForced);
        } else {
            self.migrate_prepare_forced();
        }
    }

    /// The `MigrateBegin` force is durable: the range is prepared.
    pub(crate) fn migrate_prepare_forced(&mut self) {
        if let Some(m) = &mut self.migrating {
            // Still `Preparing` unless aborted while the force was in
            // flight.
            if m.phase == MigrationPhase::Preparing {
                m.phase = MigrationPhase::Prepared;
            }
        }
    }

    // ------------------------------------------------------------------
    // Source: transfer and commit
    // ------------------------------------------------------------------

    /// Handles [`ControlOp::MigrateCommit`]: ship the prepared range.
    ///
    /// [`ControlOp::MigrateCommit`]: crate::ControlOp::MigrateCommit
    pub(crate) fn migrate_transfer(&mut self) {
        // No migration in flight: a retry that crossed completion (or
        // crash roll-forward). The layout already tells the supervisor
        // everything it needs.
        let Some(m) = &mut self.migrating else {
            return;
        };
        match m.phase {
            MigrationPhase::Preparing => (), // not ready; supervisor retries
            MigrationPhase::Prepared | MigrationPhase::Transferring => {
                // First transfer, or a retry re-shipping a possibly
                // lost chunk — the destination stages idempotently.
                m.phase = MigrationPhase::Transferring;
                let (lo, hi, to, layout) = (m.lo, m.hi, m.to, m.layout);
                let pages: Vec<(PageId, SlottedPage)> = self
                    .volume
                    .all_pages()
                    .filter(|(p, _)| (lo..hi).contains(&p.page))
                    .map(|(p, img)| (*p, img.clone()))
                    .collect();
                let mut copies: Vec<(PageId, SiteId, u64)> = Vec::new();
                for (p, _) in &pages {
                    for (client, ship_seq) in self.page_table.entries(*p) {
                        copies.push((*p, client, ship_seq));
                    }
                }
                let chunk = Message::TransferChunk {
                    lo,
                    hi,
                    layout,
                    pages,
                    copies,
                };
                self.stats.transfer_bytes += chunk.wire_size() as u64;
                self.send(to, chunk);
            }
            MigrationPhase::Committing => {
                // Already past the commit point: the chunk may have
                // landed or been lost — re-offer both halves; each is
                // idempotent at the destination.
                let (lo, hi, to, layout) = (m.lo, m.hi, m.to, m.layout);
                self.send(to, Message::MigrateActivate { lo, hi, layout });
            }
            MigrationPhase::Idle => unreachable!("Idle is never stored"),
        }
    }

    /// Handles [`Message::TransferAck`]: the destination staged the
    /// range durably — force the commit record (point of no return).
    pub(crate) fn server_transfer_ack(&mut self, from: SiteId, lo: u32, hi: u32) {
        let Some(m) = &mut self.migrating else {
            // Stale ack: the migration it answers is gone (rolled back,
            // or fully retired). The destination staged a chunk it will
            // never hear an activate for — re-resolve it statelessly
            // from the current directory, exactly as `QueryMigration`
            // would, so a chunk that raced past its own rollback cannot
            // linger staged forever.
            let probe = PageId::new(
                pscc_common::FileId::new(pscc_common::VolId(self.site.0), 0),
                lo,
            );
            let committed = self.owners.owner_of(probe) == Some(from);
            let layout = self.owners.version();
            self.send(
                from,
                Message::MigrationResolved {
                    lo,
                    hi,
                    layout,
                    committed,
                },
            );
            return;
        };
        if m.lo != lo || m.hi != hi || m.to != from {
            return;
        }
        match m.phase {
            MigrationPhase::Transferring => {
                m.phase = MigrationPhase::Committing;
                let (to, layout) = (m.to, m.layout);
                self.log.append(LogRecord {
                    txn: migration_txn(self.site),
                    payload: LogPayload::MigrateCommit { lo, hi, to, layout },
                });
                if self.log.force() {
                    self.disk(DiskOp::WriteLog, DiskCont::MigrateCommitForced);
                } else {
                    self.migrate_commit_forced();
                }
            }
            MigrationPhase::Committing => {
                // Duplicate ack racing the activate: re-offer it.
                let layout = m.layout;
                self.send(from, Message::MigrateActivate { lo, hi, layout });
            }
            _ => (),
        }
    }

    /// The `MigrateCommit` force is durable: publish the new layout,
    /// fence the range here, and offer activation to the destination.
    pub(crate) fn migrate_commit_forced(&mut self) {
        let Some(m) = &mut self.migrating else {
            return;
        };
        if m.phase != MigrationPhase::Committing {
            return;
        }
        let (lo, hi, to, layout, started) = (m.lo, m.hi, m.to, m.layout, m.started);
        self.owners.apply_move(lo, hi, to, layout);
        self.log.set_layout(self.owners.to_image());
        self.page_table.drop_range(lo, hi);
        self.residency.evict_where(|p| (lo..hi).contains(&p.page));
        if self
            .overflow_page
            .is_some_and(|p| (lo..hi).contains(&p.page))
        {
            self.overflow_page = None;
        }
        self.stats.migrations_committed += 1;
        self.obs.record(pscc_obs::EventKind::MigrationCommitted {
            site: self.site,
            lo,
            hi,
            to,
            layout,
        });
        let pause = self.now.since(started);
        self.obs.migration_pause.record(pause);
        self.obs
            .stage_sample(migration_txn(self.site), Stage::MigrationPause, pause);
        self.migrated_out.push((lo, hi, to, layout));
        self.send(to, Message::MigrateActivate { lo, hi, layout });
    }

    /// Handles [`Message::MigrateActivated`]: the destination serves
    /// the range — discard our images, log the (lazy) end record, and
    /// retire the migration.
    pub(crate) fn server_migrate_activated(&mut self, from: SiteId, lo: u32, hi: u32, layout: u64) {
        let Some(idx) = self
            .migrated_out
            .iter()
            .position(|&(l, h, to, v)| l == lo && h == hi && to == from && v == layout)
        else {
            return; // stale duplicate
        };
        self.migrated_out.remove(idx);
        self.log.append(LogRecord {
            txn: migration_txn(self.site),
            payload: LogPayload::MigrateEnd { lo, hi },
        });
        for p in self.range_pages(lo, hi) {
            self.volume.remove_page(p);
        }
        if let Some(m) = &self.migrating {
            if m.lo == lo && m.hi == hi {
                let queued = self.migrating.take().map(|m| m.queued).unwrap_or_default();
                // Frozen-range work re-routes through the new layout.
                for w in queued {
                    self.internal.push_back(w);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Source: abort
    // ------------------------------------------------------------------

    /// Handles [`ControlOp::MigrateAbort`]: roll back if the commit
    /// record is not yet durable, otherwise complete forward. With
    /// nothing in flight there is nothing to do.
    ///
    /// [`ControlOp::MigrateAbort`]: crate::ControlOp::MigrateAbort
    pub(crate) fn migrate_abort(&mut self) {
        // Past the point of no return, the abort loses.
        let Some(m) = (self.migrating).take_if(|m| m.phase != MigrationPhase::Committing) else {
            return;
        };
        self.log.append(LogRecord {
            txn: migration_txn(self.site),
            payload: LogPayload::MigrateRollback { lo: m.lo, hi: m.hi },
        });
        self.stats.migrations_aborted += 1;
        self.obs.record(pscc_obs::EventKind::MigrationAborted {
            site: self.site,
            lo: m.lo,
            hi: m.hi,
        });
        // The destination may hold a staged copy: discard it.
        self.send(
            m.to,
            Message::MigrationResolved {
                lo: m.lo,
                hi: m.hi,
                layout: m.layout,
                committed: false,
            },
        );
        for w in m.queued {
            self.internal.push_back(w);
        }
    }

    // ------------------------------------------------------------------
    // Destination
    // ------------------------------------------------------------------

    /// Handles [`Message::TransferChunk`]: stage the range durably (own
    /// log), then ack. Nothing is installed until activation.
    pub(crate) fn server_transfer_chunk(
        &mut self,
        from: SiteId,
        lo: u32,
        hi: u32,
        layout: u64,
        pages: Vec<(PageId, SlottedPage)>,
        copies: Vec<(PageId, SiteId, u64)>,
    ) {
        if self.owners.version() >= layout {
            // Already landed (duplicate chunk after a lost ack).
            self.send(from, Message::TransferAck { lo, hi });
            return;
        }
        if let Some(inb) = &self.migrating_in {
            if inb.lo == lo && inb.hi == hi && inb.layout == layout {
                if inb.acked {
                    self.send(from, Message::TransferAck { lo, hi });
                }
                return; // staging force still in flight
            }
            // A different staged migration was superseded (its source
            // rolled back and a new move started): replace it.
            self.migrating_in = None;
        }
        for (page, image) in &pages {
            self.log.append(LogRecord {
                txn: migration_txn(self.site),
                payload: LogPayload::MigrateIn {
                    from,
                    page: *page,
                    image: image.clone(),
                },
            });
        }
        let n = pages.len() as u32;
        self.log.append(LogRecord {
            txn: migration_txn(self.site),
            payload: LogPayload::MigrateInEnd {
                from,
                lo,
                hi,
                layout,
                n,
            },
        });
        self.migrating_in = Some(MigrationInbound {
            from,
            lo,
            hi,
            layout,
            pages,
            copies,
            acked: false,
        });
        if self.log.force() {
            self.disk(DiskOp::WriteLog, DiskCont::MigrateInForced);
        } else {
            self.migrate_in_forced();
        }
    }

    /// The staging force is durable: ack the transfer.
    pub(crate) fn migrate_in_forced(&mut self) {
        let Some(inb) = &mut self.migrating_in else {
            return; // discarded while the force was in flight
        };
        if inb.acked {
            return;
        }
        inb.acked = true;
        let (from, lo, hi) = (inb.from, inb.lo, inb.hi);
        self.send(from, Message::TransferAck { lo, hi });
    }

    /// Handles [`Message::MigrateActivate`]: install the staged range
    /// and start serving it.
    pub(crate) fn server_migrate_activate(&mut self, from: SiteId, lo: u32, hi: u32, layout: u64) {
        if self.owners.version() >= layout {
            // Already landed: re-ack (the source's cleanup is pending).
            self.send(from, Message::MigrateActivated { lo, hi, layout });
            return;
        }
        let staged = matches!(
            &self.migrating_in,
            Some(inb) if inb.lo == lo && inb.hi == hi && inb.layout == layout
        );
        if !staged {
            // The staged state is gone (crash before the staging force,
            // or the chunk never arrived): wait — the supervisor's
            // transfer retry re-ships the chunk.
            return;
        }
        self.migrate_land();
    }

    /// Installs the staged inbound migration: pages, copy-table
    /// entries, layout, land record, checkpoint (the landed images ride
    /// the checkpoint base so redo never needs the `MigrateIn`
    /// records), and the activation ack.
    pub(crate) fn migrate_land(&mut self) {
        let Some(inb) = self.migrating_in.take() else {
            return;
        };
        for (page, image) in inb.pages {
            self.volume.install_page(page, image);
        }
        for (page, client, ship_seq) in inb.copies {
            self.page_table.restore(page, client, ship_seq);
        }
        self.owners
            .apply_move(inb.lo, inb.hi, self.site, inb.layout);
        self.log.set_layout(self.owners.to_image());
        self.log.append(LogRecord {
            txn: migration_txn(self.site),
            payload: LogPayload::MigrateLand {
                from: inb.from,
                lo: inb.lo,
                hi: inb.hi,
                layout: inb.layout,
            },
        });
        self.log.checkpoint(self.volume.clone());
        self.stats.disk_writes += 1;
        self.obs.record(pscc_obs::EventKind::MigrationLanded {
            site: self.site,
            from: inb.from,
            lo: inb.lo,
            hi: inb.hi,
            layout: inb.layout,
        });
        self.send(
            inb.from,
            Message::MigrateActivated {
                lo: inb.lo,
                hi: inb.hi,
                layout: inb.layout,
            },
        );
    }

    /// Handles [`Message::MigrationResolved`]: a restarted destination's
    /// in-doubt query came back, or the source rolled back unsolicited.
    pub(crate) fn server_migration_resolved(
        &mut self,
        from: SiteId,
        lo: u32,
        hi: u32,
        layout: u64,
        committed: bool,
    ) {
        let matches_staged = matches!(
            &self.migrating_in,
            Some(inb) if inb.from == from && inb.lo == lo && inb.hi == hi
        );
        if !matches_staged {
            return;
        }
        if committed {
            // Land under the queried layout (the staging may carry the
            // same version; `apply_move` needs it newer than ours).
            if let Some(inb) = &mut self.migrating_in {
                inb.layout = layout.max(inb.layout);
            }
            self.migrate_land();
        } else {
            self.migrating_in = None;
        }
    }

    /// Handles [`Message::QueryMigration`] at the source — statelessly,
    /// from the directory, so the answer survives log truncation: the
    /// move committed iff the layout reached `layout` and the range is
    /// no longer ours.
    pub(crate) fn server_query_migration(&mut self, from: SiteId, lo: u32, hi: u32, layout: u64) {
        let probe = PageId::new(
            pscc_common::FileId::new(pscc_common::VolId(self.site.0), 0),
            lo,
        );
        let committed =
            self.owners.version() >= layout && self.owners.owner_of(probe) != Some(self.site);
        self.send(
            from,
            Message::MigrationResolved {
                lo,
                hi,
                layout,
                committed,
            },
        );
    }

    // ------------------------------------------------------------------
    // Frozen-range gate (owner-local traffic)
    // ------------------------------------------------------------------

    /// Queues owner-local work for a page in a frozen (migrating) range,
    /// returning `true` if queued. Remote traffic is shed with `Busy`
    /// instead (clients already know how to back off); local work has
    /// no one to shed to, so it parks until the move commits (then
    /// re-routes) or rolls back (then proceeds). `work` is called only
    /// when it is queued.
    pub(crate) fn queue_if_migrating(
        &mut self,
        page: PageId,
        work: impl FnOnce() -> Input,
    ) -> bool {
        match &mut self.migrating {
            Some(m) if (m.lo..m.hi).contains(&page.page) => {
                m.queued.push(work());
                true
            }
            _ => false,
        }
    }

    // ------------------------------------------------------------------
    // Restart resolution
    // ------------------------------------------------------------------

    /// Resolves in-doubt migrations after restart recovery, from the
    /// durable log image and the volume's residue. Called by
    /// [`PeerServer::recover`] after the directory is rebuilt; returns
    /// nothing — resolution messages ride `self.internal`/`self.out`.
    pub(crate) fn recover_migrations(&mut self, records: &[(pscc_wal::Lsn, LogRecord)]) {
        // Source side: a `MigrateBegin` with no later outcome rolls
        // back (presumed abort — the commit record is the only thing
        // that can move ownership away).
        let mut open: Vec<(u32, u32, SiteId)> = Vec::new();
        // Destination side: staged images per source, and the in-doubt
        // `MigrateInEnd` they belong to.
        let mut staging: pscc_common::hash::HashMap<SiteId, Vec<(PageId, SlottedPage)>> =
            pscc_common::hash::HashMap::default();
        let mut in_doubt: Option<MigrationInbound> = None;
        for (_, rec) in records {
            match &rec.payload {
                LogPayload::MigrateBegin { lo, hi, to } => open.push((*lo, *hi, *to)),
                LogPayload::MigrateCommit { lo, hi, .. }
                | LogPayload::MigrateRollback { lo, hi } => {
                    open.retain(|&(l, h, _)| !(l == *lo && h == *hi));
                }
                LogPayload::MigrateIn { from, page, image } => {
                    staging
                        .entry(*from)
                        .or_default()
                        .push((*page, image.clone()));
                }
                LogPayload::MigrateInEnd {
                    from,
                    lo,
                    hi,
                    layout,
                    ..
                } => {
                    in_doubt = Some(MigrationInbound {
                        from: *from,
                        lo: *lo,
                        hi: *hi,
                        layout: *layout,
                        pages: staging.remove(from).unwrap_or_default(),
                        copies: Vec::new(),
                        acked: true,
                    });
                }
                LogPayload::MigrateLand { lo, hi, .. }
                    if in_doubt
                        .as_ref()
                        .is_some_and(|inb| inb.lo == *lo && inb.hi == *hi) =>
                {
                    in_doubt = None;
                }
                _ => (),
            }
        }
        for (lo, hi, to) in open {
            self.log.append(LogRecord {
                txn: migration_txn(self.site),
                payload: LogPayload::MigrateRollback { lo, hi },
            });
            self.stats.migrations_aborted += 1;
            self.obs.record(pscc_obs::EventKind::MigrationAborted {
                site: self.site,
                lo,
                hi,
            });
            // The prospective layout at staging time was one past the
            // version the rollback preserves; the destination matches
            // its staged copy by range and source, not version.
            let layout = self.owners.version() + 1;
            self.send(
                to,
                Message::MigrationResolved {
                    lo,
                    hi,
                    layout,
                    committed: false,
                },
            );
        }
        if let Some(inb) = in_doubt {
            let (from, lo, hi, layout) = (inb.from, inb.lo, inb.hi, inb.layout);
            self.migrating_in = Some(inb);
            self.send(from, Message::QueryMigration { lo, hi, layout });
        }
        // Roll forward: pages still on the volume for ranges the
        // directory says moved away are a committed migration whose
        // cleanup never ran — re-offer activation (idempotent at the
        // destination) and let `MigrateActivated` finish the cleanup.
        // Scanning the volume instead of the log survives checkpoint
        // truncation of the `MigrateCommit` record.
        let mut residue: Vec<(u32, u32, SiteId)> = Vec::new();
        for (p, _) in self.volume.all_pages() {
            if let Some((lo, hi, owner)) = self.owners.locate(*p) {
                if owner != self.site && !residue.contains(&(lo, hi, owner)) {
                    residue.push((lo, hi, owner));
                }
            }
        }
        let layout = self.owners.version();
        for (lo, hi, to) in residue {
            self.migrated_out.push((lo, hi, to, layout));
            self.send(to, Message::MigrateActivate { lo, hi, layout });
        }
    }
}
