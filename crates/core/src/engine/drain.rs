//! Graceful drain: the control plane's handshake for taking an owner
//! out of service without losing work (DESIGN.md §8).
//!
//! On [`ControlOp::Drain`] the site:
//!
//! 1. **Closes admission** — every *new* remote data request is refused
//!    with [`Message::Busy`](crate::Message::Busy), exactly as if the
//!    admission cap were zero. Clients already know how to back off and
//!    retry, so shed work is deferred, never failed. The consistency
//!    lane (callbacks, 2PC, aborts, rejoin) stays open so admitted
//!    transactions can terminate.
//! 2. **Retires in-flight work** — a periodic check (the `DrainCheck`
//!    timer, one `busy_retry_hint` per tick) waits until the admitted
//!    table, callback fan-outs, deescalations, and data-bearing disk
//!    continuations are all empty.
//! 3. **Forces the WAL** — committed work is already durable (commit
//!    forces the log), so this is a belt-and-braces barrier that makes
//!    the drained image self-contained.
//! 4. **Stands drained** — [`DrainPhase::Drained`] tells the supervisor,
//!    which reads it from the site's probe, that the site can be stopped
//!    with zero committed-work loss. The site stays closed until
//!    [`ControlOp::Undrain`] (rollback / reopen) or a restart builds a
//!    fresh engine.
//!
//! Everything is idempotent from the phase alone: a repeated `Drain`
//! finds the site draining or drained and does nothing, and `Undrain`
//! on an active site does nothing.
//!
//! [`ControlOp::Drain`]: crate::ControlOp::Drain
//! [`ControlOp::Undrain`]: crate::ControlOp::Undrain

use super::{DiskCont, PeerServer, TimerKind};
use crate::msg::DiskOp;

/// Where a site stands in the drain lifecycle (a test/metrics probe).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainPhase {
    /// Admitting data requests normally.
    Active,
    /// Drain requested; in-flight work is still retiring.
    Draining,
    /// Drain complete (work retired, log forced); admission stays closed.
    Drained,
}

impl PeerServer {
    /// Where this site stands in the drain lifecycle.
    pub fn drain_phase(&self) -> DrainPhase {
        self.drain
    }

    /// Handles [`ControlOp::Drain`](crate::ControlOp::Drain): begin a
    /// drain, unless one is already under way or done.
    pub(crate) fn begin_drain(&mut self) {
        if self.drain != DrainPhase::Active {
            return;
        }
        self.drain = DrainPhase::Draining;
        self.stats.drains_started += 1;
        self.obs
            .record(pscc_obs::EventKind::DrainBegin { site: self.site });
        self.arm_drain_check();
        // The drain may already be trivially complete (idle site).
        self.drain_check_fired();
    }

    /// Handles [`ControlOp::Undrain`](crate::ControlOp::Undrain): reopen
    /// admission. An already-active site (e.g. freshly restarted) is
    /// left as it is.
    pub(crate) fn undrain(&mut self) {
        if self.drain != DrainPhase::Active {
            self.drain = DrainPhase::Active;
            self.obs
                .record(pscc_obs::EventKind::Undrained { site: self.site });
        }
    }

    /// Whether a drain is closing admission right now (checked by
    /// [`PeerServer::admit`]).
    pub(crate) fn drain_refuses_admission(&self) -> bool {
        self.drain != DrainPhase::Active
    }

    fn arm_drain_check(&mut self) {
        self.arm(TimerKind::DrainCheck, self.cfg.busy_retry_hint);
    }

    /// All admitted work has reached a verdict and nothing data-bearing
    /// is still in flight at this site in its owner role.
    fn drain_work_retired(&self) -> bool {
        let io_in_flight = self
            .disk_conts
            .values()
            .any(|c| !matches!(c, DiskCont::Accounted | DiskCont::DrainForced));
        self.admitted.is_empty()
            && self.cb_ops.is_empty()
            && self.de_ops.is_empty()
            && !io_in_flight
    }

    /// The periodic `DrainCheck` tick: finish the drain when the site's
    /// owner-role work has retired, otherwise look again next tick.
    pub(crate) fn drain_check_fired(&mut self) {
        if self.drain != DrainPhase::Draining {
            return; // stale fire: undrained or already done
        }
        if !self.drain_work_retired() {
            self.arm_drain_check();
            return;
        }
        if self.log.force() {
            self.disk(DiskOp::WriteLog, DiskCont::DrainForced);
        } else {
            self.drain_forced();
        }
    }

    /// The drain's WAL force is durable: the site is drained.
    pub(crate) fn drain_forced(&mut self) {
        if self.drain != DrainPhase::Draining {
            return; // undrained while the force was in flight, or done
        }
        self.drain = DrainPhase::Drained;
        self.stats.drains_completed += 1;
        self.obs
            .record(pscc_obs::EventKind::DrainDone { site: self.site });
    }
}
