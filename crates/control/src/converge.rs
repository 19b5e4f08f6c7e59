//! The one converge loop, over any harness that can observe the
//! cluster, execute an action and let time pass.

use crate::reconcile::{ControlAction, ControlStatus, StepKind, Supervisor};
use crate::view::ClusterView;
use pscc_common::{SimDuration, SiteId};

/// What the supervisor needs of a cluster it reconciles. The
/// simulation implements it over virtual time, the threaded cluster
/// over wall time.
pub trait Harness {
    /// A snapshot of the cluster now.
    fn observe(&self) -> ClusterView;
    /// Executes one action.
    fn execute(&mut self, action: ControlAction);
    /// Lets `dur` of the harness's time pass.
    fn wait(&mut self, dur: SimDuration);
}

/// The outcome of a successful [`Supervisor::converge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvergeReport {
    /// Reconciliation steps executed, retries included.
    pub steps: u64,
    /// Harness time the operation took.
    pub elapsed: SimDuration,
}

/// Why [`Supervisor::converge`] gave up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConvergeError {
    /// A step exhausted its retries; the reconciler aborted and rolled
    /// the touched sites back into service.
    Aborted {
        /// The site whose step gave up.
        site: SiteId,
        /// The step that could not complete.
        step: StepKind,
    },
    /// The time budget elapsed before convergence.
    BudgetExhausted,
}

impl Supervisor {
    /// Reconciles `h` until the manifest converges: observe, tick,
    /// execute the tick's actions, then wait `poll`, for at most
    /// `budget` of the harness's time.
    ///
    /// # Errors
    ///
    /// [`ConvergeError::Aborted`] if a step exhausted its retries (the
    /// rollback actions have already been executed, and given `poll` to
    /// land); [`ConvergeError::BudgetExhausted`] if the budget elapsed
    /// first.
    pub fn converge(
        &mut self,
        h: &mut impl Harness,
        poll: SimDuration,
        budget: SimDuration,
    ) -> Result<ConvergeReport, ConvergeError> {
        let mut started = None;
        loop {
            let view = h.observe();
            let t0 = *started.get_or_insert(view.now);
            let tick = self.tick(&view);
            for action in tick.actions {
                h.execute(action);
            }
            match tick.status {
                ControlStatus::Converged => {
                    return Ok(ConvergeReport {
                        steps: self.steps_executed(),
                        elapsed: view.now.since(t0),
                    })
                }
                ControlStatus::Aborted { site, step } => {
                    h.wait(poll);
                    return Err(ConvergeError::Aborted { site, step });
                }
                ControlStatus::InProgress if view.now >= t0 + budget => {
                    return Err(ConvergeError::BudgetExhausted)
                }
                ControlStatus::InProgress => h.wait(poll),
            }
        }
    }
}
