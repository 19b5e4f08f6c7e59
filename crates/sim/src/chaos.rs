//! Deterministic fault injection for the simulation.
//!
//! A [`FaultPlan`] is a seeded, scripted schedule of message-level
//! faults that the [`Simulation`] consults on every send, under either
//! delivery policy: drop a message, duplicate it, delay it by a fixed
//! amount, reorder it behind later traffic on the same path, or hold it
//! until a scripted partition heals. A held message enters the policy's
//! queue when it is released. Site crashes and restarts are driven
//! directly through [`Simulation::crash_site`] and
//! [`Simulation::restart_site`] so a test can pin the crash to an exact
//! protocol state (e.g. "while holding an EX lock with a callback
//! pending").
//!
//! [`Simulation`]: crate::Simulation
//! [`Simulation::crash_site`]: crate::Simulation::crash_site
//! [`Simulation::restart_site`]: crate::Simulation::restart_site
//!
//! Determinism: the plan owns its own `StdRng`, separate from the
//! simulation's delivery rng, so the same seed pair replays the identical
//! fault schedule byte for byte. Every injected fault is counted in
//! the sending site's `faults_injected` counter and recorded as a
//! [`FaultInjected`](pscc_obs::EventKind::FaultInjected) trace event,
//! so chaos runs are diagnosable after the fact.
//!
//! Partition semantics: a partitioned link *holds* messages and
//! releases them at heal time rather than dropping them. This mirrors
//! the production TCP transport, whose retry/backoff loop redelivers
//! frames once connectivity returns; silently losing them would model
//! a transport we no longer ship.

use pscc_common::{SimDuration, SimTime, SiteId};
use pscc_net::PathId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The fate of one message, as decided by [`FaultPlan::decide`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDecision {
    /// Deliver normally.
    Deliver,
    /// Silently discard (a lost message).
    Drop,
    /// Enqueue twice (a duplicated message).
    Duplicate,
    /// Hold for `by`, then enqueue (`what` labels the trace event:
    /// `"delay"` for random delays, `"partition"` for scripted ones).
    Delay {
        /// How long to hold the message.
        by: SimDuration,
        /// Trace label distinguishing random delays from partitions.
        what: &'static str,
    },
    /// Hold until the *next* message on the same (from, to, path) link
    /// passes, then enqueue behind it — a per-path FIFO violation.
    Reorder,
}

/// A scripted directional cut: messages from the `from` group to the
/// `to` group are held until `heal_at`. Symmetric partitions are two
/// cuts, one per direction (see [`FaultPlan::partition`]); a single cut
/// models the asymmetric link failures real networks produce.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Sending side of the cut.
    pub from: Vec<SiteId>,
    /// Receiving side of the cut.
    pub to: Vec<SiteId>,
    /// Virtual time at which the link is restored.
    pub heal_at: SimTime,
}

impl Partition {
    /// Whether this cut holds a `from` → `to` message at `now`.
    fn cuts(&self, now: SimTime, from: SiteId, to: SiteId) -> bool {
        now < self.heal_at && self.from.contains(&from) && self.to.contains(&to)
    }
}

/// A seeded, scripted schedule of message faults.
///
/// Probabilities are evaluated per message in a fixed order (drop,
/// duplicate, delay, reorder); partitions are checked first and win.
/// With all probabilities zero and no partitions the plan is a no-op,
/// so a harness can install one unconditionally and script faults per
/// test.
#[derive(Debug)]
pub struct FaultPlan {
    rng: StdRng,
    /// Probability a message is dropped.
    pub drop_prob: f64,
    /// Probability a message is duplicated.
    pub dup_prob: f64,
    /// Probability a message is delayed by [`Self::delay_by`].
    pub delay_prob: f64,
    /// Fixed hold time for randomly delayed messages.
    pub delay_by: SimDuration,
    /// Probability a message is reordered behind later same-path traffic.
    pub reorder_prob: f64,
    /// Restrict random faults to one path (e.g. the reply path);
    /// `None` faults every path. Partitions ignore this filter.
    pub only_path: Option<PathId>,
    /// Scripted partitions (see [`Partition`]).
    pub partitions: Vec<Partition>,
    /// Total faults this plan has injected.
    pub injected: u64,
}

impl FaultPlan {
    /// A no-op plan with its own deterministic rng.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            rng: StdRng::seed_from_u64(seed),
            drop_prob: 0.0,
            dup_prob: 0.0,
            delay_prob: 0.0,
            delay_by: SimDuration::from_millis(5),
            reorder_prob: 0.0,
            only_path: None,
            partitions: Vec::new(),
            injected: 0,
        }
    }

    /// Adds a symmetric partition between two site groups.
    pub fn partition(self, a: Vec<SiteId>, b: Vec<SiteId>, heal_at: SimTime) -> Self {
        self.partition_one_way(a.clone(), b.clone(), heal_at)
            .partition_one_way(b, a, heal_at)
    }

    /// Adds a directional cut: `from` → `to` messages held until heal.
    pub fn partition_one_way(
        mut self,
        from: Vec<SiteId>,
        to: Vec<SiteId>,
        heal_at: SimTime,
    ) -> Self {
        self.partitions.push(Partition { from, to, heal_at });
        self
    }

    /// Decides the fate of one message on (from, to, path) at `now`.
    pub fn decide(
        &mut self,
        now: SimTime,
        from: SiteId,
        to: SiteId,
        path: PathId,
    ) -> FaultDecision {
        for p in &self.partitions {
            if p.cuts(now, from, to) {
                self.injected += 1;
                return FaultDecision::Delay {
                    by: p.heal_at.since(now),
                    what: "partition",
                };
            }
        }
        if let Some(only) = self.only_path {
            if path != only {
                return FaultDecision::Deliver;
            }
        }
        if self.drop_prob > 0.0 && self.rng.gen_bool(self.drop_prob) {
            self.injected += 1;
            return FaultDecision::Drop;
        }
        if self.dup_prob > 0.0 && self.rng.gen_bool(self.dup_prob) {
            self.injected += 1;
            return FaultDecision::Duplicate;
        }
        if self.delay_prob > 0.0 && self.rng.gen_bool(self.delay_prob) {
            self.injected += 1;
            return FaultDecision::Delay {
                by: self.delay_by,
                what: "delay",
            };
        }
        if self.reorder_prob > 0.0 && self.rng.gen_bool(self.reorder_prob) {
            self.injected += 1;
            return FaultDecision::Reorder;
        }
        FaultDecision::Deliver
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decisions(plan: &mut FaultPlan, n: usize) -> Vec<FaultDecision> {
        (0..n)
            .map(|_| plan.decide(SimTime::ZERO, SiteId(0), SiteId(1), PathId(0)))
            .collect()
    }

    #[test]
    fn same_seed_same_schedule() {
        let mut a = FaultPlan::seeded(42);
        a.drop_prob = 0.3;
        a.dup_prob = 0.3;
        let mut b = FaultPlan::seeded(42);
        b.drop_prob = 0.3;
        b.dup_prob = 0.3;
        assert_eq!(decisions(&mut a, 200), decisions(&mut b, 200));
        assert_eq!(a.injected, b.injected);
        assert!(a.injected > 0, "probabilities that high must fire");
    }

    #[test]
    fn partition_holds_until_heal() {
        let heal = SimTime::ZERO + SimDuration::from_millis(100);
        let mut plan = FaultPlan::seeded(1).partition(vec![SiteId(0)], vec![SiteId(2)], heal);
        // Cut link, both directions.
        assert!(matches!(
            plan.decide(SimTime::ZERO, SiteId(0), SiteId(2), PathId(0)),
            FaultDecision::Delay {
                what: "partition",
                ..
            }
        ));
        assert!(matches!(
            plan.decide(SimTime::ZERO, SiteId(2), SiteId(0), PathId(1)),
            FaultDecision::Delay { .. }
        ));
        // Unrelated link unaffected.
        assert_eq!(
            plan.decide(SimTime::ZERO, SiteId(1), SiteId(2), PathId(0)),
            FaultDecision::Deliver
        );
        // Healed.
        assert_eq!(
            plan.decide(heal, SiteId(0), SiteId(2), PathId(0)),
            FaultDecision::Deliver
        );
        assert_eq!(plan.injected, 2);
    }

    #[test]
    fn path_filter_restricts_random_faults() {
        let mut plan = FaultPlan::seeded(9);
        plan.drop_prob = 1.0;
        plan.only_path = Some(PathId(1));
        assert_eq!(
            plan.decide(SimTime::ZERO, SiteId(0), SiteId(1), PathId(0)),
            FaultDecision::Deliver
        );
        assert_eq!(
            plan.decide(SimTime::ZERO, SiteId(0), SiteId(1), PathId(1)),
            FaultDecision::Drop
        );
    }
}
