//! The two bounded lanes every inbox has, whichever transport fills it:
//! the in-process mailbox and the TCP inbox hold one each.

use crate::{Envelope, LaneClassifier};
use std::collections::VecDeque;

/// A priority lane drained ahead of a bulk lane, each holding at most
/// `capacity` messages. A [`LaneClassifier`] picks the lane of each
/// message (`true` = priority); without one everything rides the
/// priority lane.
pub(crate) struct Lanes<M> {
    prio: VecDeque<Envelope<M>>,
    bulk: VecDeque<Envelope<M>>,
    capacity: usize,
    classify: Option<LaneClassifier<M>>,
}

impl<M> Lanes<M> {
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub(crate) fn new(capacity: usize, classify: Option<LaneClassifier<M>>) -> Self {
        assert!(capacity > 0, "need a non-zero mailbox capacity");
        Lanes {
            prio: VecDeque::new(),
            bulk: VecDeque::new(),
            capacity,
            classify,
        }
    }

    /// Whether `msg` rides the priority lane.
    pub(crate) fn is_prio(&self, msg: &M) -> bool {
        self.classify.as_ref().is_none_or(|c| c(msg))
    }

    /// Enqueues `env` on its lane, or hands it back if that lane is full.
    pub(crate) fn push(&mut self, env: Envelope<M>) -> Result<(), Envelope<M>> {
        let lane = if self.is_prio(&env.msg) {
            &mut self.prio
        } else {
            &mut self.bulk
        };
        if lane.len() < self.capacity {
            lane.push_back(env);
            Ok(())
        } else {
            Err(env)
        }
    }

    /// Takes the next message, priority lane first, and says whether the
    /// lane it came from had been full (someone may be waiting to push).
    pub(crate) fn pop(&mut self) -> Option<(Envelope<M>, bool)> {
        let lane = if self.prio.is_empty() {
            &mut self.bulk
        } else {
            &mut self.prio
        };
        let was_full = lane.len() == self.capacity;
        lane.pop_front().map(|env| (env, was_full))
    }

    /// Whether a priority message is queued.
    pub(crate) fn has_prio(&self) -> bool {
        !self.prio.is_empty()
    }

    /// Messages queued on both lanes.
    pub(crate) fn len(&self) -> usize {
        self.prio.len() + self.bulk.len()
    }
}
