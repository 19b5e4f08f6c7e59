//! The bounded two-lane mailbox of one site, and the one place that
//! site's thread blocks.
//!
//! A monitor: both lanes, the wake flag and the handle counts live under
//! one mutex; receivers park on `ready`, senders that found their lane
//! full park on `space`. Because every source of work for the site —
//! either lane, [`Waker::wake`], the last sender leaving — changes the
//! state under that mutex and then notifies `ready`, a receiver that
//! tested the state and went to sleep cannot miss any of them.

use crate::{Envelope, LaneClassifier};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Why a message was not enqueued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SendError {
    /// The bulk lane stayed full for the sender's whole patience.
    Full,
    /// Every receiver is gone (teardown).
    Closed,
}

struct State<M> {
    prio: VecDeque<Envelope<M>>,
    bulk: VecDeque<Envelope<M>>,
    /// Set by [`Waker::wake`], cleared by the timed wait it ends.
    woken: bool,
    senders: usize,
    receivers: usize,
    // Threads inside a condvar wait. A notify is a system call whether or
    // not anyone sleeps, so the hot paths skip it when these are zero.
    parked_receivers: usize,
    parked_senders: usize,
}

struct Inner<M> {
    state: Mutex<State<M>>,
    ready: Condvar,
    space: Condvar,
    /// Per lane.
    capacity: usize,
    classify: Option<LaneClassifier<M>>,
}

impl<M> Inner<M> {
    fn lock(&self) -> MutexGuard<'_, State<M>> {
        // Every update leaves the state valid at each step (plain pushes,
        // pops and counter bumps), so a panicking peer thread must not
        // take the site's mailbox down with it.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// One condvar wait, bounded by `left` if given. Poisoning is ignored
/// for the reason [`Inner::lock`] gives.
fn wait<'a, M>(
    on: &Condvar,
    guard: MutexGuard<'a, State<M>>,
    left: Option<Duration>,
) -> MutexGuard<'a, State<M>> {
    match left {
        None => on.wait(guard).unwrap_or_else(PoisonError::into_inner),
        Some(left) => {
            on.wait_timeout(guard, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0
        }
    }
}

/// Creates a mailbox of `capacity` messages per lane. `classify` picks
/// the lane of each message (`true` = priority); without one everything
/// rides the priority lane.
pub(crate) fn mailbox<M>(
    capacity: usize,
    classify: Option<LaneClassifier<M>>,
) -> (Sender<M>, Receiver<M>) {
    assert!(capacity > 0, "need a non-zero mailbox capacity");
    let inner = Arc::new(Inner {
        state: Mutex::new(State {
            prio: VecDeque::new(),
            bulk: VecDeque::new(),
            woken: false,
            senders: 1,
            receivers: 1,
            parked_receivers: 0,
            parked_senders: 0,
        }),
        ready: Condvar::new(),
        space: Condvar::new(),
        capacity,
        classify,
    });
    (Sender(Arc::clone(&inner)), Receiver(inner))
}

/// The inserting side; cloneable and counted.
pub(crate) struct Sender<M>(Arc<Inner<M>>);

impl<M> Sender<M> {
    /// Enqueues `env` on the lane its classifier picks. The priority
    /// lane is lossless: a full lane blocks the sender. A full bulk lane
    /// blocks for at most `bulk_patience` (`None`: as long as it takes)
    /// and then reports [`SendError::Full`].
    pub(crate) fn send(
        &self,
        env: Envelope<M>,
        bulk_patience: Option<Duration>,
    ) -> Result<(), SendError> {
        let inner = &*self.0;
        let prio = inner.classify.as_ref().is_none_or(|c| c(&env.msg));
        let patience = bulk_patience.filter(|_| !prio);
        let mut deadline = None;
        let mut st = inner.lock();
        loop {
            if st.receivers == 0 {
                return Err(SendError::Closed);
            }
            let lane = if prio { &mut st.prio } else { &mut st.bulk };
            if lane.len() < inner.capacity {
                lane.push_back(env);
                if st.parked_receivers > 0 {
                    inner.ready.notify_one();
                }
                return Ok(());
            }
            let left = match patience {
                None => None,
                Some(patience) => {
                    // The clock is read only once the lane is full.
                    let now = Instant::now();
                    let deadline = *deadline.get_or_insert(now + patience);
                    if now >= deadline {
                        return Err(SendError::Full);
                    }
                    Some(deadline - now)
                }
            };
            st.parked_senders += 1;
            st = wait(&inner.space, st, left);
            st.parked_senders -= 1;
        }
    }
}

impl<M> Clone for Sender<M> {
    fn clone(&self) -> Self {
        self.0.lock().senders += 1;
        Sender(Arc::clone(&self.0))
    }
}

impl<M> Drop for Sender<M> {
    fn drop(&mut self) {
        let mut st = self.0.lock();
        st.senders -= 1;
        if st.senders == 0 {
            // An untimed `recv` must learn that nothing can arrive.
            self.0.ready.notify_all();
        }
    }
}

/// The draining side; cloneable and counted (a message goes to whichever
/// clone takes it first).
pub(crate) struct Receiver<M>(Arc<Inner<M>>);

impl<M> Receiver<M> {
    /// Takes the next message, priority lane first, waiting up to
    /// `timeout` for one. A timed wait (`Some`) is also ended by
    /// [`Waker::wake`], and never by the senders going away — a mailbox
    /// nobody can fill parks like any other. An untimed wait (`None`) is
    /// the reverse: it ends when the last sender is gone.
    pub(crate) fn recv(&self, timeout: Option<Duration>) -> Option<Envelope<M>> {
        let inner = &*self.0;
        let mut deadline = None;
        let mut st = inner.lock();
        loop {
            let popped = match st.prio.pop_front() {
                Some(env) => Some((env, st.prio.len())),
                None => st.bulk.pop_front().map(|env| (env, st.bulk.len())),
            };
            if let Some((env, left_in_lane)) = popped {
                // Only a lane that was full can have senders waiting on
                // it. Both lanes share the condvar: wake them all and let
                // each re-test its own lane.
                if left_in_lane + 1 == inner.capacity && st.parked_senders > 0 {
                    inner.space.notify_all();
                }
                return Some(env);
            }
            let left = match timeout {
                None if st.senders == 0 => return None,
                None => None,
                Some(timeout) => {
                    // The clock is read only once the lanes are empty.
                    let now = Instant::now();
                    let deadline = *deadline.get_or_insert(now + timeout);
                    // Tested before the wake flag, so a call that would
                    // not have parked anyway (a zero timeout) leaves the
                    // flag for the one that would.
                    if now >= deadline {
                        return None;
                    }
                    if st.woken {
                        st.woken = false;
                        return None;
                    }
                    Some(deadline - now)
                }
            };
            st.parked_receivers += 1;
            st = wait(&inner.ready, st, left);
            st.parked_receivers -= 1;
        }
    }

    /// Messages queued on both lanes.
    pub(crate) fn len(&self) -> usize {
        let st = self.0.lock();
        st.prio.len() + st.bulk.len()
    }
}

impl<M: Send + 'static> Receiver<M> {
    /// A handle that ends this mailbox's timed waits from any thread.
    pub(crate) fn waker(&self) -> Waker {
        Waker(Arc::clone(&self.0) as Arc<dyn Wake>)
    }
}

impl<M> Clone for Receiver<M> {
    fn clone(&self) -> Self {
        self.0.lock().receivers += 1;
        Receiver(Arc::clone(&self.0))
    }
}

impl<M> Drop for Receiver<M> {
    fn drop(&mut self) {
        let mut st = self.0.lock();
        st.receivers -= 1;
        if st.receivers == 0 {
            // Senders blocked on a full lane must not outlive the site.
            self.0.space.notify_all();
        }
    }
}

trait Wake: Send + Sync {
    fn wake(&self);
}

impl<M: Send> Wake for Inner<M> {
    fn wake(&self) {
        let mut st = self.lock();
        st.woken = true;
        if st.parked_receivers > 0 {
            self.ready.notify_all();
        }
    }
}

/// Ends a site's blocking wait from another thread: the work that
/// thread just queued for the site somewhere else (a command channel)
/// is then seen at once instead of at the wait's deadline.
///
/// The wake is sticky. It ends the [`crate::Transport::recv_timeout`]
/// in progress — which returns `None` early — or, if the site is busy,
/// the next one that would otherwise have parked; that call consumes it.
/// So *queue the work, then wake*: the site either sees the work before
/// it parks or is woken after.
#[derive(Clone)]
pub struct Waker(Arc<dyn Wake>);

impl Waker {
    /// Ends the current or next parked wait of the mailbox's site.
    pub fn wake(&self) {
        self.0.wake();
    }
}

impl std::fmt::Debug for Waker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Waker")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PathId;
    use pscc_common::SiteId;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Odd payloads ride the priority lane.
    fn two_lane(capacity: usize) -> (Sender<u64>, Receiver<u64>) {
        mailbox(capacity, Some(Arc::new(|m: &u64| m % 2 == 1)))
    }

    fn env(msg: u64) -> Envelope<u64> {
        Envelope {
            from: SiteId(0),
            to: SiteId(1),
            path: PathId(0),
            msg,
        }
    }

    /// Returns once a receiver (or, for `senders`, a sender) is inside
    /// its condvar wait: the point the tests below must reach before
    /// they act, forced rather than slept for.
    fn until_parked<M>(rx: &Receiver<M>, senders: bool) {
        let parked = |st: &State<M>| {
            if senders {
                st.parked_senders
            } else {
                st.parked_receivers
            }
        };
        while parked(&rx.0.lock()) == 0 {
            std::thread::yield_now();
        }
    }

    const LONG: Duration = Duration::from_secs(30);

    #[test]
    fn a_wake_before_the_wait_ends_it_once() {
        let (_tx, rx) = two_lane(4);
        rx.waker().wake();
        // A poll never parks, so it leaves the flag for a call that would.
        assert!(rx.recv(Some(Duration::ZERO)).is_none());
        let t0 = Instant::now();
        assert!(rx.recv(Some(LONG)).is_none());
        assert!(t0.elapsed() < LONG / 2, "the wake was lost");
        // Consumed: the next wait runs its full length.
        let t0 = Instant::now();
        assert!(rx.recv(Some(Duration::from_millis(20))).is_none());
        assert!(t0.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn a_wake_during_the_wait_ends_it() {
        let (_tx, rx) = two_lane(4);
        let waker = rx.waker();
        std::thread::scope(|s| {
            let parked = s.spawn(|| {
                let t0 = Instant::now();
                let got = rx.recv(Some(LONG));
                (got, t0.elapsed())
            });
            until_parked(&rx, false);
            waker.wake();
            let (got, waited) = parked.join().expect("receiver thread");
            assert!(got.is_none());
            assert!(waited < LONG / 2, "still parked after the wake");
        });
        assert!(!rx.0.lock().woken, "the wait it ended consumes the wake");
    }

    #[test]
    fn a_message_outranks_a_pending_wake() {
        let (tx, rx) = two_lane(4);
        rx.waker().wake();
        tx.send(env(2), None).unwrap();
        assert_eq!(rx.recv(Some(LONG)).map(|e| e.msg), Some(2));
        // The wake is still owed to the next wait that would park.
        let t0 = Instant::now();
        assert!(rx.recv(Some(LONG)).is_none());
        assert!(t0.elapsed() < LONG / 2);
    }

    #[test]
    fn a_bulk_arrival_ends_a_wait_parked_on_an_empty_priority_lane() {
        let (tx, rx) = two_lane(4);
        std::thread::scope(|s| {
            let parked = s.spawn(|| {
                let t0 = Instant::now();
                (rx.recv(Some(LONG)), t0.elapsed())
            });
            until_parked(&rx, false);
            tx.send(env(2), None).unwrap(); // even: bulk
            let (got, waited) = parked.join().expect("receiver thread");
            assert_eq!(got.map(|e| e.msg), Some(2));
            assert!(waited < LONG / 2);
        });
    }

    #[test]
    fn a_timed_wait_parks_with_no_sender_left_and_an_untimed_one_returns() {
        let (tx, rx) = two_lane(4);
        tx.send(env(1), None).unwrap();
        drop(tx);
        // What is queued is still delivered.
        assert_eq!(rx.recv(None).map(|e| e.msg), Some(1));
        assert!(rx.recv(None).is_none());
        let t0 = Instant::now();
        assert!(rx.recv(Some(Duration::from_millis(50))).is_none());
        assert!(
            t0.elapsed() >= Duration::from_millis(50),
            "spun instead of parking"
        );
    }

    #[test]
    fn a_full_priority_lane_blocks_and_a_full_bulk_lane_runs_out_of_patience() {
        let (tx, rx) = two_lane(1);
        tx.send(env(2), None).unwrap();
        assert_eq!(
            tx.send(env(4), Some(Duration::from_millis(5))),
            Err(SendError::Full)
        );
        tx.send(env(1), None).unwrap();
        std::thread::scope(|s| {
            let blocked = s.spawn(|| tx.send(env(3), Some(Duration::ZERO)));
            until_parked(&rx, true);
            // Patience is for bulk only: the priority sender is still
            // there, and one slot frees it.
            assert_eq!(rx.recv(Some(LONG)).map(|e| e.msg), Some(1));
            assert_eq!(blocked.join().expect("sender thread"), Ok(()));
        });
        let rest: Vec<u64> = std::iter::from_fn(|| rx.recv(Some(Duration::ZERO)))
            .map(|e| e.msg)
            .collect();
        assert_eq!(rest, [3, 2]);
    }

    #[test]
    fn a_blocked_sender_is_released_when_the_receiver_goes() {
        let (tx, rx) = two_lane(1);
        tx.send(env(1), None).unwrap();
        std::thread::scope(|s| {
            let blocked = s.spawn(|| tx.send(env(3), None));
            until_parked(&rx, true);
            drop(rx);
            assert_eq!(
                blocked.join().expect("sender thread"),
                Err(SendError::Closed)
            );
        });
    }

    #[test]
    fn producers_a_waker_and_one_consumer_lose_nothing() {
        const PRODUCERS: u64 = 4;
        const EACH: u64 = 5_000;
        // Small lanes, so senders block and the space condvar works too.
        let (tx, rx) = two_lane(8);
        let done = AtomicBool::new(false);
        let waker = rx.waker();
        let mut seen: Vec<Vec<u64>> = vec![Vec::new(); PRODUCERS as usize];
        std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let tx = tx.clone();
                s.spawn(move || {
                    for i in 0..EACH {
                        tx.send(env(p * EACH + i), None).unwrap();
                    }
                });
            }
            s.spawn(|| {
                while !done.load(Ordering::Relaxed) {
                    waker.wake();
                    std::thread::yield_now();
                }
            });
            let mut got = 0;
            while got < PRODUCERS * EACH {
                // `None` here is a wake, not an empty mailbox.
                if let Some(e) = rx.recv(Some(LONG)) {
                    seen[(e.msg / EACH) as usize].push(e.msg);
                    got += 1;
                }
            }
            done.store(true, Ordering::Relaxed);
        });
        assert!(
            rx.recv(Some(Duration::ZERO)).is_none(),
            "a message came twice"
        );
        for (p, msgs) in seen.iter().enumerate() {
            assert_eq!(msgs.len() as u64, EACH, "producer {p}");
            // One producer's messages stay in order within each lane.
            for lane in 0..2 {
                let in_lane: Vec<u64> = msgs.iter().copied().filter(|m| m % 2 == lane).collect();
                assert!(in_lane.windows(2).all(|w| w[0] < w[1]), "producer {p}");
            }
        }
    }
}
