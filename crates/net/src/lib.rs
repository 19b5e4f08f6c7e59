//! # pscc-net
//!
//! Inter-peer-server communication with the ordering semantics of the
//! paper's Fig. 2: *multiple* communication paths may exist between two
//! peer servers; message order is preserved **along each path**, but
//! messages sent on different paths can arrive out of order. All of the
//! race conditions of paper §4.2.4 (callback races, purge races,
//! deescalation races) stem from exactly this looseness, so the transport
//! reproduces it faithfully:
//!
//! * [`InProcNetwork`] — an in-process network for the real
//!   multithreaded harness: one bounded mailbox per site, which every
//!   source shares, so each `(src, dst, path)` triple is FIFO and paths
//!   merge in arrival order. The mailbox is also the one place a site
//!   thread blocks; a [`Waker`] ends that wait from outside.
//! * [`tcp::TcpNode`] — the same over real sockets, one connection per
//!   `(src, dst, path)`; the site thread reads its own connections
//!   inside the same kind of wait.
//! * [`SeededNet`] — a single-threaded, deterministic message pool for
//!   simulation and race-exploration tests: per-path FIFO is enforced,
//!   and the *choice of which path delivers next* is driven by a seeded
//!   RNG, so every adversarial interleaving is reproducible.
//!
//! ## Overload protection
//!
//! Every inbox — an in-process mailbox or a TCP node's — is **bounded**
//! (`SystemConfig::mailbox_capacity` in the harnesses;
//! [`DEFAULT_MAILBOX_CAPACITY`] otherwise) and split into two lanes. An
//! optional [`LaneClassifier`] marks *consistency* traffic
//! (callbacks, commit decisions, rejoin handshakes, flow-control
//! verdicts); that lane is never shed and receivers drain it ahead of
//! the bulk lane, so a fetch flood cannot wedge the messages callback
//! locking depends on. In-process, bulk-lane sends on a full mailbox
//! wait briefly and then drop — counted, never silent — which the
//! engine's timeout-and-retry machinery already tolerates; over TCP a
//! connection whose lane is full is not read, so its sender blocks and
//! nothing is dropped. Without a classifier
//! all traffic uses the priority lane (bounded, blocking, lossless),
//! which preserves the historical unbounded-channel semantics for
//! message types the classifier has never seen.
//!
//! # Examples
//!
//! ```
//! use pscc_net::{InProcNetwork, PathId};
//! use pscc_common::SiteId;
//!
//! let net = InProcNetwork::<String>::new(&[SiteId(0), SiteId(1)], 2);
//! let a = net.endpoint(SiteId(0));
//! let b = net.endpoint(SiteId(1));
//! a.send(SiteId(1), PathId(0), "hello".to_string());
//! let env = b.recv().unwrap();
//! assert_eq!(env.msg, "hello");
//! assert_eq!(env.from, SiteId(0));
//! ```

pub mod codec;
#[cfg(feature = "fault-inject")]
pub mod fault;
mod lanes;
mod mailbox;
mod poll;
pub mod tcp;

pub use mailbox::Waker;

use pscc_common::hash::HashMap;
use pscc_common::SiteId;
use rand::Rng;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Default per-lane mailbox capacity when a harness does not size it
/// from `SystemConfig::mailbox_capacity`.
pub const DEFAULT_MAILBOX_CAPACITY: usize = 4_096;

/// How long a bulk-lane send waits on a full mailbox before dropping the
/// message (counted via [`Endpoint::dropped`]). Short: the sender is an
/// engine thread whose time is better spent draining its own mailbox.
const BULK_FULL_TIMEOUT: Duration = Duration::from_millis(10);

/// Decides the lane of an outbound message: `true` routes it onto the
/// never-shed priority (consistency) lane, `false` onto the sheddable
/// bulk lane. The engine's `Message::is_consistency` is the canonical
/// classifier; the transport stays generic over the payload type.
pub type LaneClassifier<M> = Arc<dyn Fn(&M) -> bool + Send + Sync>;

/// One of the parallel communication paths between a pair of peers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PathId(pub u8);

impl fmt::Display for PathId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "path{}", self.0)
    }
}

/// A message in flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<M> {
    /// Sender site.
    pub from: SiteId,
    /// Destination site.
    pub to: SiteId,
    /// Which path carries it.
    pub path: PathId,
    /// The payload.
    pub msg: M,
}

/// [`Endpoint::recv_timeout`] ran out of time (or was woken) with the
/// mailbox still empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvTimeout;

// ---------------------------------------------------------------------
// Threaded network
// ---------------------------------------------------------------------

/// An in-process network between a fixed set of sites with `n_paths`
/// independent FIFO paths per ordered pair and one bounded, two-lane
/// mailbox per site (see the module docs on overload protection).
pub struct InProcNetwork<M> {
    n_paths: u8,
    // Every source shares the destination's mailbox; per-path FIFO holds
    // because a sending thread enqueues in program order.
    mailboxes: HashMap<SiteId, (mailbox::Sender<M>, mailbox::Receiver<M>)>,
    /// Bulk-lane messages dropped on overflow, network-wide.
    dropped: Arc<AtomicU64>,
}

impl<M> fmt::Debug for InProcNetwork<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InProcNetwork")
            .field("n_paths", &self.n_paths)
            .field("sites", &self.mailboxes.len())
            .field("dropped", &self.dropped.load(Ordering::Relaxed))
            .finish()
    }
}

impl<M: Send + 'static> InProcNetwork<M> {
    /// Builds a network among `sites` with `n_paths` paths per pair,
    /// [`DEFAULT_MAILBOX_CAPACITY`] mailboxes, and no lane classifier
    /// (all traffic on the lossless priority lane).
    ///
    /// # Panics
    ///
    /// Panics if `n_paths == 0`.
    pub fn new(sites: &[SiteId], n_paths: u8) -> Self {
        Self::with_overload(sites, n_paths, DEFAULT_MAILBOX_CAPACITY, None)
    }

    /// Builds a network with explicit overload knobs: per-lane mailbox
    /// `capacity` (from `SystemConfig::mailbox_capacity`) and an
    /// optional lane classifier routing consistency traffic onto the
    /// never-shed priority lane.
    ///
    /// # Panics
    ///
    /// Panics if `n_paths == 0` or `capacity == 0`.
    pub fn with_overload(
        sites: &[SiteId],
        n_paths: u8,
        capacity: usize,
        classify: Option<LaneClassifier<M>>,
    ) -> Self {
        assert!(n_paths > 0, "need at least one path");
        InProcNetwork {
            n_paths,
            mailboxes: sites
                .iter()
                .map(|&s| (s, mailbox::mailbox(capacity, classify.clone())))
                .collect(),
            dropped: Arc::new(AtomicU64::new(0)),
        }
    }

    /// An endpoint handle for `site`.
    ///
    /// # Panics
    ///
    /// Panics if `site` was not in the construction list.
    pub fn endpoint(&self, site: SiteId) -> Endpoint<M> {
        let Some((_, inbox)) = self.mailboxes.get(&site) else {
            panic!("unknown site {site}");
        };
        Endpoint {
            site,
            n_paths: self.n_paths,
            out: self
                .mailboxes
                .iter()
                .filter(|(dst, _)| **dst != site)
                .map(|(dst, (tx, _))| (*dst, tx.clone()))
                .collect(),
            inbox: inbox.clone(),
            dropped: Arc::clone(&self.dropped),
        }
    }

    /// Number of paths per pair.
    pub fn n_paths(&self) -> u8 {
        self.n_paths
    }

    /// Current mailbox depth (both lanes) of `site` — the per-peer queue
    /// gauge harnesses export.
    pub fn queue_depth(&self, site: SiteId) -> usize {
        self.mailboxes.get(&site).map_or(0, |(_, rx)| rx.len())
    }

    /// Bulk-lane messages dropped on overflow so far, network-wide.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// A message transport as seen by one site: the engine harnesses are
/// generic over this, so the same driver loop runs over in-process
/// mailboxes ([`Endpoint`]) and real sockets ([`tcp::TcpNode`]).
pub trait Transport<M> {
    /// Sends `msg` to `to` along `path` (best effort; a vanished peer
    /// behaves like a closed socket).
    fn send(&self, to: SiteId, path: PathId, msg: M);

    /// Waits up to `timeout` for the next inbound message. A zero
    /// timeout polls.
    fn recv_timeout(&self, timeout: Duration) -> Option<Envelope<M>>;

    /// A handle that ends this transport's `recv_timeout` early from
    /// another thread, if it has one. A site whose transport has none
    /// must be polled: work queued for it anywhere but the transport is
    /// seen only when a `recv_timeout` runs out.
    fn waker(&self) -> Option<Waker> {
        None
    }
}

/// One site's handle onto an [`InProcNetwork`].
pub struct Endpoint<M> {
    site: SiteId,
    n_paths: u8,
    out: HashMap<SiteId, mailbox::Sender<M>>,
    inbox: mailbox::Receiver<M>,
    dropped: Arc<AtomicU64>,
}

impl<M> Clone for Endpoint<M> {
    fn clone(&self) -> Self {
        Endpoint {
            site: self.site,
            n_paths: self.n_paths,
            out: self.out.clone(),
            inbox: self.inbox.clone(),
            dropped: Arc::clone(&self.dropped),
        }
    }
}

impl<M> fmt::Debug for Endpoint<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Endpoint")
            .field("site", &self.site)
            .field("n_paths", &self.n_paths)
            .field("depth", &self.inbox.len())
            .finish()
    }
}

impl<M: Send + 'static> Endpoint<M> {
    /// This endpoint's site.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// Sends `msg` to `to` along `path`.
    ///
    /// Consistency traffic (and all traffic when no classifier is
    /// installed) goes to the priority lane: bounded and blocking, never
    /// dropped. Bulk traffic on a full mailbox waits [`BULK_FULL_TIMEOUT`]
    /// and is then dropped and counted — the engine's lock timeouts and
    /// `Busy` retries re-drive the work.
    ///
    /// # Panics
    ///
    /// Panics on an unknown destination or path (protocol error).
    pub fn send(&self, to: SiteId, path: PathId, msg: M) {
        let mailbox = self
            .out
            .get(&to)
            .unwrap_or_else(|| panic!("unknown destination {to}"));
        assert!(path.0 < self.n_paths, "unknown {path}");
        let env = Envelope {
            from: self.site,
            to,
            path,
            msg,
        };
        match mailbox.send(env, BULK_FULL_TIMEOUT) {
            Ok(()) => {}
            Err(mailbox::SendError::Full) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
            // The receiver shut down during teardown; losing the message
            // then is fine.
            Err(mailbox::SendError::Closed) => {}
        }
    }

    /// Blocks until a message arrives; `None` when all senders are gone.
    pub fn recv(&self) -> Option<Envelope<M>> {
        self.inbox.recv(None)
    }

    /// Waits up to `timeout` for a message, draining the priority lane
    /// ahead of the bulk lane. The wait parks for its whole length even
    /// when no sender is left (a one-site network), and ends early when
    /// this endpoint's [`Transport::waker`] is used.
    ///
    /// # Errors
    ///
    /// [`RecvTimeout`] when no message came.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Envelope<M>, RecvTimeout> {
        self.inbox.recv(Some(timeout)).ok_or(RecvTimeout)
    }

    /// Non-blocking receive (priority lane first).
    pub fn try_recv(&self) -> Option<Envelope<M>> {
        self.inbox.recv(Some(Duration::ZERO))
    }

    /// Current depth of this endpoint's own mailbox (both lanes).
    pub fn queue_depth(&self) -> usize {
        self.inbox.len()
    }

    /// Bulk-lane messages dropped on overflow, network-wide.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

impl<M: Send + 'static> Transport<M> for Endpoint<M> {
    fn send(&self, to: SiteId, path: PathId, msg: M) {
        Endpoint::send(self, to, path, msg);
    }

    fn recv_timeout(&self, timeout: Duration) -> Option<Envelope<M>> {
        self.inbox.recv(Some(timeout))
    }

    fn waker(&self) -> Option<Waker> {
        Some(self.inbox.waker())
    }
}

// ---------------------------------------------------------------------
// Deterministic network
// ---------------------------------------------------------------------

/// A deterministic, single-threaded message pool with per-path FIFO and
/// seeded cross-path delivery order — the instrument used to drive the
/// race-condition tests of paper §4.2.4.
#[derive(Debug)]
pub struct SeededNet<M> {
    queues: HashMap<(SiteId, SiteId, PathId), VecDeque<M>>,
    in_flight: usize,
}

impl<M> Default for SeededNet<M> {
    fn default() -> Self {
        SeededNet {
            queues: HashMap::default(),
            in_flight: 0,
        }
    }
}

impl<M> SeededNet<M> {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues a message.
    pub fn send(&mut self, from: SiteId, to: SiteId, path: PathId, msg: M) {
        self.queues
            .entry((from, to, path))
            .or_default()
            .push_back(msg);
        self.in_flight += 1;
    }

    /// Messages currently in flight.
    pub fn len(&self) -> usize {
        self.in_flight
    }

    /// Whether nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.in_flight == 0
    }

    /// Delivers the head of a uniformly chosen non-empty `(src, dst,
    /// path)` queue. Per-path FIFO is preserved; everything else is up to
    /// the seed — exactly the SP2's "loose ordering".
    pub fn deliver_next<R: Rng>(&mut self, rng: &mut R) -> Option<Envelope<M>> {
        if self.in_flight == 0 {
            return None;
        }
        let keys: Vec<(SiteId, SiteId, PathId)> = {
            let mut ks: Vec<_> = self
                .queues
                .iter()
                .filter(|(_, q)| !q.is_empty())
                .map(|(k, _)| *k)
                .collect();
            ks.sort(); // determinism independent of HashMap order
            ks
        };
        let k = keys[rng.gen_range(0..keys.len())];
        let msg = self.queues.get_mut(&k).and_then(VecDeque::pop_front)?;
        self.in_flight -= 1;
        Some(Envelope {
            from: k.0,
            to: k.1,
            path: k.2,
            msg,
        })
    }

    /// Delivers the oldest message of the given link-path FIFO, if any
    /// (targeted race construction in tests).
    pub fn deliver_from(&mut self, from: SiteId, to: SiteId, path: PathId) -> Option<Envelope<M>> {
        let msg = self
            .queues
            .get_mut(&(from, to, path))
            .and_then(VecDeque::pop_front)?;
        self.in_flight -= 1;
        Some(Envelope {
            from,
            to,
            path,
            msg,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::time::Instant;

    #[test]
    fn inproc_roundtrip_and_fifo_per_path() {
        let net = InProcNetwork::<u32>::new(&[SiteId(0), SiteId(1)], 3);
        let a = net.endpoint(SiteId(0));
        let b = net.endpoint(SiteId(1));
        for i in 0..10 {
            a.send(SiteId(1), PathId(1), i);
        }
        let got: Vec<u32> = (0..10).map(|_| b.recv().unwrap().msg).collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn inproc_try_recv_empty() {
        let net = InProcNetwork::<u32>::new(&[SiteId(0), SiteId(1)], 1);
        let b = net.endpoint(SiteId(1));
        assert!(b.try_recv().is_none());
    }

    #[test]
    fn inproc_cross_thread() {
        let net = InProcNetwork::<u32>::new(&[SiteId(0), SiteId(1)], 2);
        let a = net.endpoint(SiteId(0));
        let b = net.endpoint(SiteId(1));
        let h = std::thread::spawn(move || {
            for i in 0..100 {
                a.send(SiteId(1), PathId((i % 2) as u8), i);
            }
        });
        let mut got = Vec::new();
        for _ in 0..100 {
            got.push(b.recv().unwrap().msg);
        }
        h.join().unwrap();
        got.sort();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn priority_lane_drained_before_bulk() {
        // Odd payloads are "consistency" traffic.
        let classify: LaneClassifier<u32> = Arc::new(|m: &u32| m % 2 == 1);
        let net =
            InProcNetwork::<u32>::with_overload(&[SiteId(0), SiteId(1)], 1, 64, Some(classify));
        let a = net.endpoint(SiteId(0));
        let b = net.endpoint(SiteId(1));
        // Bulk first, then priority: the receiver must see priority first.
        a.send(SiteId(1), PathId(0), 2);
        a.send(SiteId(1), PathId(0), 4);
        a.send(SiteId(1), PathId(0), 1);
        assert_eq!(b.queue_depth(), 3);
        let got: Vec<u32> = (0..3).map(|_| b.recv().unwrap().msg).collect();
        assert_eq!(got, vec![1, 2, 4]);
        assert_eq!(b.queue_depth(), 0);
    }

    #[test]
    fn bulk_overflow_drops_are_counted_and_priority_survives() {
        let classify: LaneClassifier<u32> = Arc::new(|m: &u32| m % 2 == 1);
        // Capacity 1: the second undrained bulk send must overflow.
        let net =
            InProcNetwork::<u32>::with_overload(&[SiteId(0), SiteId(1)], 1, 1, Some(classify));
        let a = net.endpoint(SiteId(0));
        let b = net.endpoint(SiteId(1));
        a.send(SiteId(1), PathId(0), 2); // fills the bulk lane
        a.send(SiteId(1), PathId(0), 4); // overflows: dropped after the wait
        a.send(SiteId(1), PathId(0), 1); // priority: never dropped
        assert_eq!(a.dropped(), 1);
        assert_eq!(net.dropped(), 1);
        assert_eq!(net.queue_depth(SiteId(1)), 2);
        let got: Vec<u32> = (0..2).map(|_| b.recv().unwrap().msg).collect();
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    fn one_site_network_parks_instead_of_spinning() {
        // The endpoint's own mailbox has no sender once the network is
        // gone; a wait on it must still take its whole timeout.
        let net = InProcNetwork::<u32>::new(&[SiteId(0)], 1);
        let only = net.endpoint(SiteId(0));
        drop(net);
        let t0 = Instant::now();
        assert_eq!(
            only.recv_timeout(Duration::from_millis(50)),
            Err(RecvTimeout)
        );
        assert!(t0.elapsed() >= Duration::from_millis(50));
        // ... unless its waker ends it.
        let waker = Transport::waker(&only).expect("endpoints can be woken");
        let long = Duration::from_secs(30);
        std::thread::scope(|s| {
            let waiting = s.spawn(|| {
                let t0 = Instant::now();
                (only.recv_timeout(long), t0.elapsed())
            });
            waker.wake();
            let (got, waited) = waiting.join().expect("receiver thread");
            assert_eq!(got, Err(RecvTimeout));
            assert!(waited < long / 2, "the wake did not end the wait");
        });
        assert!(only.recv().is_none(), "no sender left: nothing can arrive");
    }

    #[test]
    fn seeded_net_preserves_per_path_fifo() {
        let mut net = SeededNet::new();
        let (s0, s1) = (SiteId(0), SiteId(1));
        for i in 0..20u32 {
            net.send(s0, s1, PathId((i % 2) as u8), i);
        }
        let mut rng = StdRng::seed_from_u64(42);
        let mut per_path: HashMap<PathId, Vec<u32>> = HashMap::default();
        while let Some(env) = net.deliver_next(&mut rng) {
            per_path.entry(env.path).or_default().push(env.msg);
        }
        for (_, v) in per_path {
            let mut sorted = v.clone();
            sorted.sort();
            assert_eq!(v, sorted, "per-path order violated");
        }
        assert!(net.is_empty());
    }

    #[test]
    fn seeded_net_reorders_across_paths() {
        // With 2 paths, some seed must interleave them out of send order.
        let mut reordered = false;
        for seed in 0..20 {
            let mut net = SeededNet::new();
            net.send(SiteId(0), SiteId(1), PathId(0), 1u32);
            net.send(SiteId(0), SiteId(1), PathId(1), 2u32);
            let mut rng = StdRng::seed_from_u64(seed);
            let first = net.deliver_next(&mut rng).unwrap();
            if first.msg == 2 {
                reordered = true;
                break;
            }
        }
        assert!(reordered, "no seed produced cross-path reordering");
    }

    #[test]
    fn seeded_net_is_deterministic() {
        let run = |seed| {
            let mut net = SeededNet::new();
            for i in 0..30u32 {
                net.send(SiteId(i % 3), SiteId((i + 1) % 3), PathId((i % 2) as u8), i);
            }
            let mut rng = StdRng::seed_from_u64(seed);
            let mut order = Vec::new();
            while let Some(e) = net.deliver_next(&mut rng) {
                order.push(e.msg);
            }
            order
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn deliver_from_is_targeted() {
        let mut net = SeededNet::new();
        net.send(SiteId(0), SiteId(1), PathId(0), 'a');
        net.send(SiteId(0), SiteId(1), PathId(1), 'b');
        let e = net.deliver_from(SiteId(0), SiteId(1), PathId(1)).unwrap();
        assert_eq!(e.msg, 'b');
        assert_eq!(net.len(), 1);
        assert!(net.deliver_from(SiteId(0), SiteId(1), PathId(1)).is_none());
    }
}
