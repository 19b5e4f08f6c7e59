//! A real TCP deployment of the multi-path transport: one TCP connection
//! per ordered `(source, path)` pair into each destination, carrying
//! length-prefixed frames (see [`crate::codec`]). TCP gives exactly the
//! paper's Fig. 2 semantics — order preserved along each connection,
//! none across connections — so the engine's race handling is exercised
//! by a genuine network stack.
//!
//! Topology: every node listens on one address; outgoing connections are
//! opened lazily per `(destination, path)` and announce `(site, path)`
//! and the [`WIRE_VERSION`] in a handshake frame; a reader refuses a
//! connection that speaks another version. A reader thread per accepted
//! connection decodes frames into the node's mailbox — the same two-lane
//! monitor the in-process network uses, so a site blocks, and is woken,
//! the same way over either transport.

use crate::codec::{decode_frame, encode_frame};
use crate::mailbox::{self, mailbox};
use crate::{Envelope, LaneClassifier, PathId, Transport, Waker, DEFAULT_MAILBOX_CAPACITY};
use bytes::BytesMut;
use pscc_common::hash::HashMap;
use pscc_common::wire::{Wire, WIRE_VERSION};
use pscc_common::SiteId;
use std::collections::hash_map::Entry;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The first frame on every connection: which encoding the writer speaks
/// and who writes on which path. A reader drops a connection whose
/// handshake names another version, or does not decode as this one.
#[derive(Debug)]
struct Handshake {
    version: u8,
    site: u32,
    path: u8,
}
pscc_common::impl_wire!(struct Handshake { version, site, path });

/// Wire-level counters of one [`TcpNode`], shared with its reader
/// threads. Message frames only — handshake frames are excluded from
/// frame counts (their bytes still count on the receive side, where the
/// stream is read as a whole).
#[derive(Debug, Default)]
pub struct NetStats {
    /// Message frames written.
    pub frames_sent: AtomicU64,
    /// Bytes written (encoded frames, length prefix included).
    pub bytes_sent: AtomicU64,
    /// Message frames decoded.
    pub frames_received: AtomicU64,
    /// Bytes read off accepted connections.
    pub bytes_received: AtomicU64,
    /// Send attempts retried after a connect/write failure.
    pub retries: AtomicU64,
    /// Connections that died: read/decode errors, peer closes, a
    /// handshake in another wire version, and sends abandoned after the
    /// retry budget or refused as oversized. Never silently swallowed.
    pub disconnects: AtomicU64,
}

impl NetStats {
    /// Exports the counters into a metrics registry under `net_*` names.
    pub fn export(&self, reg: &mut pscc_obs::MetricsRegistry) {
        reg.counter("net_frames_sent", self.frames_sent.load(Ordering::Relaxed));
        reg.counter("net_bytes_sent", self.bytes_sent.load(Ordering::Relaxed));
        reg.counter(
            "net_frames_received",
            self.frames_received.load(Ordering::Relaxed),
        );
        reg.counter(
            "net_bytes_received",
            self.bytes_received.load(Ordering::Relaxed),
        );
        reg.counter("net_retries", self.retries.load(Ordering::Relaxed));
        reg.counter("net_disconnects", self.disconnects.load(Ordering::Relaxed));
    }
}

/// Shared optional trace sink: reader threads and the send path record
/// disconnect/retry events through it when a harness installs a handle.
type SharedTrace = Arc<Mutex<Option<pscc_obs::event::TraceHandle>>>;

fn trace_record(trace: &SharedTrace, kind: pscc_obs::EventKind) {
    if let Ok(guard) = trace.lock() {
        if let Some(h) = guard.as_ref() {
            h.record(kind);
        }
    }
}

/// The placeholder peer id recorded for a connection that died before
/// its handshake identified the sender.
const UNKNOWN_PEER: SiteId = SiteId(u32::MAX);

/// One site of a TCP-connected peer-servers deployment.
pub struct TcpNode<M> {
    site: SiteId,
    peers: HashMap<SiteId, SocketAddr>,
    // (dst, path) -> established outgoing connection.
    conns: Mutex<HashMap<(SiteId, PathId), TcpStream>>,
    inbox: mailbox::Receiver<M>,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    stats: Arc<NetStats>,
    trace: SharedTrace,
    // Reconnect policy (see `configure_retry`).
    backoff_base: Duration,
    backoff_max: Duration,
    max_retries: u32,
    #[cfg(feature = "fault-inject")]
    fault_hook: Mutex<Option<crate::fault::FaultHook>>,
}

impl<M: Wire + Send + 'static> TcpNode<M> {
    /// Binds `listen` and starts accepting; `peers` maps every other
    /// site to its listen address.
    ///
    /// # Errors
    ///
    /// I/O errors from binding the listener.
    pub fn start(
        site: SiteId,
        listen: SocketAddr,
        peers: impl IntoIterator<Item = (SiteId, SocketAddr)>,
    ) -> std::io::Result<Self> {
        Self::start_bounded(site, listen, peers, DEFAULT_MAILBOX_CAPACITY, None)
    }

    /// Like [`TcpNode::start`] with explicit overload knobs: per-lane
    /// mailbox `capacity` (from `SystemConfig::mailbox_capacity`) and an
    /// optional classifier routing consistency traffic onto a priority
    /// lane that [`Transport::recv_timeout`] drains first. Without a
    /// classifier all traffic uses the priority lane.
    ///
    /// # Errors
    ///
    /// I/O errors from binding the listener.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn start_bounded(
        site: SiteId,
        listen: SocketAddr,
        peers: impl IntoIterator<Item = (SiteId, SocketAddr)>,
        capacity: usize,
        classify: Option<LaneClassifier<M>>,
    ) -> std::io::Result<Self> {
        assert!(capacity > 0, "need a non-zero mailbox capacity");
        let listener = TcpListener::bind(listen)?;
        listener.set_nonblocking(true)?;
        let (tx, inbox) = mailbox(capacity, classify);
        let shutdown = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(NetStats::default());
        let trace: SharedTrace = Arc::new(Mutex::new(None));
        let acceptor = {
            let stop = Arc::clone(&shutdown);
            let stats = Arc::clone(&stats);
            let trace = Arc::clone(&trace);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            stream.set_nodelay(true).ok();
                            stream.set_nonblocking(false).ok();
                            let tx = tx.clone();
                            let stop = Arc::clone(&stop);
                            let stats = Arc::clone(&stats);
                            let trace = Arc::clone(&trace);
                            std::thread::spawn(move || {
                                reader_loop(stream, site, tx, stop, stats, trace);
                            });
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        Err(_) => return,
                    }
                }
            })
        };
        Ok(TcpNode {
            site,
            peers: peers.into_iter().collect(),
            conns: Mutex::new(HashMap::default()),
            inbox,
            shutdown,
            acceptor: Some(acceptor),
            stats,
            trace,
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_millis(1_000),
            max_retries: 5,
            #[cfg(feature = "fault-inject")]
            fault_hook: Mutex::new(None),
        })
    }

    /// Overrides the reconnect policy (defaults: 10 ms base doubling to
    /// a 1 s cap, 5 retries).
    pub fn configure_retry(&mut self, base: Duration, max: Duration, retries: u32) {
        self.backoff_base = base;
        self.backoff_max = max;
        self.max_retries = retries;
    }

    /// Installs a trace handle; disconnects and retries are recorded as
    /// protocol events from then on (including from reader threads).
    pub fn set_trace(&self, handle: pscc_obs::event::TraceHandle) {
        if let Ok(mut guard) = self.trace.lock() {
            *guard = Some(handle);
        }
    }

    /// Installs a fault-injection hook consulted before every physical
    /// write (chaos testing over real sockets).
    #[cfg(feature = "fault-inject")]
    pub fn set_fault_hook(&self, hook: crate::fault::FaultHook) {
        if let Ok(mut guard) = self.fault_hook.lock() {
            *guard = Some(hook);
        }
    }

    /// This node's wire-level counters.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Current mailbox depth (both lanes) — the queue gauge harnesses
    /// export per node.
    pub fn queue_depth(&self) -> usize {
        self.inbox.len()
    }

    /// Opens the `(to, path)` connection and announces `(site, path)`
    /// on it.
    fn dial(&self, to: SiteId, path: PathId) -> std::io::Result<TcpStream> {
        let addr = self.peers.get(&to).copied().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::NotFound, format!("unknown peer {to}"))
        })?;
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut buf = BytesMut::new();
        encode_frame(
            &Handshake {
                version: WIRE_VERSION,
                site: self.site.0,
                path: path.0,
            },
            &mut buf,
        )
        .map_err(|e| std::io::Error::other(e.to_string()))?;
        stream.write_all(&buf)?;
        Ok(stream)
    }

    /// One write attempt: (re)establish the connection, write the whole
    /// message frame through the cached stream and count it, under the
    /// `conns` lock —
    /// so frames of concurrent senders cannot interleave on one
    /// connection, and a send costs no `dup`/`close` pair. On failure
    /// the cached connection is dropped so the next attempt redials
    /// instead of reusing a dead socket.
    fn try_write(&self, to: SiteId, path: PathId, buf: &[u8]) -> std::io::Result<()> {
        let mut conns = self.conns.lock().expect("conns poisoned");
        let stream = match conns.entry((to, path)) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(v) => v.insert(self.dial(to, path)?),
        };
        let written = stream.write_all(buf);
        match written {
            Ok(()) => {
                self.stats.frames_sent.fetch_add(1, Ordering::Relaxed);
                self.stats
                    .bytes_sent
                    .fetch_add(buf.len() as u64, Ordering::Relaxed);
            }
            Err(_) => {
                conns.remove(&(to, path));
            }
        }
        written
    }

    /// Stops the acceptor and closes connections.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        self.conns.lock().expect("conns poisoned").clear();
    }
}

impl<M> Drop for TcpNode<M> {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }
}

fn reader_loop<M: Wire + Send + 'static>(
    mut stream: TcpStream,
    to: SiteId,
    tx: mailbox::Sender<M>,
    stop: Arc<AtomicBool>,
    stats: Arc<NetStats>,
    trace: SharedTrace,
) {
    stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .ok();
    let mut buf = BytesMut::new();
    let mut from: Option<(SiteId, PathId)> = None;
    let mut chunk = [0u8; 16 * 1024];
    // Records the connection's death before the thread exits, so no
    // failure path is silent.
    let disconnect = |peer: Option<(SiteId, PathId)>, why: &str| {
        stats.disconnects.fetch_add(1, Ordering::Relaxed);
        let peer = peer.map_or(UNKNOWN_PEER, |(s, _)| s);
        trace_record(&trace, pscc_obs::EventKind::NetDisconnect { peer });
        let _ = why; // kept for debugger visibility in the closure frame
    };
    loop {
        if stop.load(Ordering::Relaxed) {
            return; // orderly local shutdown, not a disconnect
        }
        // Drain complete frames already buffered.
        loop {
            if from.is_none() {
                match decode_frame::<Handshake>(&mut buf) {
                    Ok(Some(h)) if h.version == WIRE_VERSION => {
                        from = Some((SiteId(h.site), PathId(h.path)));
                    }
                    Ok(Some(h)) => {
                        disconnect(Some((SiteId(h.site), PathId(h.path))), "wire version");
                        return;
                    }
                    Ok(None) => break,
                    Err(_) => {
                        disconnect(from, "bad handshake frame");
                        return;
                    }
                }
                continue;
            }
            match decode_frame::<M>(&mut buf) {
                Ok(Some(msg)) => {
                    stats.frames_received.fetch_add(1, Ordering::Relaxed);
                    let Some((site, path)) = from else {
                        // Unreachable (handshake decoded above), but a
                        // peer must never be able to panic this thread.
                        disconnect(None, "frame before handshake");
                        return;
                    };
                    let env = Envelope {
                        from: site,
                        to,
                        path,
                        msg,
                    };
                    // A full lane, bulk included, blocks this reader: it
                    // then stops reading its socket, the kernel's TCP
                    // window fills, and the *sender's* retry loop takes
                    // over — bounded memory with no message loss.
                    if tx.send(env, None).is_err() {
                        return; // local node dropped its mailbox
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    disconnect(from, "bad message frame");
                    return;
                }
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                disconnect(from, "peer closed");
                return;
            }
            Ok(n) => {
                stats.bytes_received.fetch_add(n as u64, Ordering::Relaxed);
                buf.extend_from_slice(&chunk[..n]);
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => {
                disconnect(from, "read error");
                return;
            }
        }
    }
}

impl<M: Wire + Send + 'static> Transport<M> for TcpNode<M> {
    fn send(&self, to: SiteId, path: PathId, msg: M) {
        #[cfg(feature = "spans")]
        let _span = pscc_obs::span("tcp_send");
        #[cfg(feature = "fault-inject")]
        let duplicate = {
            let action = self
                .fault_hook
                .lock()
                .ok()
                .and_then(|g| g.as_ref().map(|h| h(to, path)))
                .unwrap_or(crate::fault::FaultAction::Deliver);
            match action {
                crate::fault::FaultAction::Deliver => false,
                crate::fault::FaultAction::Drop => return,
                crate::fault::FaultAction::Duplicate => true,
            }
        };
        // One buffer per send: the duplicate and every retry write the
        // same encoded frame.
        let mut buf = BytesMut::new();
        if encode_frame(&msg, &mut buf).is_err() {
            // Over the frame limit: no retry can send it. Surface it as
            // an abandoned send.
            self.stats.disconnects.fetch_add(1, Ordering::Relaxed);
            trace_record(&self.trace, pscc_obs::EventKind::NetDisconnect { peer: to });
            return;
        }
        // Physical duplicate on the same ordered stream.
        #[cfg(feature = "fault-inject")]
        if duplicate {
            let _ = self.try_write(to, path, &buf);
        }
        // Retry with exponential backoff + reconnect instead of dying
        // silently on the first connect/write failure.
        let mut delay = self.backoff_base;
        for attempt in 0..=self.max_retries {
            if attempt > 0 {
                self.stats.retries.fetch_add(1, Ordering::Relaxed);
                trace_record(
                    &self.trace,
                    pscc_obs::EventKind::NetRetry { peer: to, attempt },
                );
                std::thread::sleep(delay);
                delay = (delay * 2).min(self.backoff_max);
            }
            if self.try_write(to, path, &buf).is_ok() {
                return;
            }
        }
        // Retry budget exhausted: the peer is unreachable. Surface it.
        self.stats.disconnects.fetch_add(1, Ordering::Relaxed);
        trace_record(&self.trace, pscc_obs::EventKind::NetDisconnect { peer: to });
    }

    fn recv_timeout(&self, timeout: Duration) -> Option<Envelope<M>> {
        self.inbox.recv(Some(timeout))
    }

    fn waker(&self) -> Option<Waker> {
        Some(self.inbox.waker())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr_of(listener: &TcpListener) -> SocketAddr {
        listener.local_addr().expect("bound")
    }

    fn two_nodes() -> (TcpNode<String>, TcpNode<String>) {
        // Bind ephemeral ports first to learn the addresses.
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let a0 = addr_of(&l0);
        let a1 = addr_of(&l1);
        drop((l0, l1));
        let n0 = TcpNode::start(SiteId(0), a0, [(SiteId(1), a1)]).unwrap();
        let n1 = TcpNode::start(SiteId(1), a1, [(SiteId(0), a0)]).unwrap();
        (n0, n1)
    }

    #[test]
    fn tcp_roundtrip_with_handshake() {
        let (n0, n1) = two_nodes();
        n0.send(SiteId(1), PathId(0), "hello".to_string());
        let env = n1.recv_timeout(Duration::from_secs(5)).expect("delivery");
        assert_eq!(env.from, SiteId(0));
        assert_eq!(env.to, SiteId(1));
        assert_eq!(env.path, PathId(0));
        assert_eq!(env.msg, "hello");
        n0.shutdown();
        n1.shutdown();
    }

    #[test]
    fn tcp_per_path_fifo() {
        let (n0, n1) = two_nodes();
        for i in 0..50 {
            n0.send(SiteId(1), PathId((i % 3) as u8), format!("{i}"));
        }
        let mut per_path: HashMap<PathId, Vec<u64>> = HashMap::default();
        for _ in 0..50 {
            let env = n1.recv_timeout(Duration::from_secs(5)).expect("delivery");
            per_path
                .entry(env.path)
                .or_default()
                .push(env.msg.parse().unwrap());
        }
        for (_, seq) in per_path {
            let mut sorted = seq.clone();
            sorted.sort();
            assert_eq!(seq, sorted, "per-path order violated over TCP");
        }
        n0.shutdown();
        n1.shutdown();
    }

    #[test]
    fn tcp_stats_count_frames_and_bytes() {
        let (n0, n1) = two_nodes();
        n0.send(SiteId(1), PathId(0), "count me".to_string());
        let env = n1.recv_timeout(Duration::from_secs(5)).expect("delivery");
        assert_eq!(env.msg, "count me");
        assert_eq!(n0.stats().frames_sent.load(Ordering::Relaxed), 1);
        assert!(n0.stats().bytes_sent.load(Ordering::Relaxed) > 0);
        assert_eq!(n1.stats().frames_received.load(Ordering::Relaxed), 1);
        assert!(n1.stats().bytes_received.load(Ordering::Relaxed) > 0);
        let mut reg = pscc_obs::MetricsRegistry::new();
        n0.stats().export(&mut reg);
        assert_eq!(reg.counter_value("net_frames_sent"), Some(1));
        n0.shutdown();
        n1.shutdown();
    }

    #[test]
    fn tcp_send_retries_then_reports_disconnect() {
        // No one listens at the peer address: every attempt fails.
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let a0 = addr_of(&l0);
        let l_dead = TcpListener::bind("127.0.0.1:0").unwrap();
        let a_dead = addr_of(&l_dead);
        drop((l0, l_dead));
        let mut n0 = TcpNode::<String>::start(SiteId(0), a0, [(SiteId(1), a_dead)]).unwrap();
        n0.configure_retry(Duration::from_millis(1), Duration::from_millis(4), 3);
        let trace = pscc_obs::event::TraceHandle::new(SiteId(0), 64);
        n0.set_trace(trace.clone());
        n0.send(SiteId(1), PathId(0), "lost".to_string());
        assert_eq!(n0.stats().retries.load(Ordering::Relaxed), 3);
        assert_eq!(n0.stats().disconnects.load(Ordering::Relaxed), 1);
        assert_eq!(n0.stats().frames_sent.load(Ordering::Relaxed), 0);
        let events = trace.snapshot();
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, pscc_obs::EventKind::NetRetry { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, pscc_obs::EventKind::NetDisconnect { .. })));
        let mut reg = pscc_obs::MetricsRegistry::new();
        n0.stats().export(&mut reg);
        assert_eq!(reg.counter_value("net_retries"), Some(3));
        assert_eq!(reg.counter_value("net_disconnects"), Some(1));
        n0.shutdown();
    }

    #[test]
    fn tcp_reader_counts_peer_disconnect() {
        let (n0, n1) = two_nodes();
        n0.send(SiteId(1), PathId(0), "warmup".to_string());
        n1.recv_timeout(Duration::from_secs(5)).expect("delivery");
        n0.shutdown(); // closes the established connection into n1
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while n1.stats().disconnects.load(Ordering::Relaxed) == 0
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(
            n1.stats().disconnects.load(Ordering::Relaxed) >= 1,
            "peer close was swallowed"
        );
        n1.shutdown();
    }

    /// Opens a raw connection to `node`, writes a hand-built handshake in
    /// `version` and one `String` frame, and returns the connection (open,
    /// so that its close is not what the node counts) and what `node`
    /// delivered.
    fn handshake_in(
        version: u8,
        node: &TcpNode<String>,
        addr: SocketAddr,
    ) -> (TcpStream, Option<String>) {
        let mut frame = vec![0, 0, 0, 6, version];
        frame.extend_from_slice(&7u32.to_le_bytes()); // site 7
        frame.push(0); // path 0
        frame.extend_from_slice(&[0, 0, 0, 6, 2, 0, 0, 0, b'h', b'i']);
        let mut raw = TcpStream::connect(addr).expect("connect");
        raw.write_all(&frame).expect("write");
        let got = node.recv_timeout(Duration::from_millis(300)).map(|env| {
            assert_eq!(env.from, SiteId(7));
            env.msg
        });
        (raw, got)
    }

    #[test]
    fn tcp_reader_refuses_another_wire_version() {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = addr_of(&l);
        drop(l);
        let node = TcpNode::<String>::start(SiteId(0), addr, []).unwrap();
        let trace = pscc_obs::event::TraceHandle::new(SiteId(0), 64);
        node.set_trace(trace.clone());
        let (_current, got) = handshake_in(WIRE_VERSION, &node, addr);
        assert_eq!(got.as_deref(), Some("hi"));
        assert_eq!(node.stats().disconnects.load(Ordering::Relaxed), 0);

        let (_other, got) = handshake_in(WIRE_VERSION + 1, &node, addr);
        assert_eq!(got, None);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while node.stats().disconnects.load(Ordering::Relaxed) == 0
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(node.stats().disconnects.load(Ordering::Relaxed), 1);
        assert_eq!(node.stats().frames_received.load(Ordering::Relaxed), 1);
        assert!(trace.snapshot().iter().any(|e| matches!(
            e.kind,
            pscc_obs::EventKind::NetDisconnect { peer: SiteId(7) }
        )));
        node.shutdown();
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn tcp_fault_hook_drops_and_duplicates() {
        use std::sync::atomic::AtomicUsize;
        let (n0, n1) = two_nodes();
        let calls = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&calls);
        n0.set_fault_hook(Box::new(move |_, _| {
            match c.fetch_add(1, Ordering::Relaxed) {
                0 => crate::fault::FaultAction::Drop,
                1 => crate::fault::FaultAction::Duplicate,
                _ => crate::fault::FaultAction::Deliver,
            }
        }));
        n0.send(SiteId(1), PathId(0), "dropped".to_string());
        n0.send(SiteId(1), PathId(0), "duped".to_string());
        n0.send(SiteId(1), PathId(0), "normal".to_string());
        let mut got = Vec::new();
        while let Some(env) = n1.recv_timeout(Duration::from_millis(500)) {
            got.push(env.msg);
        }
        assert_eq!(got, vec!["duped", "duped", "normal"]);
        n0.shutdown();
        n1.shutdown();
    }

    #[test]
    fn tcp_priority_lane_drained_first() {
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let a0 = addr_of(&l0);
        let a1 = addr_of(&l1);
        drop((l0, l1));
        // Messages starting with '!' are consistency traffic.
        let classify: LaneClassifier<String> = Arc::new(|m: &String| m.starts_with('!'));
        let n0 = TcpNode::<String>::start(SiteId(0), a0, [(SiteId(1), a1)]).unwrap();
        let n1 =
            TcpNode::<String>::start_bounded(SiteId(1), a1, [(SiteId(0), a0)], 16, Some(classify))
                .unwrap();
        n0.send(SiteId(1), PathId(0), "bulk-a".to_string());
        n0.send(SiteId(1), PathId(0), "bulk-b".to_string());
        n0.send(SiteId(1), PathId(0), "!urgent".to_string());
        // Wait for all three to be decoded into the mailbox before
        // draining, so lane order (not arrival timing) decides.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while n1.queue_depth() < 3 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(n1.queue_depth(), 3);
        let got: Vec<String> = (0..3)
            .map(|_| {
                n1.recv_timeout(Duration::from_secs(5))
                    .expect("delivery")
                    .msg
            })
            .collect();
        assert_eq!(got, vec!["!urgent", "bulk-a", "bulk-b"]);
        n0.shutdown();
        n1.shutdown();
    }

    #[test]
    fn tcp_bidirectional() {
        let (n0, n1) = two_nodes();
        n0.send(SiteId(1), PathId(1), "ping".to_string());
        let env = n1.recv_timeout(Duration::from_secs(5)).expect("ping");
        assert_eq!(env.msg, "ping");
        n1.send(SiteId(0), PathId(2), "pong".to_string());
        let env = n0.recv_timeout(Duration::from_secs(5)).expect("pong");
        assert_eq!(env.msg, "pong");
        assert_eq!(env.from, SiteId(1));
        n0.shutdown();
        n1.shutdown();
    }
}
