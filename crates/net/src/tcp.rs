//! A real TCP deployment of the multi-path transport: one TCP connection
//! per ordered `(source, path)` pair into each destination, carrying
//! length-prefixed frames (see [`crate::codec`]). TCP gives exactly the
//! paper's Fig. 2 semantics — order preserved along each connection,
//! none across connections — so the engine's race handling is exercised
//! by a genuine network stack.
//!
//! Topology: every node listens on one address; outgoing connections are
//! opened lazily per `(destination, path)` and announce `(site, path)`
//! and the [`WIRE_VERSION`] in a handshake frame; a node refuses a
//! connection that speaks another version. A node spawns no thread. The
//! thread that receives — a site's own — accepts connections and reads
//! them, nonblocking, inside [`Transport::recv_timeout`], which waits in
//! one `ppoll` over the listener, the accepted connections and a wake
//! socketpair that [`Transport::waker`] writes to. Decoded frames go into
//! the same two lanes the in-process mailbox has, so a site blocks, and
//! is woken, the same way over either transport.
//!
//! Sends: any thread may send, through the node or its
//! [`Transport::sender`]. Each outgoing connection keeps the frames that
//! [`Transport::send_batched`] appended until [`Transport::flush`] writes
//! them in one `write`; any other send writes what its connection holds
//! first and then its own frame, at once. Both happen under the one lock
//! over the node's outgoing connections, so each path stays FIFO
//! whichever thread sends, and a site thread that batches what a pass of
//! its loop sends pays one write per connection, not one per message.
//!
//! Back-pressure: a connection whose next message finds its lane full is
//! not read until that lane has room, so the kernel's TCP window fills
//! and the sender's write blocks — bounded memory, no message lost. A
//! write that would block reads this node's own connections while it
//! waits, unless the receiving thread is already reading them: two sites
//! that flood each other would otherwise both stall on full socket
//! buffers, each waiting for the other to read.

use crate::codec::{decode_frame, encode_frame};
use crate::lanes::Lanes;
use crate::mailbox::Wake;
use crate::poll::{self, PollFd, POLLIN, POLLOUT};
use crate::{Envelope, LaneClassifier, PathId, Sender, Transport, Waker, DEFAULT_MAILBOX_CAPACITY};
use bytes::{Buf, BytesMut};
use pscc_common::hash::HashMap;
use pscc_common::wire::{Wire, WIRE_VERSION};
use pscc_common::SiteId;
use pscc_obs::event::TraceHandle;
use pscc_obs::EventKind;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, TryLockError};
use std::time::{Duration, Instant};

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

/// Wire-level counters of one [`TcpNode`]. Message frames only —
/// handshake frames are excluded from frame counts (their bytes still
/// count on the receive side, where the stream is read as a whole).
#[derive(Debug, Default)]
pub struct NetStats {
    /// Message frames written.
    pub frames_sent: AtomicU64,
    /// Writes that put message frames on a connection, each one or more
    /// whole frames (a write the socket takes in parts counts once):
    /// `frames_sent / writes` is the frames a write carries.
    pub writes: AtomicU64,
    /// Bytes written (encoded frames, length prefix included).
    pub bytes_sent: AtomicU64,
    /// Message frames decoded.
    pub frames_received: AtomicU64,
    /// Bytes read off accepted connections.
    pub bytes_received: AtomicU64,
    /// Send attempts retried after a connect/write failure.
    pub retries: AtomicU64,
    /// Connections that died: read/decode errors, peer closes, a
    /// handshake in another wire version, failed accepts, and sends
    /// abandoned after the retry budget or refused as oversized. Never
    /// silently swallowed.
    pub disconnects: AtomicU64,
}

impl NetStats {
    /// Exports the counters into a metrics registry under `net_*` names.
    pub fn export(&self, reg: &mut pscc_obs::MetricsRegistry) {
        reg.counter("net_frames_sent", self.frames_sent.load(Ordering::Relaxed));
        reg.counter("net_writes", self.writes.load(Ordering::Relaxed));
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

/// What a node's send and receive paths record into: its counters, and
/// a trace once a harness installs one.
#[derive(Default)]
struct Tally {
    stats: NetStats,
    trace: Mutex<Option<TraceHandle>>,
}

impl Tally {
    fn record(&self, kind: EventKind) {
        if let Ok(guard) = self.trace.lock() {
            if let Some(h) = guard.as_ref() {
                h.record(kind);
            }
        }
    }

    /// A connection died, an accept failed, or a send was given up.
    fn disconnect(&self, peer: SiteId) {
        self.stats.disconnects.fetch_add(1, Ordering::Relaxed);
        self.record(EventKind::NetDisconnect { peer });
    }
}

/// The placeholder peer id recorded for a connection that died before
/// its handshake identified the sender.
const UNKNOWN_PEER: SiteId = SiteId(u32::MAX);

/// How long a failed accept keeps the listener out of the wait. A full
/// descriptor table leaves the listener ready, so without the pause a
/// wait would spin on it.
const ACCEPT_PAUSE: Duration = Duration::from_millis(10);

/// Bytes one read takes off a connection.
const READ_CHUNK: usize = 16 * 1024;

/// One site of a TCP-connected peer-servers deployment. Its state is
/// shared with the [`Sender`]s it hands out, which hold it weakly: once
/// the node is shut down or dropped, their sends are lost, as on a
/// closed socket.
pub struct TcpNode<M> {
    node: Arc<Node<M>>,
}

/// What a [`TcpNode`] and its senders share.
struct Node<M> {
    site: SiteId,
    peers: HashMap<SiteId, SocketAddr>,
    /// Every outgoing `(destination, path)` connection. A send holds this
    /// lock from the first byte it writes to the last.
    conns: Mutex<HashMap<(SiteId, PathId), Conn>>,
    inbox: Mutex<Inbox<M>>,
    doorbell: Arc<Doorbell>,
    tally: Tally,
    retry: Retry,
}

/// The reconnect policy of a send whose connect or write fails.
#[derive(Clone, Copy)]
struct Retry {
    base: Duration,
    max: Duration,
    attempts: u32,
}

/// One outgoing connection: its stream once dialled, and the frames
/// written to it next.
#[derive(Default)]
struct Conn {
    stream: Option<TcpStream>,
    /// Whole encoded frames not yet written, oldest first.
    pending: BytesMut,
    /// How many frames `pending` holds.
    frames: u64,
}

/// Everything inbound: held by the thread that receives, and by a send
/// that reads while its write is blocked.
struct Inbox<M> {
    listener: TcpListener,
    /// Set by a failed accept: the listener sits out the waits until then.
    accept_paused_until: Option<Instant>,
    readers: Vec<Reader<M>>,
    lanes: Lanes<M>,
    /// The receiving end of the [`Doorbell`].
    doorbell: UnixStream,
    /// Reused by every wait: the ring or the writer, the listener, then
    /// one slot per reader.
    fds: Vec<PollFd>,
    /// Reused by every read.
    chunk: Box<[u8]>,
    /// Accepts still to fail as if the descriptor table were full.
    #[cfg(test)]
    accept_errors: u32,
}

/// One accepted connection.
struct Reader<M> {
    stream: TcpStream,
    /// Bytes read and not yet decoded.
    buf: BytesMut,
    /// Who writes on it, once its handshake is read.
    from: Option<(SiteId, PathId)>,
    /// A decoded message its lane has no room for yet. Until it goes in,
    /// nothing more is decoded or read from this connection.
    stalled: Option<Envelope<M>>,
}

/// What a wait of the inbox looks at besides the listener and readers.
#[derive(Clone, Copy)]
enum Also {
    /// The doorbell: a receive that [`Transport::waker`] can end.
    Doorbell,
    /// An outgoing connection, for writability: a send whose write would
    /// block.
    Writable(RawFd),
}

/// The wake of a [`TcpNode`]. The flag is what a wait that would park
/// consumes; the byte written down the socketpair ends a wait already in
/// `ppoll`. Only the ring that raises the flag writes, so the pair never
/// fills, and a wait that finds the flag down, or takes it down, finds
/// any ring after it by its byte. Both sides swap the flag `AcqRel`: a
/// wait that takes it down then sees the work queued before the ring
/// that raised it.
struct Doorbell {
    rung: AtomicBool,
    tx: UnixStream,
}

impl Wake for Doorbell {
    fn wake(&self) {
        if !self.rung.swap(true, Ordering::AcqRel) {
            // Nonblocking; the pair holds far more bytes than could be
            // unread here.
            let _ = (&self.tx).write(&[1]);
        }
    }
}

impl<M: Wire + Send + 'static> TcpNode<M> {
    /// Binds `listen`; `peers` maps every other site to its listen
    /// address.
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
    /// inbox `capacity` (from `SystemConfig::mailbox_capacity`) and an
    /// optional classifier routing consistency traffic onto a priority
    /// lane that [`Transport::recv_timeout`] drains first. Without a
    /// classifier all traffic uses the priority lane.
    ///
    /// # Errors
    ///
    /// I/O errors from binding the listener or making the wake
    /// socketpair.
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
        let lanes = Lanes::new(capacity, classify);
        let listener = TcpListener::bind(listen)?;
        listener.set_nonblocking(true)?;
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        let node = Node {
            site,
            peers: peers.into_iter().collect(),
            conns: Mutex::new(HashMap::default()),
            inbox: Mutex::new(Inbox {
                listener,
                accept_paused_until: None,
                readers: Vec::new(),
                lanes,
                doorbell: rx,
                fds: Vec::new(),
                chunk: vec![0; READ_CHUNK].into_boxed_slice(),
                #[cfg(test)]
                accept_errors: 0,
            }),
            doorbell: Arc::new(Doorbell {
                rung: AtomicBool::new(false),
                tx,
            }),
            tally: Tally::default(),
            retry: Retry {
                base: Duration::from_millis(10),
                max: Duration::from_millis(1_000),
                attempts: 5,
            },
        };
        Ok(TcpNode {
            node: Arc::new(node),
        })
    }

    /// Overrides the reconnect policy (defaults: 10 ms base doubling to
    /// a 1 s cap, 5 retries).
    ///
    /// # Panics
    ///
    /// Panics once the node has handed out a [`Transport::sender`]: the
    /// policy is fixed from then on.
    pub fn configure_retry(&mut self, base: Duration, max: Duration, retries: u32) {
        let node = Arc::get_mut(&mut self.node)
            .expect("the retry policy is configured before any sender is handed out");
        node.retry = Retry {
            base,
            max,
            attempts: retries,
        };
    }

    /// Installs a trace handle; disconnects and retries are recorded as
    /// protocol events from then on.
    pub fn set_trace(&self, handle: TraceHandle) {
        if let Ok(mut guard) = self.node.tally.trace.lock() {
            *guard = Some(handle);
        }
    }

    /// This node's wire-level counters.
    pub fn stats(&self) -> &NetStats {
        &self.node.tally.stats
    }

    /// Messages queued in the inbox (both lanes), once what the
    /// connections hold has been read — the queue gauge harnesses export
    /// per node.
    pub fn queue_depth(&self) -> usize {
        let node = &*self.node;
        let mut inbox = node.lock_inbox();
        inbox.poll(node.site, &node.tally, Some(Duration::ZERO), Also::Doorbell);
        inbox.lanes.len()
    }

    /// Closes the listener and every connection.
    pub fn shutdown(self) {}
}

impl<M: Wire> Node<M> {
    fn lock_inbox(&self) -> MutexGuard<'_, Inbox<M>> {
        // A panic mid-update leaves at worst a reader with a partial
        // frame, which its peer's next bytes complete or its decoder
        // refuses: the inbox stays usable.
        self.inbox.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_conns(&self) -> MutexGuard<'_, HashMap<(SiteId, PathId), Conn>> {
        self.conns.lock().expect("conns poisoned")
    }

    /// Appends `msg`'s frame to what the `(to, path)` connection writes
    /// next. Returns `false` for a message over the frame limit, which
    /// no write can carry (counted as an abandoned send).
    fn batch(&self, to: SiteId, path: PathId, msg: &M) -> bool {
        let mut conns = self.lock_conns();
        let conn = conns.entry((to, path)).or_default();
        if encode_frame(msg, &mut conn.pending).is_err() {
            drop(conns);
            self.tally.disconnect(to);
            return false;
        }
        conn.frames += 1;
        true
    }

    /// Sends `msg` at once, behind what its connection already holds.
    fn send(&self, to: SiteId, path: PathId, msg: &M) {
        if self.batch(to, path, msg) {
            self.deliver(to, path);
        }
    }

    /// Writes every connection's pending frames.
    fn flush(&self) {
        loop {
            let dirty = self
                .lock_conns()
                .iter()
                .find(|(_, conn)| conn.frames > 0)
                .map(|(key, _)| *key);
            let Some((to, path)) = dirty else {
                return;
            };
            self.deliver(to, path);
        }
    }

    /// Writes what the `(to, path)` connection holds, retrying with
    /// exponential backoff and a fresh connection instead of dying
    /// silently on the first connect/write failure. The backoff sleeps
    /// with no lock held. Once the retry budget is spent the peer is
    /// unreachable: what was pending is dropped, and counted.
    fn deliver(&self, to: SiteId, path: PathId) {
        let mut delay = self.retry.base;
        for attempt in 0..=self.retry.attempts {
            if attempt > 0 {
                self.tally.stats.retries.fetch_add(1, Ordering::Relaxed);
                self.tally.record(EventKind::NetRetry { peer: to, attempt });
                std::thread::sleep(delay);
                delay = (delay * 2).min(self.retry.max);
            }
            if self.try_write(to, path).is_ok() {
                return;
            }
        }
        if let Some(conn) = self.lock_conns().get_mut(&(to, path)) {
            let all = conn.pending.len();
            conn.pending.advance(all);
            conn.frames = 0;
        }
        self.tally.disconnect(to);
    }

    /// One write attempt: (re)establish the connection and write all it
    /// holds, under the `conns` lock — so frames of concurrent senders
    /// cannot interleave on one connection, and a send costs no
    /// `dup`/`close` pair. The frames wholly written are counted and leave
    /// the buffer, even when the write fails part way; the rest is
    /// written whole by the next attempt, on a new connection: a failed
    /// stream is dropped so that the next attempt redials instead of
    /// reusing a dead socket.
    fn try_write(&self, to: SiteId, path: PathId) -> std::io::Result<()> {
        let mut conns = self.lock_conns();
        let Some(conn) = conns.get_mut(&(to, path)).filter(|conn| conn.frames > 0) else {
            return Ok(());
        };
        let stream = match conn.stream.take() {
            Some(stream) => stream,
            None => self.dial(to, path)?,
        };
        let mut left = &conn.pending[..];
        let written = self.write_reading(&stream, &mut left);
        let (bytes, frames) = match written {
            Ok(()) => (conn.pending.len(), conn.frames),
            Err(_) => whole_frames(&conn.pending, conn.pending.len() - left.len()),
        };
        if frames > 0 {
            let stats = &self.tally.stats;
            stats.writes.fetch_add(1, Ordering::Relaxed);
            stats.frames_sent.fetch_add(frames, Ordering::Relaxed);
            stats.bytes_sent.fetch_add(bytes as u64, Ordering::Relaxed);
        }
        conn.pending.advance(bytes);
        conn.frames -= frames;
        if written.is_ok() {
            conn.stream = Some(stream);
        }
        written
    }

    /// Opens the `(to, path)` connection and announces `(site, path)`
    /// on it.
    fn dial(&self, to: SiteId, path: PathId) -> std::io::Result<TcpStream> {
        let addr = self.peers.get(&to).copied().ok_or_else(|| {
            std::io::Error::new(ErrorKind::NotFound, format!("unknown peer {to}"))
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
        stream.set_nonblocking(true)?;
        Ok(stream)
    }

    /// Writes all of `buf` to the nonblocking `stream`, advancing `buf`
    /// past what was written. While the socket is full, this node's own
    /// connections are read into its lanes, since the peer may be blocked
    /// writing to us — by this thread if it can take the inbox, else by
    /// the thread that holds it, which is receiving.
    fn write_reading(&self, mut stream: &TcpStream, buf: &mut &[u8]) -> std::io::Result<()> {
        while !buf.is_empty() {
            match stream.write(buf) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => *buf = &buf[n..],
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    let fd = stream.as_raw_fd();
                    let inbox = match self.inbox.try_lock() {
                        Ok(inbox) => Some(inbox),
                        Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
                        Err(TryLockError::WouldBlock) => None,
                    };
                    match inbox {
                        Some(mut inbox) => {
                            inbox.poll(self.site, &self.tally, None, Also::Writable(fd));
                        }
                        // Another thread is receiving, so it reads the
                        // connections; look at the socket again soon.
                        None => poll::wait(
                            &mut [PollFd::new(Some(fd), POLLOUT)],
                            Some(Duration::from_millis(1)),
                        ),
                    }
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// The bytes and the number of the whole frames at the front of `buf`
/// that its first `written` bytes cover.
fn whole_frames(buf: &[u8], written: usize) -> (usize, u64) {
    let (mut end, mut frames) = (0, 0);
    while let Some(&[a, b, c, d]) = buf.get(end..end + 4) {
        let next = end + 4 + u32::from_be_bytes([a, b, c, d]) as usize;
        if next > written {
            break;
        }
        (end, frames) = (next, frames + 1);
    }
    (end, frames)
}

impl<M: Wire> Inbox<M> {
    /// Reads what the connections hold into the lanes, waiting up to
    /// `timeout` (`None`: no limit) in one `ppoll` for the listener, a
    /// reader that is not stalled, or `also` to be ready. A reader that
    /// fails is counted, traced and closed.
    fn poll(&mut self, to: SiteId, tally: &Tally, timeout: Option<Duration>, also: Also) {
        let Inbox {
            readers,
            lanes,
            fds,
            chunk,
            ..
        } = self;
        // Readers stalled on a full lane first: a pop may have made room.
        readers.retain_mut(|r| r.stalled.is_none() || r.decode(to, lanes, tally));
        let mut timeout = timeout;
        if let Some(until) = self.accept_paused_until {
            let left = until.saturating_duration_since(Instant::now());
            if left.is_zero() {
                self.accept_paused_until = None;
            } else {
                timeout = Some(timeout.map_or(left, |t| t.min(left)));
            }
        }
        let accepting = self.accept_paused_until.is_none();
        fds.clear();
        fds.push(match also {
            Also::Doorbell => PollFd::new(Some(self.doorbell.as_raw_fd()), POLLIN),
            Also::Writable(fd) => PollFd::new(Some(fd), POLLOUT),
        });
        fds.push(PollFd::new(
            accepting.then(|| self.listener.as_raw_fd()),
            POLLIN,
        ));
        fds.extend(
            readers
                .iter()
                .map(|r| PollFd::new(r.stalled.is_none().then(|| r.stream.as_raw_fd()), POLLIN)),
        );
        poll::wait(fds, timeout);
        if matches!(also, Also::Doorbell) && fds[0].ready() {
            // The flag, not these bytes, says whether a wake is owed.
            while let Ok(n) = (&self.doorbell).read(chunk) {
                if n < chunk.len() {
                    break;
                }
            }
        }
        let mut ready = fds[2..].iter().map(PollFd::ready);
        readers.retain_mut(|r| !ready.next().unwrap_or(false) || r.read(to, lanes, tally, chunk));
        if fds[1].ready() {
            self.accept(to, tally);
        }
    }

    /// Accepts every connection waiting and reads what each brought.
    fn accept(&mut self, to: SiteId, tally: &Tally) {
        loop {
            #[cfg(test)]
            let accepted = match self.accept_errors.checked_sub(1) {
                Some(left) => {
                    self.accept_errors = left;
                    Err(std::io::Error::other("descriptor table full"))
                }
                None => self.listener.accept(),
            };
            #[cfg(not(test))]
            let accepted = self.listener.accept();
            match accepted {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        tally.disconnect(UNKNOWN_PEER);
                        continue;
                    }
                    let mut reader = Reader {
                        stream,
                        buf: BytesMut::new(),
                        from: None,
                        stalled: None,
                    };
                    if reader.read(to, &mut self.lanes, tally, &mut self.chunk) {
                        self.readers.push(reader);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    tally.disconnect(UNKNOWN_PEER);
                    self.accept_paused_until = Some(Instant::now() + ACCEPT_PAUSE);
                    return;
                }
            }
        }
    }
}

impl<M: Wire> Reader<M> {
    fn peer(&self) -> SiteId {
        self.from.map_or(UNKNOWN_PEER, |(site, _)| site)
    }

    /// Reads what the connection holds, a chunk at a time, decoding as
    /// it goes, until it would block or a lane fills. Returns `false`
    /// once the connection is dead (counted and traced).
    fn read(&mut self, to: SiteId, lanes: &mut Lanes<M>, tally: &Tally, chunk: &mut [u8]) -> bool {
        while self.stalled.is_none() {
            match self.stream.read(chunk) {
                Ok(0) => {
                    tally.disconnect(self.peer());
                    return false;
                }
                Ok(n) => {
                    tally
                        .stats
                        .bytes_received
                        .fetch_add(n as u64, Ordering::Relaxed);
                    self.buf.extend_from_slice(&chunk[..n]);
                    if !self.decode(to, lanes, tally) {
                        return false;
                    }
                    if n < chunk.len() {
                        // Drained: the next wait reports what comes next.
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    tally.disconnect(self.peer());
                    return false;
                }
            }
        }
        true
    }

    /// Moves the complete frames in `buf` into their lanes, the stalled
    /// message first, until a lane is full. Returns `false` on a frame
    /// that does not decode or a handshake in another wire version
    /// (counted and traced).
    fn decode(&mut self, to: SiteId, lanes: &mut Lanes<M>, tally: &Tally) -> bool {
        if let Some(env) = self.stalled.take() {
            if let Err(env) = lanes.push(env) {
                self.stalled = Some(env);
                return true;
            }
        }
        loop {
            let Some((from, path)) = self.from else {
                match decode_frame::<Handshake>(&mut self.buf) {
                    Ok(Some(h)) if h.version == WIRE_VERSION => {
                        self.from = Some((SiteId(h.site), PathId(h.path)));
                        continue;
                    }
                    Ok(Some(h)) => tally.disconnect(SiteId(h.site)),
                    Ok(None) => return true,
                    Err(_) => tally.disconnect(UNKNOWN_PEER),
                }
                return false;
            };
            match decode_frame::<M>(&mut self.buf) {
                Ok(Some(msg)) => {
                    tally.stats.frames_received.fetch_add(1, Ordering::Relaxed);
                    let env = Envelope {
                        from,
                        to,
                        path,
                        msg,
                    };
                    if let Err(env) = lanes.push(env) {
                        self.stalled = Some(env);
                        return true;
                    }
                }
                Ok(None) => return true,
                Err(_) => {
                    tally.disconnect(from);
                    return false;
                }
            }
        }
    }
}

impl<M: Wire + Send + 'static> Transport<M> for TcpNode<M> {
    /// Writes `msg` at once, behind whatever its connection holds.
    fn send(&self, to: SiteId, path: PathId, msg: M) {
        self.node.send(to, path, &msg);
    }

    /// Appends `msg` to its connection's pending frames, which the next
    /// [`Transport::flush`] or send on that connection writes.
    fn send_batched(&self, to: SiteId, path: PathId, msg: M) {
        self.node.batch(to, path, &msg);
    }

    fn flush(&self) {
        self.node.flush();
    }

    /// Takes the next message, priority lane first, reading the
    /// connections when no priority message is queued. With nothing to
    /// take it waits up to `timeout` in `ppoll`; a wake ends the wait with
    /// `None` under the rule [`Waker`] states.
    fn recv_timeout(&self, timeout: Duration) -> Option<Envelope<M>> {
        let node = &*self.node;
        let mut inbox = node.lock_inbox();
        let mut deadline = None;
        // A queued priority message outranks whatever the connections
        // hold; a bulk one does not.
        if !inbox.lanes.has_prio() {
            // With nothing queued and no wake owed, the first read of the
            // connections is the wait itself: one `ppoll`, which reads
            // whatever is ready. Otherwise it only looks, since a frame
            // already readable outranks an owed wake, whose byte may have
            // been read before.
            let first = if inbox.lanes.is_empty()
                && !timeout.is_zero()
                && !node.doorbell.rung.load(Ordering::Acquire)
            {
                deadline = Some(Instant::now() + timeout);
                timeout
            } else {
                Duration::ZERO
            };
            inbox.poll(node.site, &node.tally, Some(first), Also::Doorbell);
        }
        loop {
            if let Some((env, _)) = inbox.lanes.pop() {
                return Some(env);
            }
            let now = Instant::now();
            let deadline = *deadline.get_or_insert(now + timeout);
            // Tested before the wake flag, so a call that would not have
            // parked anyway (a zero timeout) leaves the flag for the one
            // that would.
            if now >= deadline || node.doorbell.rung.swap(false, Ordering::AcqRel) {
                return None;
            }
            inbox.poll(node.site, &node.tally, Some(deadline - now), Also::Doorbell);
        }
    }

    fn waker(&self) -> Option<Waker> {
        Some(Waker(Arc::clone(&self.node.doorbell) as Arc<dyn Wake>))
    }

    /// Sends as [`Transport::send`] does, into the same connections
    /// under the same lock. A send whose write would block while the
    /// node's own thread is receiving waits for the socket to drain
    /// while that thread reads the node's connections.
    fn sender(&self) -> Option<Sender<M>> {
        let node = Arc::downgrade(&self.node);
        Some(Sender::new(move |to, path, msg| {
            if let Some(node) = node.upgrade() {
                node.send(to, path, &msg);
            }
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mailbox::tests::wake_rule;

    fn addr_of(listener: &TcpListener) -> SocketAddr {
        listener.local_addr().expect("bound")
    }

    fn two_nodes<M: Wire + Send + 'static>() -> (TcpNode<M>, TcpNode<M>) {
        two_nodes_classified(None)
    }

    /// Two nodes, sites 0 and 1, whose inboxes both use `classify`.
    fn two_nodes_classified<M: Wire + Send + 'static>(
        classify: Option<LaneClassifier<M>>,
    ) -> (TcpNode<M>, TcpNode<M>) {
        // Bind ephemeral ports first to learn the addresses.
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let a = [addr_of(&l0), addr_of(&l1)];
        drop((l0, l1));
        let node = |me: usize| {
            let peer = (SiteId(1 - me as u32), a[1 - me]);
            let capacity = DEFAULT_MAILBOX_CAPACITY;
            TcpNode::start_bounded(SiteId(me as u32), a[me], [peer], capacity, classify.clone())
                .unwrap()
        };
        (node(0), node(1))
    }

    #[test]
    fn tcp_roundtrip_with_handshake() {
        let (n0, n1) = two_nodes::<String>();
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
        let (n0, n1) = two_nodes::<String>();
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
        let (n0, n1) = two_nodes::<String>();
        n0.send(SiteId(1), PathId(0), "count me".to_string());
        let env = n1.recv_timeout(Duration::from_secs(5)).expect("delivery");
        assert_eq!(env.msg, "count me");
        let sent = |n: &TcpNode<String>| {
            let stats = n.stats();
            (
                stats.writes.load(Ordering::Relaxed),
                stats.frames_sent.load(Ordering::Relaxed),
            )
        };
        assert_eq!(sent(&n0), (1, 1), "one plain send, one write");
        assert!(n0.stats().bytes_sent.load(Ordering::Relaxed) > 0);
        assert_eq!(n1.stats().frames_received.load(Ordering::Relaxed), 1);
        assert!(n1.stats().bytes_received.load(Ordering::Relaxed) > 0);
        // Two frames batched for one connection leave in one write.
        n0.send_batched(SiteId(1), PathId(0), "one".to_string());
        n0.send_batched(SiteId(1), PathId(0), "two".to_string());
        assert_eq!(sent(&n0), (1, 1), "a batched send wrote");
        n0.flush();
        assert_eq!(sent(&n0), (2, 3));
        for want in ["one", "two"] {
            let env = n1.recv_timeout(Duration::from_secs(5)).expect("delivery");
            assert_eq!(env.msg, want);
        }
        let mut reg = pscc_obs::MetricsRegistry::new();
        n0.stats().export(&mut reg);
        assert_eq!(reg.counter_value("net_frames_sent"), Some(3));
        assert_eq!(reg.counter_value("net_writes"), Some(2));
        n0.shutdown();
        n1.shutdown();
    }

    #[test]
    fn a_tcp_sender_shares_each_path_fifo_with_its_node() {
        let (n0, n1) = two_nodes::<u32>();
        crate::tests::a_sender_shares_each_path_fifo(&n0, &n1);
    }

    #[test]
    fn a_failed_write_keeps_the_frames_it_did_not_write_whole() {
        let mut buf = BytesMut::new();
        for m in ["a", "bb", "ccc"] {
            encode_frame(&m.to_string(), &mut buf).unwrap();
        }
        // Frames of 4 + 4 + n bytes: a String is its length, then bytes.
        let ends = [9, 19, 30];
        assert_eq!(buf.len(), ends[2]);
        assert_eq!(whole_frames(&buf, 0), (0, 0));
        assert_eq!(whole_frames(&buf, ends[0] - 1), (0, 0));
        assert_eq!(whole_frames(&buf, ends[0]), (ends[0], 1));
        assert_eq!(whole_frames(&buf, ends[1] + 3), (ends[1], 2));
        assert_eq!(whole_frames(&buf, ends[2]), (ends[2], 3));
    }

    #[test]
    fn a_write_through_send_carries_the_bytes_batched_before_it() {
        let (n0, n1) = two_nodes::<u32>();
        let sender = n0.sender().expect("a node can send from any thread");
        n0.send_batched(SiteId(1), PathId(0), 1);
        std::thread::scope(|s| {
            s.spawn(|| sender.send(SiteId(1), PathId(0), 2));
        });
        // No flush: the sender's write carried the batched frame.
        let got: Vec<u32> = (0..2)
            .map(|_| {
                n1.recv_timeout(Duration::from_secs(5))
                    .expect("arrives")
                    .msg
            })
            .collect();
        assert_eq!(got, [1, 2]);
        assert_eq!(n0.stats().writes.load(Ordering::Relaxed), 1);
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
        let (n0, n1) = two_nodes::<String>();
        n0.send(SiteId(1), PathId(0), "warmup".to_string());
        n1.recv_timeout(Duration::from_secs(5)).expect("delivery");
        n0.shutdown(); // closes the established connection into n1
        let deadline = Instant::now() + Duration::from_secs(5);
        while n1.stats().disconnects.load(Ordering::Relaxed) == 0 && Instant::now() < deadline {
            n1.recv_timeout(Duration::from_millis(5));
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
        let deadline = Instant::now() + Duration::from_secs(5);
        while node.stats().disconnects.load(Ordering::Relaxed) == 0 && Instant::now() < deadline {
            node.recv_timeout(Duration::from_millis(5));
        }
        assert_eq!(node.stats().disconnects.load(Ordering::Relaxed), 1);
        assert_eq!(node.stats().frames_received.load(Ordering::Relaxed), 1);
        assert!(trace.snapshot().iter().any(|e| matches!(
            e.kind,
            pscc_obs::EventKind::NetDisconnect { peer: SiteId(7) }
        )));
        node.shutdown();
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
        let deadline = Instant::now() + Duration::from_secs(5);
        while n1.queue_depth() < 3 && Instant::now() < deadline {
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
        let (n0, n1) = two_nodes::<String>();
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

    #[test]
    fn tcp_accept_errors_are_counted_and_accepting_goes_on() {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = addr_of(&l);
        drop(l);
        let node = TcpNode::<String>::start(SiteId(0), addr, []).unwrap();
        let trace = pscc_obs::event::TraceHandle::new(SiteId(0), 64);
        node.set_trace(trace.clone());
        // The next accept fails as it does when the descriptor table is
        // full; the connection waits in the listener's queue meanwhile.
        node.node.lock_inbox().accept_errors = 1;
        let (_raw, got) = handshake_in(WIRE_VERSION, &node, addr);
        assert_eq!(got.as_deref(), Some("hi"), "accepting stopped");
        assert_eq!(node.stats().disconnects.load(Ordering::Relaxed), 1);
        assert!(trace.snapshot().iter().any(|e| matches!(
            e.kind,
            pscc_obs::EventKind::NetDisconnect { peer: UNKNOWN_PEER }
        )));
        node.shutdown();
    }

    #[test]
    fn tcp_a_wake_before_the_wait_ends_it_once() {
        let (_n0, n1) = two_nodes::<u64>();
        wake_rule::before_the_wait_ends_it_once(&n1);
    }

    #[test]
    fn tcp_a_wake_during_the_wait_ends_it() {
        let (_n0, n1) = two_nodes::<u64>();
        // The receiver holds the inbox for the whole of its wait.
        wake_rule::during_the_wait_ends_it(&n1, || {
            while n1.node.inbox.try_lock().is_ok() {
                std::thread::yield_now();
            }
        });
    }

    #[test]
    fn tcp_a_message_outranks_a_pending_wake() {
        let (n0, n1) = two_nodes::<u64>();
        wake_rule::a_message_outranks_it(&n1, |m| {
            n0.send(SiteId(1), PathId(0), m);
            let deadline = Instant::now() + Duration::from_secs(5);
            while n1.queue_depth() == 0 && Instant::now() < deadline {
                std::thread::yield_now();
            }
        });
    }

    const LONG: Duration = Duration::from_secs(30);

    /// Sends `m` from `n0` to `n1` over the connection `n1` has accepted
    /// and returns once the frame waits on it, read by no one.
    fn unread_on_the_socket(n0: &TcpNode<u64>, n1: &TcpNode<u64>, m: u64) {
        n0.send(SiteId(1), PathId(0), m);
        let fd = n1.node.lock_inbox().readers[0].stream.as_raw_fd();
        loop {
            let mut fds = [PollFd::new(Some(fd), POLLIN)];
            poll::wait(&mut fds, Some(Duration::ZERO));
            if fds[0].ready() {
                break;
            }
            std::thread::yield_now();
        }
        assert!(n1.node.lock_inbox().lanes.is_empty());
    }

    /// Two nodes whose one connection, `n0` into `n1`, is accepted and
    /// past its handshake.
    fn connected() -> (TcpNode<u64>, TcpNode<u64>) {
        let (n0, n1) = two_nodes::<u64>();
        n0.send(SiteId(1), PathId(0), 1);
        assert_eq!(n1.recv_timeout(LONG).map(|e| e.msg), Some(1));
        (n0, n1)
    }

    #[test]
    fn tcp_a_readable_message_outranks_a_pending_wake() {
        let (n0, n1) = connected();
        unread_on_the_socket(&n0, &n1, 2);
        n1.waker().expect("the node can be woken").wake();
        assert_eq!(n1.recv_timeout(LONG).map(|e| e.msg), Some(2));
        // The wake is still owed to the next wait that would park.
        let t0 = Instant::now();
        assert!(n1.recv_timeout(LONG).is_none());
        assert!(t0.elapsed() < LONG / 2);
    }

    #[test]
    fn tcp_a_waiting_look_at_empty_lanes_polls_once() {
        let waits = || poll::WAITS.with(std::cell::Cell::get);
        let (n0, n1) = connected();
        // Nothing comes: the look waits its whole length in one `ppoll`.
        let before = waits();
        assert!(n1.recv_timeout(Duration::from_millis(20)).is_none());
        assert_eq!(waits() - before, 1);
        // A frame already readable ends that wait at once, which reads it.
        unread_on_the_socket(&n0, &n1, 2);
        let before = waits();
        assert_eq!(n1.recv_timeout(LONG).map(|e| e.msg), Some(2));
        assert_eq!(waits() - before, 1);
    }

    const FLOOD_FRAMES: usize = 2_000;
    const FLOOD_PAGE: usize = 4_096;

    /// Runs `flood` on a thread of each of two nodes, with the other's
    /// site. Each must write `FLOOD_FRAMES` pages to the other, more than
    /// the two sockets' buffers hold, and take what the other writes:
    /// passes if both take it all within ten seconds.
    fn flood_each_other(
        (n0, n1): (TcpNode<Vec<u8>>, TcpNode<Vec<u8>>),
        flood: impl Fn(TcpNode<Vec<u8>>, SiteId) -> usize + Send + Copy + 'static,
    ) {
        let (done_tx, done) = std::sync::mpsc::sync_channel(2);
        for (peer, node) in [(SiteId(1), n0), (SiteId(0), n1)] {
            let done_tx = done_tx.clone();
            // Detached, so a deadlock fails the test instead of hanging it.
            std::thread::spawn(move || {
                let _ = done_tx.send(flood(node, peer));
            });
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        for _ in 0..2 {
            let left = deadline.saturating_duration_since(Instant::now());
            assert_eq!(
                done.recv_timeout(left),
                Ok(FLOOD_FRAMES),
                "two nodes writing to each other deadlocked"
            );
        }
    }

    /// The pages `node` takes, waiting up to ten seconds for each.
    fn take_flood(node: &TcpNode<Vec<u8>>) -> usize {
        (0..FLOOD_FRAMES)
            .map_while(|_| node.recv_timeout(Duration::from_secs(10)))
            .filter(|env| env.msg.len() == FLOOD_PAGE)
            .count()
    }

    #[test]
    fn tcp_mutual_flood_does_not_deadlock() {
        // Each node writes all its pages before it reads one. Only a
        // write that keeps reading its own connections while it is
        // blocked finishes.
        flood_each_other(two_nodes(), |node, peer| {
            for i in 0..FLOOD_FRAMES {
                node.send(peer, PathId(0), vec![i as u8; FLOOD_PAGE]);
            }
            take_flood(&node)
        });
    }

    #[test]
    fn tcp_mutual_flood_through_senders_does_not_deadlock() {
        // The pages go through each node's sender, from another thread,
        // while the node's own thread waits in `recv_timeout` holding the
        // inbox: a blocked write must wait for its socket while that
        // thread reads. The lane classifier, which runs as the node's
        // thread reads, is slow, so that the writers' sockets fill.
        let slow: LaneClassifier<Vec<u8>> = Arc::new(|_| {
            std::thread::sleep(Duration::from_micros(20));
            true
        });
        flood_each_other(two_nodes_classified(Some(slow)), |node, peer| {
            let sender = node.sender().expect("a node can send from any thread");
            std::thread::scope(|s| {
                s.spawn(|| {
                    for i in 0..FLOOD_FRAMES {
                        sender.send(peer, PathId(0), vec![i as u8; FLOOD_PAGE]);
                    }
                });
                take_flood(&node)
            })
        });
    }
}
