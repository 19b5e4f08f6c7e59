//! Spans recorded from outside the program: a [`TracingTransport`]
//! around each site's transport times every `send` and `recv_timeout`
//! the site loop makes, and the generators record one root span per op.
//! Spans stay in memory until the run ends. What a site thread does
//! between two transport calls (take an input, `PeerServer::handle`,
//! apply the outputs) is its *self time*: wall − send − recv-wait. Spans
//! inside the engine are a later issue; no code under `crates/` changes.

use pscc_common::{SiteId, TxnId};
use pscc_core::Message;
use pscc_net::{tcp::TcpNode, Endpoint, Envelope, PathId, Transport};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A site thread inside `Transport::send`.
    Send,
    /// A site thread inside `Transport::recv_timeout` that returned a
    /// message.
    RecvWait,
    /// A site thread inside `Transport::recv_timeout` that timed out:
    /// the 200 µs poll with nothing to do.
    RecvIdle,
    /// A generator's op, `submit` to the matching reply.
    Op,
}

impl SpanKind {
    fn name(self) -> &'static str {
        match self {
            SpanKind::Send => "send",
            SpanKind::RecvWait => "recv_wait",
            SpanKind::RecvIdle => "recv_idle",
            SpanKind::Op => "op",
        }
    }
}

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub kind: SpanKind,
    /// Nanoseconds since the trace epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// The message's `label()`, or the op's kind.
    pub label: &'static str,
    /// The transaction worked for: the identifier spans of one request
    /// share across threads.
    pub txn: Option<TxnId>,
    /// For a send: the index, in the same thread's list, of the receive
    /// that preceded (and so caused) it.
    pub cause: Option<u32>,
    /// For a send: the message's `wire_size()`.
    pub bytes: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The spans of one thread, with the thread's lifetime.
#[derive(Debug, Clone, Default)]
pub struct ThreadTrace {
    /// Chrome-trace process label: `site N` or `generator N`.
    pub name: String,
    pub spans: Vec<Span>,
    /// Bytes really written to sockets, when the transport counts them.
    pub wire_bytes_sent: Option<u64>,
}

/// Where transports leave their spans when their site thread ends.
pub type TraceSink = Arc<Mutex<Vec<ThreadTrace>>>;

/// The clock every span of one run is taken against.
#[derive(Debug, Clone, Copy)]
pub struct Epoch(Instant);

impl Epoch {
    pub fn now() -> Self {
        Epoch(Instant::now())
    }

    pub fn ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Bytes a transport has really put on the wire, if it counts them.
pub trait WireBytes {
    fn wire_bytes_sent(&self) -> Option<u64>;
}

impl WireBytes for Endpoint<Message> {
    fn wire_bytes_sent(&self) -> Option<u64> {
        None
    }
}

impl WireBytes for TcpNode<Message> {
    fn wire_bytes_sent(&self) -> Option<u64> {
        Some(self.stats().bytes_sent.load(Ordering::Relaxed))
    }
}

/// A transport that records a span around every call the site loop
/// makes into the transport it wraps.
pub struct TracingTransport<T: Transport<Message> + WireBytes> {
    inner: T,
    site: SiteId,
    epoch: Epoch,
    // Only the owning site thread touches the list; `RefCell` keeps the
    // wrapper `Send` without a lock on the measured path.
    spans: RefCell<Vec<Span>>,
    last_recv: RefCell<Option<u32>>,
    sink: TraceSink,
}

impl<T: Transport<Message> + WireBytes> TracingTransport<T> {
    pub fn new(inner: T, site: SiteId, epoch: Epoch, sink: TraceSink) -> Self {
        TracingTransport {
            inner,
            site,
            epoch,
            spans: RefCell::new(Vec::with_capacity(1 << 16)),
            last_recv: RefCell::new(None),
            sink,
        }
    }
}

impl<T: Transport<Message> + WireBytes> Transport<Message> for TracingTransport<T> {
    fn send(&self, to: SiteId, path: PathId, msg: Message) {
        let (label, txn, bytes) = (msg.label(), msg.txn_id(), msg.wire_size() as u32);
        let start_ns = self.epoch.ns();
        self.inner.send(to, path, msg);
        let end_ns = self.epoch.ns();
        self.spans.borrow_mut().push(Span {
            kind: SpanKind::Send,
            start_ns,
            end_ns,
            label,
            txn,
            cause: *self.last_recv.borrow(),
            bytes,
        });
    }

    fn recv_timeout(&self, timeout: Duration) -> Option<Envelope<Message>> {
        let start_ns = self.epoch.ns();
        let env = self.inner.recv_timeout(timeout);
        let end_ns = self.epoch.ns();
        let mut spans = self.spans.borrow_mut();
        let (kind, label, txn) = match &env {
            Some(e) => {
                *self.last_recv.borrow_mut() = Some(spans.len() as u32);
                (SpanKind::RecvWait, e.msg.label(), e.msg.txn_id())
            }
            None => (SpanKind::RecvIdle, "timeout", None),
        };
        spans.push(Span {
            kind,
            start_ns,
            end_ns,
            label,
            txn,
            cause: None,
            bytes: 0,
        });
        env
    }
}

impl<T: Transport<Message> + WireBytes> Drop for TracingTransport<T> {
    fn drop(&mut self) {
        // Runs on the site thread as it exits. A poisoned sink means a
        // sibling panicked; the spans are lost with the run either way.
        if let Ok(mut sink) = self.sink.lock() {
            sink.push(ThreadTrace {
                name: format!("site {}", self.site.0),
                spans: std::mem::take(self.spans.get_mut()),
                wire_bytes_sent: self.inner.wire_bytes_sent(),
            });
        }
    }
}

/// Where a site thread's wall time went inside `[from_ns, to_ns)`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    pub wall_ns: u64,
    pub send_ns: u64,
    /// Inside `recv_timeout`, whether a message came or not.
    pub recv_ns: u64,
    /// Wall − send − recv: taking inputs, `handle`, applying outputs.
    pub self_ns: u64,
}

/// Clips each span to the window and charges it to its bucket. Spans of
/// one thread never overlap (the site loop is sequential), so the
/// remainder is exactly the time outside the transport.
pub fn self_time(spans: &[Span], from_ns: u64, to_ns: u64) -> SelfTime {
    let mut t = SelfTime {
        wall_ns: to_ns.saturating_sub(from_ns),
        ..SelfTime::default()
    };
    for s in spans {
        let clipped = s.end_ns.min(to_ns).saturating_sub(s.start_ns.max(from_ns));
        match s.kind {
            SpanKind::Send => t.send_ns += clipped,
            SpanKind::RecvWait | SpanKind::RecvIdle => t.recv_ns += clipped,
            SpanKind::Op => {}
        }
    }
    t.self_ns = t.wall_ns.saturating_sub(t.send_ns + t.recv_ns);
    t
}

/// Renders the threads' spans that start inside `[from_ns, to_ns)` in
/// Chrome `trace_event` JSON-array form (what `repro --perfetto` writes
/// for virtual time): one process per thread, complete (`X`) events in
/// microseconds.
pub fn render_chrome(threads: &[ThreadTrace], from_ns: u64, to_ns: u64) -> String {
    let mut out = String::from("[\n");
    for (pid, t) in threads.iter().enumerate() {
        if pid > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\"{}\"}}}}",
            t.name
        );
        for (i, s) in t.spans.iter().enumerate() {
            if s.start_ns < from_ns || s.start_ns >= to_ns {
                continue;
            }
            let _ = write!(
                out,
                ",\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":0,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i}",
                s.label,
                s.kind.name(),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
            );
            if let Some(txn) = s.txn {
                let _ = write!(out, ",\"txn\":\"{txn}\"");
            }
            if let Some(cause) = s.cause {
                let _ = write!(out, ",\"cause\":{cause}");
            }
            if s.kind == SpanKind::Send {
                let _ = write!(out, ",\"bytes\":{}", s.bytes);
            }
            out.push_str("}}");
        }
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: SpanKind, start_ns: u64, end_ns: u64) -> Span {
        Span {
            kind,
            start_ns,
            end_ns,
            label: "x",
            txn: None,
            cause: None,
            bytes: 0,
        }
    }

    #[test]
    fn self_time_is_wall_minus_transport() {
        let spans = [
            span(SpanKind::RecvIdle, 0, 200),
            span(SpanKind::RecvWait, 250, 400),
            span(SpanKind::Send, 450, 500),
            span(SpanKind::RecvIdle, 900, 1_100),
        ];
        let t = self_time(&spans, 0, 1_000);
        assert_eq!(t.wall_ns, 1_000);
        assert_eq!(t.send_ns, 50);
        assert_eq!(t.recv_ns, 200 + 150 + 100, "the last span is clipped");
        assert_eq!(t.self_ns, 1_000 - 50 - 450);
        assert_eq!(t.send_ns + t.recv_ns + t.self_ns, t.wall_ns);
    }

    #[test]
    fn self_time_ignores_spans_outside_the_window() {
        let spans = [
            span(SpanKind::Send, 0, 100),
            span(SpanKind::Send, 5_000, 6_000),
        ];
        let t = self_time(&spans, 1_000, 2_000);
        assert_eq!((t.send_ns, t.recv_ns, t.self_ns), (0, 0, 1_000));
    }

    #[test]
    fn chrome_export_is_a_json_array_of_windowed_events() {
        let threads = [ThreadTrace {
            name: "site 0".into(),
            spans: vec![
                Span {
                    cause: Some(0),
                    bytes: 64,
                    ..span(SpanKind::Send, 1_500, 2_500)
                },
                span(SpanKind::Send, 9_000, 9_500),
            ],
            wire_bytes_sent: None,
        }];
        let text = render_chrome(&threads, 0, 5_000);
        let doc = crate::json::Json::parse(&text).expect("well-formed");
        let events = doc.elements();
        assert_eq!(events.len(), 2, "metadata + the one span inside the window");
        let e = &events[1];
        assert_eq!(e.get("ph"), Some(&crate::json::Json::str("X")));
        assert_eq!(e.get("ts").and_then(|v| v.as_f64()), Some(1.5));
        assert_eq!(e.get("dur").and_then(|v| v.as_f64()), Some(1.0));
        let args = e.get("args").expect("args");
        assert_eq!(args.get("cause").and_then(|v| v.as_f64()), Some(0.0));
        assert_eq!(args.get("bytes").and_then(|v| v.as_f64()), Some(64.0));
    }
}
