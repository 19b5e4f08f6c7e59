//! Cross-site causal span trees and the Perfetto/Chrome trace export.
//!
//! The engine stamps every traced message hop with a [`TraceCtx`]
//! (span, parent-span) pair and records a `MsgSend` at the sender and a
//! `MsgRecv` at the receiver. This module reconstructs per-transaction
//! span trees from a merged multi-site event stream — tolerating the
//! reordering and duplication a chaos harness injects — and renders
//! them either as an indented text tree (`repro --trace-txn`) or as
//! Chrome `trace_event` JSON loadable in Perfetto / `chrome://tracing`.

use crate::event::{EventKind, TraceEvent};
use pscc_common::hash::HashMap;
use pscc_common::{SimTime, SiteId, SpanId, TxnId};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One reconstructed message-hop span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    /// The transaction the hop worked for.
    pub txn: TxnId,
    /// The site where that transaction originated.
    pub origin: SiteId,
    /// Message label (e.g. `read_obj`, `commit_req`).
    pub label: &'static str,
    /// Sender site and send stamp, when the `MsgSend` survived the ring.
    pub from: Option<SiteId>,
    pub sent_at: Option<SimTime>,
    /// Receiver site and receive stamp, when the `MsgRecv` survived.
    pub to: Option<SiteId>,
    pub recv_at: Option<SimTime>,
}

impl Span {
    /// The hop's network latency when both ends were recorded.
    #[must_use]
    pub fn latency_micros(&self) -> Option<u64> {
        match (self.sent_at, self.recv_at) {
            (Some(s), Some(r)) if r >= s => Some(r.since(s).as_micros()),
            _ => None,
        }
    }
}

/// A forest of spans for one transaction (usually one tree rooted at
/// the home site's first hop; chaos can orphan subtrees).
#[derive(Debug, Default, Clone)]
pub struct SpanTree {
    /// All spans by id.
    pub spans: BTreeMap<SpanId, Span>,
    /// Children of each span, in first-seen (send-time) order.
    pub children: HashMap<SpanId, Vec<SpanId>>,
    /// Spans whose parent is `NONE` or missing from the stream.
    pub roots: Vec<SpanId>,
}

impl SpanTree {
    #[must_use]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

/// Reconstructs per-transaction span trees from a merged event stream.
///
/// Duplicated events (chaos `dup` faults re-record a hop's `MsgRecv`)
/// collapse onto the same span id; a `MsgRecv` whose `MsgSend` was
/// evicted from the sender's ring still creates the span from the
/// receiver's view. Spans whose parents never appear become roots, so
/// a truncated stream degrades to a forest instead of vanishing.
#[must_use]
pub fn build_span_trees(events: &[TraceEvent]) -> BTreeMap<TxnId, SpanTree> {
    let mut trees: BTreeMap<TxnId, SpanTree> = BTreeMap::new();
    for e in events {
        let (ctx, label, send_end, peer) = match &e.kind {
            EventKind::MsgSend { ctx, to, label } => (*ctx, *label, true, *to),
            EventKind::MsgRecv { ctx, from, label } => (*ctx, *label, false, *from),
            _ => continue,
        };
        let tree = trees.entry(ctx.txn).or_default();
        let span = tree.spans.entry(ctx.span).or_insert_with(|| Span {
            id: ctx.span,
            parent: ctx.parent,
            txn: ctx.txn,
            origin: ctx.origin,
            label,
            from: None,
            sent_at: None,
            to: None,
            recv_at: None,
        });
        if send_end {
            // First send wins (a duplicate's stamps are identical; a
            // re-send after chaos keeps the original start).
            if span.sent_at.is_none() {
                span.from = Some(e.site);
                span.sent_at = Some(e.at);
                span.to = Some(peer);
            }
        } else {
            // Last receive wins: under `dup` faults the hop completes
            // when its final copy lands; under `delay` the real arrival
            // is what mattered to the protocol.
            span.from.get_or_insert(peer);
            span.to = Some(e.site);
            span.recv_at = Some(e.at);
        }
    }
    for tree in trees.values_mut() {
        let ids: Vec<SpanId> = tree.spans.keys().copied().collect();
        for id in ids {
            let parent = tree.spans[&id].parent;
            if !parent.is_none() && tree.spans.contains_key(&parent) {
                let kids = tree.children.entry(parent).or_default();
                if !kids.contains(&id) {
                    kids.push(id);
                }
            } else {
                tree.roots.push(id);
            }
        }
        let spans = &tree.spans;
        let key = |id: &SpanId| {
            let s = &spans[id];
            (s.sent_at.or(s.recv_at).unwrap_or(SimTime::ZERO), *id)
        };
        tree.roots.sort_by_key(key);
        tree.roots.dedup();
        for kids in tree.children.values_mut() {
            kids.sort_by_key(key);
        }
    }
    trees
}

/// Renders one transaction's span tree as an indented text dump.
#[must_use]
pub fn render_span_tree(txn: TxnId, tree: &SpanTree) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "=== causal trace for {txn} ({} hops) ===", tree.len());
    for root in &tree.roots {
        render_node(tree, *root, 0, &mut out);
    }
    out
}

fn render_node(tree: &SpanTree, id: SpanId, depth: usize, out: &mut String) {
    let s = &tree.spans[&id];
    let from = s.from.map_or_else(|| "?".into(), |x| x.0.to_string());
    let to = s.to.map_or_else(|| "?".into(), |x| x.0.to_string());
    let start = s
        .sent_at
        .or(s.recv_at)
        .map_or(0, pscc_common::SimTime::as_micros);
    let lat = s
        .latency_micros()
        .map_or_else(|| "?".into(), |m| m.to_string());
    let _ = writeln!(
        out,
        "{:indent$}{} {} s{from}->s{to} t={start}µs rtt={lat}µs [{}]",
        "",
        s.label,
        s.id,
        s.txn,
        indent = depth * 2
    );
    if let Some(kids) = tree.children.get(&id) {
        for k in kids {
            render_node(tree, *k, depth + 1, out);
        }
    }
}

fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Exports a merged multi-site event stream as Chrome `trace_event`
/// JSON (the "JSON Array Format"), loadable in Perfetto or
/// `chrome://tracing`.
///
/// The mapping: each site is a *process* (`pid`), each transaction a
/// *thread* (`tid`) within the sites it touched, each message hop a
/// pair of `b`/`e` async events (so cross-site arrows render), and
/// each `StageSample` a complete (`X`) slice of its duration ending at
/// the sample's stamp. Non-tracing protocol events become instants.
#[must_use]
pub fn render_perfetto(events: &[TraceEvent]) -> String {
    let mut out = String::from("[\n");
    let mut first = true;
    let mut emit = |line: &str, out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push_str(",\n");
        }
        out.push_str(line);
    };
    // Process metadata: one per site seen.
    let mut sites: Vec<u32> = events.iter().map(|e| e.site.0).collect();
    sites.sort_unstable();
    sites.dedup();
    for s in &sites {
        emit(
            &format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{s},\"tid\":0,\
                 \"args\":{{\"name\":\"site {s}\"}}}}"
            ),
            &mut out,
        );
    }
    for e in events {
        let pid = e.site.0;
        let ts = e.at.as_micros();
        match &e.kind {
            EventKind::MsgSend { ctx, to, label } => {
                let mut line = String::new();
                let _ = write!(
                    line,
                    "{{\"name\":\"{label}\",\"cat\":\"msg\",\"ph\":\"b\",\"id\":\"{}\",\
                     \"pid\":{pid},\"tid\":{},\"ts\":{ts},\"args\":{{\"txn\":\"{}\",\
                     \"span\":\"{}\",\"parent\":\"{}\",\"to\":{}}}}}",
                    ctx.span, ctx.txn.seq, ctx.txn, ctx.span, ctx.parent, to.0
                );
                emit(&line, &mut out);
            }
            EventKind::MsgRecv { ctx, from, label } => {
                let mut line = String::new();
                let _ = write!(
                    line,
                    "{{\"name\":\"{label}\",\"cat\":\"msg\",\"ph\":\"e\",\"id\":\"{}\",\
                     \"pid\":{pid},\"tid\":{},\"ts\":{ts},\"args\":{{\"txn\":\"{}\",\
                     \"from\":{}}}}}",
                    ctx.span, ctx.txn.seq, ctx.txn, from.0
                );
                emit(&line, &mut out);
            }
            EventKind::StageSample { txn, stage, micros } => {
                let start = ts.saturating_sub(*micros);
                let mut line = String::new();
                let _ = write!(
                    line,
                    "{{\"name\":\"{stage}\",\"cat\":\"stage\",\"ph\":\"X\",\
                     \"pid\":{pid},\"tid\":{},\"ts\":{start},\"dur\":{micros},\
                     \"args\":{{\"txn\":\"{txn}\"}}}}",
                    txn.seq
                );
                emit(&line, &mut out);
            }
            kind => {
                let mut name = String::new();
                escape_json(&kind.to_string(), &mut name);
                let mut line = String::new();
                let _ = write!(
                    line,
                    "{{\"name\":\"{name}\",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"t\",\
                     \"pid\":{pid},\"tid\":0,\"ts\":{ts}}}"
                );
                emit(&line, &mut out);
            }
        }
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscc_common::{Stage, TraceCtx};

    fn txn(seq: u64) -> TxnId {
        TxnId::new(SiteId(0), seq)
    }

    fn ev(seq: u64, site: u32, at: u64, kind: EventKind) -> TraceEvent {
        TraceEvent {
            seq,
            site: SiteId(site),
            at: SimTime::from_micros(at),
            wall_micros: at,
            kind,
        }
    }

    fn ctx(t: u64, span: u64, parent: u64) -> TraceCtx {
        TraceCtx {
            txn: txn(t),
            origin: SiteId(0),
            span: SpanId(span),
            parent: SpanId(parent),
        }
    }

    #[test]
    fn tree_from_reordered_and_duplicated_stream() {
        // Hop 1 (root): site0 -> site1; hop 2 (child): site1 -> site0.
        // The stream arrives reordered (child's recv first) and with the
        // child's recv duplicated.
        let events = vec![
            ev(
                10,
                0,
                40,
                EventKind::MsgRecv {
                    ctx: ctx(1, 2, 1),
                    from: SiteId(1),
                    label: "read_reply",
                },
            ),
            ev(
                1,
                0,
                10,
                EventKind::MsgSend {
                    ctx: ctx(1, 1, 0),
                    to: SiteId(1),
                    label: "read_obj",
                },
            ),
            ev(
                2,
                1,
                20,
                EventKind::MsgRecv {
                    ctx: ctx(1, 1, 0),
                    from: SiteId(0),
                    label: "read_obj",
                },
            ),
            ev(
                3,
                1,
                30,
                EventKind::MsgSend {
                    ctx: ctx(1, 2, 1),
                    to: SiteId(0),
                    label: "read_reply",
                },
            ),
            // Chaos duplicate of the child's recv.
            ev(
                11,
                0,
                45,
                EventKind::MsgRecv {
                    ctx: ctx(1, 2, 1),
                    from: SiteId(1),
                    label: "read_reply",
                },
            ),
        ];
        let trees = build_span_trees(&events);
        assert_eq!(trees.len(), 1);
        let tree = &trees[&txn(1)];
        assert_eq!(tree.len(), 2, "duplicates must collapse");
        assert_eq!(tree.roots, vec![SpanId(1)]);
        assert_eq!(tree.children[&SpanId(1)], vec![SpanId(2)]);
        let hop1 = &tree.spans[&SpanId(1)];
        assert_eq!(hop1.latency_micros(), Some(10));
        let hop2 = &tree.spans[&SpanId(2)];
        // Last duplicate's arrival stamp wins.
        assert_eq!(hop2.recv_at, Some(SimTime::from_micros(45)));
        let dump = render_span_tree(txn(1), tree);
        assert!(dump.contains("read_obj"), "{dump}");
        assert!(dump.contains("  read_reply"), "{dump}");
    }

    #[test]
    fn orphaned_span_becomes_root() {
        // The parent hop's events were evicted from every ring.
        let events = vec![ev(
            1,
            1,
            20,
            EventKind::MsgRecv {
                ctx: ctx(1, 9, 7),
                from: SiteId(0),
                label: "commit_req",
            },
        )];
        let trees = build_span_trees(&events);
        let tree = &trees[&txn(1)];
        assert_eq!(tree.roots, vec![SpanId(9)]);
        assert!(tree.spans[&SpanId(9)].sent_at.is_none());
    }

    #[test]
    fn perfetto_export_is_wellformed() {
        let events = vec![
            ev(
                1,
                0,
                10,
                EventKind::MsgSend {
                    ctx: ctx(1, 1, 0),
                    to: SiteId(1),
                    label: "read_obj",
                },
            ),
            ev(
                2,
                1,
                20,
                EventKind::MsgRecv {
                    ctx: ctx(1, 1, 0),
                    from: SiteId(0),
                    label: "read_obj",
                },
            ),
            ev(
                3,
                1,
                25,
                EventKind::StageSample {
                    txn: txn(1),
                    stage: Stage::WalForce,
                    micros: 5,
                },
            ),
            ev(4, 1, 26, EventKind::LocksReleased { txn: txn(1) }),
        ];
        let json = render_perfetto(&events);
        assert!(json.starts_with("[\n"));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains("\"ph\":\"b\""));
        assert!(json.contains("\"ph\":\"e\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"dur\":5"));
        // Balanced braces/brackets (cheap well-formedness proxy — no
        // JSON parser in the workspace).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }
}
