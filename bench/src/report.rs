//! From what a run measured to named metrics.

use crate::des;
use crate::layers::LayerResults;
use crate::stats::{median, percentile, rank_index, top_percentile};
use crate::threaded::{Counts, Outcome};
use crate::trace::{self_time, SpanKind, ThreadTrace};

/// A measured value of a named metric, with the sample count behind it
/// where it is a percentile or a median.
#[derive(Debug, Clone, Copy)]
pub struct Value {
    pub name: &'static str,
    pub value: f64,
    pub samples: usize,
}

fn value(name: &'static str, value: f64, samples: usize) -> Value {
    Value {
        name,
        value,
        samples,
    }
}

/// Percentile `p` of ascending nanosecond samples, in units of `per`
/// nanoseconds. Zero when there are none (a broken run, reported as
/// incorrect anyway).
fn pct(sorted_ns: &[u64], p: f64, per: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    sorted_ns[rank_index(sorted_ns.len(), p)] as f64 / per
}

/// The median, or zero of nothing (a layer that did no work).
fn median_or_zero(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The eight end-to-end metrics of a threaded run (its rounds merged).
pub fn threaded_end_to_end(o: &Outcome) -> Vec<Value> {
    let mut setups = o.setup_s.clone();
    let txn_per_s = o.commits as f64 / o.window_s.max(1e-9);
    vec![
        value("txn_per_s", txn_per_s, o.commits as usize),
        value("txn_p50_ms", pct(&o.txn_ns, 50.0, 1e6), o.txn_ns.len()),
        value("txn_p90_ms", pct(&o.txn_ns, 90.0, 1e6), o.txn_ns.len()),
        value("op_p50_us", pct(&o.op_ns, 50.0, 1e3), o.op_ns.len()),
        value("op_p95_us", pct(&o.op_ns, 95.0, 1e3), o.op_ns.len()),
        value(
            "commit_p50_us",
            pct(&o.commit_ns, 50.0, 1e3),
            o.commit_ns.len(),
        ),
        // Nothing is simulated here: the commit rate is the real one.
        value("sim_commits_per_s", txn_per_s, o.commits as usize),
        value("setup_s", median(&mut setups), setups.len()),
    ]
}

/// The latency ladders a reader wants beside the gated percentiles:
/// `(what, [(percentile, value)])` for transactions (ms) and ops (µs),
/// each up to the highest percentile its samples support (at least ten
/// beyond it).
pub fn latency_ladders(o: &Outcome) -> Vec<(&'static str, Vec<(f64, f64)>)> {
    [("txn_ms", &o.txn_ns, 1e6), ("op_us", &o.op_ns, 1e3)]
        .into_iter()
        .map(|(what, ns, per)| {
            let top = top_percentile(ns.len()).unwrap_or(0.0);
            let ladder = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9]
                .into_iter()
                .filter(|p| *p <= top)
                .map(|p| (p, pct(ns, p, per)))
                .collect();
            (what, ladder)
        })
        .collect()
}

/// The eight end-to-end metrics of a `fig-des` run. Only the simulated
/// commit rate and the set-up (build) time are native to it; the latency
/// names carry the wall-clock cost of a simulated transaction and of a
/// simulated object access, at the median point and at the slowest of
/// the twelve (see the README's table).
/// Simulated commits per wall second (build included) of each pass of a
/// `fig-des` run, in order.
pub fn des_pass_rates(o: &des::Outcome) -> Vec<f64> {
    let points = o.runs.len() / o.passes.max(1);
    o.runs
        .chunks(points.max(1))
        .map(|pass| {
            let commits: u64 = pass.iter().map(|r| r.commits).sum();
            let wall_s: f64 = pass.iter().map(|r| r.build_s + r.run_s).sum();
            commits as f64 / wall_s.max(1e-9)
        })
        .collect()
}

pub fn des_end_to_end(o: &des::Outcome) -> Vec<Value> {
    let points = o.runs.len() / o.passes.max(1);
    // The work is deterministic and the box is not, so the rate and the
    // summed build time are reported as the median pass.
    let rate = median(&mut des_pass_rates(o));
    let mut builds: Vec<f64> = o
        .runs
        .chunks(points.max(1))
        .map(|pass| pass.iter().map(|r| r.build_s).sum())
        .collect();

    // Per point: the median over passes of wall time per unit of work.
    let per_point = |unit: &dyn Fn(&des::PointRun) -> f64| -> Vec<f64> {
        let mut v: Vec<f64> = (0..points)
            .map(|i| {
                let mut runs: Vec<f64> = o.runs.iter().filter(|r| r.point == i).map(unit).collect();
                median(&mut runs)
            })
            .collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let ms_per_txn = per_point(&|r| r.run_s * 1e3 / r.commits.max(1) as f64);
    let us_per_access = per_point(&|r| r.run_s * 1e6 / r.accesses().max(1) as f64);
    let slowest = |v: &[f64]| v.last().copied().unwrap_or(0.0);
    // Every point ran at least once, so neither list is empty.
    let mid = |v: &[f64]| percentile(v, 50.0);
    vec![
        value("txn_per_s", rate, o.passes),
        value("txn_p50_ms", mid(&ms_per_txn), points),
        value("txn_p90_ms", slowest(&ms_per_txn), points),
        value("op_p50_us", mid(&us_per_access), points),
        value("op_p95_us", slowest(&us_per_access), points),
        value("commit_p50_us", mid(&ms_per_txn) * 1e3, points),
        value("sim_commits_per_s", rate, o.passes),
        value("setup_s", median(&mut builds), o.passes),
    ]
}

/// Per-layer metrics made of engine counters (source C).
pub fn counter_metrics(c: &Counts, cpu_s: f64) -> Vec<Value> {
    let n = c.commits as usize;
    let per_commit = |name, count: u64| value(name, ratio(count, c.commits), n);
    vec![
        per_commit("lockmgr.lock_waits_per_commit", c.lock_waits),
        per_commit("net.msgs_per_commit", c.msgs_sent),
        value(
            "core.cache_hit_ratio",
            ratio(c.cache_hits, c.cache_hits + c.cache_misses),
            (c.cache_hits + c.cache_misses) as usize,
        ),
        per_commit("core.pages_shipped_per_commit", c.pages_shipped),
        per_commit("core.callbacks_per_commit", c.callbacks_sent),
        per_commit("core.deescalations_per_commit", c.deescalations),
        value(
            "core.adaptive_hit_ratio",
            ratio(c.adaptive_hits, c.adaptive_hits + c.write_requests),
            (c.adaptive_hits + c.write_requests) as usize,
        ),
        per_commit("core.aborts_per_commit", c.aborts),
        per_commit("core.busy_retries_per_commit", c.busy_retries),
        value(
            "sim.threaded.cpu_s_per_commit",
            cpu_s / c.commits.max(1) as f64,
            n,
        ),
    ]
}

/// Per-layer metrics made of the traced run's spans (source T).
/// `untraced_txn_per_s` is the same workload's rate with tracing off.
pub fn trace_metrics(traced: &Outcome, untraced_txn_per_s: f64) -> Vec<Value> {
    let (from, to) = traced.window_ns;
    let sites: Vec<&ThreadTrace> = traced
        .traces
        .iter()
        .filter(|t| t.name.starts_with("site"))
        .collect();
    let (mut wall, mut send, mut recv, mut own) = (0u64, 0u64, 0u64, 0u64);
    let (mut page_ns, mut small_ns): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
    let mut model_bytes = 0u64;
    for t in &sites {
        let st = self_time(&t.spans, from, to);
        wall += st.wall_ns;
        send += st.send_ns;
        recv += st.recv_ns;
        own += st.self_ns;
        let in_window = t
            .spans
            .iter()
            .filter(|s| s.start_ns >= from && s.start_ns < to);
        for s in in_window.filter(|s| s.kind == SpanKind::Send) {
            model_bytes += u64::from(s.bytes);
            // A page ship against everything else: the bimodal split of
            // message sizes.
            if s.label == "read_reply" {
                page_ns.push(s.dur_ns() as f64 / 1e3);
            } else {
                small_ns.push(s.dur_ns() as f64 / 1e3);
            }
        }
    }
    // Sockets count real bytes, for the whole run; scale them to the
    // window by its share of the sends. In-proc, `wire_size()` is all
    // there is.
    let wire: Option<u64> = sites.iter().map(|t| t.wire_bytes_sent).sum();
    let all_model: u64 = sites
        .iter()
        .flat_map(|t| &t.spans)
        .filter(|s| s.kind == SpanKind::Send)
        .map(|s| u64::from(s.bytes))
        .sum();
    let bytes = match wire {
        Some(w) if all_model > 0 => w as f64 * model_bytes as f64 / all_model as f64,
        _ => model_bytes as f64,
    };
    let frac = |part: u64| ratio(part, wall);
    let traced_rate = traced.commits as f64 / traced.window_s.max(1e-9);
    let (pages, smalls) = (page_ns.len(), small_ns.len());
    vec![
        value("net.send_busy_frac", frac(send), sites.len()),
        value("net.recv_wait_frac", frac(recv), sites.len()),
        value("core.site_busy_frac", frac(own), sites.len()),
        value("net.send_us_p50.page", median_or_zero(&mut page_ns), pages),
        value(
            "net.send_us_p50.small",
            median_or_zero(&mut small_ns),
            smalls,
        ),
        value(
            "net.bytes_per_commit",
            bytes / traced.commits.max(1) as f64,
            traced.commits as usize,
        ),
        value(
            "bench.trace_overhead_frac",
            1.0 - traced_rate / untraced_txn_per_s.max(1e-9),
            traced.commits as usize,
        ),
        value("bench.generator_busy_frac", traced.generator_busy_frac, 1),
    ]
}

/// Per-layer metrics of a `fig-des` run: build and per-point times, the
/// determinism count, and its engine counters.
pub fn des_layer_metrics(o: &des::Outcome) -> Vec<Value> {
    let mut build_ms: Vec<f64> = o.runs.iter().map(|r| r.build_s * 1e3).collect();
    // Points 0..6 are Fig. 7's, 6..12 Fig. 13's.
    let point_s = |fig13: bool| {
        let mut v: Vec<f64> = o
            .runs
            .iter()
            .filter(|r| (r.point >= 6) == fig13)
            .map(|r| r.run_s)
            .collect();
        let n = v.len();
        (median_or_zero(&mut v), n)
    };
    let (fig7, n7) = point_s(false);
    let (fig13, n13) = point_s(true);
    let mut out = vec![
        value("sim.des.build_ms", median(&mut build_ms), o.runs.len()),
        value("sim.des.point_s.fig7", fig7, n7),
        value("sim.des.point_s.fig13", fig13, n13),
        value("sim.des.exact_points", o.exact_points as f64, o.runs.len()),
    ];
    let cpu_s = 0.0; // one thread, always busy: wall is CPU
    out.extend(
        counter_metrics(&o.counts(), cpu_s)
            .into_iter()
            .filter(|v| v.name != "sim.threaded.cpu_s_per_commit"),
    );
    out
}

/// The layer suite's medians as metric values.
pub fn layer_metrics(layers: &LayerResults) -> Vec<Value> {
    layers
        .iter()
        .map(|(name, t)| value(name, t.median, t.batches))
        .collect()
}
