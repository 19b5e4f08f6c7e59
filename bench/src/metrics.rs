//! The benchmark's metric tables: names, units, directions and
//! regression bounds. `BENCHMARK.json` is `bench manifest`'s output, and
//! a unit test keeps the two equal.

use crate::json::Json;
use crate::workloads::WORKLOADS;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

use Better::{Higher, Lower};

/// An end-to-end metric: what a user of the system sees. `bound` is the
/// share of the parent's median by which it may get worse before a
/// change counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// Every run of every workload reports all eight; the README's table
/// says what the four workloads each put in them.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "txn_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "txn_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "txn_p90_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        better: Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "op_p95_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "commit_p50_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "sim_commits_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
];

/// `compare` also wants `setup_s` worse by this much in absolute terms
/// before it calls a regression: a quarter second is below what cluster
/// construction varies by on a busy box.
pub const SETUP_ABSOLUTE_SLACK_S: f64 = 0.25;

/// A per-layer metric. No bound: a layer number explains an end-to-end
/// move, it is not itself a result.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Layer = crate. Sources: the layer suite (L), the traced run (T), and
/// counters of the run (C); see the README.
pub const PER_LAYER: [PerLayer; 56] = [
    // lockmgr
    layer("lockmgr.acquire_release_ns", "ns", Lower),
    layer("lockmgr.contended_grant_ns", "ns", Lower),
    layer("lockmgr.deadlock_detect_us", "us", Lower),
    layer("lockmgr.lock_waits_per_commit", "count", Lower),
    // storage
    layer("storage.page_get_ns", "ns", Lower),
    layer("storage.page_update_ns", "ns", Lower),
    layer("storage.page_image_copy_ns", "ns", Lower),
    // wal, recovery
    layer("wal.append_ns", "ns", Lower),
    layer("wal.force_ns", "ns", Lower),
    layer("wal.decode_mb_s", "MB/s", Higher),
    layer("recovery.restart_ms", "ms", Lower),
    // net
    layer("net.codec.encode_page_mb_s", "MB/s", Higher),
    layer("net.codec.decode_page_mb_s", "MB/s", Higher),
    layer("net.codec.encode_small_ns", "ns", Lower),
    layer("net.codec.decode_small_ns", "ns", Lower),
    layer("net.codec.frame_bytes_page", "bytes", Lower),
    layer("net.codec.frame_bytes_small", "bytes", Lower),
    layer("net.mailbox.hop_ns", "ns", Lower),
    layer("net.mailbox.hop_xthread_us", "us", Lower),
    layer("net.tcp.rtt_small_us", "us", Lower),
    layer("net.tcp.rtt_page_us", "us", Lower),
    layer("net.send_busy_frac", "frac", Lower),
    layer("net.recv_wait_frac", "frac", Lower),
    layer("net.send_us_p50.page", "us", Lower),
    layer("net.send_us_p50.small", "us", Lower),
    layer("net.msgs_per_commit", "count", Lower),
    layer("net.bytes_per_commit", "bytes", Lower),
    // core
    layer("core.handle.begin_ns", "ns", Lower),
    layer("core.handle.read_hit_ns", "ns", Lower),
    layer("core.handle.write_ns", "ns", Lower),
    layer("core.handle.commit_ns", "ns", Lower),
    layer("core.handle.read_req_ns", "ns", Lower),
    layer("core.handle.callback_ns", "ns", Lower),
    layer("core.site_busy_frac", "frac", Lower),
    layer("core.cache_hit_ratio", "ratio", Higher),
    layer("core.pages_shipped_per_commit", "count", Lower),
    layer("core.callbacks_per_commit", "count", Lower),
    layer("core.deescalations_per_commit", "count", Lower),
    layer("core.adaptive_hit_ratio", "ratio", Higher),
    layer("core.aborts_per_commit", "count", Lower),
    layer("core.busy_retries_per_commit", "count", Lower),
    // edge
    layer("edge.read_hit_ns", "ns", Lower),
    layer("edge.install_ns", "ns", Lower),
    layer("edge.subscribers_of_us", "us", Lower),
    // sim
    layer("sim.threaded.op_floor_us", "us", Lower),
    layer("sim.threaded.cpu_s_per_commit", "s", Lower),
    layer("sim.des.build_ms", "ms", Lower),
    layer("sim.des.point_s.fig7", "s", Lower),
    layer("sim.des.point_s.fig13", "s", Lower),
    layer("sim.des.exact_points", "count", Higher),
    layer("sim.workload.gen_us", "us", Lower),
    // obs
    layer("obs.hist.record_ns", "ns", Lower),
    layer("obs.registry.export_us", "us", Lower),
    layer("obs.des_trace_overhead_frac", "frac", Lower),
    // the benchmark itself
    layer("bench.trace_overhead_frac", "frac", Lower),
    layer("bench.generator_busy_frac", "frac", Lower),
];

/// Seconds one run measures for under the driver (`--seconds`).
pub const RUN_SECONDS: u64 = 10;

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Json {
    let strs = |v: &[&str]| Json::Arr(v.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        ("command", strs(&["bash", "bench/run.sh"])),
        ("paths", strs(&["bench"])),
        ("run_seconds", Json::from(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Json::obj([("name", Json::str(*name)), ("why", Json::str(*why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_the_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            Json::parse(&text).expect("BENCHMARK.json parses"),
            manifest(),
            "regenerate it: bench/run.sh manifest > BENCHMARK.json"
        );
    }

    #[test]
    fn names_meet_the_contract() {
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(
                ok(n, "_.-", 64) && n.chars().next().unwrap().is_ascii_alphanumeric(),
                "{n}"
            );
        }
        let distinct: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(distinct.len(), names.len(), "a name is used once");
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for u in units {
            assert!(ok(u, "_/%.-", 16), "{u}");
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
