//! Shape checks at reduced scale: the qualitative relationships the
//! paper reports must hold in the simulated system. These run the real
//! sweep machinery with a smaller database and shorter windows so the
//! whole file stays test-suite-fast; the full-scale reproduction lives in
//! the bench crate's `repro` binary.

use pscc_common::hash::with_hash_seed;
use pscc_common::{Protocol, SimDuration, SystemConfig};
use pscc_sim::experiment::{owner_map, quick_spec, run_point, ExperimentSpec, Figure};
use pscc_sim::{SimReport, WorkloadSpec};

fn report(figure: Figure, proto: Protocol, wp: f64, secs: u64) -> SimReport {
    let base = quick_spec(figure, wp);
    let spec = ExperimentSpec {
        protocol: proto,
        cfg: SystemConfig {
            protocol: proto,
            ..base.cfg
        },
        warmup: SimDuration::from_secs(3),
        end: SimDuration::from_secs(secs),
        ..base
    };
    run_point(&spec).report
}

fn point(figure: Figure, proto: Protocol, wp: f64, secs: u64) -> f64 {
    report(figure, proto, wp, secs).throughput
}

#[test]
fn all_figures_produce_throughput() {
    for fig in Figure::ALL {
        let t = point(fig, Protocol::PsAa, 0.1, 8);
        assert!(t > 0.0, "{fig}: no committed transactions");
    }
}

#[test]
fn throughput_decreases_with_write_probability() {
    // More updates => more contention and more work (paper §5.3, first
    // observation).
    let lo = point(Figure::Fig6, Protocol::PsAa, 0.02, 20);
    let hi = point(Figure::Fig6, Protocol::PsAa, 0.5, 20);
    assert!(
        hi < lo,
        "throughput should fall with write probability: {lo} -> {hi}"
    );
}

#[test]
fn psaa_beats_ps_under_low_locality_contention() {
    // Low page locality + high write probability: PS suffers false
    // sharing that PS-AA avoids (Fig. 6/8/10's right-hand side).
    let ps = point(Figure::Fig8, Protocol::Ps, 0.3, 40);
    let psaa = point(Figure::Fig8, Protocol::PsAa, 0.3, 40);
    assert!(
        psaa > ps,
        "PS-AA ({psaa}) must beat PS ({ps}) under false sharing"
    );
}

#[test]
fn protocols_are_close_at_minimal_writes() {
    // At 2% writes everything behaves almost read-only and the three
    // protocols converge (left edge of every figure).
    let ps = point(Figure::Fig6, Protocol::Ps, 0.02, 20);
    let psaa = point(Figure::Fig6, Protocol::PsAa, 0.02, 20);
    let ratio = psaa / ps;
    assert!(
        (0.7..1.4).contains(&ratio),
        "protocols should converge at 2% writes (ratio {ratio})"
    );
}

#[test]
fn psaa_saves_write_messages_vs_psoa() {
    // The point of adaptive locking: fewer write-permission requests
    // (paper §5.4's message-count analysis).
    let run = |proto| {
        let base = quick_spec(Figure::Fig7, 0.3);
        let spec = ExperimentSpec {
            protocol: proto,
            cfg: SystemConfig {
                protocol: proto,
                ..base.cfg
            },
            warmup: SimDuration::from_secs(3),
            end: SimDuration::from_secs(20),
            ..base
        };
        let p = run_point(&spec);
        (
            p.report.counters.write_requests as f64 / p.report.commits.max(1) as f64,
            p.report.throughput,
        )
    };
    let (oa_wr, _) = run(Protocol::PsOa);
    let (aa_wr, _) = run(Protocol::PsAa);
    assert!(
        aa_wr < oa_wr,
        "PS-AA write requests/commit ({aa_wr:.1}) must undercut PS-OA ({oa_wr:.1})"
    );
}

#[test]
fn peer_servers_eliminate_remote_traffic_for_private_data() {
    // HOTCOLD peers: each peer owns its hot range, so most accesses are
    // local (paper §5.5: disk I/Os and messages largely eliminated).
    let cs = quick_spec(Figure::Fig6, 0.1);
    let peers = quick_spec(Figure::Fig12, 0.1);
    let run = |spec: &ExperimentSpec| {
        let p = run_point(spec);
        p.report.counters.msgs_sent as f64 / p.report.commits.max(1) as f64
    };
    let cs_msgs = run(&ExperimentSpec {
        warmup: SimDuration::from_secs(3),
        end: SimDuration::from_secs(15),
        ..cs
    });
    let peer_msgs = run(&ExperimentSpec {
        warmup: SimDuration::from_secs(3),
        end: SimDuration::from_secs(15),
        ..peers
    });
    assert!(
        peer_msgs < cs_msgs * 0.7,
        "peer-servers messages/commit ({peer_msgs:.1}) must undercut client-server ({cs_msgs:.1})"
    );
}

#[test]
fn hicon_has_more_aborts_than_hotcold() {
    let run = |fig| {
        let base = quick_spec(fig, 0.3);
        let spec = ExperimentSpec {
            warmup: SimDuration::from_secs(3),
            end: SimDuration::from_secs(20),
            ..base
        };
        let p = run_point(&spec);
        p.report.aborts as f64 / (p.report.commits + p.report.aborts).max(1) as f64
    };
    let hotcold = run(Figure::Fig6);
    let hicon = run(Figure::Fig10);
    assert!(
        hicon >= hotcold,
        "HICON abort rate ({hicon:.3}) should be >= HOTCOLD ({hotcold:.3})"
    );
}

#[test]
fn simulation_is_deterministic() {
    // Under another hash seed every table iterates in another order, so a
    // decision taken in hash order changes the run. Throughput alone is
    // too coarse to show it (a commit count over a window); the engine
    // counters are not.
    let run = || {
        let r = report(Figure::Fig6, Protocol::PsAa, 0.1, 10);
        (r.commits, r.aborts, r.counters)
    };
    let first = run();
    for seed in 1..=3 {
        assert_eq!(
            with_hash_seed(seed, run),
            first,
            "same seed must reproduce identical results (hash seed {seed})"
        );
    }
}

#[test]
fn scaled_workload_reaches_steady_state_cache() {
    // After warmup the hot set fits in the client caches: hit rates stay
    // high and the system doesn't thrash.
    let spec = ExperimentSpec {
        warmup: SimDuration::from_secs(5),
        end: SimDuration::from_secs(20),
        ..quick_spec(Figure::Fig6, 0.05)
    };
    let p = run_point(&spec);
    let c = p.report.counters;
    let hit_rate = c.cache_hits as f64 / (c.cache_hits + c.cache_misses).max(1) as f64;
    assert!(hit_rate > 0.5, "cache hit rate {hit_rate:.2} too low");
}

#[test]
fn workload_spec_scaling_is_consistent_with_db() {
    // The quick spec's hot ranges must fit the scaled database.
    let spec = quick_spec(Figure::Fig6, 0.1);
    let w: &WorkloadSpec = &spec.workload;
    let last_app = spec.cfg.num_applications - 1;
    let hot = w.hot_bounds(last_app, spec.cfg.database_pages);
    assert!(hot.end <= spec.cfg.database_pages);
    let (m, _, _) = owner_map(&spec);
    // Every page has an owner.
    for p in [0, spec.cfg.database_pages - 1] {
        let pid = pscc_common::PageId::new(pscc_common::FileId::new(pscc_common::VolId(0), 0), p);
        let _ = m.owner(pid);
    }
}
