//! The `fig-des` workload: how long the paper's figures take to
//! regenerate. One thread runs the discrete-event simulator over twelve
//! paper-platform points, Fig. 7 and Fig. 13 × PS, PS-OA, PS-AA × write
//! probability 0.05 and 0.3, pass after pass until the window is used.
//! No threads, mailbox, codec or sockets: this is the bypass workload of
//! every transport and site-loop change.

use crate::threaded::Counts;
use pscc_common::{Counters, Protocol, SimDuration};
use pscc_sim::experiment::{build_sim, paper_spec, ExperimentSpec, Figure};
use std::time::{Duration, Instant};

/// Virtual seconds each point runs for, and its warm-up. The paper's
/// 120 s points take ~1.7 s of wall time each; 30 s ones keep a pass of
/// twelve near 5 s, so that a run makes at least two passes and every
/// point is timed more than once.
const POINT_END_S: u64 = 30;
const POINT_WARMUP_S: u64 = 5;

/// A point's commits may differ from the pinned (or repeated) value by
/// this share before the point counts as failed, and by
/// [`COMMIT_SLACK`] commits in any case: 1 % of a 30 s point is under
/// two commits, which is what the paper-length points were seen to
/// wander by.
const COMMIT_TOLERANCE: f64 = 0.01;
const COMMIT_SLACK: f64 = 2.0;

/// `(commits, aborts, msgs)` of each point at `--seed 1`, in
/// [`points`] order. The simulator is not quite deterministic (see the
/// README), so a point passes within [`COMMIT_TOLERANCE`] and
/// `sim.des.exact_points` counts the ones that match to the digit.
const PINNED_SEED_1: [(u64, u64, u64); 12] = [
    (166, 3, 13_912), // Fig. 7  PS     0.05
    (153, 2, 19_316), // Fig. 7  PS     0.3
    (164, 1, 15_558), // Fig. 7  PS-OA  0.05
    (153, 1, 47_054), // Fig. 7  PS-OA  0.3
    (166, 1, 13_907), // Fig. 7  PS-AA  0.05
    (156, 0, 19_505), // Fig. 7  PS-AA  0.3
    (258, 2, 10_134), // Fig. 13 PS     0.05
    (207, 1, 9_889),  // Fig. 13 PS     0.3
    (260, 1, 10_769), // Fig. 13 PS-OA  0.05
    (201, 1, 16_748), // Fig. 13 PS-OA  0.3
    (262, 1, 10_340), // Fig. 13 PS-AA  0.05
    (207, 1, 10_175), // Fig. 13 PS-AA  0.3
];

/// The twelve points, inputs made from `seed` (seed 1 is the paper's).
pub fn points(seed: u64) -> Vec<ExperimentSpec> {
    let mut specs = Vec::new();
    for figure in [Figure::Fig7, Figure::Fig13] {
        for protocol in [Protocol::Ps, Protocol::PsOa, Protocol::PsAa] {
            for write_prob in [0.05, 0.3] {
                let mut spec = paper_spec(figure, protocol, write_prob);
                spec.warmup = SimDuration::from_secs(POINT_WARMUP_S);
                spec.end = SimDuration::from_secs(POINT_END_S);
                spec.seed = spec
                    .seed
                    .wrapping_add(seed.wrapping_sub(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                specs.push(spec);
            }
        }
    }
    specs
}

/// One timed execution of one point.
#[derive(Debug, Clone, Copy)]
pub struct PointRun {
    /// Index into [`points`].
    pub point: usize,
    pub build_s: f64,
    pub run_s: f64,
    /// Commits and aborts inside the point's virtual window.
    pub commits: u64,
    pub aborts: u64,
    /// Whole-run engine counters.
    pub counters: Counters,
}

impl PointRun {
    fn fingerprint(&self) -> (u64, u64, u64) {
        (self.commits, self.aborts, self.counters.msgs_sent)
    }

    /// Object reads the simulated applications made.
    pub fn accesses(&self) -> u64 {
        self.counters.cache_hits + self.counters.cache_misses
    }
}

/// Builds and runs `spec` once.
pub fn run_point(point: usize, spec: &ExperimentSpec) -> PointRun {
    let t0 = Instant::now();
    let mut sim = build_sim(spec);
    let build_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let report = sim.run(spec.warmup, spec.end);
    PointRun {
        point,
        build_s,
        run_s: t1.elapsed().as_secs_f64(),
        commits: report.commits,
        aborts: report.aborts,
        counters: report.counters,
    }
}

/// Everything a `fig-des` run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub runs: Vec<PointRun>,
    pub passes: usize,
    /// Point runs whose commits left the tolerance.
    pub failed: u64,
    /// Points (of the 12, or of `limit`) that repeated to the digit in
    /// every pass and, at seed 1, equal the pinned values.
    pub exact_points: u64,
}

impl Outcome {
    /// Summed engine counters of every point run.
    pub fn counts(&self) -> Counts {
        let total = Counters::total(self.runs.iter().map(|r| r.counters));
        Counts::between(&Counters::default(), &total)
    }
}

fn within(a: u64, b: u64) -> bool {
    (a as f64 - b as f64).abs() <= (COMMIT_TOLERANCE * b as f64).max(COMMIT_SLACK)
}

/// Runs whole passes over the first `limit` points until `window` has
/// elapsed (one pass at least), then checks every point run.
pub fn run(seed: u64, window: Duration, limit: usize) -> Outcome {
    let specs = points(seed);
    let specs = &specs[..limit.min(specs.len())];
    let mut out = Outcome::default();
    let started = Instant::now();
    while out.passes == 0 || started.elapsed() < window {
        for (i, spec) in specs.iter().enumerate() {
            out.runs.push(run_point(i, spec));
        }
        out.passes += 1;
    }
    for (i, _) in specs.iter().enumerate() {
        let mut runs = out.runs.iter().filter(|r| r.point == i);
        let first = runs.next().expect("every point ran in the first pass");
        let reference = if seed == 1 {
            PINNED_SEED_1[i]
        } else {
            first.fingerprint()
        };
        let mut exact = first.fingerprint() == reference;
        out.failed += u64::from(!within(first.commits, reference.0));
        for r in runs {
            exact &= r.fingerprint() == reference;
            out.failed += u64::from(!within(r.commits, reference.0));
        }
        out.exact_points += u64::from(exact);
    }
    out
}
