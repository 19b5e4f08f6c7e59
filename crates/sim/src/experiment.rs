//! Per-figure experiment specifications and the sweep runner that
//! regenerates the paper's Figures 6–15 (throughput vs. write
//! probability, three protocols, client-server and peer-servers
//! configurations).

use crate::cost::CostModel;
use crate::driver::AppDriver;
use crate::sim::{SimReport, Simulation};
use crate::workload::{WorkloadKind, WorkloadSpec};
use pscc_common::{AppId, Protocol, SimDuration, SiteId, SystemConfig};
use pscc_core::OwnerMap;

/// The evaluation figures of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Figure {
    /// HOTCOLD, client-server, transSize 90 / locality 4.
    Fig6,
    /// HOTCOLD, client-server, transSize 30 / locality 12.
    Fig7,
    /// UNIFORM, client-server, low locality.
    Fig8,
    /// UNIFORM, client-server, high locality.
    Fig9,
    /// HICON, client-server, low locality.
    Fig10,
    /// HICON, client-server, high locality.
    Fig11,
    /// HOTCOLD, peer-servers, low locality.
    Fig12,
    /// HOTCOLD, peer-servers, high locality.
    Fig13,
    /// UNIFORM, peer-servers, low locality.
    Fig14,
    /// UNIFORM, peer-servers, high locality.
    Fig15,
}

impl Figure {
    /// All figures, in paper order.
    pub const ALL: [Figure; 10] = [
        Figure::Fig6,
        Figure::Fig7,
        Figure::Fig8,
        Figure::Fig9,
        Figure::Fig10,
        Figure::Fig11,
        Figure::Fig12,
        Figure::Fig13,
        Figure::Fig14,
        Figure::Fig15,
    ];

    /// (workload, high-locality, peer-servers).
    pub fn shape(self) -> (WorkloadKind, bool, bool) {
        match self {
            Figure::Fig6 => (WorkloadKind::HotCold, false, false),
            Figure::Fig7 => (WorkloadKind::HotCold, true, false),
            Figure::Fig8 => (WorkloadKind::Uniform, false, false),
            Figure::Fig9 => (WorkloadKind::Uniform, true, false),
            Figure::Fig10 => (WorkloadKind::HiCon, false, false),
            Figure::Fig11 => (WorkloadKind::HiCon, true, false),
            Figure::Fig12 => (WorkloadKind::HotCold, false, true),
            Figure::Fig13 => (WorkloadKind::HotCold, true, true),
            Figure::Fig14 => (WorkloadKind::Uniform, false, true),
            Figure::Fig15 => (WorkloadKind::Uniform, true, true),
        }
    }

    /// The protocols the paper plots in this figure.
    pub fn protocols(self) -> Vec<Protocol> {
        match self {
            Figure::Fig6 | Figure::Fig7 => {
                vec![Protocol::Ps, Protocol::PsOa, Protocol::PsAa]
            }
            _ => vec![Protocol::Ps, Protocol::PsAa],
        }
    }
}

impl std::fmt::Display for Figure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = match self {
            Figure::Fig6 => 6,
            Figure::Fig7 => 7,
            Figure::Fig8 => 8,
            Figure::Fig9 => 9,
            Figure::Fig10 => 10,
            Figure::Fig11 => 11,
            Figure::Fig12 => 12,
            Figure::Fig13 => 13,
            Figure::Fig14 => 14,
            Figure::Fig15 => 15,
        };
        write!(f, "Figure {n}")
    }
}

/// One fully resolved experiment point.
#[derive(Debug, Clone)]
pub struct ExperimentSpec {
    /// Which figure it belongs to.
    pub figure: Figure,
    /// Protocol under test.
    pub protocol: Protocol,
    /// The write probability of this sweep point.
    pub write_prob: f64,
    /// Platform configuration.
    pub cfg: SystemConfig,
    /// Workload parameters.
    pub workload: WorkloadSpec,
    /// Peer-servers (`true`) or client-server topology.
    pub peers: bool,
    /// Settling time before measurement.
    pub warmup: SimDuration,
    /// Total virtual run time.
    pub end: SimDuration,
    /// Base RNG seed.
    pub seed: u64,
}

/// One measured point of a series.
#[derive(Debug, Clone)]
pub struct Point {
    /// The write probability.
    pub write_prob: f64,
    /// The measured report.
    pub report: SimReport,
}

/// The write probabilities the paper sweeps.
pub const WRITE_PROBS: [f64; 6] = [0.02, 0.05, 0.1, 0.2, 0.3, 0.5];

/// Paper-scale spec (Table 1 platform, Table 2 workload, 10 apps).
pub fn paper_spec(figure: Figure, protocol: Protocol, write_prob: f64) -> ExperimentSpec {
    let (kind, high, peers) = figure.shape();
    let cfg = SystemConfig {
        protocol,
        ..SystemConfig::paper()
    };
    ExperimentSpec {
        figure,
        protocol,
        write_prob,
        workload: WorkloadSpec::paper(kind, write_prob, high),
        cfg,
        peers,
        warmup: SimDuration::from_secs(20),
        end: SimDuration::from_secs(120),
        seed: 0x5EED ^ (write_prob * 1000.0) as u64,
    }
}

/// A scaled-down spec that finishes in well under a second — used by
/// tests.
pub fn quick_spec(figure: Figure, write_prob: f64) -> ExperimentSpec {
    let (kind, high, peers) = figure.shape();
    let cfg = SystemConfig {
        protocol: Protocol::PsAa,
        num_applications: 4,
        database_pages: 600,
        ..SystemConfig::small()
    };
    ExperimentSpec {
        figure,
        protocol: Protocol::PsAa,
        write_prob,
        workload: WorkloadSpec::paper(kind, write_prob, high).scaled(10),
        cfg,
        peers,
        warmup: SimDuration::from_secs(2),
        end: SimDuration::from_secs(10),
        seed: 0x5EED,
    }
}

/// The data placement for a spec (paper §5.1/§5.5): client-server keeps
/// everything at a dedicated server site; peer-servers partitions by hot
/// range (HOTCOLD, cold split evenly) or into equal pieces (UNIFORM and
/// HICON).
pub fn owner_map(spec: &ExperimentSpec) -> (OwnerMap, u32, Vec<SiteId>) {
    let n_apps = spec.cfg.num_applications;
    let db = spec.cfg.database_pages;
    if !spec.peers {
        // Site 0 = server; apps at sites 1..=n.
        let app_sites = (0..n_apps).map(|i| SiteId(i + 1)).collect();
        (OwnerMap::Single(SiteId(0)), n_apps + 1, app_sites)
    } else {
        let app_sites: Vec<SiteId> = (0..n_apps).map(SiteId).collect();
        let ranges = match spec.workload.kind {
            WorkloadKind::HotCold => {
                // Each peer owns its app's hot range; the global cold
                // remainder is split evenly.
                let hot = spec.workload.hot_range_pages;
                let hot_total = (hot * n_apps).min(db);
                let cold_total = db - hot_total;
                let cold_piece = cold_total / n_apps;
                let mut v = Vec::new();
                for i in 0..n_apps {
                    v.push((i * hot, (i + 1) * hot, SiteId(i)));
                }
                for i in 0..n_apps {
                    let lo = hot_total + i * cold_piece;
                    let hi = if i == n_apps - 1 { db } else { lo + cold_piece };
                    v.push((lo, hi, SiteId(i)));
                }
                v
            }
            _ => {
                let piece = db / n_apps;
                (0..n_apps)
                    .map(|i| {
                        let lo = i * piece;
                        let hi = if i == n_apps - 1 { db } else { lo + piece };
                        (lo, hi, SiteId(i))
                    })
                    .collect()
            }
        };
        (OwnerMap::Ranges(ranges), n_apps, app_sites)
    }
}

/// Builds the simulation for a spec (applications placed per
/// [`owner_map`]) without running it.
pub fn build_sim(spec: &ExperimentSpec) -> Simulation {
    let (owners, n_sites, app_sites) = owner_map(spec);
    let apps: Vec<AppDriver> = app_sites
        .iter()
        .enumerate()
        .map(|(i, site)| {
            AppDriver::new(
                AppId(i as u32),
                *site,
                spec.workload.clone(),
                spec.cfg.clone(),
                owners.clone(),
                spec.seed.wrapping_add(i as u64 * 7919),
            )
        })
        .collect();
    Simulation::new(spec.cfg.clone(), owners, n_sites, apps, CostModel::sp2())
}

/// Runs one experiment point to completion.
pub fn run_point(spec: &ExperimentSpec) -> Point {
    let mut sim = build_sim(spec);
    let report = sim.run(spec.warmup, spec.end);
    Point {
        write_prob: spec.write_prob,
        report,
    }
}

/// A point measured with observability on: the report plus a metrics
/// snapshot and (when `trace_cap > 0`) the merged multi-site trace.
#[derive(Debug)]
pub struct ObservedPoint {
    /// The measured point, as [`run_point`] returns it.
    pub point: Point,
    /// Counters, merged latency histograms, and timeout gauges.
    pub metrics: pscc_obs::MetricsRegistry,
    /// The chronological multi-site protocol trace (empty when
    /// `trace_cap` was 0).
    pub trace: Vec<pscc_obs::TraceEvent>,
}

/// Like [`run_point`] but with the observability layer surfaced: event
/// tracing at every site (ring of `trace_cap` events each; 0 disables)
/// and a [`pscc_obs::MetricsRegistry`] snapshot taken at the end.
pub fn run_point_observed(spec: &ExperimentSpec, trace_cap: usize) -> ObservedPoint {
    let mut sim = build_sim(spec);
    if trace_cap > 0 {
        sim.enable_trace(trace_cap);
    }
    let report = sim.run(spec.warmup, spec.end);
    ObservedPoint {
        point: Point {
            write_prob: spec.write_prob,
            report,
        },
        metrics: sim.metrics(),
        trace: sim.merged_trace(),
    }
}

/// A named series (one protocol line in a figure).
#[derive(Debug, Clone)]
pub struct Series {
    /// The protocol plotted.
    pub protocol: Protocol,
    /// Peer-servers or client-server.
    pub peers: bool,
    /// The sweep points.
    pub points: Vec<Point>,
}

/// Regenerates one figure: every protocol line over the write-probability
/// sweep. `paper_scale` selects full Table 1 scale vs. the quick variant.
/// `progress` receives a line per completed point.
pub fn run_figure(
    figure: Figure,
    paper_scale: bool,
    write_probs: &[f64],
    mut progress: impl FnMut(String),
) -> Vec<Series> {
    let mut out = Vec::new();
    for proto in figure.protocols() {
        let mut points = Vec::new();
        for &wp in write_probs {
            let spec = if paper_scale {
                paper_spec(figure, proto, wp)
            } else {
                ExperimentSpec {
                    protocol: proto,
                    cfg: SystemConfig {
                        protocol: proto,
                        ..quick_spec(figure, wp).cfg
                    },
                    ..quick_spec(figure, wp)
                }
            };
            let p = run_point(&spec);
            progress(format!(
                "{figure} {proto} wp={wp:.2}: {:.2} txn/s ({} commits, {} aborts)",
                p.report.throughput, p.report.commits, p.report.aborts
            ));
            points.push(p);
        }
        out.push(Series {
            protocol: proto,
            peers: figure.shape().2,
            points,
        });
    }
    // Figures 12 and 13 additionally plot the client-server results as
    // dashed lines; the harness reruns the matching CS figure for those.
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_shapes() {
        assert_eq!(Figure::Fig6.shape(), (WorkloadKind::HotCold, false, false));
        assert_eq!(Figure::Fig15.shape(), (WorkloadKind::Uniform, true, true));
        assert_eq!(Figure::Fig6.protocols().len(), 3);
        assert_eq!(Figure::Fig8.protocols().len(), 2);
    }

    #[test]
    fn owner_map_cs_vs_peers() {
        let cs = quick_spec(Figure::Fig6, 0.1);
        let (m, n, apps) = owner_map(&cs);
        assert!(matches!(m, OwnerMap::Single(_)));
        assert_eq!(n, 5);
        assert_eq!(apps[0], SiteId(1));

        let peers = quick_spec(Figure::Fig12, 0.1);
        let (m, n, apps) = owner_map(&peers);
        assert_eq!(n, 4);
        assert_eq!(apps[0], SiteId(0));
        match m {
            OwnerMap::Ranges(rs) => {
                // Full coverage of the database.
                let covered: u32 = rs.iter().map(|(lo, hi, _)| hi - lo).sum();
                assert_eq!(covered, peers.cfg.database_pages);
            }
            _ => panic!("expected ranges"),
        }
    }

    #[test]
    fn uniform_partition_is_even() {
        let spec = quick_spec(Figure::Fig14, 0.1);
        let (m, _, _) = owner_map(&spec);
        match m {
            OwnerMap::Ranges(rs) => {
                assert_eq!(rs.len(), spec.cfg.num_applications as usize);
                let covered: u32 = rs.iter().map(|(lo, hi, _)| hi - lo).sum();
                assert_eq!(covered, spec.cfg.database_pages);
            }
            _ => panic!("expected ranges"),
        }
    }
}
