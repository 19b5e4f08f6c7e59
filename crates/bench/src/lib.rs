//! # pscc-bench
//!
//! Reporting helpers of the `repro` figure harness: table formatting
//! for the paper's Tables 1–2 and
//! series formatting for Figures 6–15, plus simple shape validators
//! (who wins, where crossovers fall) used by `repro --check`.

use pscc_common::Protocol;
use pscc_sim::experiment::{Figure, Series};

/// Formats one figure's series as an aligned text table, one row per
/// write probability, one column per protocol line.
pub fn format_figure(figure: Figure, series: &[Series]) -> String {
    let mut out = String::new();
    let (kind, high, peers) = figure.shape();
    out.push_str(&format!(
        "{figure}: {kind}, {} (transSize={}, pageLocality≈{})\n",
        if peers {
            "peer-servers"
        } else {
            "client-server"
        },
        if high { 30 } else { 90 },
        if high { 12 } else { 4 },
    ));
    out.push_str("  write-prob");
    for s in series {
        let tag = format!(
            "{}{}",
            s.protocol,
            if s.peers {
                ""
            } else if figure.shape().2 {
                " (CS)"
            } else {
                ""
            }
        );
        out.push_str(&format!(" {tag:>12}"));
    }
    out.push('\n');
    let n_points = series.first().map(|s| s.points.len()).unwrap_or(0);
    for i in 0..n_points {
        let wp = series[0].points[i].write_prob;
        out.push_str(&format!("  {wp:>10.2}"));
        for s in series {
            out.push_str(&format!(" {:>12.2}", s.points[i].report.throughput));
        }
        out.push('\n');
    }
    out
}

/// Formats auxiliary per-point diagnostics (messages and aborts per
/// commit) for a series.
pub fn format_diagnostics(series: &[Series]) -> String {
    let mut out = String::new();
    for s in series {
        out.push_str(&format!("  {} details:\n", s.protocol));
        for p in &s.points {
            let c = &p.report.counters;
            let per = |x: u64| x as f64 / p.report.commits.max(1) as f64;
            out.push_str(&format!(
                "    wp={:.2}: {:6.2} txn/s | msgs/c={:7.1} cb/c={:5.2} io/c={:5.1} \
                 aborts={:4} adaptive={:6} deesc={:4}\n",
                p.write_prob,
                p.report.throughput,
                per(c.msgs_sent),
                per(c.callbacks_sent),
                per(c.disk_reads + c.disk_writes),
                p.report.aborts,
                c.adaptive_grants,
                c.deescalations,
            ));
        }
    }
    out
}

/// The paper's Table 1 as printable text.
pub fn table1() -> String {
    let c = pscc_common::SystemConfig::paper();
    format!(
        "Table 1: experimental platform configuration\n\
           NumApplications    {}\n\
           ClientBufSize      {}% of DB ({} pages)\n\
           ServerBufSize      {}% of DB ({} pages)\n\
           PeerServerBufSize  {}% of DB ({} pages)\n\
           PageSize           {} bytes\n\
           DatabaseSize       {} pages ({} MB)\n\
           ObjectsPerPage     {}\n",
        c.num_applications,
        (c.client_buf_frac * 100.0) as u32,
        c.client_buf_pages(),
        (c.server_buf_frac * 100.0) as u32,
        c.server_buf_pages(),
        (c.peer_buf_frac * 100.0) as u32,
        c.peer_buf_pages(),
        c.page_size,
        c.database_pages,
        c.database_pages as u64 * c.page_size as u64 / 1_000_000,
        c.objects_per_page,
    )
}

/// The paper's Table 2 as printable text.
pub fn table2() -> String {
    "Table 2: workload parameters (application n)\n\
       Parameter     HOTCOLD                  UNIFORM        HICON\n\
       TransSize     90 or 30                 90 or 30       90 or 30\n\
       PageLocality  1-7 or 8-16              1-7 or 8-16    1-7 or 8-16\n\
       HotBounds     450(n-1)..450n           -              0..2250\n\
       ColdBounds    rest of DB               whole DB       rest of DB\n\
       HotAccProb    0.8                      -              0.8\n\
       HotWrtProb    0.02..0.5                -              0.02..0.5\n\
       ColdWrtProb   0.02..0.5                0.02..0.5      0.02..0.5\n\
       PerObjProc    2 msec (doubled on update)\n"
        .to_string()
}

/// A qualitative expectation about a figure, checkable against measured
/// series.
#[derive(Debug, Clone, Copy)]
pub enum Expectation {
    /// `a` must beat `b` by at least `margin` (ratio) at write prob `wp`.
    Beats {
        /// The winner.
        a: Protocol,
        /// The loser.
        b: Protocol,
        /// The sweep point.
        wp: f64,
        /// Minimum ratio `a/b`.
        margin: f64,
    },
    /// `a` and `b` must be within `tol` (ratio band) at `wp`.
    Close {
        /// First protocol.
        a: Protocol,
        /// Second protocol.
        b: Protocol,
        /// The sweep point.
        wp: f64,
        /// Allowed deviation from 1.0, e.g. 0.25.
        tol: f64,
    },
}

fn throughput_at(series: &[Series], proto: Protocol, wp: f64) -> Option<f64> {
    series.iter().find(|s| s.protocol == proto).and_then(|s| {
        s.points
            .iter()
            .find(|p| (p.write_prob - wp).abs() < 1e-9)
            .map(|p| p.report.throughput)
    })
}

/// Verifies an expectation; returns a human-readable pass/fail line.
pub fn check(series: &[Series], e: Expectation) -> (bool, String) {
    match e {
        Expectation::Beats { a, b, wp, margin } => {
            let (Some(ta), Some(tb)) = (throughput_at(series, a, wp), throughput_at(series, b, wp))
            else {
                return (false, format!("missing series for {a}/{b}"));
            };
            let ok = ta >= tb * margin;
            (
                ok,
                format!(
                    "{} {a} ≥ {margin:.2}×{b} at wp={wp}: {ta:.2} vs {tb:.2}",
                    if ok { "PASS" } else { "FAIL" }
                ),
            )
        }
        Expectation::Close { a, b, wp, tol } => {
            let (Some(ta), Some(tb)) = (throughput_at(series, a, wp), throughput_at(series, b, wp))
            else {
                return (false, format!("missing series for {a}/{b}"));
            };
            let ratio = ta / tb;
            let ok = ratio >= 1.0 - tol && ratio <= 1.0 + tol;
            (
                ok,
                format!(
                    "{} {a} ~ {b} (±{tol:.0}%) at wp={wp}: ratio {ratio:.2}",
                    if ok { "PASS" } else { "FAIL" },
                    tol = tol * 100.0
                ),
            )
        }
    }
}

/// The per-figure expectations distilled from the paper's analysis
/// (§5.3–§5.5) — the "shape" the reproduction must preserve.
pub fn expectations(figure: Figure) -> Vec<Expectation> {
    use Expectation::*;
    use Protocol::*;
    match figure {
        // HOTCOLD low locality: PS-AA ≥ PS, gap grows with write prob;
        // PS-OA tracks PS-AA closely.
        Figure::Fig6 => vec![
            Close {
                a: Ps,
                b: PsAa,
                wp: 0.02,
                tol: 0.3,
            },
            Beats {
                a: PsAa,
                b: Ps,
                wp: 0.3,
                margin: 1.0,
            },
            Close {
                a: PsOa,
                b: PsAa,
                wp: 0.3,
                tol: 0.35,
            },
        ],
        // HOTCOLD high locality: PS competitive; PS-AA tracks or beats.
        Figure::Fig7 => vec![
            Close {
                a: Ps,
                b: PsAa,
                wp: 0.5,
                tol: 0.4,
            },
            Beats {
                a: PsAa,
                b: PsOa,
                wp: 0.5,
                margin: 0.95,
            },
        ],
        // UNIFORM: more sharing, bigger PS-AA gains.
        Figure::Fig8 => vec![
            Beats {
                a: PsAa,
                b: Ps,
                wp: 0.2,
                margin: 1.0,
            },
            Beats {
                a: PsAa,
                b: Ps,
                wp: 0.5,
                margin: 1.0,
            },
        ],
        Figure::Fig9 => vec![Beats {
            a: PsAa,
            b: Ps,
            wp: 0.3,
            margin: 0.95,
        }],
        // HICON low locality: PS collapses.
        Figure::Fig10 => vec![Beats {
            a: PsAa,
            b: Ps,
            wp: 0.3,
            margin: 1.1,
        }],
        // HICON high locality: gains shrink; parity at 0.5.
        Figure::Fig11 => vec![Close {
            a: PsAa,
            b: Ps,
            wp: 0.5,
            tol: 0.5,
        }],
        // Peer-servers HOTCOLD: PS hurt by timeouts; PS-AA fine.
        Figure::Fig12 => vec![Beats {
            a: PsAa,
            b: Ps,
            wp: 0.3,
            margin: 1.0,
        }],
        Figure::Fig13 => vec![Close {
            a: PsAa,
            b: Ps,
            wp: 0.1,
            tol: 0.5,
        }],
        // Peer-servers UNIFORM: PS-AA strong; PS collapses early.
        Figure::Fig14 => vec![Beats {
            a: PsAa,
            b: Ps,
            wp: 0.1,
            margin: 1.0,
        }],
        Figure::Fig15 => vec![Beats {
            a: PsAa,
            b: Ps,
            wp: 0.3,
            margin: 0.95,
        }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_render() {
        let t1 = table1();
        assert!(t1.contains("11250 pages"));
        assert!(t1.contains("NumApplications    10"));
        assert!(table2().contains("HOTCOLD"));
    }

    #[test]
    fn every_figure_has_expectations() {
        for f in Figure::ALL {
            assert!(!expectations(f).is_empty(), "{f} lacks expectations");
        }
    }

    #[test]
    fn check_detects_order() {
        use pscc_sim::experiment::Point;
        let mk = |proto, tp: f64| Series {
            protocol: proto,
            peers: false,
            points: vec![Point {
                write_prob: 0.3,
                report: pscc_sim::SimReport {
                    throughput: tp,
                    commits: 100,
                    aborts: 0,
                    window_secs: 10.0,
                    counters: Default::default(),
                },
            }],
        };
        let series = vec![mk(Protocol::Ps, 5.0), mk(Protocol::PsAa, 10.0)];
        let (ok, _) = check(
            &series,
            Expectation::Beats {
                a: Protocol::PsAa,
                b: Protocol::Ps,
                wp: 0.3,
                margin: 1.5,
            },
        );
        assert!(ok);
        let (ok, _) = check(
            &series,
            Expectation::Close {
                a: Protocol::Ps,
                b: Protocol::PsAa,
                wp: 0.3,
                tol: 0.2,
            },
        );
        assert!(!ok);
    }

    #[test]
    fn format_figure_renders_rows() {
        let s = format_figure(Figure::Fig6, &[]);
        assert!(s.contains("Figure 6"));
    }
}
