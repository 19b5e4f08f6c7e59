//! `bench compare A.json B.json`: one row per workload × end-to-end
//! metric, B against the base A, judged by the benchmark's own bounds.

use crate::json::Json;
use crate::metrics::{Better, END_TO_END, SETUP_ABSOLUTE_SLACK_S};
use crate::stats::{median, spread};

/// What a pair of measurements says.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better than the base by more than the bound.
    Better,
    WithinBound,
    /// Worse than the base by more than the bound.
    Worse,
    /// A side's own runs spread wider than the bound: the pair cannot
    /// tell a change from noise, and says so instead of "unchanged".
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within-bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `b`'s runs against the base `a`'s. `slack` is an absolute
/// difference of medians below which nothing counts as worse.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64, slack: f64) -> (f64, f64, Verdict) {
    let (ma, mb) = (median(&mut a.to_vec()), median(&mut b.to_vec()));
    let noisy = |v: &[f64]| spread(v).is_some_and(|s| s > bound);
    let verdict = if noisy(a) || noisy(b) {
        Verdict::Unresolved
    } else {
        // Positive = worse, as a share of the base.
        let worse_by = match better {
            Better::Lower => (mb - ma) / ma.abs(),
            Better::Higher => (ma - mb) / ma.abs(),
        };
        if worse_by > bound && (mb - ma).abs() > slack {
            Verdict::Worse
        } else if worse_by < -bound {
            Verdict::Better
        } else {
            Verdict::WithinBound
        }
    };
    (ma, mb, verdict)
}

/// Every set's value of `path` under `workload`, e.g.
/// `["end_to_end", "txn_per_s", "value"]`.
fn values(doc: &Json, workload: &str, path: &[&str]) -> Vec<f64> {
    doc.get("sets")
        .map(Json::elements)
        .unwrap_or_default()
        .iter()
        .filter_map(|set| {
            let mut at = set.get("workloads")?.get(workload)?;
            for key in path {
                at = at.get(key)?;
            }
            at.as_f64()
        })
        .collect()
}

fn workload_names(doc: &Json) -> Vec<String> {
    doc.get("sets")
        .and_then(|s| s.elements().first())
        .and_then(|set| set.get("workloads"))
        .map(|w| w.members().iter().map(|(k, _)| k.clone()).collect())
        .unwrap_or_default()
}

/// Prints the table and returns whether B is acceptable: no `worse` row
/// and no workload whose share of failed ops rose.
pub fn compare(a: &Json, b: &Json) -> bool {
    let mut ok = true;
    println!(
        "{:16} {:24} {:>12} {:>12} {:>9}  {:>6}  verdict",
        "workload", "metric", "A (base)", "B", "B/A", "bound"
    );
    for w in workload_names(a) {
        for m in END_TO_END {
            let path = ["end_to_end", m.name, "value"];
            let (va, vb) = (values(a, &w, &path), values(b, &w, &path));
            if va.is_empty() || vb.is_empty() {
                println!("{w:16} {:24} missing on one side", m.name);
                ok = false;
                continue;
            }
            let slack = if m.name == "setup_s" {
                SETUP_ABSOLUTE_SLACK_S
            } else {
                0.0
            };
            let (ma, mb, verdict) = judge(&va, &vb, m.better, m.bound, slack);
            println!(
                "{w:16} {:24} {ma:12.4} {mb:12.4} {:9.4}  {:5.0}%  {}",
                format!("{} [{}]", m.name, m.unit),
                mb / ma,
                m.bound * 100.0,
                verdict.as_str()
            );
            ok &= verdict != Verdict::Worse;
        }
        let share = |doc| {
            values(doc, &w, &["failed_share"])
                .into_iter()
                .fold(0.0, f64::max)
        };
        let (fa, fb) = (share(a), share(b));
        println!("{w:16} {:24} {fa:12.6} {fb:12.6}", "failed_share");
        if fb > fa {
            println!("{w:16} more ops failed on B");
            ok = false;
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        use Better::{Higher, Lower};
        let j = |a: &[f64], b: &[f64], better, bound| judge(a, b, better, bound, 0.0).2;
        // Latency: lower is better.
        assert_eq!(j(&[100.0], &[105.0], Lower, 0.10), Verdict::WithinBound);
        assert_eq!(j(&[100.0], &[111.0], Lower, 0.10), Verdict::Worse);
        assert_eq!(j(&[100.0], &[85.0], Lower, 0.10), Verdict::Better);
        // Throughput: higher is better, so the signs flip.
        assert_eq!(j(&[50.0], &[56.0], Higher, 0.10), Verdict::Better);
        assert_eq!(j(&[50.0], &[44.0], Higher, 0.10), Verdict::Worse);
        assert_eq!(j(&[50.0], &[47.0], Higher, 0.10), Verdict::WithinBound);
        // A side that spreads wider than the bound resolves nothing,
        // however far apart the medians are.
        assert_eq!(
            j(&[100.0, 130.0], &[200.0, 201.0], Lower, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            j(&[100.0, 101.0], &[120.0, 121.0], Lower, 0.10),
            Verdict::Worse
        );
    }

    #[test]
    fn absolute_slack_shields_small_setups() {
        // 40 % worse, but only 0.08 s: not a regression of set-up.
        let (_, _, v) = judge(&[0.20], &[0.28], Better::Lower, 0.25, 0.25);
        assert_eq!(v, Verdict::WithinBound);
        let (_, _, v) = judge(&[2.0], &[2.8], Better::Lower, 0.25, 0.25);
        assert_eq!(v, Verdict::Worse);
    }

    #[test]
    fn reads_sets_and_flags_failures() {
        let set = |rate: f64, failed: f64| {
            let metrics = END_TO_END.iter().map(|m| {
                let v = if m.name == "txn_per_s" { rate } else { 1.0 };
                (m.name, Json::obj([("value", Json::Num(v))]))
            });
            Json::obj([(
                "workloads",
                Json::obj([(
                    "w",
                    Json::obj([
                        ("end_to_end", Json::obj(metrics)),
                        ("failed_share", Json::Num(failed)),
                    ]),
                )]),
            )])
        };
        let doc = |sets: Vec<Json>| Json::obj([("sets", Json::Arr(sets))]);
        let base = doc(vec![set(50.0, 0.0), set(51.0, 0.0)]);
        assert_eq!(
            values(&base, "w", &["end_to_end", "txn_per_s", "value"]),
            [50.0, 51.0]
        );
        assert!(compare(&base, &doc(vec![set(49.0, 0.0)])));
        assert!(!compare(&base, &doc(vec![set(30.0, 0.0)])), "a worse row");
        assert!(
            !compare(&base, &doc(vec![set(50.0, 0.01)])),
            "more failures"
        );
    }
}
