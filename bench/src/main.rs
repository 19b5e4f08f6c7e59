//! The wall-clock benchmark of the threaded/TCP cluster and the DES.
//!
//! ```text
//! bench [--seed N] [--out FILE] [--sets K] [--smoke]   every workload, traced runs, layer suite
//! bench --workload W --seed N --seconds S --trace 0|1  one run, one JSON line (the driver's form)
//! bench layers                                         the layer suite alone
//! bench compare A.json B.json                          B against the base A, by the bounds
//! bench manifest                                       the contents of BENCHMARK.json
//! ```
//!
//! See the README beside this package for what is measured and why.

mod affinity;
mod compare;
mod des;
mod json;
mod layers;
mod ledger;
mod loadgen;
mod metrics;
mod report;
mod stats;
mod threaded;
mod trace;
mod workloads;

use affinity::CpuPlan;
use json::Json;
use layers::LayerResults;
use metrics::{END_TO_END, PER_LAYER, RUN_SECONDS};
use report::Value;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Duration;
use workloads::WORKLOADS;

/// Objects the verifier reads back at most (the 500 most-written always
/// among them); a fifth of that in the smoke run.
const LEDGER_CAP: usize = 5_000;

/// The traced run's window: long enough for steady fractions, short
/// enough that the spans of three site threads stay in memory.
const TRACED_SECONDS: u64 = 10;

/// A generator this busy (CPU ÷ wall) is the bottleneck: the run is void.
const GENERATOR_BUSY_LIMIT: f64 = 0.5;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// The slice of the traced window written to the Chrome trace file. The
/// per-layer numbers use every span; a viewer wants megabytes, not
/// hundreds of them.
const TRACE_FILE_WINDOW_NS: u64 = 1_000_000_000;

/// How one invocation sizes its runs.
#[derive(Debug, Clone, Copy)]
struct Sizing {
    seed: u64,
    /// Measured window of a threaded run; how long `fig-des` keeps
    /// starting passes.
    seconds: u64,
    smoke: bool,
}

impl Sizing {
    /// 300 commits before a 30 s window, shrunk with the window, and
    /// never under the 50 that connect every site and touch every
    /// application's hot range.
    fn warmup_commits(&self) -> u64 {
        (10 * self.seconds).max(50)
    }

    fn setups(&self) -> usize {
        if self.smoke {
            1
        } else {
            SETUPS
        }
    }

    fn des_points(&self) -> usize {
        if self.smoke {
            2
        } else {
            12
        }
    }

    fn params<'a>(&self, plan: &'a CpuPlan) -> threaded::RunParams<'a> {
        threaded::RunParams {
            seed: self.seed,
            plan,
            warmup_commits: self.warmup_commits(),
            ledger_cap: if self.smoke {
                LEDGER_CAP / 5
            } else {
                LEDGER_CAP
            },
        }
    }

    fn traced_seconds(&self) -> u64 {
        self.seconds.min(TRACED_SECONDS)
    }
}

/// What one workload's runs produced.
#[derive(Debug, Default)]
struct Report {
    end_to_end: Vec<Value>,
    per_layer: Vec<Value>,
    attempted: u64,
    failed: u64,
    /// Check results and context a reader wants beside the numbers.
    notes: Vec<(&'static str, Json)>,
}

impl Report {
    fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    fn absorb(&mut self, o: &threaded::Outcome) {
        self.attempted += o.ops_attempted;
        self.failed += o.ops_failed;
    }
}

fn ledger_note(o: &threaded::Outcome) -> Json {
    Json::obj([
        ("objects_written", Json::from(o.ledger.written)),
        ("objects_verified", Json::from(o.ledger.verified)),
        ("mismatches", Json::from(o.ledger.mismatches)),
        ("read_failures", Json::from(o.ledger.read_failures)),
    ])
}

/// The end-to-end run of a threaded workload, tracing off, through
/// `new`/`new_tcp`: `setups − 1` clusters that are set up and dropped,
/// then the measured one. `setup_s` is the median of all the set-ups.
fn threaded_end_to_end(
    w: &threaded::Threaded,
    s: Sizing,
    plan: &CpuPlan,
    setups: usize,
) -> (threaded::Outcome, Report) {
    let params = s.params(plan);
    let earlier: Vec<f64> = (1..setups)
        .flat_map(|_| w.run(&params, None, false).setup_s)
        .collect();
    let window = Duration::from_secs(s.seconds);
    let mut o = w.run(&params, Some(window), false);
    o.setup_s.extend(earlier);
    let mut r = Report {
        end_to_end: report::threaded_end_to_end(&o),
        ..Report::default()
    };
    r.absorb(&o);
    if o.generator_busy_frac >= GENERATOR_BUSY_LIMIT {
        // The numbers would measure the generator, not the cluster.
        r.failed += 1;
    }
    r.notes.push(("ledger", ledger_note(&o)));
    r.notes.push(("aborts", Json::from(o.aborts)));
    r.notes.push(("window_s", Json::Num(o.window_s)));
    for (what, ladder) in report::latency_ladders(&o) {
        let steps = ladder
            .into_iter()
            .map(|(p, v)| (format!("p{p}"), Json::Num(v)));
        r.notes.push((what, Json::obj(steps)));
    }
    (o, r)
}

/// The traced run of a threaded workload, through `with_transports`;
/// writes the Chrome trace and adds the span and counter metrics.
fn threaded_traced(
    name: &str,
    w: &threaded::Threaded,
    s: Sizing,
    plan: &CpuPlan,
    untraced: &threaded::Outcome,
    r: &mut Report,
) {
    let window = Duration::from_secs(s.traced_seconds());
    let traced = w.run(&s.params(plan), Some(window), true);
    r.absorb(&traced);
    let untraced_rate = untraced.commits as f64 / untraced.window_s.max(1e-9);
    r.per_layer
        .extend(report::counter_metrics(&untraced.counters, untraced.cpu_s));
    r.per_layer
        .extend(report::trace_metrics(&traced, untraced_rate));
    r.notes.push(("traced_ledger", ledger_note(&traced)));

    let (from, to) = traced.window_ns;
    let text = trace::render_chrome(&traced.traces, from, to.min(from + TRACE_FILE_WINDOW_NS));
    let path = out_dir().join(format!("trace-{name}.json"));
    match std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, text)) {
        Ok(()) => r
            .notes
            .push(("trace_file", Json::str(path.display().to_string()))),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

fn des_report(s: Sizing) -> (des::Outcome, Report) {
    let o = des::run(s.seed, Duration::from_secs(s.seconds), s.des_points());
    let r = Report {
        end_to_end: report::des_end_to_end(&o),
        attempted: o.runs.len() as u64,
        failed: o.failed,
        notes: vec![
            ("passes", Json::from(o.passes)),
            (
                "pass_commits_per_s",
                Json::Arr(
                    report::des_pass_rates(&o)
                        .into_iter()
                        .map(Json::Num)
                        .collect(),
                ),
            ),
            ("exact_points", Json::from(o.exact_points)),
            ("points", Json::from(s.des_points())),
        ],
        ..Report::default()
    };
    (o, r)
}

/// `bench/out`, beside the package's manifest: run.sh builds the binary
/// in the checkout it then runs in.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

// ---------------------------------------------------------------------
// The driver's form: one workload, one JSON line
// ---------------------------------------------------------------------

fn metrics_json<'a>(defs: impl Iterator<Item = (&'a str, &'a str)>, values: &[Value]) -> Json {
    Json::obj(defs.map(|(name, unit)| {
        // A layer that does no work in this workload reads zero.
        let v = values
            .iter()
            .find(|v| v.name == name)
            .map_or(0.0, |v| v.value);
        (
            name,
            Json::obj([("value", Json::Num(v)), ("unit", Json::str(unit))]),
        )
    }))
}

/// Runs workload `name`: end to end with `setups` set-ups, and with
/// `traced` also the traced run that gives its span and counter metrics.
/// `None` if there is no such workload.
fn run_workload(
    name: &str,
    s: Sizing,
    plan: &CpuPlan,
    setups: usize,
    traced: bool,
) -> Option<Report> {
    if let Some(w) = workloads::threaded(name) {
        let (untraced, mut r) = threaded_end_to_end(&w, s, plan, setups);
        if traced {
            threaded_traced(name, &w, s, plan, &untraced, &mut r);
        }
        return Some(r);
    }
    (name == "fig-des").then(|| {
        let (o, mut r) = des_report(s);
        if traced {
            r.per_layer.extend(report::des_layer_metrics(&o));
        }
        r
    })
}

fn run_one(name: &str, s: Sizing, trace: bool) -> ExitCode {
    let plan = CpuPlan::pin_main();
    // A traced invocation needs the untraced window only as the
    // reference for the tracing overhead: one set-up is enough.
    let setups = if trace { 1 } else { s.setups() };
    let Some(mut r) = run_workload(name, s, &plan, setups, trace) else {
        eprintln!(
            "unknown workload {name:?}; one of {:?}",
            WORKLOADS.map(|w| w.0)
        );
        return ExitCode::from(2);
    };
    if trace {
        r.per_layer
            .extend(report::layer_metrics(&layers::run(&plan, layers::BATCHES)));
    }
    print_report(name, &r, &mut std::io::stderr());
    let metrics = if trace {
        metrics_json(PER_LAYER.iter().map(|m| (m.name, m.unit)), &r.per_layer)
    } else {
        metrics_json(END_TO_END.iter().map(|m| (m.name, m.unit)), &r.end_to_end)
    };
    let line = Json::obj([
        ("correct", Json::from(r.correct())),
        ("attempted", Json::from(r.attempted.max(1))),
        ("failed", Json::from(r.failed)),
        ("metrics", metrics),
    ]);
    println!("{}", line.render());
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------
// The whole suite
// ---------------------------------------------------------------------

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

fn print_report(name: &str, r: &Report, out: &mut dyn std::io::Write) {
    let _ = writeln!(out, "== {name}");
    for v in r.end_to_end.iter().chain(&r.per_layer) {
        let _ = writeln!(
            out,
            "  {:34} {:>16.4} {:6} (n={})",
            v.name,
            v.value,
            unit_of(v.name),
            v.samples
        );
    }
    let share = r.failed as f64 / r.attempted.max(1) as f64;
    let _ = writeln!(
        out,
        "  ops_attempted {}  ops_failed {}  failed_share {share:.6}  correct {}",
        r.attempted,
        r.failed,
        r.correct()
    );
    for (k, v) in &r.notes {
        let _ = writeln!(out, "  {k}: {}", v.render());
    }
}

fn values_json(values: &[Value]) -> Json {
    Json::obj(values.iter().map(|v| {
        (
            v.name,
            Json::obj([
                ("value", Json::Num(v.value)),
                ("unit", Json::str(unit_of(v.name))),
                ("samples", Json::from(v.samples)),
            ]),
        )
    }))
}

fn report_json(r: &Report) -> Json {
    let mut members = vec![
        ("end_to_end".to_string(), values_json(&r.end_to_end)),
        ("per_layer".to_string(), values_json(&r.per_layer)),
        ("ops_attempted".to_string(), Json::from(r.attempted)),
        ("ops_failed".to_string(), Json::from(r.failed)),
        (
            "failed_share".to_string(),
            Json::Num(r.failed as f64 / r.attempted.max(1) as f64),
        ),
        ("correct".to_string(), Json::from(r.correct())),
    ];
    members.extend(r.notes.iter().map(|(k, v)| (k.to_string(), v.clone())));
    Json::Obj(members)
}

fn layers_json(layers: &LayerResults) -> Json {
    Json::obj(layers.iter().map(|(name, t)| {
        (
            *name,
            Json::obj([
                ("unit", Json::str(unit_of(name))),
                ("median", Json::Num(t.median)),
                ("min", Json::Num(t.min)),
                ("p99", Json::Num(t.p99)),
                ("batches", Json::from(t.batches)),
            ]),
        )
    }))
}

fn print_layers(layers: &LayerResults) {
    println!("== layers (per op: median, min, p99 over batches)");
    for (name, t) in layers {
        println!(
            "  {name:34} {:>14.3} {:>14.3} {:>14.3} {:6} (n={})",
            t.median,
            t.min,
            t.p99,
            unit_of(name),
            t.batches
        );
    }
}

/// The first line of `program args…`'s output, or "unknown".
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn fingerprint(plan: &CpuPlan, s: Sizing) -> Json {
    let cpus = |v: &[usize]| Json::Arr(v.iter().map(|c| Json::from(*c)).collect());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    Json::obj([
        ("nproc", Json::from(plan.nproc)),
        ("cluster_cpus", cpus(&plan.cluster)),
        ("generator_cpus", cpus(&plan.generator)),
        ("pinned", Json::from(plan.pinned)),
        ("kernel", Json::str(kernel)),
        ("rustc", Json::str(first_line_of("rustc", &["-V"]))),
        (
            "git_commit",
            Json::str(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::from(s.seed)),
        ("window_s", Json::from(s.seconds)),
        ("traced_window_s", Json::from(s.traced_seconds())),
        ("warmup_commits", Json::from(s.warmup_commits())),
        ("setups_per_run", Json::from(s.setups())),
        ("smoke", Json::from(s.smoke)),
    ])
}

/// One complete set: every workload end to end, the traced runs, the
/// layer suite. Returns the set's JSON and whether every check passed.
fn run_set(s: Sizing, plan: &CpuPlan) -> (Json, bool) {
    let mut ok = true;
    let mut reports = Vec::new();
    for (name, _) in WORKLOADS {
        let r = run_workload(name, s, plan, s.setups(), true).expect("a listed workload");
        print_report(name, &r, &mut std::io::stdout());
        ok &= r.correct();
        reports.push((name, report_json(&r)));
    }
    let batches = if s.smoke { 5 } else { layers::BATCHES };
    let layers = layers::run(plan, batches);
    print_layers(&layers);
    let set = Json::obj([
        ("seed", Json::from(s.seed)),
        ("workloads", Json::obj(reports)),
        ("layers", layers_json(&layers)),
    ]);
    (set, ok)
}

fn suite(s: Sizing, sets: usize, out: Option<PathBuf>) -> ExitCode {
    let plan = CpuPlan::pin_main();
    let mut ok = true;
    let mut all = Vec::new();
    for i in 0..sets {
        println!("# set {} of {sets}, seed {}", i + 1, s.seed);
        let (set, set_ok) = run_set(s, &plan);
        ok &= set_ok;
        all.push(set);
    }
    let doc = Json::obj([
        ("fingerprint", fingerprint(&plan, s)),
        ("sets", Json::Arr(all)),
    ]);
    let path = out.unwrap_or_else(|| out_dir().join(format!("results-seed{}.json", s.seed)));
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, doc.render_pretty()));
    match written {
        Ok(()) => println!("# results: {}", path.display()),
        Err(e) => {
            eprintln!("could not write {}: {e}", path.display());
            ok = false;
        }
    }
    if ok {
        println!("# every check passed");
        ExitCode::SUCCESS
    } else {
        println!("# A CHECK FAILED (see `correct false` above)");
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench [--seed N] [--out FILE] [--sets K] [--smoke]\n\
         \x20      bench --workload W --seed N --seconds S --trace 0|1\n\
         \x20      bench layers | manifest | compare A.json B.json"
    );
    ExitCode::from(2)
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", metrics::manifest().render_pretty());
            return ExitCode::SUCCESS;
        }
        Some("layers") => {
            print_layers(&layers::run(&CpuPlan::pin_main(), layers::BATCHES));
            return ExitCode::SUCCESS;
        }
        Some("compare") => {
            let [_, a, b] = args.as_slice() else {
                return usage();
            };
            return match (read_json(a), read_json(b)) {
                (Ok(a), Ok(b)) if compare::compare(&a, &b) => ExitCode::SUCCESS,
                (Ok(_), Ok(_)) => ExitCode::FAILURE,
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("{e}");
                    ExitCode::from(2)
                }
            };
        }
        _ => {}
    }

    let (mut seed, mut seconds, mut sets) = (1u64, None, 1usize);
    let (mut workload, mut trace, mut out, mut smoke) = (None, false, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let Some(v) = it.next() else {
            return usage();
        };
        let parsed = match flag.as_str() {
            "--seed" => v.parse().map(|n| seed = n).is_ok(),
            "--seconds" => v.parse::<u64>().map(|n| seconds = Some(n.max(1))).is_ok(),
            "--sets" => v.parse().map(|n: usize| sets = n.max(1)).is_ok(),
            "--trace" => {
                matches!(v.as_str(), "0" | "1") && {
                    trace = v == "1";
                    true
                }
            }
            "--workload" => {
                workload = Some(v.clone());
                true
            }
            "--out" => {
                out = Some(PathBuf::from(v));
                true
            }
            _ => false,
        };
        if !parsed {
            return usage();
        }
    }
    match workload {
        Some(name) => {
            let s = Sizing {
                seed,
                seconds: seconds.unwrap_or(RUN_SECONDS),
                smoke,
            };
            run_one(&name, s, trace)
        }
        None => {
            // The issue's windows: 30 s, or 2 s for the smoke run.
            let s = Sizing {
                seed,
                seconds: seconds.unwrap_or(if smoke { 2 } else { 30 }),
                smoke,
            };
            suite(s, sets, out)
        }
    }
}
