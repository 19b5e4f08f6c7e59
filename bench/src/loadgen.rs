//! The closed-loop load generator of the threaded workloads (paper §5.1).
//!
//! Eight applications, four at each of the two application-hosting
//! sites, each with one op outstanding and no think time. One generator
//! thread per site multiplexes its four applications over
//! `submit`/`recv_reply`, dispatching on `AppReply::app()`. A transaction
//! is Begin → (Read [→ Write{bytes:None}])* → Commit; an abort
//! re-executes the same reference string, and a transaction's latency
//! runs from its first Begin to its final Committed, so wasted work is
//! inside it. The cluster only ever sees the generated ops.

use crate::affinity::{pin_current_thread, thread_cpu_s};
use crate::ledger::{counter_of, Ledger};
use crate::trace::{Epoch, Span, SpanKind, ThreadTrace};
use pscc_common::{AppId, FileId, Oid, PageId, SiteId, SystemConfig, TxnId, VolId};
use pscc_core::{AppOp, AppReply, OwnerMap};
use pscc_sim::threaded::ThreadedCluster;
use pscc_sim::WorkloadSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::time::Instant;

/// Applications per application-hosting site.
pub const APPS_PER_SITE: u32 = 4;

/// Run phases, as the generators see them.
pub const WARMUP: u8 = 0;
pub const MEASURE: u8 = 1;
pub const DRAIN: u8 = 2;

/// What the main thread and the generators share.
#[derive(Debug, Default)]
pub struct Control {
    /// [`WARMUP`] → [`MEASURE`] → [`DRAIN`]; the main thread advances it.
    pub phase: AtomicU8,
    /// Commits so far, all phases (the warm-up target is a count).
    pub commits: AtomicU64,
    /// Set by a generator whose site stopped answering.
    pub broken: AtomicBool,
}

/// The load one generator thread applies.
pub struct GeneratorJob<'a> {
    pub cluster: &'a ThreadedCluster,
    pub control: &'a Control,
    pub site: SiteId,
    /// Global number of this site's first application.
    pub first_app: u32,
    pub cfg: &'a SystemConfig,
    pub owners: &'a OwnerMap,
    pub spec: &'a WorkloadSpec,
    pub seed: u64,
    /// Where the generator pins itself (empty: stay where spawned).
    pub cpus: &'a [usize],
    /// Set on a traced run: record one root span per measured op.
    pub epoch: Option<Epoch>,
}

/// What one generator measured. Latencies are of the [`MEASURE`] phase
/// only; the ledger and the failure counts cover the whole run.
#[derive(Debug, Default)]
pub struct GeneratorResult {
    pub ledger: Ledger,
    pub op_ns: Vec<u64>,
    pub commit_ns: Vec<u64>,
    pub txn_ns: Vec<u64>,
    pub commits: u64,
    pub aborts: u64,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    /// Thread CPU seconds spent inside the measured window.
    pub cpu_s: f64,
    pub trace: ThreadTrace,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Step {
    Begin,
    Read(usize),
    Write(usize),
    Commit,
}

impl Step {
    fn label(self) -> &'static str {
        match self {
            Step::Begin => "begin",
            Step::Read(_) => "read",
            Step::Write(_) => "write",
            Step::Commit => "commit",
        }
    }
}

/// One application: its reference string and where it stands in it.
struct App {
    id: AppId,
    rng: StdRng,
    script: Vec<(Oid, bool)>,
    step: Step,
    txn: Option<TxnId>,
    /// First Begin of the current reference string.
    txn_started: Instant,
    op_sent: Instant,
    /// An op is outstanding (false only once drained).
    busy: bool,
}

/// The volume a page's objects are named under: its seed owner's.
fn vol_of(owners: &OwnerMap, page: u32) -> VolId {
    let pid = PageId::new(FileId::new(VolId(0), 0), page);
    // Workload pages always come from the seed map.
    VolId(owners.owner(pid).expect("workload page has an owner").0)
}

impl GeneratorJob<'_> {
    fn new_script(&self, app: &mut App) {
        app.script =
            self.spec
                .generate(app.id.0, self.cfg, |p| vol_of(self.owners, p), &mut app.rng);
        app.step = Step::Begin;
        app.txn = None;
        app.txn_started = Instant::now();
    }

    fn submit(&self, app: &mut App) {
        let op = match app.step {
            Step::Begin => AppOp::Begin,
            Step::Read(i) => AppOp::Read(app.script[i].0),
            Step::Write(i) => AppOp::Write {
                oid: app.script[i].0,
                bytes: None,
            },
            Step::Commit => AppOp::Commit,
        };
        app.op_sent = Instant::now();
        app.busy = true;
        self.cluster.submit(self.site, app.id, app.txn, op);
    }

    /// Drives this site's applications until the drain completes.
    pub fn run(self) -> GeneratorResult {
        if !self.cpus.is_empty() {
            pin_current_thread(self.cpus);
        }
        let mut out = GeneratorResult {
            op_ns: Vec::with_capacity(1 << 20),
            trace: ThreadTrace {
                name: format!("generator {}", self.site.0),
                ..ThreadTrace::default()
            },
            ..GeneratorResult::default()
        };
        let mut apps: Vec<App> = (self.first_app..self.first_app + APPS_PER_SITE)
            .map(|i| App {
                id: AppId(i),
                rng: StdRng::seed_from_u64(self.seed.wrapping_add(7919 * u64::from(i))),
                script: Vec::new(),
                step: Step::Begin,
                txn: None,
                txn_started: Instant::now(),
                op_sent: Instant::now(),
                busy: false,
            })
            .collect();
        for app in &mut apps {
            self.new_script(app);
            self.submit(app);
        }
        let mut phase = WARMUP;
        let mut cpu_at_measure = 0.0;
        while apps.iter().any(|a| a.busy) {
            let Ok(reply) = self.cluster.recv_reply(self.site) else {
                // Ten seconds without a reply: every outstanding op of
                // this site failed, and the run is void.
                let stuck = apps.iter().filter(|a| a.busy).count() as u64;
                out.ops_attempted += stuck;
                out.ops_failed += stuck;
                self.control.broken.store(true, Ordering::SeqCst);
                break;
            };
            let now = Instant::now();
            let seen = self.control.phase.load(Ordering::SeqCst);
            if seen != phase {
                if seen == MEASURE {
                    cpu_at_measure = thread_cpu_s();
                } else if phase == MEASURE {
                    out.cpu_s = thread_cpu_s() - cpu_at_measure;
                }
                phase = seen;
            }
            let Some(app) = reply
                .app()
                .0
                .checked_sub(self.first_app)
                .and_then(|i| apps.get_mut(i as usize))
            else {
                continue;
            };
            // A reply answers the outstanding op only if it names the
            // transaction the op ran in (Started: if one is awaited).
            let matches = match &reply {
                AppReply::Started { .. } => app.step == Step::Begin,
                AppReply::Done { txn, .. }
                | AppReply::Committed { txn, .. }
                | AppReply::Aborted { txn, .. } => app.txn == Some(*txn),
            };
            if !app.busy || !matches {
                continue;
            }
            app.busy = false;
            out.ops_attempted += 1;
            let measured = phase == MEASURE;
            if measured {
                let ns = (now - app.op_sent).as_nanos() as u64;
                out.op_ns.push(ns);
                if let Some(epoch) = self.epoch {
                    let end_ns = epoch.ns();
                    out.trace.spans.push(Span {
                        kind: SpanKind::Op,
                        start_ns: end_ns.saturating_sub(ns),
                        end_ns,
                        label: app.step.label(),
                        txn: app.txn,
                        cause: None,
                        bytes: 0,
                    });
                }
            }
            match reply {
                AppReply::Started { txn, .. } => {
                    app.txn = Some(txn);
                    app.step = Step::Read(0);
                }
                AppReply::Done { .. } => {
                    app.step = match app.step {
                        Step::Read(i) if app.script[i].1 => Step::Write(i),
                        Step::Read(i) | Step::Write(i) if i + 1 < app.script.len() => {
                            Step::Read(i + 1)
                        }
                        _ => Step::Commit,
                    };
                }
                AppReply::Committed { .. } => {
                    out.ledger.commit(&app.script);
                    self.control.commits.fetch_add(1, Ordering::SeqCst);
                    if measured {
                        out.commits += 1;
                        out.commit_ns.push((now - app.op_sent).as_nanos() as u64);
                        out.txn_ns.push((now - app.txn_started).as_nanos() as u64);
                    }
                    if phase == DRAIN {
                        continue; // in-flight work finishes; nothing new starts
                    }
                    self.new_script(app);
                }
                AppReply::Aborted { .. } => {
                    // Re-execute the same reference string (paper §5.1);
                    // `txn_started` stands, so the waste is in the latency.
                    if measured {
                        out.aborts += 1;
                    }
                    app.txn = None;
                    app.step = Step::Begin;
                }
            }
            self.submit(app);
        }
        if phase == MEASURE {
            out.cpu_s = thread_cpu_s() - cpu_at_measure;
        }
        out
    }
}

/// What the verifier transaction found.
#[derive(Debug, Default, Clone, Copy)]
pub struct LedgerCheck {
    /// Objects the ledger holds.
    pub written: usize,
    /// Objects read back.
    pub verified: usize,
    /// Objects whose counter differs from the ledger's.
    pub mismatches: usize,
    /// Reads that got no answer or an abort.
    pub read_failures: usize,
}

/// Reads `expected` back in one transaction at `site` and compares each
/// object's counter with the ledger's count.
pub fn verify_ledger(
    cluster: &ThreadedCluster,
    site: SiteId,
    written: usize,
    expected: &[(Oid, u64)],
) -> LedgerCheck {
    let mut check = LedgerCheck {
        written,
        ..LedgerCheck::default()
    };
    // An id no generator uses, so stray replies cannot be confused.
    let app = AppId(u32::MAX);
    let Ok(txn) = cluster.begin(site, app) else {
        check.read_failures = expected.len();
        return check;
    };
    for (i, (oid, count)) in expected.iter().enumerate() {
        match cluster.run_op(site, app, txn, AppOp::Read(*oid)) {
            Ok(AppReply::Done {
                data: Some(data), ..
            }) => {
                check.verified += 1;
                if counter_of(&data) != Some(*count) {
                    check.mismatches += 1;
                }
            }
            Ok(_) => check.read_failures += 1,
            Err(_) => {
                // Aborted or timed out: the transaction is gone.
                check.read_failures += expected.len() - i;
                return check;
            }
        }
    }
    if cluster.run_op(site, app, txn, AppOp::Commit).is_err() {
        check.read_failures += 1;
    }
    check
}
