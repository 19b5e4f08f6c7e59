//! One run of a threaded workload: set up (construct, probe, warm up),
//! measure for a window of wall time, drain, verify the ledger.

use crate::affinity::{process_cpu_s, CpuPlan};
use crate::ledger::Ledger;
use crate::loadgen::{
    verify_ledger, Control, GeneratorJob, GeneratorResult, LedgerCheck, APPS_PER_SITE, DRAIN,
    MEASURE,
};
use crate::trace::{Epoch, ThreadTrace, TraceSink, TracingTransport};
use pscc_common::{Counters, Protocol, SiteId, SystemConfig};
use pscc_core::{Message, OwnerMap};
use pscc_net::tcp::TcpNode;
use pscc_net::InProcNetwork;
use pscc_sim::threaded::ThreadedCluster;
use pscc_sim::WorkloadSpec;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A threaded workload: the cluster's shape and the traffic on it.
#[derive(Debug, Clone)]
pub struct Threaded {
    pub n_sites: u32,
    pub owners: OwnerMap,
    /// The sites applications run at, one generator thread each.
    pub app_sites: Vec<SiteId>,
    pub spec: WorkloadSpec,
    /// Real sockets on localhost instead of in-process mailboxes.
    pub tcp: bool,
}

/// `SystemConfig::paper()`'s lock-wait timeouts are sized for the
/// simulator's virtual time, where a HICON transaction takes 1.5–2 s. On
/// real threads it takes ~0.18 s, so the benchmark scales them by this.
///
/// Left at 2 s (initial) and 30 s (ceiling), every distributed deadlock
/// met before a site's estimator has its ten samples stalls an
/// application for ten transaction-times, the long waits that end in
/// grants then raise the adaptive timeout, and a cluster's whole life
/// falls into a fast or a slow regime: `hicon-peers` gave 24–39 txn/s and
/// a p95 of 0.47–1.13 s over ten seeds, and 31–37 txn/s and 0.52–0.85 s
/// with the timeouts scaled.
const TIMEOUT_SCALE: f64 = 1.0 / 8.0;

/// The Table-1 platform under PS-AA with the benchmark's 8 applications
/// and wall-clock lock timeouts (see [`TIMEOUT_SCALE`]).
pub fn platform(app_sites: usize) -> SystemConfig {
    let paper = SystemConfig::paper();
    SystemConfig {
        protocol: Protocol::PsAa,
        num_applications: app_sites as u32 * APPS_PER_SITE,
        initial_lock_timeout: paper.initial_lock_timeout.mul_f64(TIMEOUT_SCALE),
        lock_timeout_ceiling: paper.lock_timeout_ceiling.mul_f64(TIMEOUT_SCALE),
        ..paper
    }
}

/// The in-process network `ThreadedCluster::new` builds: three paths,
/// mailboxes sized from the config, consistency traffic on the priority
/// lane.
pub fn inproc_network(sites: &[SiteId], cfg: &SystemConfig) -> InProcNetwork<Message> {
    InProcNetwork::with_overload(
        sites,
        3,
        cfg.mailbox_capacity as usize,
        Some(Arc::new(|m: &Message| m.is_consistency())),
    )
}

/// `n` free localhost addresses, as `ThreadedCluster::new_tcp` finds
/// them: bind port 0, note the address, release it.
pub fn free_local_addrs(n: usize) -> Vec<SocketAddr> {
    (0..n)
        .map(|_| {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind localhost");
            l.local_addr().expect("listener address")
        })
        .collect()
}

/// What every run of one invocation shares.
#[derive(Debug, Clone, Copy)]
pub struct RunParams<'a> {
    pub seed: u64,
    pub plan: &'a CpuPlan,
    /// Commits that end the warm-up (and the set-up).
    pub warmup_commits: u64,
    /// Objects the verifier reads back at most.
    pub ledger_cap: usize,
}

/// How long a run may sit in warm-up before it is declared broken.
const WARMUP_DEADLINE: Duration = Duration::from_secs(120);

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Before construction → end of warm-up: this run's, and whichever
    /// set-up-only runs the caller adds for the median.
    pub setup_s: Vec<f64>,
    /// Measured wall time, as it really was.
    pub window_s: f64,
    /// Latencies of the window, ascending nanoseconds.
    pub op_ns: Vec<u64>,
    pub commit_ns: Vec<u64>,
    pub txn_ns: Vec<u64>,
    pub commits: u64,
    pub aborts: u64,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    /// Engine counters of all sites, window only.
    pub counters: Counts,
    /// Process CPU seconds of the window.
    pub cpu_s: f64,
    /// Busiest generator's CPU share of the window.
    pub generator_busy_frac: f64,
    pub ledger: LedgerCheck,
    /// Traced runs: every thread's spans, and the window on their clock.
    pub traces: Vec<ThreadTrace>,
    pub window_ns: (u64, u64),
}

impl Threaded {
    /// Builds the cluster through the constructors users call, or, for a
    /// traced run, through `with_transports` with the same transports
    /// wrapped (the bodies of `ThreadedCluster::new`/`new_tcp`, which
    /// offer no hook).
    fn build(&self, cfg: &SystemConfig, trace: Option<(Epoch, &TraceSink)>) -> ThreadedCluster {
        let (cfg, owners) = (cfg.clone(), self.owners.clone());
        let Some((epoch, sink)) = trace else {
            return if self.tcp {
                ThreadedCluster::new_tcp(self.n_sites, cfg, owners)
            } else {
                ThreadedCluster::new(self.n_sites, cfg, owners)
            };
        };
        let sites: Vec<SiteId> = (0..self.n_sites).map(SiteId).collect();
        if self.tcp {
            let addrs = free_local_addrs(sites.len());
            let transports = sites
                .iter()
                .map(|&s| {
                    let peers: HashMap<SiteId, SocketAddr> = sites
                        .iter()
                        .filter(|o| **o != s)
                        .map(|o| (*o, addrs[o.0 as usize]))
                        .collect();
                    let node = TcpNode::<Message>::start(s, addrs[s.0 as usize], peers)
                        .expect("start tcp node");
                    (s, TracingTransport::new(node, s, epoch, Arc::clone(sink)))
                })
                .collect();
            ThreadedCluster::with_transports(cfg, owners, transports)
        } else {
            let net = inproc_network(&sites, &cfg);
            let transports = sites
                .iter()
                .map(|&s| {
                    let t = TracingTransport::new(net.endpoint(s), s, epoch, Arc::clone(sink));
                    (s, t)
                })
                .collect();
            ThreadedCluster::with_transports(cfg, owners, transports)
        }
    }

    /// Runs the workload once on a fresh cluster. `window: None` stops
    /// after set-up (the repeated set-ups that steady `setup_s`); `trace`
    /// wraps the transports and records op spans.
    ///
    /// The calling thread must already be pinned to `p.plan.cluster`, so
    /// that the threads the constructor spawns inherit the mask.
    pub fn run(&self, p: &RunParams, window: Option<Duration>, trace: bool) -> Outcome {
        let RunParams {
            seed,
            plan,
            warmup_commits,
            ledger_cap,
        } = *p;
        let cfg = platform(self.app_sites.len());
        let epoch = Epoch::now();
        let sink = TraceSink::default();
        let control = Control::default();
        let mut out = Outcome::default();

        let setup_started = Instant::now();
        let cluster = self.build(&cfg, trace.then_some((epoch, &sink)));
        for s in 0..self.n_sites {
            cluster
                .probe(SiteId(s))
                .expect("site thread answers its probe");
        }
        let generator_cpus: &[usize] = if plan.pinned { &plan.generator } else { &[] };
        let results: Vec<GeneratorResult> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .app_sites
                .iter()
                .enumerate()
                .map(|(g, &site)| {
                    let job = GeneratorJob {
                        cluster: &cluster,
                        control: &control,
                        site,
                        first_app: g as u32 * APPS_PER_SITE,
                        cfg: &cfg,
                        owners: &self.owners,
                        spec: &self.spec,
                        seed,
                        cpus: generator_cpus,
                        epoch: trace.then_some(epoch),
                    };
                    scope.spawn(move || job.run())
                })
                .collect();

            let broken = || control.broken.load(Ordering::SeqCst);
            while control.commits.load(Ordering::SeqCst) < warmup_commits
                && !broken()
                && setup_started.elapsed() < WARMUP_DEADLINE
            {
                std::thread::sleep(Duration::from_millis(2));
            }
            out.setup_s.push(setup_started.elapsed().as_secs_f64());
            if control.commits.load(Ordering::SeqCst) < warmup_commits {
                control.broken.store(true, Ordering::SeqCst);
            }

            if let Some(window) = window.filter(|_| !broken()) {
                let before = cluster.total_stats();
                let cpu_before = process_cpu_s();
                let from_ns = epoch.ns();
                let started = Instant::now();
                control.phase.store(MEASURE, Ordering::SeqCst);
                // This thread shares the cluster's CPUs: wake rarely.
                while started.elapsed() < window && !broken() {
                    let left = window.saturating_sub(started.elapsed());
                    std::thread::sleep(left.min(Duration::from_millis(50)));
                }
                control.phase.store(DRAIN, Ordering::SeqCst);
                out.window_s = started.elapsed().as_secs_f64();
                out.window_ns = (from_ns, epoch.ns());
                out.cpu_s = process_cpu_s() - cpu_before;
                out.counters = Counts::between(&before, &cluster.total_stats());
            }
            control.phase.store(DRAIN, Ordering::SeqCst);
            handles
                .into_iter()
                .map(|h| h.join().expect("generator thread panicked"))
                .collect()
        });

        let mut ledger = Ledger::default();
        for r in results {
            ledger.merge(r.ledger);
            out.op_ns.extend(r.op_ns);
            out.commit_ns.extend(r.commit_ns);
            out.txn_ns.extend(r.txn_ns);
            out.commits += r.commits;
            out.aborts += r.aborts;
            out.ops_attempted += r.ops_attempted;
            out.ops_failed += r.ops_failed;
            if out.window_s > 0.0 {
                out.generator_busy_frac = out.generator_busy_frac.max(r.cpu_s / out.window_s);
            }
            out.traces.push(r.trace);
        }
        out.op_ns.sort_unstable();
        out.commit_ns.sort_unstable();
        out.txn_ns.sort_unstable();
        if control.broken.load(Ordering::SeqCst) {
            // At least one failure is on record even if every generator
            // was merely slow (warm-up deadline).
            out.ops_attempted = out.ops_attempted.max(1);
            out.ops_failed = out.ops_failed.max(1);
        } else if window.is_some() {
            let expected = ledger.to_verify(ledger_cap, seed);
            out.ledger = verify_ledger(&cluster, self.app_sites[0], ledger.len(), &expected);
            let bad = (out.ledger.mismatches + out.ledger.read_failures) as u64;
            out.ops_attempted += expected.len() as u64;
            out.ops_failed += bad;
        }
        // Site threads hand their spans over as they exit.
        cluster.shutdown();
        if let Ok(mut sink) = sink.lock() {
            out.traces.append(&mut sink);
        }
        out
    }
}

/// Defines [`Counts`] over one list of `Counters` fields, so that the
/// struct and the difference cannot drift apart.
macro_rules! counts {
    ($($field:ident),*) => {
        /// The engine counters the per-layer metrics are made of, as the
        /// difference of two `total_stats()` snapshots.
        #[derive(Debug, Default, Clone, Copy)]
        pub struct Counts {
            $(pub $field: u64),*
        }

        impl Counts {
            /// `after − before`. Every field is a monotone count.
            pub fn between(before: &Counters, after: &Counters) -> Self {
                Counts { $($field: after.$field.saturating_sub(before.$field)),* }
            }
        }
    };
}

counts!(
    commits,
    aborts,
    msgs_sent,
    write_requests,
    callbacks_sent,
    adaptive_hits,
    deescalations,
    pages_shipped,
    cache_hits,
    cache_misses,
    lock_waits,
    busy_retries
);
