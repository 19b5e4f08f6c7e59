//! Randomized whole-system stress: *concurrently interleaved*
//! transactions from several sites hammer a small object set under
//! seeded, adversarial message delivery; the suite asserts
//!
//! * **no lost updates** — every object's final version equals the
//!   number of committed writes to it,
//! * **progress** — every scripted transaction eventually commits
//!   (aborted attempts are re-executed, as the paper's applications do),
//! * **quiescence** — when the dust settles, no site holds any lock,
//!   callback, continuation, or transaction state,
//! * **invariants** — the auditor finds nothing in the merged trace of
//!   every site (DESIGN.md §9).
//!
//! Runs across all three protocols, client-server and peer-servers
//! configurations, tiny caches, and several seeds, each perturbed by
//! `CHAOS_SEED` so CI can sweep schedules:
//! `CHAOS_SEED=2 cargo test -p pscc-core --test stress`.

use pscc_common::hash::HashMap;
use pscc_common::{AppId, FileId, Oid, PageId, Protocol, SiteId, SystemConfig, VolId};
use pscc_core::{AppOp, AppReply, OwnerMap};
use pscc_sim::testkit::version_of;
use pscc_sim::Simulation;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    NeedBegin,
    Read(usize),
    Write(usize),
    /// Voluntarily abort instead of committing (chaos mode), then run
    /// the script once more to completion.
    SelfAbort,
    Commit,
    Done,
}

#[derive(Debug)]
struct Runner {
    site: SiteId,
    app: AppId,
    accesses: Vec<(Oid, bool)>,
    /// Abort voluntarily the first `chaos_aborts` attempts (their writes
    /// must leave no trace).
    chaos_aborts: u32,
    phase: Phase,
    txn: Option<pscc_common::TxnId>,
    waiting: bool,
    aborts: u64,
    /// Driver turns to skip before retrying after an abort (randomized
    /// backoff so two victims do not re-collide forever).
    cooldown: u32,
}

impl Runner {
    fn next_op(&mut self) -> Option<AppOp> {
        match self.phase {
            Phase::NeedBegin => Some(AppOp::Begin),
            Phase::Read(i) => Some(AppOp::Read(self.accesses[i].0)),
            Phase::Write(i) => Some(AppOp::Write {
                oid: self.accesses[i].0,
                bytes: None,
            }),
            Phase::SelfAbort => Some(AppOp::Abort),
            Phase::Commit => Some(AppOp::Commit),
            Phase::Done => None,
        }
    }

    fn advance(&mut self) {
        self.phase = match self.phase {
            Phase::Read(i) if self.accesses[i].1 => Phase::Write(i),
            Phase::Read(i) | Phase::Write(i) => {
                if i + 1 < self.accesses.len() {
                    Phase::Read(i + 1)
                } else if self.chaos_aborts > 0 {
                    self.chaos_aborts -= 1;
                    Phase::SelfAbort
                } else {
                    Phase::Commit
                }
            }
            p => p,
        };
    }

    fn reset(&mut self, cooldown: u32) {
        self.phase = Phase::NeedBegin;
        self.txn = None;
        self.waiting = false;
        self.aborts += 1;
        self.cooldown = cooldown;
    }
}

/// `base` perturbed by `CHAOS_SEED` from the environment (0 when unset),
/// as in the chaos suites. Every assertion is seed-independent; only the
/// interleaving varies.
fn seed(base: u64) -> u64 {
    let sweep = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0);
    base ^ sweep.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

#[allow(clippy::too_many_arguments)]
fn run_stress(
    protocol: Protocol,
    owners: OwnerMap,
    n_sites: u32,
    seed: u64,
    n_runners: usize,
    accesses_per_txn: usize,
    client_buf_frac: f64,
) {
    run_stress_chaos(
        protocol,
        owners,
        n_sites,
        seed,
        n_runners,
        accesses_per_txn,
        client_buf_frac,
        0,
    )
}

#[allow(clippy::too_many_arguments)]
fn run_stress_chaos(
    protocol: Protocol,
    owners: OwnerMap,
    n_sites: u32,
    seed: u64,
    n_runners: usize,
    accesses_per_txn: usize,
    client_buf_frac: f64,
    chaos_aborts: u32,
) {
    let seed = self::seed(seed);
    let cfg = SystemConfig {
        protocol,
        client_buf_frac,
        ..SystemConfig::small()
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
    let owner_of = |page: u32| match &owners {
        OwnerMap::Single(s) => *s,
        OwnerMap::Ranges(rs) => rs
            .iter()
            .find(|(lo, hi, _)| (*lo..*hi).contains(&page))
            .map(|(_, _, s)| *s)
            .unwrap(),
    };
    // A small hot set of pages/objects to force conflicts; pages spread
    // across ownership ranges.
    let hot_pages: Vec<u32> = (0..4u32).map(|i| i * 111).collect();
    let mut runners: Vec<Runner> = (0..n_runners)
        .map(|i| {
            let site = SiteId(i as u32 % n_sites);
            let accesses: Vec<(Oid, bool)> = (0..accesses_per_txn)
                .map(|_| {
                    let page = hot_pages[rng.gen_range(0..hot_pages.len())];
                    let slot = rng.gen_range(0..4u16);
                    let oid = Oid::new(
                        PageId::new(FileId::new(VolId(owner_of(page).0), 0), page),
                        slot,
                    );
                    (oid, rng.gen_bool(0.5))
                })
                .collect();
            Runner {
                site,
                app: AppId(i as u32),
                accesses,
                chaos_aborts,
                phase: Phase::NeedBegin,
                txn: None,
                waiting: false,
                aborts: 0,
                cooldown: 0,
            }
        })
        .collect();

    let mut c = Simulation::seeded(n_sites, cfg, owners.clone(), seed);
    let mut expected: HashMap<Oid, u64> = HashMap::default();

    let mut iterations = 0usize;
    loop {
        iterations += 1;
        if iterations >= 300_000 {
            for s in &c.sites {
                eprintln!("{}", s.debug_summary());
                eprint!("{}", s.debug_txns());
            }
            for r in &runners {
                eprintln!(
                    "runner app{} site{} phase={:?} waiting={} aborts={} txn={:?}",
                    r.app.0, r.site.0, r.phase, r.waiting, r.aborts, r.txn
                );
            }
            eprintln!("net in flight: {}", c.in_flight());
            panic!("stress driver livelocked (seed {seed})");
        }
        let mut all_done = true;
        for r in runners.iter_mut() {
            if r.phase == Phase::Done {
                continue;
            }
            all_done = false;
            if r.cooldown > 0 {
                r.cooldown -= 1;
                continue;
            }
            if !r.waiting {
                if let Some(op) = r.next_op() {
                    c.submit(r.site, r.app, r.txn, op);
                    r.waiting = true;
                }
            }
        }
        if all_done {
            break;
        }
        // Deliver a random burst of events (messages, disks, or timers).
        let burst = rng.gen_range(1..8);
        for _ in 0..burst {
            if !c.step() {
                break;
            }
        }
        // Route replies back to their runners.
        for (_site, reply) in c.take_replies() {
            let app = reply.app();
            let r = runners
                .iter_mut()
                .find(|r| r.app == app)
                .expect("reply for unknown app");
            match reply {
                AppReply::Started { txn, .. } => {
                    r.txn = Some(txn);
                    r.phase = Phase::Read(0);
                    r.waiting = false;
                }
                AppReply::Done { .. } => {
                    r.advance();
                    r.waiting = false;
                }
                AppReply::Committed { .. } => {
                    for (oid, w) in &r.accesses {
                        if *w {
                            *expected.entry(*oid).or_insert(0) += 1;
                        }
                    }
                    r.phase = Phase::Done;
                    r.waiting = false;
                }
                AppReply::Aborted { .. } => {
                    let backoff = 1 + (r.aborts.min(6) as u32) * 8;
                    r.reset(backoff);
                }
            }
        }
    }

    // Drain all in-flight traffic and stale timers.
    c.pump_with_timers();

    // No lost updates.
    for (oid, count) in &expected {
        let owner = owner_of(oid.page.page);
        let bytes = c.sites[owner.0 as usize]
            .volume()
            .read_object(*oid)
            .unwrap_or_else(|| panic!("{oid} missing at owner"));
        assert_eq!(
            version_of(bytes),
            *count,
            "{protocol}: {oid} lost updates (seed {seed})"
        );
    }
    // Full quiescence at every site, and a clean audit.
    c.assert_survivors_quiescent();
}

fn cs() -> OwnerMap {
    OwnerMap::Single(SiteId(0))
}

fn peers() -> OwnerMap {
    OwnerMap::Ranges(vec![
        (0, 150, SiteId(0)),
        (150, 300, SiteId(1)),
        (300, 450, SiteId(2)),
    ])
}

#[test]
fn stress_client_server_ps_aa() {
    for seed in [1, 2, 3, 4] {
        run_stress(Protocol::PsAa, cs(), 4, seed, 8, 4, 0.25);
    }
}

#[test]
fn stress_client_server_ps_oa() {
    for seed in [5, 6, 7] {
        run_stress(Protocol::PsOa, cs(), 4, seed, 8, 4, 0.25);
    }
}

#[test]
fn stress_client_server_ps() {
    for seed in [8, 9, 10] {
        run_stress(Protocol::Ps, cs(), 4, seed, 8, 4, 0.25);
    }
}

#[test]
fn stress_peer_servers_ps_aa() {
    for seed in [11, 12, 13, 14] {
        run_stress(Protocol::PsAa, peers(), 3, seed, 6, 4, 0.25);
    }
}

#[test]
fn stress_peer_servers_ps_oa() {
    for seed in [15, 16] {
        run_stress(Protocol::PsOa, peers(), 3, seed, 6, 4, 0.25);
    }
}

#[test]
fn stress_peer_servers_ps() {
    for seed in [17, 18] {
        run_stress(Protocol::Ps, peers(), 3, seed, 6, 4, 0.25);
    }
}

#[test]
fn stress_tiny_cache_eviction_storm() {
    for seed in [19, 20, 21] {
        run_stress(Protocol::PsAa, cs(), 3, seed, 6, 6, 0.005);
    }
}

#[test]
fn stress_tiny_cache_peers() {
    for seed in [22, 23] {
        run_stress(Protocol::PsAa, peers(), 3, seed, 6, 6, 0.005);
    }
}

#[test]
fn stress_long_transactions() {
    for seed in [24, 25] {
        run_stress(Protocol::PsAa, cs(), 4, seed, 6, 12, 0.25);
    }
}

#[test]
fn stress_wide_seed_sweep() {
    // A broad sweep over seeds and mixed shapes — cheap per run, so we
    // afford many.
    for seed in 100..140 {
        let proto = match seed % 3 {
            0 => Protocol::PsAa,
            1 => Protocol::PsOa,
            _ => Protocol::Ps,
        };
        let owners = if seed % 2 == 0 { cs() } else { peers() };
        let sites = if seed % 2 == 0 { 4 } else { 3 };
        run_stress(proto, owners, sites, seed, 6, 5, 0.25);
    }
}

#[test]
fn stress_chaos_voluntary_aborts() {
    // Every runner aborts its first two fully executed attempts before
    // letting the third commit: none of the aborted writes may survive.
    for seed in [30, 31, 32] {
        run_stress_chaos(Protocol::PsAa, cs(), 4, seed, 6, 4, 0.25, 2);
    }
}

#[test]
fn stress_chaos_peers_tiny_cache() {
    for seed in [33, 34] {
        run_stress_chaos(Protocol::PsAa, peers(), 3, seed, 6, 5, 0.005, 1);
    }
}
