//! Zero-downtime rolling restart, end to end (DESIGN.md §8).
//!
//! Two owners partition a database; two clients commit update
//! transactions against them in a closed loop. A declarative
//! [`ClusterManifest`] asks for every owner to be restarted into a
//! higher epoch, at most one site unavailable at a time, and the
//! reconciler walks the plan (Drain → Stop → Restart → Undrain) while
//! the traffic keeps flowing.
//!
//! ```text
//! cargo run -p pscc-sim --example rolling_restart [seed]
//! ```

use pscc_common::{AppId, FileId, Oid, PageId, Protocol, SimDuration, SiteId, SystemConfig, VolId};
use pscc_control::{ClusterManifest, ControlStatus, SitePhase};
use pscc_core::{AppOp, AppReply, OwnerMap};
use pscc_obs::event::EventKind;
use pscc_obs::AvailabilityTimeline;
use pscc_sim::testkit::version_of;
use pscc_sim::Simulation;

const OWNER_A: SiteId = SiteId(0);
const OWNER_B: SiteId = SiteId(1);
const APP: AppId = AppId(0);

/// An object on a page owned by `site` under the partitioned map (each
/// owner stores its partition under its own volume id).
fn oid_owned_by(site: u32, page: u32, slot: u16) -> Oid {
    Oid::new(PageId::new(FileId::new(VolId(site), 0), page), slot)
}

/// One closed-loop commit attempt at `site`, tolerating the aborts of
/// drain windows and fencing after a restart. Returns whether the
/// update committed.
fn try_commit_once(
    c: &mut Simulation,
    site: SiteId,
    oid: Oid,
    tl: &mut AvailabilityTimeline,
) -> bool {
    let t = c.begin(site, APP);
    c.submit(site, APP, Some(t), AppOp::Write { oid, bytes: None });
    c.pump_for(SimDuration::from_millis(50));
    if matches!(c.find_reply(site, t), Some(AppReply::Done { .. })) {
        tl.record_attempt(c.now());
        c.submit(site, APP, Some(t), AppOp::Commit);
        c.pump_for(SimDuration::from_millis(50));
        if matches!(c.find_reply(site, t), Some(AppReply::Committed { .. })) {
            tl.record_commit(c.now());
            return true;
        }
    }
    c.submit(site, APP, Some(t), AppOp::Abort);
    c.pump_for(SimDuration::from_millis(50));
    let _ = c.find_reply(site, t);
    false
}

fn main() {
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(42u64);

    // Failure-detection knobs tightened so the demo converges in a few
    // virtual seconds.
    let mut cfg = SystemConfig::small();
    cfg.protocol = Protocol::PsAa;
    cfg.leases_enabled = true;
    cfg.heartbeat_interval = SimDuration::from_millis(20);
    cfg.lease_duration = SimDuration::from_millis(100);
    cfg.callback_response_timeout = SimDuration::from_millis(200);

    let owners = OwnerMap::Ranges(vec![(0, 225, OWNER_A), (225, 450, OWNER_B)]);
    let mut c = Simulation::seeded(4, cfg, owners, seed);
    let traces = [
        c.sites[OWNER_A.0 as usize].enable_trace(8192),
        c.sites[OWNER_B.0 as usize].enable_trace(8192),
    ];

    let clients = [
        (SiteId(2), oid_owned_by(0, 10, 1)),
        (SiteId(3), oid_owned_by(1, 300, 1)),
    ];
    let mut commits = [0u64, 0u64];
    let mut tl = AvailabilityTimeline::new(c.now(), SimDuration::from_millis(500));

    println!("== rolling restart demo (PS-AA, seed {seed}) ==");

    // Warm-up: both partitions commit before the roll starts.
    for (i, &(site, oid)) in clients.iter().enumerate() {
        while commits[i] < 3 {
            commits[i] += u64::from(try_commit_once(&mut c, site, oid, &mut tl));
        }
    }
    println!("warm-up: both partitions committing (3 each)");

    // Declare the goal: every owner restarted into a higher epoch.
    let view = c.observe();
    let before: Vec<(SiteId, u64)> = [OWNER_A, OWNER_B]
        .iter()
        .map(|&s| (s, view.get(s).expect("owner observed").epoch))
        .collect();
    let manifest = ClusterManifest::rolling_restart(&before, 1, SimDuration::from_secs(2));
    c.apply_manifest(manifest).expect("manifest validates");
    println!(
        "manifest applied: restart owners {:?} (max_unavailable 1, step timeout 2s)",
        before
            .iter()
            .map(|(s, e)| format!("{s}@epoch{e}"))
            .collect::<Vec<_>>()
    );

    // Reconcile, with live traffic interleaved between ticks.
    let roll_started = c.now();
    loop {
        match c.converge_step() {
            ControlStatus::Converged => break,
            ControlStatus::Aborted { site, step } => {
                eprintln!("roll aborted at {site} during {step:?}");
                std::process::exit(1);
            }
            ControlStatus::InProgress => {
                assert!(
                    c.now().since(roll_started) < SimDuration::from_secs(30),
                    "roll did not converge"
                );
            }
        }
        for (i, &(site, oid)) in clients.iter().enumerate() {
            commits[i] += u64::from(try_commit_once(&mut c, site, oid, &mut tl));
        }
    }
    println!("converged in {} (virtual)", c.now().since(roll_started));

    // Cool-down: both partitions commit against the restarted owners.
    for (i, &(site, oid)) in clients.iter().enumerate() {
        let target = commits[i] + 2;
        while commits[i] < target {
            commits[i] += u64::from(try_commit_once(&mut c, site, oid, &mut tl));
        }
    }

    // The receipts: epochs advanced, no committed work lost, commit
    // availability never hit zero for a whole window.
    let after = c.observe();
    for (site, was) in &before {
        let o = after.get(*site).expect("owner observed");
        assert_eq!(o.phase, SitePhase::Active);
        println!("  {site}: epoch {was} -> {} ({:?})", o.epoch, o.phase);
    }
    for (i, &(site, oid)) in clients.iter().enumerate() {
        let owner = if oid.page.page < 225 {
            OWNER_A
        } else {
            OWNER_B
        };
        let bytes = c.sites[owner.0 as usize]
            .volume()
            .read_object(oid)
            .expect("object durable after the roll");
        assert_eq!(version_of(bytes), commits[i], "committed updates lost");
        println!(
            "  client {site}: {} commits, durable version matches (zero lost work)",
            commits[i]
        );
    }
    let floor = tl.min_commits_per_window().expect("spans multiple windows");
    println!("  commit availability floor: {floor} commits/window (never zero)");
    println!("{}", tl.render());

    // The control-plane lifecycle, as the owners' traces recorded it.
    println!("control-plane events:");
    for t in &traces {
        for e in t.snapshot() {
            match e.kind {
                EventKind::DrainBegin { .. }
                | EventKind::DrainDone { .. }
                | EventKind::ConvergeStep { .. }
                | EventKind::ConvergeDone { .. }
                | EventKind::Recovered { .. } => println!("  {e}"),
                _ => {}
            }
        }
    }
    assert!(floor >= 1, "availability floor violated");
    println!("ok");
}
