//! The discrete-event simulator: per-site CPUs with FCFS task queues,
//! per-site data and log disks, a fixed-latency network, and the
//! application drivers — all wired to real [`PeerServer`] engines.

use crate::cost::CostModel;
use crate::driver::{AppDriver, DriverAction};
use pscc_common::{AppId, Counters, SimDuration, SimTime, SiteId, SystemConfig};
use pscc_core::{
    AppReply, DiskOp, DiskReqId, Input, Message, Output, OwnerMap, PeerServer, TimerId,
};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

#[derive(Debug)]
enum Event {
    /// A CPU finished its current task.
    CpuDone { site: usize, after: Option<AppId> },
    /// A message arrives at `site`.
    Deliver {
        site: usize,
        from: SiteId,
        msg: Message,
    },
    /// A disk request completed.
    DiskDone { site: usize, req: DiskReqId },
    /// A timer fired.
    Timer { site: usize, timer: TimerId },
}

struct HeapItem {
    at: SimTime,
    seq: u64,
    event: Event,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap by (time, seq).
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

#[derive(Debug)]
enum Task {
    Input(Input),
    Think(AppId),
}

#[derive(Debug, Default)]
struct Cpu {
    busy: bool,
    queue: VecDeque<Task>,
}

#[derive(Debug, Default)]
struct Disk {
    busy_until: SimTime,
}

/// Results of a simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Committed transactions per second over the measurement window.
    pub throughput: f64,
    /// Commits inside the window.
    pub commits: u64,
    /// Aborted attempts inside the window.
    pub aborts: u64,
    /// Virtual measurement window length (seconds).
    pub window_secs: f64,
    /// Engine counters summed over all sites (whole run).
    pub counters: Counters,
}

/// A complete simulated system.
pub struct Simulation {
    cost: CostModel,
    sites: Vec<PeerServer>,
    apps: Vec<AppDriver>,
    cpus: Vec<Cpu>,
    data_disks: Vec<Disk>,
    log_disks: Vec<Disk>,
    now: SimTime,
    seq: u64,
    events: BinaryHeap<HeapItem>,
    /// A task's effects, staged until it ends (DESIGN.md §12 "One driver").
    outputs: Vec<Output>,
}

impl Simulation {
    /// Builds a system of `n_sites` peer servers with the given drivers.
    /// Each driver's `site` indexes into the site vector.
    ///
    /// # Panics
    ///
    /// Panics if [`SystemConfig::validate`] rejects the configuration.
    pub fn new(
        cfg: SystemConfig,
        owners: OwnerMap,
        n_sites: u32,
        apps: Vec<AppDriver>,
        cost: CostModel,
    ) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid SystemConfig: {e}");
        }
        let sites: Vec<PeerServer> = (0..n_sites)
            .map(|i| PeerServer::new(SiteId(i), cfg.clone(), owners.clone()))
            .collect();
        let cpus = (0..n_sites).map(|_| Cpu::default()).collect();
        let data_disks = (0..n_sites).map(|_| Disk::default()).collect();
        let log_disks = (0..n_sites).map(|_| Disk::default()).collect();
        Simulation {
            cost,
            sites,
            apps,
            cpus,
            data_disks,
            log_disks,
            now: SimTime::ZERO,
            seq: 0,
            events: BinaryHeap::new(),
            outputs: Vec::new(),
        }
    }

    fn schedule(&mut self, at: SimTime, event: Event) {
        self.seq += 1;
        self.events.push(HeapItem {
            at,
            seq: self.seq,
            event,
        });
    }

    fn push_task(&mut self, site: usize, task: Task) {
        self.cpus[site].queue.push_back(task);
        if !self.cpus[site].busy {
            self.run_next_task(site);
        }
    }

    /// Pops and executes the next task on `site`'s CPU; schedules the
    /// CpuDone.
    fn run_next_task(&mut self, site: usize) {
        let Some(task) = self.cpus[site].queue.pop_front() else {
            self.cpus[site].busy = false;
            return;
        };
        self.cpus[site].busy = true;
        match task {
            Task::Input(input) => {
                let mut cost = self.cost.handle_cpu;
                if let Input::Msg { msg, .. } = &input {
                    cost += self.cost.msg_cpu(msg); // receive side
                }
                let mut outputs = std::mem::take(&mut self.outputs);
                self.sites[site].drive(self.now, input, &mut outputs);
                // Send costs extend this task; effects take place at end.
                let mut send_cost = SimDuration::ZERO;
                for o in &outputs {
                    if let Output::Send { msg, .. } = o {
                        send_cost += self.cost.msg_cpu(msg);
                    }
                }
                let end = self.now + cost + send_cost;
                self.apply_outputs(site, &mut outputs, end);
                self.outputs = outputs;
                self.schedule(end, Event::CpuDone { site, after: None });
            }
            Task::Think(app) => {
                let end = self.now + self.cost.per_obj_proc;
                self.schedule(
                    end,
                    Event::CpuDone {
                        site,
                        after: Some(app),
                    },
                );
            }
        }
    }

    fn apply_outputs(&mut self, site: usize, outputs: &mut Vec<Output>, end: SimTime) {
        for o in outputs.drain(..) {
            match o {
                Output::Send { to, msg } => {
                    let at = end + self.cost.msg_latency;
                    self.schedule(
                        at,
                        Event::Deliver {
                            site: to.0 as usize,
                            from: SiteId(site as u32),
                            msg,
                        },
                    );
                }
                Output::Disk { req, op } => {
                    let (disk, service) = match op {
                        DiskOp::WriteLog => (&mut self.log_disks[site], self.cost.log_io),
                        _ => (&mut self.data_disks[site], self.cost.disk_io),
                    };
                    let start = disk.busy_until.max(end);
                    disk.busy_until = start + service;
                    let done_at = disk.busy_until;
                    self.schedule(done_at, Event::DiskDone { site, req });
                }
                Output::ArmTimer { timer, delay } => {
                    self.schedule(end + delay, Event::Timer { site, timer });
                }
                Output::App(reply) => self.route_reply(site, reply),
            }
        }
    }

    fn route_reply(&mut self, site: usize, reply: AppReply) {
        let app_idx = reply.app().0 as usize;
        let action = self.apps[app_idx].on_reply(&reply);
        self.run_action(site, app_idx, action);
    }

    fn run_action(&mut self, site: usize, app_idx: usize, action: DriverAction) {
        match action {
            DriverAction::Submit(req) => {
                self.push_task(site, Task::Input(Input::App(req)));
            }
            DriverAction::Think => {
                let app = self.apps[app_idx].app;
                self.push_task(site, Task::Think(app));
            }
            DriverAction::Idle => {}
        }
    }

    /// Runs the simulation: `warmup` of settling, then a measurement
    /// window until `end`. Returns the report.
    pub fn run(&mut self, warmup: SimDuration, end: SimDuration) -> SimReport {
        // Kick off every application.
        for i in 0..self.apps.len() {
            let site = self.apps[i].site.0 as usize;
            let action = self.apps[i].start();
            self.run_action(site, i, action);
        }
        let warmup_at = SimTime::ZERO + warmup;
        let end_at = SimTime::ZERO + end;
        let mut commits_at_warmup = vec![0u64; self.apps.len()];
        let mut aborts_at_warmup = vec![0u64; self.apps.len()];
        let mut snapped = false;

        while let Some(item) = self.events.pop() {
            if item.at > end_at {
                break;
            }
            self.now = item.at;
            if !snapped && self.now >= warmup_at {
                for (i, a) in self.apps.iter().enumerate() {
                    commits_at_warmup[i] = a.commits;
                    aborts_at_warmup[i] = a.aborts;
                }
                snapped = true;
            }
            match item.event {
                Event::CpuDone { site, after } => {
                    if let Some(app) = after {
                        let idx = app.0 as usize;
                        let action = self.apps[idx].after_think();
                        self.run_action(site, idx, action);
                    }
                    self.run_next_task(site);
                }
                Event::Deliver { site, from, msg } => {
                    self.push_task(site, Task::Input(Input::Msg { from, msg }));
                }
                Event::DiskDone { site, req } => {
                    self.push_task(site, Task::Input(Input::DiskDone { req }));
                }
                Event::Timer { site, timer } => {
                    self.push_task(site, Task::Input(Input::TimerFired { timer }));
                }
            }
        }
        if !snapped {
            for (i, a) in self.apps.iter().enumerate() {
                commits_at_warmup[i] = a.commits;
                aborts_at_warmup[i] = a.aborts;
            }
        }
        let commits: u64 = self
            .apps
            .iter()
            .enumerate()
            .map(|(i, a)| a.commits - commits_at_warmup[i])
            .sum();
        let aborts: u64 = self
            .apps
            .iter()
            .enumerate()
            .map(|(i, a)| a.aborts - aborts_at_warmup[i])
            .sum();
        let window_secs = (end.saturating_sub(warmup)).as_secs_f64().max(1e-9);
        SimReport {
            throughput: commits as f64 / window_secs,
            commits,
            aborts,
            window_secs,
            counters: Counters::total(self.sites.iter().map(|s| s.stats)),
        }
    }

    /// Turns protocol event tracing on at every site (a bounded ring of
    /// `cap` events each). Call before [`Simulation::run`]; afterwards
    /// [`Simulation::merged_trace`] yields the chronological multi-site
    /// postmortem.
    pub fn enable_trace(&mut self, cap: usize) {
        for s in &mut self.sites {
            s.enable_trace(cap);
        }
    }

    /// The per-site event rings merged into one chronological trace
    /// (empty unless [`Simulation::enable_trace`] was called).
    pub fn merged_trace(&self) -> Vec<pscc_obs::TraceEvent> {
        pscc_obs::event::merge_traces(
            self.sites
                .iter()
                .filter_map(|s| s.obs.trace_handle())
                .map(|h| h.snapshot())
                .collect(),
        )
    }

    /// The merged trace rendered as a line-per-event dump (§4.2.4
    /// postmortems).
    pub fn trace_dump(&self) -> String {
        pscc_obs::event::render_dump(&self.merged_trace())
    }

    /// A metrics snapshot of the whole system: every engine counter,
    /// the latency histograms merged across sites (including restart
    /// `recovery_time`), gauges for the adaptive lock-wait timeout
    /// estimators (§5.5), per-site log-durability gauges (durable
    /// LSN, checkpoint age, server epoch), and per-site admission
    /// queue-depth gauges (current and peak, DESIGN.md §6).
    pub fn metrics(&self) -> pscc_obs::MetricsRegistry {
        let mut reg = pscc_obs::MetricsRegistry::new();
        reg.counters_struct(&Counters::total(self.sites.iter().map(|s| s.stats)));
        for s in &self.sites {
            reg.histogram("lock_wait", &s.obs.lock_wait);
            reg.histogram("callback_rtt", &s.obs.callback_rtt);
            reg.histogram("fetch_rtt", &s.obs.fetch_rtt);
            reg.histogram("commit_latency", &s.obs.commit_latency);
            reg.histogram("txn_latency", &s.obs.txn_latency);
            reg.histogram("recovery_time", &s.obs.recovery_time);
            reg.histogram("migration_pause", &s.obs.migration_pause);
            reg.histogram("edge_staleness", &s.obs.edge_staleness);
            for stage in pscc_common::Stage::ALL {
                reg.histogram(&format!("stage_{stage}"), s.obs.stage_hist(stage));
            }
        }
        reg.gauge("sites", self.sites.len() as f64);
        // Trace-ring fidelity: events evicted across all rings (0 means
        // merged traces and audits see the complete history).
        reg.counter(
            "trace_events_dropped",
            self.sites
                .iter()
                .filter_map(|s| s.obs.trace_handle())
                .map(pscc_obs::event::TraceHandle::dropped)
                .sum(),
        );
        for s in &self.sites {
            let id = s.site().0;
            reg.gauge(&format!("durable_lsn_site{id}"), s.durable_lsn() as f64);
            reg.gauge(
                &format!("checkpoint_age_site{id}"),
                s.checkpoint_age() as f64,
            );
            reg.gauge(&format!("epoch_site{id}"), s.epoch() as f64);
            reg.gauge(&format!("queue_depth_site{id}"), s.queue_depth() as f64);
            reg.gauge(
                &format!("queue_depth_peak_site{id}"),
                s.queue_depth_peak() as f64,
            );
            // Occupancy of the bounded dead-transaction tombstone filter
            // (overload protection; capped at DEAD_TXN_MEMORY).
            reg.gauge(&format!("dead_txns_site{id}"), s.dead_txn_count() as f64);
        }
        let mut current_sum = 0.0;
        for s in &self.sites {
            let t = s.timeout_snapshot();
            let id = s.site().0;
            reg.gauge(&format!("timeout_samples_site{id}"), t.samples as f64);
            reg.gauge(&format!("timeout_mean_micros_site{id}"), t.mean_micros);
            reg.gauge(&format!("timeout_stddev_micros_site{id}"), t.stddev_micros);
            reg.gauge(
                &format!("timeout_current_micros_site{id}"),
                t.current_timeout_micros as f64,
            );
            current_sum += t.current_timeout_micros as f64;
        }
        reg.gauge(
            "timeout_current_micros_mean",
            current_sum / self.sites.len().max(1) as f64,
        );
        reg
    }

    /// Access to the peer servers (inspection after a run).
    pub fn sites(&self) -> &[PeerServer] {
        &self.sites
    }

    /// Access to the applications (inspection after a run).
    pub fn apps(&self) -> &[AppDriver] {
        &self.apps
    }
}
