//! The glidein lifecycle state machine.
//!
//! Request states mirror what a Condor glidein job goes through on the OSG:
//!
//! ```text
//! Queued --match--> WaitingBatch --granted--> Downloading --done--> Running
//!    ^                  |  (site outage)          |                   |
//!    |                  v                         v                   v
//!    +---- Resubmit <-- requeue <-----------------+------- Preempt ---+
//! ```
//!
//! `OnExitRemove = FALSE` in the paper's submit file means a preempted
//! glidein job goes back into the queue and is re-matched — the pool heals
//! itself at the cost of acquisition + download + configuration latency,
//! which is exactly the overhead the paper blames for the non-monotonic
//! response times in Figure 4.

use crate::config::{GridParams, SiteConfig};
use crate::{Deferred, GridEvent, GridNote, RequestId};
use hog_net::{NodeId, SiteId, Topology};
use hog_obs::{Layer, TraceEvent, Tracer};
use hog_sim_core::metrics::StepSeries;
use hog_sim_core::units::transfer_secs;
use hog_sim_core::{SimDuration, SimRng, SimTime};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Why a running worker disappeared.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LossReason {
    /// The site's batch system preempted the glidein.
    Preempted,
    /// The whole site went down.
    SiteOutage,
    /// The user shrank the pool.
    Removed,
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum RequestState {
    /// In the Condor queue, waiting for the negotiator.
    Queued,
    /// Matched to a site, waiting out the batch queue.
    WaitingBatch(SiteId),
    /// Slot granted; fetching + unpacking the worker package.
    Downloading(SiteId),
    /// Worker daemons running on this node.
    Running(NodeId),
    /// Waiting out the resubmission delay after a preemption.
    Resubmitting,
}

struct SiteState {
    config: SiteConfig,
    id: SiteId,
    up: bool,
    used_slots: usize,
}

/// Aggregated output of one grid interaction: events to schedule and
/// notifications for the upper layers.
#[derive(Debug, Default)]
pub struct GridOutput {
    /// Events the mediator must schedule (relative delays).
    pub defer: Vec<Deferred>,
    /// Notifications for HDFS / MapReduce wiring.
    pub notes: Vec<GridNote>,
}

impl GridOutput {
    fn merge(&mut self, other: GridOutput) {
        self.defer.extend(other.defer);
        self.notes.extend(other.notes);
    }
}

/// The grid resource layer. See the module docs for the lifecycle.
///
/// Request bookkeeping is a map of **live** requests only: cancelled
/// (terminal) entries are freed immediately, and the in-flight index
/// tracks requests that hold a site slot but are not yet running
/// (`WaitingBatch` / `Downloading`). Shrink and outage handling walk
/// those indexes instead of the full request history, so cost and
/// memory stay proportional to the live pool, not to the total number
/// of requests ever submitted.
pub struct GridModel {
    params: GridParams,
    sites: Vec<SiteState>,
    /// Live requests keyed by raw id. Terminal entries are removed.
    requests: BTreeMap<u64, RequestState>,
    /// Next request id to hand out (monotonic across the run).
    next_request: u64,
    /// Requests currently holding a site slot but not yet running.
    in_flight: BTreeSet<u64>,
    queued: VecDeque<RequestId>,
    nodes: BTreeMap<NodeId, RequestId>,
    rng: SimRng,
    running_series: StepSeries,
    preemptions: u64,
    outages: u64,
    node_starts: u64,
    tracer: Tracer,
}

impl LossReason {
    fn as_str(self) -> &'static str {
        match self {
            LossReason::Preempted => "preempted",
            LossReason::SiteOutage => "site_outage",
            LossReason::Removed => "removed",
        }
    }
}

impl GridModel {
    /// Build the grid, registering every **public-IP** site in `topo`.
    /// NATed sites are dropped here, mirroring the paper's requirements
    /// expression. Returns the model plus the initial site-outage events to
    /// schedule.
    pub fn new(
        params: GridParams,
        site_configs: Vec<SiteConfig>,
        topo: &mut Topology,
        mut rng: SimRng,
    ) -> (Self, Vec<Deferred>) {
        let mut sites = Vec::new();
        let mut defer = Vec::new();
        for cfg in site_configs {
            if !cfg.public_ip {
                continue; // Hadoop peers must be publicly reachable.
            }
            let id = topo.add_site(cfg.name.clone(), cfg.domain.clone());
            if let Some(mtbf) = &cfg.outage_mtbf {
                let first = mtbf.sample(&mut rng);
                defer.push((first, GridEvent::SiteOutage { site: id }));
            }
            sites.push(SiteState {
                config: cfg,
                id,
                up: true,
                used_slots: 0,
            });
        }
        (
            GridModel {
                params,
                sites,
                requests: BTreeMap::new(),
                next_request: 0,
                in_flight: BTreeSet::new(),
                queued: VecDeque::new(),
                nodes: BTreeMap::new(),
                rng,
                running_series: StepSeries::new(),
                preemptions: 0,
                outages: 0,
                node_starts: 0,
                tracer: Tracer::disabled(),
            },
            defer,
        )
    }

    /// Attach the shared trace handle (disabled by default).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    fn site_name(&self, site: SiteId) -> &str {
        &self.sites[self.site_idx(site)].config.name
    }

    /// Local index of a (grid-registered) site. Topology may hold other
    /// sites too (the central server's), so `SiteId` is not a direct
    /// index into `self.sites`.
    fn site_idx(&self, site: SiteId) -> usize {
        self.sites
            .iter()
            .position(|s| s.id == site)
            .expect("unknown grid site")
    }

    /// Queue `n` glidein requests (the paper's `queue 1000` line).
    pub fn submit_workers(&mut self, now: SimTime, n: usize) -> GridOutput {
        self.tracer
            .emit(|| TraceEvent::new(Layer::Grid, "glidein_submit").with("count", n));
        for _ in 0..n {
            let id = RequestId(self.next_request);
            self.next_request += 1;
            self.requests.insert(id.0, RequestState::Queued);
            self.queued.push_back(id);
        }
        self.try_match(now)
    }

    /// Shrink the pool by `n` workers: cancels queued/pending requests
    /// first, then kills the newest running nodes.
    pub fn remove_workers(&mut self, now: SimTime, n: usize, topo: &mut Topology) -> GridOutput {
        self.shrink(now, n, topo, None)
    }

    /// Shrink the pool by `n` workers, but only ever kill running nodes
    /// from `preferred` (in the given order). Queued and in-flight
    /// requests are still cancelled first — they are the cheapest to
    /// release. If `preferred` runs out before `n` workers are gone the
    /// pool shrinks by less than requested; the elastic controller uses
    /// this to guarantee it never kills a node holding the only live
    /// replica of a block.
    pub fn remove_workers_preferring(
        &mut self,
        now: SimTime,
        n: usize,
        topo: &mut Topology,
        preferred: &[NodeId],
    ) -> GridOutput {
        self.shrink(now, n, topo, Some(preferred))
    }

    fn shrink(
        &mut self,
        now: SimTime,
        n: usize,
        topo: &mut Topology,
        preferred: Option<&[NodeId]>,
    ) -> GridOutput {
        let mut out = GridOutput::default();
        let mut remaining = n;
        // Cancel queued requests (cheapest: nothing is running yet).
        while remaining > 0 {
            let Some(id) = self.queued.pop_back() else {
                break;
            };
            self.requests.remove(&id.0);
            remaining -= 1;
        }
        // Cancel in-flight (batch-waiting / downloading) requests,
        // newest first, via the in-flight index.
        while remaining > 0 {
            let Some(&rid) = self.in_flight.iter().next_back() else {
                break;
            };
            self.in_flight.remove(&rid);
            match self.requests.remove(&rid) {
                Some(RequestState::WaitingBatch(site)) | Some(RequestState::Downloading(site)) => {
                    let i = self.site_idx(site);
                    self.sites[i].used_slots -= 1;
                    remaining -= 1;
                }
                other => unreachable!("in-flight index out of sync: {other:?}"),
            }
        }
        // Kill running nodes: the caller's preference order if given,
        // otherwise newest first.
        let victims: Vec<NodeId> = match preferred {
            Some(order) => order
                .iter()
                .filter(|n| self.nodes.contains_key(n))
                .take(remaining)
                .copied()
                .collect(),
            None => self.nodes.keys().rev().take(remaining).copied().collect(),
        };
        for node in victims {
            out.merge(self.kill_node(now, node, LossReason::Removed, topo, false));
        }
        out
    }

    /// Feed one grid event back into the model.
    pub fn handle(&mut self, now: SimTime, ev: GridEvent, topo: &mut Topology) -> GridOutput {
        match ev {
            GridEvent::Provisioned { request } => self.on_provisioned(now, request),
            GridEvent::DownloadDone { request } => self.on_download_done(now, request, topo),
            GridEvent::Preempt { node } => {
                if self.nodes.contains_key(&node) {
                    self.preemptions += 1;
                    self.kill_node(now, node, LossReason::Preempted, topo, true)
                } else {
                    GridOutput::default() // stale: node already gone
                }
            }
            GridEvent::SiteOutage { site } => self.on_site_outage(now, site, topo),
            GridEvent::SiteRecover { site } => self.on_site_recover(now, site),
            GridEvent::Resubmit { request } => self.on_resubmit(now, request),
        }
    }

    /// Fault injection (hog-chaos): a correlated preemption burst. Kills
    /// up to `count` running glideins at `site` as if the batch system
    /// evicted them simultaneously, counting each as a preemption and
    /// resubmitting its Condor job. Victims are picked in node-id order so
    /// the burst is deterministic. Returns the deferred resubmissions and
    /// loss notes exactly like organic [`GridEvent::Preempt`] handling.
    pub fn inject_preemptions(
        &mut self,
        now: SimTime,
        site: SiteId,
        count: usize,
        topo: &mut Topology,
    ) -> GridOutput {
        let victims: Vec<NodeId> = self
            .nodes
            .keys()
            .copied()
            .filter(|&n| topo.site_of(n) == site)
            .take(count)
            .collect();
        let mut out = GridOutput::default();
        self.tracer.emit(|| {
            TraceEvent::new(Layer::Grid, "preempt_burst")
                .with("site", self.site_name(site))
                .with("victims", victims.len())
        });
        for node in victims {
            self.preemptions += 1;
            out.merge(self.kill_node(now, node, LossReason::Preempted, topo, true));
        }
        out
    }

    /// Negotiation cycle: match queued requests to up sites with free
    /// slots, weighting the choice by free-slot count.
    fn try_match(&mut self, _now: SimTime) -> GridOutput {
        let mut out = GridOutput::default();
        loop {
            let free: Vec<(usize, usize)> = self
                .sites
                .iter()
                .enumerate()
                .filter(|(_, s)| s.up && s.used_slots < s.config.max_slots)
                .map(|(i, s)| (i, s.config.max_slots - s.used_slots))
                .collect();
            if free.is_empty() || self.queued.is_empty() {
                return out;
            }
            let req = self.queued.pop_front().unwrap();
            if self.requests.get(&req.0) != Some(&RequestState::Queued) {
                continue; // cancelled while queued
            }
            // Weighted pick by free slots, deterministic under the run rng.
            let total: usize = free.iter().map(|&(_, f)| f).sum();
            let mut pick = self.rng.index(total);
            let mut site_idx = free[0].0;
            for &(i, f) in &free {
                if pick < f {
                    site_idx = i;
                    break;
                }
                pick -= f;
            }
            let site = &mut self.sites[site_idx];
            site.used_slots += 1;
            let sid = site.id;
            self.requests.insert(req.0, RequestState::WaitingBatch(sid));
            self.in_flight.insert(req.0);
            let delay = site.config.acquisition_delay.sample(&mut self.rng);
            out.defer
                .push((delay, GridEvent::Provisioned { request: req }));
        }
    }

    fn on_provisioned(&mut self, now: SimTime, request: RequestId) -> GridOutput {
        let Some(&RequestState::WaitingBatch(site)) = self.requests.get(&request.0) else {
            return GridOutput::default(); // cancelled or requeued by outage
        };
        let s = &self.sites[self.site_idx(site)];
        debug_assert!(s.up, "outage should have requeued this request");
        self.requests
            .insert(request.0, RequestState::Downloading(site));
        let dl_secs = transfer_secs(self.params.package_bytes, s.config.package_download_rate);
        let delay = SimDuration::from_secs_f64(dl_secs) + self.params.configure_time;
        let mut out = GridOutput::default();
        out.defer.push((delay, GridEvent::DownloadDone { request }));
        let _ = now;
        out
    }

    fn on_download_done(
        &mut self,
        now: SimTime,
        request: RequestId,
        topo: &mut Topology,
    ) -> GridOutput {
        let Some(&RequestState::Downloading(site)) = self.requests.get(&request.0) else {
            return GridOutput::default();
        };
        let node = topo.add_node(site);
        self.requests.insert(request.0, RequestState::Running(node));
        self.in_flight.remove(&request.0);
        self.nodes.insert(node, request);
        self.node_starts += 1;
        self.running_series.record(now, self.nodes.len() as f64);
        self.tracer.emit(|| {
            TraceEvent::new(Layer::Grid, "node_start")
                .with("node", node.0)
                .with("site", self.site_name(site))
                .with("pool", self.nodes.len())
        });
        let mut out = GridOutput::default();
        out.notes.push(GridNote::NodeStarted { node });
        // The Exponential arm is the exact legacy path (one draw from
        // `node_lifetime`), so default-churn runs stay bit-identical; the
        // calibrated generator has its own draw pattern (DESIGN §16.1).
        let cfg = &self.sites[self.site_idx(site)].config;
        let lifetime = match cfg.churn {
            crate::churn::ChurnModel::Exponential => cfg.node_lifetime.sample(&mut self.rng),
            crate::churn::ChurnModel::Calibrated(c) => c.sample_lifetime(now, &mut self.rng),
        };
        out.defer.push((lifetime, GridEvent::Preempt { node }));
        out
    }

    /// Kill a running node. `requeue` controls whether its Condor job goes
    /// back into the queue (true for involuntary loss, false for shrink).
    fn kill_node(
        &mut self,
        now: SimTime,
        node: NodeId,
        reason: LossReason,
        topo: &mut Topology,
        requeue: bool,
    ) -> GridOutput {
        let mut out = GridOutput::default();
        let Some(request) = self.nodes.remove(&node) else {
            return out;
        };
        let site = topo.site_of(node);
        topo.mark_dead(node);
        let i = self.site_idx(site);
        self.sites[i].used_slots -= 1;
        self.running_series.record(now, self.nodes.len() as f64);
        self.tracer.emit(|| {
            TraceEvent::new(Layer::Grid, "node_lost")
                .with("node", node.0)
                .with("site", self.site_name(site))
                .with("reason", reason.as_str())
                .with("pool", self.nodes.len())
        });
        out.notes.push(GridNote::NodeLost { node, reason });
        if requeue {
            self.requests.insert(request.0, RequestState::Resubmitting);
            let delay = self.params.resubmit_delay.sample(&mut self.rng);
            out.defer.push((delay, GridEvent::Resubmit { request }));
        } else {
            self.requests.remove(&request.0); // terminal: free the entry
        }
        out
    }

    fn on_site_outage(&mut self, now: SimTime, site: SiteId, topo: &mut Topology) -> GridOutput {
        let mut out = GridOutput::default();
        let idx = self.site_idx(site);
        if !self.sites[idx].up {
            return out;
        }
        self.outages += 1;
        self.sites[idx].up = false;
        self.tracer.emit(|| {
            TraceEvent::new(Layer::Grid, "site_outage").with("site", self.site_name(site))
        });
        // Kill every running node at the site.
        let victims: Vec<NodeId> = self
            .nodes
            .keys()
            .copied()
            .filter(|&n| topo.site_of(n) == site)
            .collect();
        for node in victims {
            out.merge(self.kill_node(now, node, LossReason::SiteOutage, topo, true));
        }
        // Requeue requests stuck in the site's batch queue or download
        // (ascending id order, matching submission order).
        let stuck: Vec<u64> = self
            .in_flight
            .iter()
            .filter(|rid| {
                matches!(
                    self.requests.get(rid),
                    Some(RequestState::WaitingBatch(s)) | Some(RequestState::Downloading(s))
                        if *s == site
                )
            })
            .copied()
            .collect();
        for rid in stuck {
            self.in_flight.remove(&rid);
            self.requests.insert(rid, RequestState::Queued);
            self.queued.push_back(RequestId(rid));
            self.sites[idx].used_slots -= 1;
        }
        let dur = self.sites[idx].config.outage_duration.sample(&mut self.rng);
        out.defer.push((dur, GridEvent::SiteRecover { site }));
        // Queued requests can still match other sites right away.
        out.merge(self.try_match(now));
        out
    }

    fn on_site_recover(&mut self, now: SimTime, site: SiteId) -> GridOutput {
        let idx = self.site_idx(site);
        self.sites[idx].up = true;
        self.tracer.emit(|| {
            TraceEvent::new(Layer::Grid, "site_recover").with("site", self.site_name(site))
        });
        let mut out = self.try_match(now);
        if let Some(mtbf) = &self.sites[idx].config.outage_mtbf {
            let next = mtbf.sample(&mut self.rng);
            out.defer.push((next, GridEvent::SiteOutage { site }));
        }
        out
    }

    fn on_resubmit(&mut self, now: SimTime, request: RequestId) -> GridOutput {
        if self.requests.get(&request.0) != Some(&RequestState::Resubmitting) {
            return GridOutput::default();
        }
        self.requests.insert(request.0, RequestState::Queued);
        self.queued.push_back(request);
        self.try_match(now)
    }

    /// Number of workers currently running.
    pub fn running_count(&self) -> usize {
        self.nodes.len()
    }

    /// Requests on their way to becoming running workers: queued,
    /// waiting out a batch queue, downloading, or waiting out a
    /// resubmission delay. The elastic controller counts these as
    /// committed supply so it does not double-request capacity.
    pub fn outstanding_count(&self) -> usize {
        self.requests.len() - self.nodes.len()
    }

    /// Total live request-table entries (regression hook: must stay
    /// proportional to the live pool, not to requests ever submitted).
    pub fn request_table_len(&self) -> usize {
        self.requests.len()
    }

    /// The actual available-node step series (Figure 5's ground truth).
    pub fn running_series(&self) -> &StepSeries {
        &self.running_series
    }

    /// Total preemptions so far.
    pub fn preemption_count(&self) -> u64 {
        self.preemptions
    }

    /// Total site outages so far.
    pub fn outage_count(&self) -> u64 {
        self.outages
    }

    /// Total successful node starts.
    pub fn node_start_count(&self) -> u64 {
        self.node_starts
    }

    /// Used slots at a site (testing hook).
    pub fn used_slots(&self, site: SiteId) -> usize {
        self.sites[self.site_idx(site)].used_slots
    }

    /// Whether the site is currently up.
    pub fn site_up(&self, site: SiteId) -> bool {
        self.sites[self.site_idx(site)].up
    }

    /// Number of registered (public-IP) sites.
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::paper_sites;
    use hog_sim_core::dist::{Exponential, UniformDuration};
    use hog_sim_core::{EventQueue, SimDuration};

    /// Drive a GridModel through its own event loop until `until`, applying
    /// an optional callback on each note.
    fn drive(
        model: &mut GridModel,
        topo: &mut Topology,
        init: Vec<Deferred>,
        until: SimTime,
    ) -> Vec<(SimTime, GridNote)> {
        let mut q: EventQueue<GridEvent> = EventQueue::new();
        for (d, e) in init {
            q.push(SimTime::ZERO + d, e);
        }
        let mut notes = Vec::new();
        while let Some((t, e)) = q.pop() {
            if t > until {
                break;
            }
            let out = model.handle(t, e, topo);
            for (d, e) in out.defer {
                q.push(t + d, e);
            }
            for n in out.notes {
                notes.push((t, n));
            }
        }
        notes
    }

    /// A fast-acquiring site with effectively infinite node lifetimes, so
    /// tests about provisioning aren't perturbed by rare preemptions.
    fn quick_site(name: &str, domain: &str, slots: usize) -> SiteConfig {
        SiteConfig {
            acquisition_delay: UniformDuration::new(
                SimDuration::from_secs(1),
                SimDuration::from_secs(5),
            ),
            ..SiteConfig::stable(name, domain, slots)
                .with_mean_lifetime(SimDuration::from_secs(100_000_000))
        }
    }

    #[test]
    fn nated_sites_are_excluded() {
        let mut topo = Topology::new();
        let rng = SimRng::seed_from_u64(1);
        let sites = vec![
            quick_site("A", "a.edu", 10),
            SiteConfig::nated("N", "n.edu", 10),
        ];
        let (model, _) = GridModel::new(GridParams::default(), sites, &mut topo, rng);
        assert_eq!(model.site_count(), 1);
        assert_eq!(topo.sites().len(), 1);
    }

    #[test]
    fn submitted_workers_come_up() {
        let mut topo = Topology::new();
        let rng = SimRng::seed_from_u64(2);
        let (mut model, init) = GridModel::new(
            GridParams::default(),
            vec![quick_site("A", "a.edu", 50)],
            &mut topo,
            rng,
        );
        let out = model.submit_workers(SimTime::ZERO, 20);
        let mut all = init;
        all.extend(out.defer);
        let notes = drive(&mut model, &mut topo, all, SimTime::from_secs(600));
        let starts = notes
            .iter()
            .filter(|(_, n)| matches!(n, GridNote::NodeStarted { .. }))
            .count();
        assert_eq!(starts, 20);
        assert_eq!(model.running_count(), 20);
        assert_eq!(topo.alive_count(), 20);
    }

    #[test]
    fn capacity_is_respected() {
        let mut topo = Topology::new();
        let rng = SimRng::seed_from_u64(3);
        let (mut model, init) = GridModel::new(
            GridParams::default(),
            vec![quick_site("A", "a.edu", 5)],
            &mut topo,
            rng,
        );
        let out = model.submit_workers(SimTime::ZERO, 20);
        let mut all = init;
        all.extend(out.defer);
        drive(&mut model, &mut topo, all, SimTime::from_secs(600));
        assert_eq!(model.running_count(), 5, "only 5 slots exist");
    }

    #[test]
    fn preempted_jobs_requeue_and_pool_heals() {
        let mut topo = Topology::new();
        let rng = SimRng::seed_from_u64(4);
        // Very short lifetimes force constant churn; the single site has
        // spare capacity so the pool keeps healing.
        let site = quick_site("A", "a.edu", 50).with_mean_lifetime(SimDuration::from_secs(300));
        let (mut model, init) = GridModel::new(GridParams::default(), vec![site], &mut topo, rng);
        let out = model.submit_workers(SimTime::ZERO, 30);
        let mut all = init;
        all.extend(out.defer);
        let notes = drive(&mut model, &mut topo, all, SimTime::from_secs(4 * 3600));
        assert!(model.preemption_count() > 50, "churn expected");
        let lost = notes
            .iter()
            .filter(|(_, n)| matches!(n, GridNote::NodeLost { .. }))
            .count();
        let started = notes
            .iter()
            .filter(|(_, n)| matches!(n, GridNote::NodeStarted { .. }))
            .count();
        assert!(started > lost, "pool must keep recovering");
        // Steady-state availability: lifetime / (lifetime + recovery) with
        // a ~80 s recovery pipeline and 300 s mean lifetime is ~0.79, so
        // the time-weighted mean pool size should sit around 23-24 of 30.
        let mean = model
            .running_series()
            .mean_over(SimTime::from_secs(3600), SimTime::from_secs(4 * 3600));
        assert!(
            (18.0..=29.0).contains(&mean),
            "steady-state pool {mean} outside expected band"
        );
    }

    #[test]
    fn site_outage_kills_all_nodes_then_recovers() {
        let mut topo = Topology::new();
        let rng = SimRng::seed_from_u64(5);
        let mut site = quick_site("A", "a.edu", 40);
        site.outage_mtbf = Some(Exponential::from_mean(SimDuration::from_secs(1800)));
        site.outage_duration = UniformDuration::point(SimDuration::from_mins(5));
        let (mut model, init) = GridModel::new(GridParams::default(), vec![site], &mut topo, rng);
        let out = model.submit_workers(SimTime::ZERO, 30);
        let mut all = init;
        all.extend(out.defer);
        let notes = drive(&mut model, &mut topo, all, SimTime::from_secs(4 * 3600));
        assert!(model.outage_count() >= 1, "outage should have fired");
        let outage_losses = notes
            .iter()
            .filter(|(_, n)| {
                matches!(
                    n,
                    GridNote::NodeLost {
                        reason: LossReason::SiteOutage,
                        ..
                    }
                )
            })
            .count();
        assert!(outage_losses >= 20, "an outage takes the whole site down");
    }

    #[test]
    fn remove_workers_prefers_queued_requests() {
        let mut topo = Topology::new();
        let rng = SimRng::seed_from_u64(6);
        let (mut model, _init) = GridModel::new(
            GridParams::default(),
            vec![quick_site("A", "a.edu", 5)],
            &mut topo,
            rng,
        );
        // 5 match immediately, 15 remain queued.
        let _ = model.submit_workers(SimTime::ZERO, 20);
        let out = model.remove_workers(SimTime::from_secs(1), 10, &mut topo);
        // Nothing was running yet, so no NodeLost notes.
        assert!(out.notes.is_empty());
    }

    #[test]
    fn remove_workers_kills_running_when_needed() {
        let mut topo = Topology::new();
        let rng = SimRng::seed_from_u64(7);
        let (mut model, init) = GridModel::new(
            GridParams::default(),
            vec![quick_site("A", "a.edu", 50)],
            &mut topo,
            rng,
        );
        let out = model.submit_workers(SimTime::ZERO, 10);
        let mut all = init;
        all.extend(out.defer);
        drive(&mut model, &mut topo, all, SimTime::from_secs(600));
        assert_eq!(model.running_count(), 10);
        let out = model.remove_workers(SimTime::from_secs(700), 4, &mut topo);
        let removed = out
            .notes
            .iter()
            .filter(|n| {
                matches!(
                    n,
                    GridNote::NodeLost {
                        reason: LossReason::Removed,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(removed, 4);
        assert_eq!(model.running_count(), 6);
    }

    #[test]
    fn paper_scale_1101_nodes() {
        let mut topo = Topology::new();
        let rng = SimRng::seed_from_u64(8);
        let sites = paper_sites()
            .into_iter()
            .map(|mut s| {
                s.acquisition_delay =
                    UniformDuration::new(SimDuration::from_secs(5), SimDuration::from_secs(60));
                s.with_mean_lifetime(SimDuration::from_secs(100_000_000))
            })
            .collect();
        let (mut model, init) = GridModel::new(GridParams::default(), sites, &mut topo, rng);
        let out = model.submit_workers(SimTime::ZERO, 1101);
        let mut all = init;
        all.extend(out.defer);
        drive(&mut model, &mut topo, all, SimTime::from_secs(1200));
        assert_eq!(model.running_count(), 1101, "HOG scaled to 1101 nodes");
        // All five failure domains should host some of them.
        for s in topo.sites() {
            assert!(
                topo.alive_in_site(s.id).count() > 0,
                "site {} unused",
                s.name
            );
        }
    }

    #[test]
    fn grow_shrink_cycles_keep_request_table_flat() {
        // Regression for the request-table leak: `requests` used to be an
        // append-only Vec, so every submit grew it forever and every
        // shrink walked the full history. 10k grow/shrink cycles must
        // leave the table no bigger than the live pool.
        let mut topo = Topology::new();
        let rng = SimRng::seed_from_u64(10);
        let (mut model, _init) = GridModel::new(
            GridParams::default(),
            vec![quick_site("A", "a.edu", 5)],
            &mut topo,
            rng,
        );
        // Fill the site: 5 in-flight requests pin all slots.
        let _ = model.submit_workers(SimTime::ZERO, 5);
        assert_eq!(model.outstanding_count(), 5);
        // Phase 1: churn requests that never match (site is full), so
        // each cycle cancels the queued request it just created.
        for i in 0..5_000u64 {
            let t = SimTime::from_secs(10 + i);
            let _ = model.submit_workers(t, 1);
            let _ = model.remove_workers(t, 1, &mut topo);
        }
        // Phase 2: free a slot so each new request matches (WaitingBatch)
        // and each removal cancels it through the in-flight index.
        let _ = model.remove_workers(SimTime::from_secs(20_000), 1, &mut topo);
        for i in 0..5_000u64 {
            let t = SimTime::from_secs(30_000 + i);
            let _ = model.submit_workers(t, 1);
            let _ = model.remove_workers(t, 1, &mut topo);
        }
        assert!(
            model.request_table_len() <= 8,
            "request table leaked: {} entries after 10k grow/shrink cycles",
            model.request_table_len()
        );
        assert_eq!(model.outstanding_count(), 4);
        assert_eq!(model.running_count(), 0);
    }

    #[test]
    fn preferred_shrink_only_kills_listed_nodes() {
        let mut topo = Topology::new();
        let rng = SimRng::seed_from_u64(11);
        let (mut model, init) = GridModel::new(
            GridParams::default(),
            vec![quick_site("A", "a.edu", 50)],
            &mut topo,
            rng,
        );
        let out = model.submit_workers(SimTime::ZERO, 10);
        let mut all = init;
        all.extend(out.defer);
        drive(&mut model, &mut topo, all, SimTime::from_secs(600));
        assert_eq!(model.running_count(), 10);
        let allowed: Vec<NodeId> = topo.alive_nodes().take(2).map(|r| r.id).collect();
        // Ask for 5 but only 2 victims are eligible: shrink under-delivers
        // rather than touching protected nodes.
        let out = model.remove_workers_preferring(SimTime::from_secs(700), 5, &mut topo, &allowed);
        let killed: Vec<NodeId> = out
            .notes
            .iter()
            .filter_map(|n| match n {
                GridNote::NodeLost { node, .. } => Some(*node),
                _ => None,
            })
            .collect();
        assert_eq!(killed, allowed);
        assert_eq!(model.running_count(), 8);
    }

    #[test]
    fn deterministic_replay() {
        let run = |seed: u64| {
            let mut topo = Topology::new();
            let rng = SimRng::seed_from_u64(seed);
            let site = quick_site("A", "a.edu", 30).with_mean_lifetime(SimDuration::from_secs(600));
            let (mut model, init) =
                GridModel::new(GridParams::default(), vec![site], &mut topo, rng);
            let out = model.submit_workers(SimTime::ZERO, 25);
            let mut all = init;
            all.extend(out.defer);
            let notes = drive(&mut model, &mut topo, all, SimTime::from_secs(3600));
            notes
                .iter()
                .map(|(t, n)| (t.as_millis(), format!("{n:?}")))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds should differ");
    }

    #[test]
    fn running_series_tracks_counts() {
        let mut topo = Topology::new();
        let rng = SimRng::seed_from_u64(9);
        let (mut model, init) = GridModel::new(
            GridParams::default(),
            vec![quick_site("A", "a.edu", 10)],
            &mut topo,
            rng,
        );
        let out = model.submit_workers(SimTime::ZERO, 10);
        let mut all = init;
        all.extend(out.defer);
        drive(&mut model, &mut topo, all, SimTime::from_secs(600));
        assert_eq!(model.running_series().last_value(), 10.0);
        // Area under a 10-node plateau over the tail must be positive.
        assert!(
            model
                .running_series()
                .area(SimTime::ZERO, SimTime::from_secs(600))
                > 0.0
        );
    }
}
