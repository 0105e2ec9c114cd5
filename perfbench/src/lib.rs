//! Host-time benchmark of the HOG simulator.
//!
//! One process replays one named workload ([`Workload`]) at a time,
//! single-threaded. Untraced runs give the end-to-end metrics (wall time
//! inside `Simulation::run` and set-up time, both at reference host speed
//! (see [`calibrate`]), peak memory and the share of jobs done); traced
//! runs wrap the cluster in a [`probe::Probe`] and attribute the same
//! wall time to layers from outside the program. See `README.md` in this
//! directory for the workloads, the metric catalogue and how each layer
//! metric maps to an end-to-end metric.

#![warn(missing_docs)]

pub mod calibrate;
pub mod probe;
pub mod report;

use hog_core::driver::{collect_result, RunResult};
use hog_core::{Cluster, ClusterConfig};
use hog_hdfs::AvailabilityPolicy;
use hog_sim_core::{SimDuration, SimTime, Simulation};
use hog_workload::{StragglerMix, SubmissionSchedule};
use probe::{Probe, Profile};
use std::time::Instant;

/// The seed of every workload's variant 0; see [`variant_seed`].
pub const REFERENCE_SEED: u64 = 7;

/// Simulated-time safety horizon, as in the repository's scale benches.
pub const HORIZON: SimDuration = SimDuration::from_secs(100 * 3600);

/// The benchmark's named workloads. Each is open-loop in simulated time:
/// the truncated Facebook schedule (88 jobs, exponential inter-arrivals,
/// schedule seed `1000 + seed`) is replayed whatever the progress.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 100-node HOG pool: the paper's Fig. 4 equivalence point. Host time
    /// is fluid-net and shuffle bound.
    Paper100,
    /// 10k-node HOG pool on the scaled synthetic sites. Host time is
    /// heartbeat and engine bound.
    Pool10k,
    /// 300 nodes under calibrated churn with stragglers and the Trua
    /// availability policy (BENCH_replication's adaptive cell). Host time
    /// is master-tick bound; HDFS and the net mostly carry repair writes.
    ChurnAdaptive300,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::Paper100,
        Workload::Pool10k,
        Workload::ChurnAdaptive300,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper100 => "paper_100",
            Workload::Pool10k => "pool_10k",
            Workload::ChurnAdaptive300 => "churn_adaptive_300",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The cluster configuration at cluster seed `seed`.
    pub fn config(self, seed: u64) -> ClusterConfig {
        match self {
            Workload::Paper100 => ClusterConfig::hog(100, seed),
            Workload::Pool10k => ClusterConfig::hog(10_000, seed),
            Workload::ChurnAdaptive300 => ClusterConfig::hog(300, seed)
                .with_calibrated_churn_at(8.0)
                .with_stragglers(StragglerMix::osg_default())
                .with_availability_policy(AvailabilityPolicy::trua_default()),
        }
    }

    /// How many seeded variants an untraced run replays (see
    /// [`variant_seed`]): as many as fit one run on the reference host,
    /// so that a run's mean replay time does not hinge on one seed's
    /// share of churn or contention.
    pub fn variants(self) -> usize {
        self.fingerprints().len()
    }

    /// The submission schedule for `seed`.
    pub fn schedule(seed: u64) -> SubmissionSchedule {
        SubmissionSchedule::facebook_truncated(1000 + seed)
    }

    /// The committed outcome fingerprint (`hog_bench::outcome_fingerprint`)
    /// of each variant, in variant order. Every replay is checked against
    /// its variant's entry.
    pub fn fingerprints(self) -> &'static [&'static str] {
        match self {
            Workload::Paper100 => &[
                "cf17f90b65a09cc8",
                "6776ec32df5a1eea",
                "4a3423f802d465c7",
                "e12086aff41131f3",
                "ca49dcb94d28770f",
                "ecdb5be151fb35d6",
                "6616ce167256ad88",
                "40c7da71caad9735",
                "946587446c337a31",
                "c93d931259a0b33b",
                "b2b6e3f003fca07c",
                "6adf99bcba0372d4",
                "5de021c646a67f46",
                "6c95131431e129f4",
                "3df022695ff22a5b",
                "7387ae52f3ab6d15",
            ],
            Workload::Pool10k => &["2e14de2b6abf2785", "4637515764ced573"],
            Workload::ChurnAdaptive300 => &[
                "3610004c1831fdc8",
                "edd4d306d47a2a1c",
                "fde788e80b41e8ac",
                "49f266519ce1d720",
                "fb125834d6f11392",
                "177e8149c15199f9",
                "69ca891cfb5f3df4",
                "a906a4124459ded8",
            ],
        }
    }
}

/// The cluster seed of variant `i`: [`REFERENCE_SEED`] for variant 0,
/// then steps of 1000. The suite is the same in every run, so every
/// replay has a committed fingerprint; `--seed` only decides the order
/// in which a run replays it.
pub fn variant_seed(i: usize) -> u64 {
    REFERENCE_SEED + 1000 * i as u64
}

/// The deterministic facts of one run: the simulated outcome and the
/// work the host did to reach it. Two runs of the same code, workload and
/// seed must produce equal `Outcome`s, traced or not.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    /// `hog_bench::outcome_fingerprint` of the run.
    pub fingerprint: String,
    /// Jobs submitted.
    pub jobs: usize,
    /// Jobs that succeeded.
    pub jobs_ok: usize,
    /// Whether the run stopped before every job reached a terminal state.
    pub stopped_early: bool,
    /// Simulated first-submit to last-terminal time, seconds.
    pub makespan_s: f64,
    /// Simulated mean job response, seconds.
    pub mean_job_s: f64,
    /// Engine events handled.
    pub events: u64,
    /// Engine queue high-water mark.
    pub peak_queue: usize,
    /// Fluid-net rate recomputations.
    pub net_recomputes: u64,
    /// Flows examined across those recomputations.
    pub net_recompute_work: u64,
    /// JobTracker: task failures.
    pub failures: u64,
    /// JobTracker: speculative attempts.
    pub speculative: u64,
    /// JobTracker: rescue copies launched.
    pub rescue_copies: u64,
    /// JobTracker: rescue copies that won.
    pub rescue_hits: u64,
    /// Scheduler locality: node-local, site-local and remote map starts.
    pub locality: (u64, u64, u64),
    /// Namenode: repl completed, repl failed, blocks lost, bad replicas.
    pub nn_counters: (u64, u64, u64, u64),
    /// Availability policy: targets raised, lowered, replicas trimmed.
    pub availability: (u64, u64, u64),
    /// Replica bytes written (writes and repairs).
    pub replica_bytes: u64,
    /// Repair share of `replica_bytes`.
    pub repair_bytes: u64,
    /// Grid: preemptions, outages, node starts.
    pub grid: (u64, u64, u64),
}

impl Outcome {
    /// Extract the deterministic facts of `r`.
    pub fn of(r: &RunResult) -> Outcome {
        Outcome {
            fingerprint: hog_bench::outcome_fingerprint(r),
            jobs: r.jobs.len(),
            jobs_ok: r.jobs_succeeded(),
            stopped_early: r.stopped_early || r.chaos_failure.is_some(),
            makespan_s: r.response_time.map_or(0.0, |d| d.as_secs_f64()),
            mean_job_s: r.mean_job_response_secs(),
            events: r.events,
            peak_queue: r.peak_queue,
            net_recomputes: r.net_recomputes,
            net_recompute_work: r.net_recompute_work,
            failures: r.jt.failures,
            speculative: r.jt.speculative,
            rescue_copies: r.jt.rescue_copies,
            rescue_hits: r.jt.rescue_hits,
            locality: (r.jt.node_local, r.jt.site_local, r.jt.remote),
            nn_counters: r.nn_counters,
            availability: r.availability,
            replica_bytes: r.replica_bytes,
            repair_bytes: r.repair_bytes,
            grid: r.grid.unwrap_or_default(),
        }
    }
}

/// One replay of a workload.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Host seconds for `Cluster::new` + bootstrap.
    pub setup_s: f64,
    /// Host seconds inside `Simulation::run`.
    pub run_s: f64,
    /// Host seconds inside `driver::collect_result`.
    pub collect_s: f64,
    /// Host seconds for the whole replay, teardown included.
    pub total_s: f64,
    /// Peak resident MiB of the replay (see [`peak_rss_mb`]).
    pub peak_rss_mb: f64,
    /// What the run produced.
    pub outcome: Outcome,
    /// The per-layer profile, for traced runs.
    pub profile: Option<Profile>,
}

fn new_sim<M: hog_sim_core::engine::Model>() -> Simulation<M> {
    Simulation::new()
        .with_horizon(SimTime::ZERO + HORIZON)
        .with_event_budget(2_000_000_000)
}

/// Build and bootstrap a cluster, returning the host seconds it took.
/// The set-up half of [`replay`], on its own.
pub fn setup_only(cfg: ClusterConfig, schedule: &SubmissionSchedule) -> f64 {
    let t = Instant::now();
    let mut cluster = Cluster::new(cfg, schedule);
    let mut sim = new_sim::<Cluster>();
    cluster.bootstrap(&mut sim);
    let setup_s = t.elapsed().as_secs_f64();
    drop((cluster, sim));
    setup_s
}

/// Replay `schedule` on a cluster built from `cfg`, with the same steps
/// as `hog_core::driver::run_workload`. When `traced`, the cluster runs
/// behind a [`Probe`]; otherwise it runs bare, as in `run_workload`.
pub fn replay(cfg: ClusterConfig, schedule: &SubmissionSchedule, traced: bool) -> Sample {
    reset_peak_rss();
    let start = Instant::now();
    let mut cluster = Cluster::new(cfg, schedule);
    let (setup_s, run_s, stats, cluster, profile) = if traced {
        let mut sim = new_sim::<Probe>();
        cluster.bootstrap_sched(&mut sim.scheduler());
        let mut probe = Probe::new(cluster);
        let setup_s = start.elapsed().as_secs_f64();
        let t = Instant::now();
        probe.start();
        let stats = sim.run(&mut probe);
        probe.stop();
        let run_s = t.elapsed().as_secs_f64();
        (setup_s, run_s, stats, probe.cluster, Some(probe.profile))
    } else {
        let mut sim = new_sim::<Cluster>();
        cluster.bootstrap(&mut sim);
        let setup_s = start.elapsed().as_secs_f64();
        let t = Instant::now();
        let stats = sim.run(&mut cluster);
        let run_s = t.elapsed().as_secs_f64();
        (setup_s, run_s, stats, cluster, None)
    };
    let t = Instant::now();
    let result = collect_result(cluster, schedule, stats);
    let collect_s = t.elapsed().as_secs_f64();
    let peak_rss_mb = peak_rss_mb();
    let outcome = Outcome::of(&result);
    drop(result);
    Sample {
        setup_s,
        run_s,
        collect_s,
        total_s: start.elapsed().as_secs_f64(),
        peak_rss_mb,
        outcome,
        profile,
    }
}

/// Median of `xs` (the mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A memory figure of this process from `/proc/self/status` (`key` is
/// e.g. `VmHWM` or `VmRSS`), in MiB, if the platform reports it.
pub fn status_mb(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.split(':').next() == Some(key))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set size in MiB since the last [`reset_peak_rss`]: the
/// process's `VmHWM` less the resident state of the calibration's
/// reference work.
pub fn peak_rss_mb() -> f64 {
    // Build the reference work first, should no slice have run yet.
    let footprint = calibrate::footprint_mb();
    status_mb("VmHWM").map_or(0.0, |hwm| hwm - footprint)
}

/// Reset the process's `VmHWM` to its current resident size, so that
/// [`peak_rss_mb`] reads the peak of what follows. Where the kernel does
/// not allow it, `VmHWM` stays the peak since the process started.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

#[cfg(test)]
mod tests {
    use super::*;
    use hog_workload::facebook::Bin;

    fn tiny_schedule(seed: u64) -> SubmissionSchedule {
        let bin = Bin {
            number: 1,
            maps_at_facebook: (6, 6),
            fraction_at_facebook: 1.0,
            maps: 6,
            jobs_in_benchmark: 6,
            reduces: 2,
        };
        SubmissionSchedule::from_bins(&[bin], seed)
    }

    /// The probe forwards every call unchanged: an untraced replay, a
    /// traced replay and `run_workload` itself agree on every
    /// deterministic fact, on a small pool with and without churn and the
    /// availability policy.
    #[test]
    fn probe_preserves_outcome_on_a_small_pool() {
        let schedule = tiny_schedule(11);
        let configs = [
            ClusterConfig::hog(24, 3),
            ClusterConfig::hog(30, 5)
                .with_calibrated_churn_at(8.0)
                .with_stragglers(StragglerMix::osg_default())
                .with_availability_policy(AvailabilityPolicy::trua_default()),
        ];
        for cfg in configs {
            let reference = Outcome::of(&hog_core::run_workload(cfg.clone(), &schedule, HORIZON));
            assert!(!reference.stopped_early);
            assert_eq!(reference.jobs_ok, reference.jobs);
            let plain = replay(cfg.clone(), &schedule, false);
            let traced = replay(cfg, &schedule, true);
            assert_eq!(plain.outcome, reference);
            assert_eq!(traced.outcome, reference);
            let profile = traced.profile.expect("traced replay carries a profile");
            assert_eq!(profile.events(), reference.events);
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("paper-100"), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
