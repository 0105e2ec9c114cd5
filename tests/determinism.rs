//! Whole-stack determinism: identical seeds must replay identical runs,
//! different seeds must differ. This is the property that makes every
//! figure in EXPERIMENTS.md reproducible to the millisecond.

use hog_repro::prelude::*;
use hog_workload::facebook::Bin;

fn schedule(seed: u64) -> SubmissionSchedule {
    let bin = Bin {
        number: 3,
        maps_at_facebook: (8, 8),
        fraction_at_facebook: 1.0,
        maps: 8,
        jobs_in_benchmark: 4,
        reduces: 2,
    };
    SubmissionSchedule::from_bins(&[bin], seed)
}

fn fingerprint(r: &RunResult) -> (Option<u64>, u64, usize, u64, u64, String) {
    (
        r.response_time.map(|d| d.as_millis()),
        r.events,
        r.jobs_succeeded(),
        r.jt.node_local + r.jt.site_local + r.jt.remote,
        r.nn_counters.0,
        r.jobs
            .iter()
            .map(|j| format!("{:?}", j.finished.map(|t| t.as_millis())))
            .collect::<Vec<_>>()
            .join(","),
    )
}

#[test]
fn hog_runs_replay_bit_identically() {
    let horizon = SimDuration::from_secs(24 * 3600);
    let run = || {
        let cfg = ClusterConfig::hog(20, 77).with_mean_lifetime(SimDuration::from_secs(1800));
        run_workload(cfg, &schedule(9), horizon)
    };
    let a = run();
    let b = run();
    assert_eq!(fingerprint(&a), fingerprint(&b));
}

#[test]
fn dedicated_runs_replay_bit_identically() {
    let horizon = SimDuration::from_secs(24 * 3600);
    let run = || run_workload(ClusterConfig::dedicated(5), &schedule(10), horizon);
    assert_eq!(fingerprint(&run()), fingerprint(&run()));
}

#[test]
fn different_cluster_seeds_diverge() {
    let horizon = SimDuration::from_secs(24 * 3600);
    let churn = SimDuration::from_secs(1800);
    let a = run_workload(
        ClusterConfig::hog(20, 1).with_mean_lifetime(churn),
        &schedule(9),
        horizon,
    );
    let b = run_workload(
        ClusterConfig::hog(20, 2).with_mean_lifetime(churn),
        &schedule(9),
        horizon,
    );
    assert_ne!(
        fingerprint(&a),
        fingerprint(&b),
        "different seeds should produce different churn traces"
    );
}

#[test]
fn workload_seed_changes_submission_pattern() {
    let a = schedule(1);
    let b = schedule(2);
    let times_a: Vec<u64> = a.jobs().iter().map(|j| j.submit_at.as_millis()).collect();
    let times_b: Vec<u64> = b.jobs().iter().map(|j| j.submit_at.as_millis()).collect();
    assert_ne!(times_a, times_b);
}

#[test]
fn parallel_sweep_equals_serial_runs() {
    use hog_core::sweep::par_map;
    let horizon = SimDuration::from_secs(24 * 3600);
    let parallel = par_map([1, 2], 2, |seed| {
        run_workload(ClusterConfig::hog(15, seed), &schedule(33), horizon)
    });
    let serial = run_workload(ClusterConfig::hog(15, 1), &schedule(33), horizon);
    assert_eq!(
        parallel[0].response_time.map(|d| d.as_millis()),
        serial.response_time.map(|d| d.as_millis())
    );
    assert_eq!(parallel[0].events, serial.events);
    assert_eq!(parallel.len(), 2);
}
