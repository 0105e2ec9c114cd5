//! Parallel multi-run harness.
//!
//! Every simulation run is independent (its own RNG streams, its own
//! world), so parameter sweeps — Figure 4 needs 12 pool sizes × 3 seeds —
//! are embarrassingly parallel. [`par_map`] is the workspace's one
//! worker pool: runs execute on crossbeam scoped threads and results land
//! in submission order regardless of completion order.

use crate::config::ClusterConfig;
use crate::driver::{run_workload, RunResult};
use hog_sim_core::SimDuration;
use hog_workload::SubmissionSchedule;
use parking_lot::Mutex;

/// One sweep entry: a config plus the workload seed to replay.
#[derive(Clone)]
pub struct SweepPoint {
    /// Cluster configuration.
    pub cfg: ClusterConfig,
    /// Workload schedule seed.
    pub workload_seed: u64,
}

/// Run all `points` on the truncated Facebook workload, `threads`-wide,
/// preserving input order.
pub fn run_sweep(points: Vec<SweepPoint>, horizon: SimDuration, threads: usize) -> Vec<RunResult> {
    par_map(points, threads, |p| {
        let schedule = SubmissionSchedule::facebook_truncated(p.workload_seed);
        run_workload(p.cfg, &schedule, horizon)
    })
}

/// Apply `f` to every item, `threads`-wide, returning the results in
/// input order whatever order the workers finish in. With one thread (or
/// at most one item) everything runs on the caller's thread. Every bench
/// cell is a deterministic simulation, so a sweep's results are identical
/// at any width.
pub fn par_map<I, R, F>(items: I, threads: usize, f: F) -> Vec<R>
where
    I: IntoIterator,
    I::Item: Send,
    R: Send,
    F: Fn(I::Item) -> R + Sync,
{
    let items: Vec<I::Item> = items.into_iter().collect();
    let n = items.len();
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 {
        return items.into_iter().map(f).collect();
    }
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
    let work = Mutex::new(items.into_iter().enumerate());
    crossbeam::scope(|s| {
        for _ in 0..threads {
            s.spawn(|_| loop {
                let item = { work.lock().next() };
                let Some((idx, item)) = item else { break };
                let result = f(item);
                results.lock()[idx] = Some(result);
            });
        }
    })
    .expect("sweep worker panicked");
    results
        .into_inner()
        .into_iter()
        .map(|r| r.expect("missing sweep result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;

    #[test]
    fn sweep_preserves_order_and_runs_parallel() {
        // Two tiny dedicated runs with different seeds.
        let points = vec![
            SweepPoint {
                cfg: ClusterConfig::dedicated(1).named("a"),
                workload_seed: 900,
            },
            SweepPoint {
                cfg: ClusterConfig::dedicated(2).named("b"),
                workload_seed: 900,
            },
        ];
        // Tiny workload: replace the schedule inside run via seed — the
        // full facebook schedule is heavy for a unit test, so this test
        // only checks ordering using a short horizon.
        let results = run_sweep(points, SimDuration::from_secs(120), 2);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].name, "a");
        assert_eq!(results[1].name, "b");
    }

    #[test]
    fn par_map_returns_input_order_whatever_the_finish_order() {
        let expected: Vec<u64> = (0..12).map(|i| i * i).collect();
        assert_eq!(par_map(0..12u64, 1, |i| i * i), expected);
        assert!(par_map(Vec::<u64>::new(), 4, |i| i).is_empty());
        for threads in [2, 3, 8] {
            // Item 0 blocks until item 11 has run, so it finishes after it.
            let (tx, rx) = std::sync::mpsc::channel();
            let rx = Mutex::new(rx);
            let finished = Mutex::new(Vec::new());
            let out = par_map(0..12u64, threads, |i| {
                if i == 0 {
                    rx.lock().recv().expect("item 11 signals item 0");
                }
                finished.lock().push(i);
                if i == 11 {
                    tx.send(()).expect("item 0 is waiting");
                }
                i * i
            });
            let finished = finished.into_inner();
            let at = |i| finished.iter().position(|&f| f == i);
            assert!(at(0) > at(11), "finish order {finished:?}");
            assert_eq!(out, expected, "{threads} threads");
        }
    }
}
