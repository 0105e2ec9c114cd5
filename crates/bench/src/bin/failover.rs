//! Master-failover study (X13): job-completion overhead of a
//! chaos-injected master crash versus the crash-free run, swept over
//! crash time × checkpoint interval × pool size.
//!
//! Each pool first runs crash-free (the failover machinery armed but no
//! fault — checkpointing draws no randomness and schedules no events, so
//! this is bit-identical to a plain run). Each crash cell then injects
//! `MasterCrash` at the given offset after workload start; the headline
//! number is `overhead_secs` (workload response minus the crash-free
//! twin's), which must stay within `bound_secs` = detection timeout +
//! lost edit window (≤ checkpoint interval) + a replay allowance for
//! re-running the killed in-flight tasks.
//!
//! Usage: `failover [--smoke] [--seed S] [--out PATH] [--check BASELINE]
//! [--threads N] [--verify-threads]` (see [`hog_bench::report::Args`]).
//! `--smoke` runs only the 100-node pool with one crash cell (CI gate).
//! `--check` fails on any changed outcome fingerprint or a wall-clock
//! regression past the shared gate (+25% + 250 ms), per label. Keep the
//! schema in sync with EXPERIMENTS.md X13.

use hog_bench::report::{Args, Cell, Check, Report};
use hog_bench::STUDY_HORIZON;
use hog_chaos::{Fault, FaultPlan};
use hog_core::driver::run_workload;
use hog_core::sweep::par_map;
use hog_core::ClusterConfig;
use hog_sim_core::SimDuration;
use hog_workload::SubmissionSchedule;

/// Pool sizes swept (both finish the truncated Facebook workload well
/// after the latest crash offset).
const POOLS: [usize; 2] = [100, 300];
/// Crash offsets after workload start, seconds.
const CRASH_TIMES: [u64; 2] = [600, 1200];
/// Checkpoint intervals swept, seconds.
const INTERVALS: [u64; 2] = [300, 120];
/// Failure-detection timeout before standby promotion, seconds.
const DETECTION_SECS: u64 = 30;
/// Allowance for re-running the in-flight work the promotion killed.
/// Calibrated generously: the killed tasks re-run in parallel across the
/// surviving pool, overlapping work that was pending anyway.
const REPLAY_ALLOWANCE_SECS: f64 = 900.0;
/// `--check` matches cells by label and gates their wall-clock.
const CHECK: Check = Check {
    sections: &["cells"],
    key: &["label"],
    wall_gate: true,
};

struct CellReport {
    label: String,
    nodes: usize,
    crash_at: Option<u64>,
    interval: u64,
    wall_ms: u64,
    response_secs: f64,
    overhead_secs: f64,
    bound_secs: f64,
    passed: bool,
    jobs_ok: usize,
    jobs: usize,
    recovery_secs: f64,
    lost_window_secs: f64,
    reregistrations: u64,
    checkpoints: usize,
    fingerprint: String,
}

fn run_cell(
    nodes: usize,
    seed: u64,
    schedule: &SubmissionSchedule,
    interval: u64,
    crash_at: Option<u64>,
    baseline_response: Option<f64>,
) -> CellReport {
    let label = match crash_at {
        None => format!("p{nodes}-free"),
        Some(c) => format!("p{nodes}-c{c}-i{interval}"),
    };
    let mut cfg = ClusterConfig::hog(nodes, seed)
        .with_failover(
            SimDuration::from_secs(interval),
            SimDuration::from_secs(DETECTION_SECS),
        )
        .named(label.clone());
    if let Some(c) = crash_at {
        cfg =
            cfg.with_fault_plan(FaultPlan::new().at(SimDuration::from_secs(c), Fault::MasterCrash));
    }
    let (r, wall_ms) = hog_bench::timed(|| run_workload(cfg, schedule, STUDY_HORIZON));
    assert!(
        !r.stopped_early,
        "{label} did not finish: {:?}",
        r.stuck_jobs
    );
    let response = r.response_time.map(|d| d.as_secs_f64()).unwrap_or(0.0);
    let (overhead, bound, passed) = match (crash_at, baseline_response) {
        (Some(_), Some(base)) => {
            let overhead = response - base;
            // Lost edit window is bounded by the checkpoint interval;
            // the measured value is tighter, but the *bound* quoted is
            // the configuration-level guarantee.
            let bound = DETECTION_SECS as f64 + interval as f64 + REPLAY_ALLOWANCE_SECS;
            let all_jobs = r.jobs_succeeded() == r.jobs.len();
            (overhead, bound, overhead <= bound && all_jobs)
        }
        _ => (0.0, 0.0, r.jobs_succeeded() == r.jobs.len()),
    };
    CellReport {
        label,
        nodes,
        crash_at,
        interval,
        wall_ms,
        response_secs: response,
        overhead_secs: overhead,
        bound_secs: bound,
        passed,
        jobs_ok: r.jobs_succeeded(),
        jobs: r.jobs.len(),
        recovery_secs: r.failover.total_recovery.as_secs_f64(),
        lost_window_secs: r.failover.total_lost_window.as_secs_f64(),
        reregistrations: r.failover.reregistrations,
        checkpoints: r.failover.checkpoints.len(),
        fingerprint: hog_bench::outcome_fingerprint(&r),
    }
}

impl CellReport {
    fn cell(&self) -> Cell {
        Cell::new()
            .str("label", &self.label)
            .raw("nodes", self.nodes)
            .raw(
                "crash_at",
                self.crash_at.map_or("null".into(), |v| v.to_string()),
            )
            .raw("interval", self.interval)
            .raw("wall_ms", self.wall_ms)
            .float("response_secs", self.response_secs, 3)
            .float("overhead_secs", self.overhead_secs, 3)
            .float("bound_secs", self.bound_secs, 1)
            .raw("passed", self.passed)
            .raw("jobs_ok", self.jobs_ok)
            .raw("jobs", self.jobs)
            .float("recovery_secs", self.recovery_secs, 1)
            .float("lost_window_secs", self.lost_window_secs, 1)
            .raw("reregistrations", self.reregistrations)
            .raw("checkpoints", self.checkpoints)
            .str("fingerprint", &self.fingerprint)
    }
}

fn print_cell(c: &CellReport) {
    println!(
        "  {:>14}: resp={:>7.0}s overhead={:>+7.0}s (bound {:>5.0}s) ok={}/{} recovery={:.0}s lost={:.0}s rereg={} ckpts={} wall={}ms fp={} — {}",
        c.label,
        c.response_secs,
        c.overhead_secs,
        c.bound_secs,
        c.jobs_ok,
        c.jobs,
        c.recovery_secs,
        c.lost_window_secs,
        c.reregistrations,
        c.checkpoints,
        c.wall_ms,
        c.fingerprint,
        if c.passed { "PASS" } else { "FAIL" }
    );
}

fn main() {
    let args = Args::parse("failover");
    let (seed, smoke) = (args.seed, args.smoke);
    let schedule = SubmissionSchedule::facebook_truncated(1000 + seed);
    println!(
        "failover: {}, seed {seed}, detection {DETECTION_SECS}s",
        hog_bench::describe(&schedule)
    );

    let pools = if smoke { &POOLS[..1] } else { &POOLS[..] };
    let crash_grid: Vec<(u64, u64)> = CRASH_TIMES
        .iter()
        .flat_map(|&c| INTERVALS.iter().map(move |&i| (c, i)))
        .filter(|&(c, i)| !smoke || (c == CRASH_TIMES[0] && i == INTERVALS[0]))
        .collect();
    // Crash cells judge themselves against the crash-free response of
    // the same pool size, so the sweep runs in two waves: the per-pool
    // baselines first, then every crash cell.
    let sweep = |threads| {
        let frees = par_map(pools, threads, |&nodes| {
            run_cell(nodes, seed, &schedule, INTERVALS[0], None, None)
        });
        let crash_jobs: Vec<(usize, f64, u64, u64)> = pools
            .iter()
            .zip(&frees)
            .flat_map(|(&nodes, free)| {
                let base = free.response_secs;
                crash_grid.iter().map(move |&(c, i)| (nodes, base, c, i))
            })
            .collect();
        let mut crashes = par_map(crash_jobs, threads, |(nodes, base, crash, interval)| {
            run_cell(nodes, seed, &schedule, interval, Some(crash), Some(base))
        })
        .into_iter();
        // Re-interleave into the report's historical order: each pool's
        // crash-free cell followed by its crash grid.
        let mut cells = Vec::new();
        for free in frees {
            cells.push(free);
            cells.extend(crashes.by_ref().take(crash_grid.len()));
        }
        cells
    };
    let report = |cells: &[CellReport]| {
        Report::new("failover", seed)
            .scalar("detection_secs", DETECTION_SECS)
            .section("cells", cells.iter().map(CellReport::cell))
    };

    let cells = sweep(args.threads);
    for c in &cells {
        print_cell(c);
    }
    args.finish(&report(&cells), &CHECK, || report(&sweep(1)));

    if cells.iter().any(|c| !c.passed) {
        eprintln!(
            "failover: a crash cell exceeded its recovery bound or lost jobs (see FAIL rows)"
        );
        std::process::exit(1);
    }
}
