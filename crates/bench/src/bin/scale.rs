//! Tracked scale benchmark: replay the truncated Facebook workload on HOG
//! pools of 100 / 300 / 1101 nodes (the paper's §V sweep) plus synthetic
//! 3000- and 10000-node extrapolation tiers, and record
//! the *simulator's* performance trajectory — wall-clock, events/sec,
//! fluid-net recompute count and work, and peak event-queue depth — plus a
//! determinism fingerprint of the simulated outcome so perf work can prove
//! it changed nothing observable.
//!
//! Usage: `scale [--smoke] [--seed S] [--out PATH] [--check BASELINE]
//! [--threads N] [--verify-threads]` (see [`hog_bench::report::Args`]).
//! `--smoke` runs only the 100-node tier (CI per-PR gate). `--check`
//! fails if any shared tier's outcome fingerprint changed or its
//! wall-clock regressed past the shared gate (+25% + 250 ms).

use hog_bench::report::{Args, Cell, Check, Report};
use hog_bench::STUDY_HORIZON;
use hog_core::driver::run_workload;
use hog_core::sweep::par_map;
use hog_core::ClusterConfig;
use hog_workload::SubmissionSchedule;

/// Pool sizes replayed by the full benchmark. 100/300/1101 are the paper's
/// §V sweep (1101 its upper bound); 3000 and 10000 extrapolate past the
/// paper onto synthetic OSG sites (`scaled_sites`) to exercise the
/// batched master tick at scales the per-event dispatch could not reach.
const TIERS: [usize; 5] = [100, 300, 1101, 3000, 10000];
/// `--check` matches tiers by pool size and gates their wall-clock.
const CHECK: Check = Check {
    sections: &["tiers"],
    key: &["nodes"],
    wall_gate: true,
};

struct TierReport {
    nodes: usize,
    wall_ms: u64,
    sim_events: u64,
    events_per_sec: u64,
    recomputes: u64,
    recompute_work: u64,
    peak_queue: usize,
    response_secs: f64,
    jobs_ok: usize,
    jobs: usize,
    fingerprint: String,
}

fn run_tier(nodes: usize, seed: u64, schedule: &SubmissionSchedule) -> TierReport {
    let cfg = ClusterConfig::hog(nodes, seed);
    let (r, wall_ms) = hog_bench::timed(|| run_workload(cfg, schedule, STUDY_HORIZON));
    assert!(
        !r.stopped_early,
        "scale tier {nodes} did not finish — the benchmark config is broken"
    );
    TierReport {
        nodes,
        wall_ms,
        sim_events: r.events,
        events_per_sec: (r.events * 1000).checked_div(wall_ms).unwrap_or(0),
        recomputes: r.net_recomputes,
        recompute_work: r.net_recompute_work,
        peak_queue: r.peak_queue,
        response_secs: r.response_time.map(|d| d.as_secs_f64()).unwrap_or(0.0),
        jobs_ok: r.jobs_succeeded(),
        jobs: r.jobs.len(),
        fingerprint: hog_bench::outcome_fingerprint(&r),
    }
}

impl TierReport {
    fn cell(&self) -> Cell {
        Cell::new()
            .raw("nodes", self.nodes)
            .raw("wall_ms", self.wall_ms)
            .raw("sim_events", self.sim_events)
            .raw("events_per_sec", self.events_per_sec)
            .raw("recomputes", self.recomputes)
            .raw("recompute_work", self.recompute_work)
            .raw("peak_queue", self.peak_queue)
            .float("response_secs", self.response_secs, 3)
            .raw("jobs_ok", self.jobs_ok)
            .raw("jobs", self.jobs)
            .str("fingerprint", &self.fingerprint)
    }
}

fn main() {
    let args = Args::parse("scale");
    let seed = args.seed;
    let schedule = SubmissionSchedule::facebook_truncated(1000 + seed);
    println!("scale: {}, seed {seed}", hog_bench::describe(&schedule));

    let tiers = if args.smoke { &TIERS[..1] } else { &TIERS[..] };
    let sweep = |threads| par_map(tiers, threads, |&n| run_tier(n, seed, &schedule));
    let report = |tiers: &[TierReport]| {
        Report::new("scale", seed).section("tiers", tiers.iter().map(TierReport::cell))
    };

    let tiers = sweep(args.threads);
    for t in &tiers {
        println!(
            "  {:>5} nodes: wall={:>6}ms events={:>9} ({:>8}/s) recomputes={:>7} work={:>11} peakq={:>6} fp={}",
            t.nodes,
            t.wall_ms,
            t.sim_events,
            t.events_per_sec,
            t.recomputes,
            t.recompute_work,
            t.peak_queue,
            t.fingerprint
        );
    }
    args.finish(&report(&tiers), &CHECK, || report(&sweep(1)));
}
