//! Adaptive-replication study (X17): flat replication 10 vs Trua-style
//! per-block availability targets vs X6-style multi-copy task execution.
//!
//! The paper buys survival under OSG preemption with a blanket
//! replication factor of 10 — every block pays the worst-case premium
//! whether it sits on a stable Fermilab slot or a campus machine about
//! to be reclaimed. The availability policy (DESIGN §17) instead tracks
//! each block's target from the decayed failure score of the sites
//! holding it, the sites' churn profiles, and the block's read heat,
//! clamped to [4, 12] with hysteresis. The third column is the X6
//! alternative: keep flat-10 storage but run every task as 2 eager
//! copies. The study question: how much replica storage and repair
//! traffic does the adaptive policy save, and what does it cost in mean
//! job response?
//!
//! Usage: `replication [--smoke] [--seed S] [--wave H] [--out PATH]
//! [--check BASELINE] [--threads N] [--verify-threads]` (see
//! [`hog_bench::report::Args`]).
//!
//! * `--smoke` runs the 3-policy grid at the base seed only (CI gate);
//!   the full sweep repeats it at [`VERDICT_SEEDS`] consecutive seeds
//!   and holds the study bar against the pooled result. Each grid seed
//!   `s` uses schedule seed 1000+s.
//! * `--wave H` starts the calibrated campus day at hour `H` (default
//!   [`WAVE_START_HOUR`], as in BENCH_churn).
//! * `--check` fails if any cell's outcome fingerprint changed.
//!
//! Keep the schema in sync with EXPERIMENTS.md X17.

use hog_bench::report::{Args, Cell, Check, Report};
use hog_bench::STUDY_HORIZON;
use hog_core::driver::{run_workload, RunResult};
use hog_core::sweep::par_map;
use hog_core::ClusterConfig;
use hog_hdfs::AvailabilityPolicy;
use hog_workload::{StragglerMix, SubmissionSchedule};

/// Pool size of the grid (matches BENCH_churn).
const NODES: usize = 300;

/// Simulated hour of the campus day at which cells start; 8:00 puts the
/// workload's tail inside the 13:00–15:00 reclaim wave (see BENCH_churn).
const WAVE_START_HOUR: f64 = 8.0;

/// Seeds per policy in the full sweep; the study bar is held against the
/// response and storage pooled over this many seeds.
const VERDICT_SEEDS: u64 = 3;

/// The study bar, pooled over the verdict seeds: adaptive must keep mean
/// job response within this factor of flat-10…
const RESPONSE_SLACK: f64 = 1.05;

/// …while cutting total replica storage to at most this fraction of
/// flat-10's.
const STORAGE_BAR: f64 = 0.85;

const GIB: f64 = (1u64 << 30) as f64;

/// `--check` matches cells by policy and seed.
const CHECK: Check = Check {
    sections: &["cells"],
    key: &["policy", "seed"],
    wall_gate: false,
};

struct CellReport {
    policy: &'static str,
    seed: u64,
    wall_ms: u64,
    response_secs: f64,
    mean_job_secs: f64,
    jobs_ok: usize,
    jobs: usize,
    /// Total replica bytes materialised (writes + repairs), GiB.
    replica_gb: f64,
    /// Re-replication (repair) traffic subset, GiB.
    repair_gb: f64,
    /// Usable node-hours integrated over the workload window.
    node_hours: f64,
    targets_raised: u64,
    targets_lowered: u64,
    replicas_trimmed: u64,
    fingerprint: String,
}

fn cell_from(policy: &'static str, seed: u64, wall_ms: u64, r: &RunResult) -> CellReport {
    let node_hours = match (r.workload_start, r.response_time) {
        (Some(s), Some(d)) => r.actual_series.area(s, s + d) / 3600.0,
        _ => 0.0,
    };
    CellReport {
        policy,
        seed,
        wall_ms,
        response_secs: r.response_time.map(|d| d.as_secs_f64()).unwrap_or(0.0),
        mean_job_secs: r.mean_job_response_secs(),
        jobs_ok: r.jobs_succeeded(),
        jobs: r.jobs.len(),
        replica_gb: r.replica_bytes as f64 / GIB,
        repair_gb: r.repair_bytes as f64 / GIB,
        node_hours,
        targets_raised: r.availability.0,
        targets_lowered: r.availability.1,
        replicas_trimmed: r.availability.2,
        fingerprint: hog_bench::outcome_fingerprint(r),
    }
}

/// One grid cell: 300 nodes under the calibrated campus wave with the
/// straggler mix on (same environment as BENCH_churn's calibrated
/// column), differing only in the replication/durability policy.
fn run_cell(policy: &'static str, wave: f64, seed: u64) -> CellReport {
    let schedule = SubmissionSchedule::facebook_truncated(1000 + seed);
    let mut cfg = ClusterConfig::hog(NODES, seed)
        .with_calibrated_churn_at(wave)
        .with_stragglers(StragglerMix::osg_default())
        .named(format!("replication-{policy}"));
    cfg = match policy {
        "flat10" => cfg,
        "adaptive" => cfg.with_availability_policy(AvailabilityPolicy::trua_default()),
        "kcopies" => cfg.with_task_copies(2, true),
        other => panic!("unknown policy label {other}"),
    };
    let (r, wall_ms) = hog_bench::timed(|| run_workload(cfg, &schedule, STUDY_HORIZON));
    cell_from(policy, seed, wall_ms, &r)
}

impl CellReport {
    fn cell(&self) -> Cell {
        Cell::new()
            .str("policy", self.policy)
            .raw("seed", self.seed)
            .raw("wall_ms", self.wall_ms)
            .float("response_secs", self.response_secs, 3)
            .float("mean_job_secs", self.mean_job_secs, 3)
            .raw("jobs_ok", self.jobs_ok)
            .raw("jobs", self.jobs)
            .float("replica_gb", self.replica_gb, 3)
            .float("repair_gb", self.repair_gb, 3)
            .float("node_hours", self.node_hours, 1)
            .raw("targets_raised", self.targets_raised)
            .raw("targets_lowered", self.targets_lowered)
            .raw("replicas_trimmed", self.replicas_trimmed)
            .str("fingerprint", &self.fingerprint)
    }
}

fn print_cell(c: &CellReport) {
    println!(
        "  {:>8} s{}: resp={:>7.0}s mean_job={:>6.1}s ok={}/{} replica={:>6.1}GiB repair={:>6.1}GiB node_h={:>7.0} raise/lower/trim={}/{}/{} wall={}ms fp={}",
        c.policy,
        c.seed,
        c.response_secs,
        c.mean_job_secs,
        c.jobs_ok,
        c.jobs,
        c.replica_gb,
        c.repair_gb,
        c.node_hours,
        c.targets_raised,
        c.targets_lowered,
        c.replicas_trimmed,
        c.wall_ms,
        c.fingerprint
    );
}

/// The study bar: every cell completes its workload; pooled over the
/// verdict seeds, adaptive holds mean job response within
/// [`RESPONSE_SLACK`] of flat-10 while cutting replica storage to at
/// most [`STORAGE_BAR`] of flat-10's. One seed (the smoke grid) is too
/// noisy for the response half, so like BENCH_churn the bar is enforced
/// only at ≥ [`VERDICT_SEEDS`] seeds; smoke still enforces completion
/// and prints the observed deltas.
fn verdict(cells: &[CellReport]) -> bool {
    let mut ok = true;
    for c in cells {
        if c.jobs_ok != c.jobs {
            ok = false;
            println!(
                "  verdict: {} s{} finished only {}/{} jobs — FAIL",
                c.policy, c.seed, c.jobs_ok, c.jobs
            );
        }
    }
    let pooled = |policy: &str| -> (f64, f64, usize) {
        let rows: Vec<&CellReport> = cells.iter().filter(|c| c.policy == policy).collect();
        (
            rows.iter().map(|c| c.mean_job_secs).sum(),
            rows.iter().map(|c| c.replica_gb).sum(),
            rows.len(),
        )
    };
    let (flat_resp, flat_gb, n_flat) = pooled("flat10");
    let (ad_resp, ad_gb, n_ad) = pooled("adaptive");
    if n_flat > 0 && n_flat == n_ad {
        let enforced = n_flat as u64 >= VERDICT_SEEDS;
        let resp_pass = ad_resp <= flat_resp * RESPONSE_SLACK;
        let gb_pass = ad_gb <= flat_gb * STORAGE_BAR;
        if enforced {
            ok &= resp_pass && gb_pass;
        }
        println!(
            "  verdict: adaptive vs flat10 over {} seed(s): mean_job {:.1}s -> {:.1}s ({:+.1}% vs +{:.0}% slack) — {}",
            n_flat,
            flat_resp / n_flat as f64,
            ad_resp / n_ad as f64,
            (ad_resp / flat_resp - 1.0) * 100.0,
            (RESPONSE_SLACK - 1.0) * 100.0,
            if !enforced {
                "not enforced on the smoke grid"
            } else if resp_pass {
                "PASS"
            } else {
                "FAIL"
            }
        );
        println!(
            "  verdict: replica storage {:.1}GiB -> {:.1}GiB ({:.1}% of flat vs the {:.0}% bar) — {}",
            flat_gb / n_flat as f64,
            ad_gb / n_ad as f64,
            ad_gb / flat_gb * 100.0,
            STORAGE_BAR * 100.0,
            if !enforced {
                "not enforced on the smoke grid"
            } else if gb_pass {
                "PASS"
            } else {
                "FAIL"
            }
        );
    }
    ok
}

fn main() {
    let args = Args::parse("replication");
    let seed = args.seed;
    let wave = args.value("--wave").unwrap_or(WAVE_START_HOUR);
    let schedule = SubmissionSchedule::facebook_truncated(1000 + seed);
    println!(
        "replication: {}, seed {seed}",
        hog_bench::describe(&schedule)
    );

    let grid_seeds = if args.smoke { 1 } else { VERDICT_SEEDS };
    let grid: Vec<(&'static str, u64)> = (seed..seed + grid_seeds)
        .flat_map(|s| ["flat10", "adaptive", "kcopies"].map(|policy| (policy, s)))
        .collect();
    let sweep = |threads| par_map(&grid, threads, |&(policy, s)| run_cell(policy, wave, s));
    let report = |cells: &[CellReport]| {
        Report::new("replication", seed).section("cells", cells.iter().map(CellReport::cell))
    };

    let cells = sweep(args.threads);
    for c in &cells {
        print_cell(c);
    }
    let ok = verdict(&cells);
    args.finish(&report(&cells), &CHECK, || report(&sweep(1)));

    if !ok {
        eprintln!("replication: study bar missed (see verdict above)");
        std::process::exit(1);
    }
}
