//! Scheduler policy sweep: replay the truncated Facebook workload under
//! each `hog-sched` policy (FIFO, fair + delay scheduling, failure-aware)
//! across pool sizes and preemption pressure, and record the locality
//! split (node/rack/site/remote), speculation, failures and workload
//! response time per cell — the data behind EXPERIMENTS.md's scheduler
//! study.
//!
//! A second section runs the preemption-burst ablation (X11): a scripted
//! chaos plan hammers two sites with correlated `PreemptBurst`s while the
//! invariant audit is armed, comparing FIFO's placement (which keeps
//! walking into the blast zone) against the failure-aware policy (which
//! learns the sites' reliability scores and routes work around them).
//!
//! Usage: `sched [--smoke] [--ablation] [--seed S] [--out PATH]
//! [--check BASELINE] [--threads N] [--verify-threads]` (see
//! [`hog_bench::report::Args`]). `--smoke` runs only the 100-node stable
//! tier (CI-friendly), `--ablation` only the X11 burst ablation.
//! `--check` fails if any shared cell's outcome fingerprint changed —
//! the sweep is deterministic, so that means the simulated outcome did.
//! Keep the schema in sync with EXPERIMENTS.md.

use hog_bench::report::{Args, Cell, Check, Report};
use hog_bench::{burst_plan, timed, BURST_SITES, STUDY_HORIZON};
use hog_core::driver::{run_workload, RunResult};
use hog_core::sweep::par_map;
use hog_core::{ClusterConfig, SchedPolicy};
use hog_sim_core::SimDuration;
use hog_workload::SubmissionSchedule;

/// Policies swept, in report order.
const POLICIES: [SchedPolicy; 3] = [
    SchedPolicy::Fifo,
    SchedPolicy::Fair,
    SchedPolicy::FailureAware,
];

/// `(pool size, churn label, mean lifetime override)` cells of the sweep.
/// `None` keeps the stable-site default (12 h mean glidein lifetime);
/// `Some` dials preemption pressure up to one eviction every ~2 h per
/// node, the paper's Figure-5 "fluctuating pool" regime.
const CELLS: [(usize, &str, Option<u64>); 3] = [
    (100, "stable", None),
    (300, "stable", None),
    (100, "churn", Some(2 * 3600)),
];

/// `--check` matches cells by policy, pool size and churn regime.
const CHECK: Check = Check {
    sections: &["cells", "ablation"],
    key: &["policy", "nodes", "churn"],
    wall_gate: false,
};

struct CellReport {
    policy: SchedPolicy,
    nodes: usize,
    churn: &'static str,
    wall_ms: u64,
    response_secs: f64,
    mean_job_secs: f64,
    jobs_ok: usize,
    jobs: usize,
    node_local: u64,
    rack_local: u64,
    site_local: u64,
    remote: u64,
    speculative: u64,
    failures: u64,
    fairness: f64,
    fingerprint: String,
}

impl CellReport {
    /// Share of map launches that hit node- or rack-local input.
    fn local_share(&self) -> f64 {
        let total = self.node_local + self.rack_local + self.site_local + self.remote;
        if total == 0 {
            0.0
        } else {
            (self.node_local + self.rack_local) as f64 / total as f64
        }
    }

    fn cell(&self) -> Cell {
        Cell::new()
            .str("policy", self.policy.as_str())
            .raw("nodes", self.nodes)
            .str("churn", self.churn)
            .raw("wall_ms", self.wall_ms)
            .float("response_secs", self.response_secs, 3)
            .float("mean_job_secs", self.mean_job_secs, 3)
            .raw("jobs_ok", self.jobs_ok)
            .raw("jobs", self.jobs)
            .raw("node_local", self.node_local)
            .raw("rack_local", self.rack_local)
            .raw("site_local", self.site_local)
            .raw("remote", self.remote)
            .float("local_share", self.local_share(), 4)
            .raw("speculative", self.speculative)
            .raw("failures", self.failures)
            .float("fairness", self.fairness, 4)
            .str("fingerprint", &self.fingerprint)
    }
}

/// Time-weighted mean of the `mapreduce/fairness_jain` gauge over the
/// workload window (1.0 when metrics are off or nothing was recorded).
fn mean_fairness(r: &RunResult) -> f64 {
    let Some(reg) = &r.metrics else { return 1.0 };
    let Some(s) = reg.find("mapreduce/fairness_jain") else {
        return 1.0;
    };
    match (r.workload_start, r.response_time) {
        (Some(start), Some(resp)) if resp.as_millis() > 0 => s.mean_over(start, start + resp),
        _ => s.last_value(),
    }
}

fn cell_from(
    policy: SchedPolicy,
    nodes: usize,
    churn: &'static str,
    wall_ms: u64,
    r: &RunResult,
) -> CellReport {
    CellReport {
        policy,
        nodes,
        churn,
        wall_ms,
        response_secs: r.response_time.map(|d| d.as_secs_f64()).unwrap_or(0.0),
        mean_job_secs: r.mean_job_response_secs(),
        jobs_ok: r.jobs_succeeded(),
        jobs: r.jobs.len(),
        node_local: r.jt.node_local,
        rack_local: r.jt.rack_local,
        site_local: r.jt.site_local,
        remote: r.jt.remote,
        speculative: r.jt.speculative,
        failures: r.jt.failures,
        fairness: mean_fairness(r),
        fingerprint: hog_bench::outcome_fingerprint(r),
    }
}

fn run_cell(
    policy: SchedPolicy,
    nodes: usize,
    churn: &'static str,
    lifetime: Option<u64>,
    seed: u64,
    schedule: &SubmissionSchedule,
) -> CellReport {
    let mut cfg = ClusterConfig::hog(nodes, seed)
        .with_scheduler(policy)
        .with_metrics()
        .named(format!("sched-{}-{nodes}-{churn}", policy.as_str()));
    if let Some(secs) = lifetime {
        cfg = cfg.with_mean_lifetime(SimDuration::from_secs(secs));
    }
    let (r, wall_ms) = timed(|| run_workload(cfg, schedule, STUDY_HORIZON));
    cell_from(policy, nodes, churn, wall_ms, &r)
}

fn run_burst(policy: SchedPolicy, seed: u64, schedule: &SubmissionSchedule) -> CellReport {
    let cfg = ClusterConfig::hog(300, seed)
        .with_scheduler(policy)
        .with_fault_plan(burst_plan())
        .with_audit(true)
        .with_metrics()
        .named(format!("sched-burst-{}", policy.as_str()));
    let (r, wall_ms) = timed(|| run_workload(cfg, schedule, STUDY_HORIZON));
    cell_from(policy, 300, "bursts", wall_ms, &r)
}

fn print_cell(c: &CellReport) {
    println!(
        "  {:>13} {:>4}n {:>6}: resp={:>7.0}s mean_job={:>6.1}s ok={}/{} locality n/r/s/rem={}/{}/{}/{} local={:.1}% spec={} fail={} jain={:.3} wall={}ms fp={}",
        c.policy.as_str(),
        c.nodes,
        c.churn,
        c.response_secs,
        c.mean_job_secs,
        c.jobs_ok,
        c.jobs,
        c.node_local,
        c.rack_local,
        c.site_local,
        c.remote,
        c.local_share() * 100.0,
        c.speculative,
        c.failures,
        c.fairness,
        c.wall_ms,
        c.fingerprint
    );
}

fn main() {
    let args = Args::parse("sched");
    let (seed, smoke) = (args.seed, args.smoke);
    let ablation_only = args.flag("--ablation");
    let schedule = SubmissionSchedule::facebook_truncated(1000 + seed);
    println!("sched: {}, seed {seed}", hog_bench::describe(&schedule));

    let mut grid = Vec::new();
    for &(nodes, churn, lifetime) in &CELLS {
        if ablation_only || (smoke && (nodes, churn) != (CELLS[0].0, CELLS[0].1)) {
            continue;
        }
        for &policy in &POLICIES {
            grid.push((policy, nodes, churn, lifetime));
        }
    }
    let bursts: &[SchedPolicy] = if smoke {
        &[]
    } else {
        &[SchedPolicy::Fifo, SchedPolicy::FailureAware]
    };
    let sweep = |threads| {
        let cells = par_map(&grid, threads, |&(policy, nodes, churn, lifetime)| {
            run_cell(policy, nodes, churn, lifetime, seed, &schedule)
        });
        let ablation = par_map(bursts, threads, |&policy| {
            run_burst(policy, seed, &schedule)
        });
        (cells, ablation)
    };
    let report = |(cells, ablation): &(Vec<CellReport>, Vec<CellReport>)| {
        Report::new("sched", seed)
            .section("cells", cells.iter().map(CellReport::cell))
            .section("ablation", ablation.iter().map(CellReport::cell))
    };

    let run = sweep(args.threads);
    for c in &run.0 {
        print_cell(c);
    }
    if !run.1.is_empty() {
        println!("  -- X11 preemption bursts on {BURST_SITES:?}, audit on --");
        for c in &run.1 {
            print_cell(c);
        }
    }
    args.finish(&report(&run), &CHECK, || report(&sweep(1)));
}
