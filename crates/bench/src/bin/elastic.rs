//! Elastic-pool study (X12): the closed-loop glidein controller against
//! static pools on the truncated Facebook workload.
//!
//! Static tiers hold 40 / 100 / 300 glideins for the whole run (the
//! operator pre-provisions, as in the paper's §IV-A methodology); the
//! elastic run starts from the 40-node floor and lets the controller
//! resize between 40 and 300 from the observed task backlog. The study
//! question is Table-IV economics: how close does the controller get to
//! the best static pool's mean job response while consuming fewer
//! node·hours of grid allocation?
//!
//! A second section repeats the comparison under the X11 correlated
//! preemption-burst plan: the controller must re-grow through the same
//! churn the bursts inflict, and its failure-aware shrink should avoid
//! handing nodes back at the blasted sites.
//!
//! Usage: `elastic [--smoke] [--seed S] [--out PATH] [--check BASELINE]
//! [--threads N] [--verify-threads]` (see [`hog_bench::report::Args`]).
//! `--smoke` runs only the static-100 and elastic tiers (CI gate).
//! `--check` fails on any changed outcome fingerprint or a wall-clock
//! regression past the shared gate (+25% + 250 ms), per shared label.
//! Keep the schema in sync with EXPERIMENTS.md X12.

use hog_bench::report::{Args, Cell, Check, Report};
use hog_bench::{burst_plan, timed, BURST_SITES, STUDY_HORIZON};
use hog_core::driver::{run_workload, RunResult};
use hog_core::sweep::par_map;
use hog_core::ClusterConfig;
use hog_workload::SubmissionSchedule;

/// Static pool sizes compared against the controller.
const STATIC_TIERS: [usize; 3] = [40, 100, 300];
/// Controller bounds for the elastic runs.
const ELASTIC_MIN: usize = 40;
const ELASTIC_MAX: usize = 300;
/// `--check` matches tiers by label and gates their wall-clock.
const CHECK: Check = Check {
    sections: &["tiers", "ablation"],
    key: &["label"],
    wall_gate: true,
};

struct TierReport {
    label: String,
    elastic: bool,
    wall_ms: u64,
    response_secs: f64,
    mean_job_secs: f64,
    jobs_ok: usize,
    jobs: usize,
    node_hours: f64,
    grows: usize,
    shrinks: usize,
    peak_target: usize,
    fingerprint: String,
}

fn report(label: String, initial: usize, elastic: bool, wall_ms: u64, r: &RunResult) -> TierReport {
    if std::env::var_os("HOG_ELASTIC_JOBS").is_some() {
        let t0 = r.workload_start.unwrap_or(hog_sim_core::SimTime::ZERO);
        for j in &r.jobs {
            let resp = j
                .finished
                .map(|f| f.saturating_since(j.submitted).as_secs_f64())
                .unwrap_or(-1.0);
            eprintln!(
                "JOB {} {} {} {:.0} {:.1} {}",
                label,
                j.index,
                j.maps,
                j.submitted.saturating_since(t0).as_secs_f64(),
                resp,
                j.bin
            );
        }
    }
    let grows = r.elastic_actions.iter().filter(|&&(_, d)| d > 0).count();
    let shrinks = r.elastic_actions.len() - grows;
    // Walk the resize history to find the largest pool the controller
    // ever asked for (static runs: the fixed tier size).
    let mut target = initial as i64;
    let mut peak = target;
    for &(_, d) in &r.elastic_actions {
        target += d;
        peak = peak.max(target);
    }
    TierReport {
        label,
        elastic,
        wall_ms,
        response_secs: r.response_time.map(|d| d.as_secs_f64()).unwrap_or(0.0),
        mean_job_secs: r.mean_job_response_secs(),
        jobs_ok: r.jobs_succeeded(),
        jobs: r.jobs.len(),
        node_hours: r.area_reported / 3600.0,
        grows,
        shrinks,
        peak_target: peak.max(0) as usize,
        fingerprint: hog_bench::outcome_fingerprint(r),
    }
}

fn run_static(nodes: usize, seed: u64, schedule: &SubmissionSchedule) -> TierReport {
    let cfg = ClusterConfig::hog(nodes, seed).named(format!("static-{nodes}"));
    let (r, wall_ms) = timed(|| run_workload(cfg, schedule, STUDY_HORIZON));
    assert!(!r.stopped_early, "static-{nodes} did not finish");
    report(format!("static-{nodes}"), nodes, false, wall_ms, &r)
}

fn run_elastic(seed: u64, schedule: &SubmissionSchedule) -> TierReport {
    let label = format!("elastic-{ELASTIC_MIN}-{ELASTIC_MAX}");
    let cfg = ClusterConfig::hog(ELASTIC_MIN, seed)
        .with_elastic(ELASTIC_MIN, ELASTIC_MAX)
        .named(label.clone());
    let (r, wall_ms) = timed(|| run_workload(cfg, schedule, STUDY_HORIZON));
    assert!(!r.stopped_early, "elastic run did not finish");
    if std::env::var_os("HOG_ELASTIC_TIMELINE").is_some() {
        let t0 = r.workload_start.unwrap_or(hog_sim_core::SimTime::ZERO);
        for &(t, d) in &r.elastic_actions {
            println!(
                "    t+{:>6.0}s {:>+4}",
                t.saturating_since(t0).as_secs_f64(),
                d
            );
        }
    }
    report(label, ELASTIC_MIN, true, wall_ms, &r)
}

fn run_burst(elastic: bool, seed: u64, schedule: &SubmissionSchedule) -> TierReport {
    let label = if elastic {
        format!("burst-elastic-{ELASTIC_MIN}-{ELASTIC_MAX}")
    } else {
        "burst-static-300".to_string()
    };
    let mut cfg = ClusterConfig::hog(if elastic { ELASTIC_MIN } else { 300 }, seed)
        .with_fault_plan(burst_plan())
        .named(label.clone());
    if elastic {
        cfg = cfg.with_elastic(ELASTIC_MIN, ELASTIC_MAX);
    }
    let (r, wall_ms) = timed(|| run_workload(cfg, schedule, STUDY_HORIZON));
    assert!(!r.stopped_early, "{label} did not finish");
    let initial = if elastic { ELASTIC_MIN } else { 300 };
    report(label, initial, elastic, wall_ms, &r)
}

impl TierReport {
    fn cell(&self) -> Cell {
        Cell::new()
            .str("label", &self.label)
            .raw("elastic", self.elastic)
            .raw("wall_ms", self.wall_ms)
            .float("response_secs", self.response_secs, 3)
            .float("mean_job_secs", self.mean_job_secs, 3)
            .raw("jobs_ok", self.jobs_ok)
            .raw("jobs", self.jobs)
            .float("node_hours", self.node_hours, 1)
            .raw("grows", self.grows)
            .raw("shrinks", self.shrinks)
            .raw("peak_target", self.peak_target)
            .str("fingerprint", &self.fingerprint)
    }
}

fn print_tier(t: &TierReport) {
    println!(
        "  {:>22}: resp={:>7.0}s mean_job={:>6.1}s ok={}/{} node_hours={:>8.1} resizes={}+{} peak={} wall={}ms fp={}",
        t.label,
        t.response_secs,
        t.mean_job_secs,
        t.jobs_ok,
        t.jobs,
        t.node_hours,
        t.grows,
        t.shrinks,
        t.peak_target,
        t.wall_ms,
        t.fingerprint
    );
}

/// The study's pass bar: the controller lands within 10% of the best
/// static pool's mean job response while spending fewer node·hours.
fn verdict(tiers: &[TierReport]) -> bool {
    let Some(el) = tiers.iter().find(|t| t.elastic) else {
        return true;
    };
    let Some(best) = tiers
        .iter()
        .filter(|t| !t.elastic)
        .min_by(|a, b| a.mean_job_secs.total_cmp(&b.mean_job_secs))
    else {
        return true;
    };
    let bar = best.mean_job_secs * 1.10;
    let ok = el.mean_job_secs <= bar && el.node_hours < best.node_hours;
    println!(
        "  verdict: elastic mean_job={:.1}s vs best static ({}) {:.1}s (bar {:.1}s), node_hours {:.1} vs {:.1} — {}",
        el.mean_job_secs,
        best.label,
        best.mean_job_secs,
        bar,
        el.node_hours,
        best.node_hours,
        if ok { "PASS" } else { "FAIL" }
    );
    ok
}

fn main() {
    let args = Args::parse("elastic");
    let (seed, smoke) = (args.seed, args.smoke);
    let schedule = SubmissionSchedule::facebook_truncated(1000 + seed);
    println!("elastic: {}, seed {seed}", hog_bench::describe(&schedule));

    // `None` is the elastic run; `Some(n)` a static pool of n.
    let mut grid: Vec<Option<usize>> = STATIC_TIERS
        .iter()
        .filter(|&&n| !smoke || n == 100)
        .map(|&n| Some(n))
        .collect();
    grid.push(None);
    let bursts: &[bool] = if smoke { &[] } else { &[false, true] };
    let sweep = |threads| {
        let tiers = par_map(&grid, threads, |&tier| match tier {
            Some(n) => run_static(n, seed, &schedule),
            None => run_elastic(seed, &schedule),
        });
        let ablation = par_map(bursts, threads, |&elastic| {
            run_burst(elastic, seed, &schedule)
        });
        (tiers, ablation)
    };
    let report = |(tiers, ablation): &(Vec<TierReport>, Vec<TierReport>)| {
        Report::new("elastic", seed)
            .section("tiers", tiers.iter().map(TierReport::cell))
            .section("ablation", ablation.iter().map(TierReport::cell))
    };

    let run = sweep(args.threads);
    for t in &run.0 {
        print_tier(t);
    }
    let ok = verdict(&run.0);
    if !run.1.is_empty() {
        println!("  -- X11 preemption bursts on {BURST_SITES:?} --");
        for t in &run.1 {
            print_tier(t);
        }
    }
    args.finish(&report(&run), &CHECK, || report(&sweep(1)));

    // The smoke tier only compares against static-100, which elastic
    // legitimately beats on node-hours but not necessarily on response;
    // only the full sweep enforces the study bar.
    if !smoke && !ok {
        eprintln!("elastic: controller missed the study bar (see verdict above)");
        std::process::exit(1);
    }
}
