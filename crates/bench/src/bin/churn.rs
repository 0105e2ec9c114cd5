//! Churn-model study (X16): synthetic vs trace-calibrated preemption,
//! with and without predictive failure handling.
//!
//! The grid of cells crosses the churn generator (the legacy exponential
//! lifetime dialled to the paper's fluctuating-pool pressure vs the
//! OSG-calibrated heavy-tailed + diurnal model of DESIGN §16.1) with the
//! failure-handling policy (the failure-aware placement scheduler vs the
//! same scheduler with prediction armed, which launches rescue copies of
//! tasks running on nodes it expects to die before the 30 s detector
//! fires — DESIGN §16.2). The study question: how much of the response
//! time lost to realistic churn does the predictive layer buy back?
//!
//! The full sweep adds two sections:
//!
//! * a day-long SWIM-shaped diurnal trace (≈1000 jobs over 24 h,
//!   [`SubmissionSchedule::facebook_day`]) replayed under calibrated
//!   churn, where the preemption wave and the arrival wave overlap;
//! * an elastic-controller comparison under calibrated churn with and
//!   without the diurnal forecast (DESIGN §16.3), measuring whether
//!   pre-growth ahead of the predicted wave saves response time.
//!
//! Usage: `churn [--smoke] [--seed S] [--wave H] [--out PATH]
//! [--check BASELINE] [--threads N] [--verify-threads]` (see
//! [`hog_bench::report::Args`]).
//!
//! * `--smoke` runs only the 2×2 truncated-workload grid at the base
//!   seed (CI gate); the full sweep repeats the grid at
//!   [`VERDICT_SEEDS`] consecutive seeds and holds the win bar against
//!   the pooled result. Each grid seed `s` uses schedule seed 1000+s.
//! * `--wave H` starts the calibrated cells at hour `H` of the campus
//!   day (default [`WAVE_START_HOUR`]; tuning knob for studying other
//!   workload/wave phase alignments).
//! * `--check` fails if any shared cell's outcome fingerprint changed.
//!
//! The schema mirrors BENCH_sched.json plus the rescue counters. Keep it
//! in sync with EXPERIMENTS.md X16.

use hog_bench::report::{Args, Cell, Check, Report};
use hog_bench::{timed, STUDY_HORIZON};
use hog_core::driver::{run_workload, RunResult};
use hog_core::sweep::par_map;
use hog_core::{ClusterConfig, SchedPolicy};
use hog_grid::{DiurnalForecast, ElasticConfig};
use hog_sim_core::SimDuration;
use hog_workload::{StragglerMix, SubmissionSchedule};

/// Pool size of the truncated-workload grid.
const NODES: usize = 300;

/// Mean glidein lifetime for the *synthetic* churn cells: one eviction
/// every ~2 h per node, the paper's Figure-5 fluctuating-pool pressure
/// and roughly the calibrated mixture's own mean — so the two churn
/// columns differ in lifetime *shape*, not total pressure.
const EXP_LIFETIME_SECS: u64 = 2 * 3600;

/// Simulated hour of the campus day at which the truncated-workload
/// cells start. Starting at 8:00 the 88-job schedule submits through
/// the morning, and under calibrated churn its makespan stretches into
/// the 13:00–15:00 reclaim wave of the per-site profiles, so the jobs
/// at the back of the FIFO queue ride the wave — the regime the study
/// is about. (Starting *at* the peak collapses every policy equally;
/// starting at midnight never meets the wave at all.) The day-long
/// trace keeps the midnight start and crosses the wave naturally.
const WAVE_START_HOUR: f64 = 8.0;

/// Seeds per verdict cell in the full sweep: the FA-vs-predictive duel
/// is paired (both policies see the same preemption schedule per seed),
/// but schedule divergence makes single-seed deltas noisy, so the study
/// bar is held against the response pooled over this many seeds.
const VERDICT_SEEDS: u64 = 3;

/// Controller bounds for the forecast comparison.
const ELASTIC_MIN: usize = 60;
const ELASTIC_MAX: usize = 300;

/// The study bar: under calibrated churn, prediction must recover at
/// least this fraction of mean job response vs placement-only handling.
const PREDICTIVE_WIN: f64 = 0.10;

/// `--check` matches cells by policy, churn model, workload and seed.
const CHECK: Check = Check {
    sections: &["cells", "extended"],
    key: &["policy", "churn", "workload", "seed"],
    wall_gate: false,
};

/// A cell of the full sweep's extended section.
#[derive(Clone, Copy)]
enum Extended {
    /// The day-long trace under one failure-handling policy.
    Day(SchedPolicy),
    /// The elastic controller, without or with the diurnal forecast.
    Elastic { forecast: bool },
}

struct CellReport {
    policy: SchedPolicy,
    churn: &'static str,
    workload: &'static str,
    seed: u64,
    wall_ms: u64,
    response_secs: f64,
    mean_job_secs: f64,
    jobs_ok: usize,
    jobs: usize,
    speculative: u64,
    failures: u64,
    rescue_copies: u64,
    rescue_hits: u64,
    rescue_misses: u64,
    fingerprint: String,
}

impl CellReport {
    /// Share of rescue copies that were placed on time: the doomed
    /// attempt's node really died and the copy was still alive to cover
    /// for it (1.0 when prediction never fired).
    fn hit_rate(&self) -> f64 {
        let judged = self.rescue_hits + self.rescue_misses;
        if judged == 0 {
            1.0
        } else {
            self.rescue_hits as f64 / judged as f64
        }
    }

    fn cell(&self) -> Cell {
        Cell::new()
            .str("policy", self.policy.as_str())
            .str("churn", self.churn)
            .str("workload", self.workload)
            .raw("seed", self.seed)
            .raw("wall_ms", self.wall_ms)
            .float("response_secs", self.response_secs, 3)
            .float("mean_job_secs", self.mean_job_secs, 3)
            .raw("jobs_ok", self.jobs_ok)
            .raw("jobs", self.jobs)
            .raw("speculative", self.speculative)
            .raw("failures", self.failures)
            .raw("rescue_copies", self.rescue_copies)
            .raw("rescue_hits", self.rescue_hits)
            .raw("rescue_misses", self.rescue_misses)
            .float("rescue_hit_rate", self.hit_rate(), 4)
            .str("fingerprint", &self.fingerprint)
    }
}

fn cell_from(
    policy: SchedPolicy,
    churn: &'static str,
    workload: &'static str,
    seed: u64,
    wall_ms: u64,
    r: &RunResult,
) -> CellReport {
    CellReport {
        policy,
        churn,
        workload,
        seed,
        wall_ms,
        response_secs: r.response_time.map(|d| d.as_secs_f64()).unwrap_or(0.0),
        mean_job_secs: r.mean_job_response_secs(),
        jobs_ok: r.jobs_succeeded(),
        jobs: r.jobs.len(),
        speculative: r.jt.speculative,
        failures: r.jt.failures,
        rescue_copies: r.jt.rescue_copies,
        rescue_hits: r.jt.rescue_hits,
        rescue_misses: r.jt.rescue_misses,
        fingerprint: hog_bench::outcome_fingerprint(r),
    }
}

/// Base config for a grid cell: 300 nodes, stragglers on (the churn
/// study always runs the heavy-tailed slowdown mix — it is part of the
/// calibrated environment, and keeping it in every cell means the churn
/// columns differ only in the preemption process).
fn cell_cfg(
    policy: SchedPolicy,
    churn: &'static str,
    start_hour: f64,
    seed: u64,
    label: String,
) -> ClusterConfig {
    let mut cfg = ClusterConfig::hog(NODES, seed)
        .with_scheduler(policy)
        .with_stragglers(StragglerMix::osg_default())
        .named(label);
    cfg = match churn {
        "exponential" => cfg.with_mean_lifetime(SimDuration::from_secs(EXP_LIFETIME_SECS)),
        "calibrated" => cfg.with_calibrated_churn_at(start_hour),
        other => panic!("unknown churn label {other}"),
    };
    cfg
}

fn run_cell(policy: SchedPolicy, churn: &'static str, wave: f64, seed: u64) -> CellReport {
    // Each seed gets its own arrival pattern too (schedule seed 1000+S,
    // the convention every bench bin shares), so pooling over seeds
    // averages over workload phase as well as preemption draws.
    let schedule = SubmissionSchedule::facebook_truncated(1000 + seed);
    let cfg = cell_cfg(
        policy,
        churn,
        wave,
        seed,
        format!("churn-{}-{}", churn, policy.as_str()),
    );
    let (r, wall_ms) = timed(|| run_workload(cfg, &schedule, STUDY_HORIZON));
    cell_from(policy, churn, "truncated", seed, wall_ms, &r)
}

/// Day-long diurnal trace under calibrated churn: the ≈1000-job SWIM
/// shape whose arrival peak overlaps the campuses' preemption waves.
fn run_day(policy: SchedPolicy, seed: u64, schedule: &SubmissionSchedule) -> CellReport {
    let cfg = cell_cfg(
        policy,
        "calibrated",
        0.0,
        seed,
        format!("churn-day-{}", policy.as_str()),
    );
    let horizon = SimDuration::from_secs(60 * 3600);
    let (r, wall_ms) = timed(|| run_workload(cfg, schedule, horizon));
    cell_from(policy, "calibrated", "day", seed, wall_ms, &r)
}

/// Elastic controller under calibrated churn, with or without the
/// diurnal pre-growth forecast (both predictive, truncated workload).
fn run_forecast(forecast: bool, wave: f64, seed: u64, schedule: &SubmissionSchedule) -> CellReport {
    let churn: &'static str = if forecast { "forecast" } else { "reactive" };
    let mut ecfg = ElasticConfig::new(ELASTIC_MIN, ELASTIC_MAX);
    if forecast {
        // Same wave phase as the churn driving the pool: peak 14:00 on a
        // clock whose t = 0 is the wave start hour.
        ecfg = ecfg.with_forecast(DiurnalForecast {
            amplitude: 0.5,
            peak_hour: (14.0 - wave).rem_euclid(24.0),
        });
    }
    let cfg = cell_cfg(
        SchedPolicy::Predictive,
        "calibrated",
        wave,
        seed,
        format!("churn-elastic-{churn}"),
    )
    .with_elastic_config(ecfg);
    let (r, wall_ms) = timed(|| run_workload(cfg, schedule, STUDY_HORIZON));
    let mut c = cell_from(
        SchedPolicy::Predictive,
        "calibrated",
        "truncated",
        seed,
        wall_ms,
        &r,
    );
    c.workload = if forecast {
        "elastic+forecast"
    } else {
        "elastic"
    };
    c
}

fn print_cell(c: &CellReport) {
    println!(
        "  {:>13} {:>11} {:>16} s{}: resp={:>7.0}s mean_job={:>6.1}s ok={}/{} spec={} fail={} rescue={} hit/miss={}/{} ({:.0}%) wall={}ms fp={}",
        c.policy.as_str(),
        c.churn,
        c.workload,
        c.seed,
        c.response_secs,
        c.mean_job_secs,
        c.jobs_ok,
        c.jobs,
        c.speculative,
        c.failures,
        c.rescue_copies,
        c.rescue_hits,
        c.rescue_misses,
        c.hit_rate() * 100.0,
        c.wall_ms,
        c.fingerprint
    );
}

/// The study bar: every cell completes its whole workload, and under
/// calibrated churn the predictive policy recovers ≥ [`PREDICTIVE_WIN`]
/// of mean job response vs placement-only failure handling, pooled over
/// the verdict seeds. A single seed (the smoke grid) is too noisy for a
/// fair duel — schedule divergence makes per-seed deltas swing ±10% —
/// so, like BENCH_elastic, only the full multi-seed sweep enforces the
/// win bar; smoke still enforces completion and prints the observed win.
fn verdict(cells: &[CellReport], extra: &[CellReport]) -> bool {
    let mut ok = true;
    for c in cells.iter().chain(extra) {
        if c.jobs_ok != c.jobs {
            ok = false;
            println!(
                "  verdict: {} {} {} s{} finished only {}/{} jobs — FAIL",
                c.policy.as_str(),
                c.churn,
                c.workload,
                c.seed,
                c.jobs_ok,
                c.jobs
            );
        }
    }
    let pooled = |policy: &str, churn: &str| -> (f64, usize) {
        let ms: Vec<f64> = cells
            .iter()
            .filter(|c| {
                c.policy.as_str() == policy && c.churn == churn && c.workload == "truncated"
            })
            .map(|c| c.mean_job_secs)
            .collect();
        (ms.iter().sum(), ms.len())
    };
    let (base, n_base) = pooled("failure_aware", "calibrated");
    let (pred, n_pred) = pooled("predictive", "calibrated");
    if n_base > 0 && n_base == n_pred {
        let win = 1.0 - pred / base;
        let enforced = n_base as u64 >= VERDICT_SEEDS;
        let pass = pred <= base * (1.0 - PREDICTIVE_WIN);
        if enforced {
            ok &= pass;
        }
        println!(
            "  verdict: calibrated mean_job {:.1}s -> {:.1}s with prediction over {} seed(s) ({:+.1}% vs the {:.0}% bar) — {}",
            base / n_base as f64,
            pred / n_pred as f64,
            n_base,
            win * 100.0,
            PREDICTIVE_WIN * 100.0,
            if !enforced {
                "not enforced on the smoke grid"
            } else if pass {
                "PASS"
            } else {
                "FAIL"
            }
        );
    }
    ok
}

fn main() {
    let args = Args::parse("churn");
    let (seed, smoke) = (args.seed, args.smoke);
    let wave = args.value("--wave").unwrap_or(WAVE_START_HOUR);
    let schedule = SubmissionSchedule::facebook_truncated(1000 + seed);
    println!("churn: {}, seed {seed}", hog_bench::describe(&schedule));
    let day = (!smoke).then(|| SubmissionSchedule::facebook_day(1000 + seed));

    // Smoke runs the 2×2 grid at the base seed; the full sweep runs it
    // at every verdict seed so the study bar is judged on pooled
    // responses rather than one draw.
    let grid_seeds = if smoke { 1 } else { VERDICT_SEEDS };
    let mut grid = Vec::new();
    for s in seed..seed + grid_seeds {
        for churn in ["exponential", "calibrated"] {
            for policy in [SchedPolicy::FailureAware, SchedPolicy::Predictive] {
                grid.push((policy, churn, s));
            }
        }
    }
    let extended: &[Extended] = if smoke {
        &[]
    } else {
        &[
            Extended::Day(SchedPolicy::FailureAware),
            Extended::Day(SchedPolicy::Predictive),
            Extended::Elastic { forecast: false },
            Extended::Elastic { forecast: true },
        ]
    };
    let sweep = |threads| {
        let cells = par_map(&grid, threads, |&(policy, churn, s)| {
            run_cell(policy, churn, wave, s)
        });
        let extra = par_map(extended, threads, |&cell| match cell {
            Extended::Day(policy) => run_day(policy, seed, day.as_ref().expect("day schedule")),
            Extended::Elastic { forecast } => run_forecast(forecast, wave, seed, &schedule),
        });
        (cells, extra)
    };
    let report = |(cells, extra): &(Vec<CellReport>, Vec<CellReport>)| {
        Report::new("churn", seed)
            .section("cells", cells.iter().map(CellReport::cell))
            .section("extended", extra.iter().map(CellReport::cell))
    };

    let run = sweep(args.threads);
    for c in &run.0 {
        print_cell(c);
    }
    if !run.1.is_empty() {
        println!("  -- day-long diurnal trace + forecast comparison --");
        for c in &run.1 {
            print_cell(c);
        }
    }
    let ok = verdict(&run.0, &run.1);
    args.finish(&report(&run), &CHECK, || report(&sweep(1)));

    if !ok {
        eprintln!("churn: study bar missed (see verdict above)");
        std::process::exit(1);
    }
}
