//! Replay one benchmark workload for a fixed host-time budget and print
//! its metrics as one line of JSON.
//!
//! Usage:
//!   hog-perfbench --workload <paper_100|pool_10k|churn_adaptive_300>
//!                 [--seed N] [--seconds S] [--trace 0|1]
//!
//! `--trace 0` replays the workload's suite of seeded variants untraced,
//! in an order that `--seed` rotates, and prints the end-to-end metrics,
//! scaled to the reference host's speed. `--trace 1` alternates untraced
//! and traced replays of variant 0 and prints the per-layer metrics.
//! Either way every correctness gate is checked; the last stdout line is
//! the report, and a readable summary goes to stderr. The exit code is 1 when a gate failed. See README.md.

use hog_perfbench::calibrate;
use hog_perfbench::probe::{Kind, Profile};
use hog_perfbench::report::{Metric, Report, END_TO_END, PER_LAYER};
use hog_perfbench::{median, replay, setup_only, variant_seed, Sample, Workload};
use hog_workload::SubmissionSchedule;
use std::time::{Duration, Instant};

/// Set-up samples come in blocks, one before each replay and one after
/// the last, so that they spread over the run as the replays do. A block
/// makes at least `SETUP_BLOCK_MIN` set-ups and stops at `SETUP_BLOCK_MAX`
/// or after `SETUP_BLOCK_S` seconds.
const SETUP_BLOCK_MIN: usize = 5;
const SETUP_BLOCK_MAX: usize = 2000;
const SETUP_BLOCK_S: f64 = 0.05;

/// Next to each set-up block, at least `REFERENCE_MIN_SLICES` slices of
/// reference work are timed, and for long replays enough to spend
/// `REFERENCE_SHARE` of the previous replay's time.
const REFERENCE_MIN_SLICES: usize = 4;
const REFERENCE_SHARE: f64 = 0.03;

/// Handler time plus outside time must match the traced wall time within
/// this share of it.
const ATTRIBUTION_TOLERANCE: f64 = 0.01;

const GIB: f64 = (1u64 << 30) as f64;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (7, 10, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Time `sample` at least `min` times, then until there are `max`
/// samples or they took `budget_s` seconds; append the times to `out`.
fn sample_block(
    out: &mut Vec<f64>,
    min: usize,
    max: usize,
    budget_s: f64,
    mut sample: impl FnMut() -> f64,
) {
    let (mut n, mut spent) = (0, 0.0);
    while n < min || (n < max && spent < budget_s) {
        let s = sample();
        out.push(s);
        spent += s;
        n += 1;
    }
}

/// The set-up and reference blocks that go before each replay of
/// variant `v` and after the last (`last_replay_s` is 0 before the first
/// replay).
fn gap_blocks(
    m: &mut Measured,
    w: Workload,
    v: usize,
    schedule: &SubmissionSchedule,
    last_replay_s: f64,
) {
    let mut setups = Vec::new();
    sample_block(
        &mut setups,
        SETUP_BLOCK_MIN,
        SETUP_BLOCK_MAX,
        SETUP_BLOCK_S,
        || setup_only(w.config(variant_seed(v)), schedule),
    );
    m.setups.extend(setups.into_iter().map(|s| (v, s)));
    sample_block(
        &mut m.slices,
        REFERENCE_MIN_SLICES,
        usize::MAX,
        REFERENCE_SHARE * last_replay_s,
        calibrate::reference_seconds,
    );
}

/// What one run measured.
struct Measured {
    /// Untraced replays, each with the index of the variant it replayed.
    plain: Vec<(usize, Sample)>,
    /// Traced replays, all of variant 0.
    traced: Vec<Sample>,
    /// Set-up samples, each with the index of the variant it built.
    setups: Vec<(usize, f64)>,
    /// Reference slices timed between the replays.
    slices: Vec<f64>,
}

impl Measured {
    /// The untraced replays of variant `v`.
    fn plain_of(&self, v: usize) -> Vec<&Sample> {
        self.plain
            .iter()
            .filter(|(i, _)| *i == v)
            .map(|(_, s)| s)
            .collect()
    }

    /// How many variants the untraced replays cover.
    fn variants(&self) -> usize {
        self.plain.iter().map(|(v, _)| v + 1).max().unwrap_or(0)
    }

    fn all(&self) -> impl Iterator<Item = &Sample> + Clone {
        self.plain.iter().map(|(_, s)| s).chain(&self.traced)
    }

    /// `f` over the suite of variants: the median over each variant's
    /// untraced replays, then the trimmed mean over the variants.
    fn suite_mean(&self, f: impl Fn(&Sample) -> f64 + Copy) -> f64 {
        trimmed_mean(
            (0..self.variants())
                .map(|v| times(self.plain_of(v), f))
                .collect(),
        )
    }

    /// Host seconds inside `Simulation::run` as measured, over the suite.
    fn raw_run_s(&self) -> f64 {
        self.suite_mean(|s| s.run_s)
    }

    /// Host seconds of set-up as measured: the median over each variant's
    /// samples, then the trimmed mean over the variants.
    fn raw_setup_s(&self) -> f64 {
        trimmed_mean(
            (0..self.variants())
                .map(|v| {
                    let own: Vec<f64> = self
                        .setups
                        .iter()
                        .filter(|(i, _)| *i == v)
                        .map(|(_, s)| *s)
                        .collect();
                    median(&own)
                })
                .collect(),
        )
    }

    /// Host speed over the run: the reference time over the mean slice.
    fn speed(&self) -> f64 {
        calibrate::speed(&self.slices)
    }
}

/// The mean of `per_variant`, leaving out the lowest and the highest when
/// there are more than two. A few variants carry several times the work
/// of the others (under calibrated churn one seed handles 0.75M events,
/// another 5.6M), and trimming keeps them from swinging the result.
fn trimmed_mean(mut per_variant: Vec<f64>) -> f64 {
    per_variant.sort_by(f64::total_cmp);
    let kept = match per_variant.len() {
        n if n > 2 => &per_variant[1..n - 1],
        _ => &per_variant[..],
    };
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Replay while the next replay would end no more than half a replay
/// past `seconds`. An untraced run cycles through the workload's seeded
/// variants, starting at variant `seed` modulo their count, and replays
/// each at least once. A traced run alternates untraced and traced
/// replays of variant 0 and makes at least one of each. A block of
/// set-ups precedes every replay and follows the last.
fn measure(args: &Args) -> Measured {
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let variants = if args.trace {
        1
    } else {
        args.workload.variants()
    };
    let schedules: Vec<SubmissionSchedule> = (0..variants)
        .map(|v| Workload::schedule(variant_seed(v)))
        .collect();
    let first = (args.seed % variants as u64) as usize;
    let mut m = Measured {
        plain: Vec::new(),
        traced: Vec::new(),
        setups: Vec::new(),
        slices: Vec::new(),
    };
    let mut last_replay_s = 0.0;
    loop {
        let trace_next = args.trace && m.traced.len() < m.plain.len();
        let v = if trace_next {
            0
        } else {
            (first + m.plain.len()) % variants
        };
        let schedule = &schedules[v];
        gap_blocks(&mut m, args.workload, v, schedule, last_replay_s);
        let sample = replay(args.workload.config(variant_seed(v)), schedule, trace_next);
        last_replay_s = sample.total_s;
        let half = Duration::from_secs_f64(sample.total_s / 2.0);
        if trace_next {
            m.traced.push(sample);
        } else {
            m.plain.push((v, sample));
        }
        let minimum_done = if args.trace {
            !m.traced.is_empty()
        } else {
            m.plain.len() >= variants
        };
        if minimum_done && Instant::now() + half > deadline {
            gap_blocks(&mut m, args.workload, v, schedule, last_replay_s);
            let replay_setups: Vec<(usize, f64)> = m
                .plain
                .iter()
                .map(|(v, s)| (*v, s.setup_s))
                .chain(m.traced.iter().map(|s| (0, s.setup_s)))
                .collect();
            m.setups.extend(replay_setups);
            return m;
        }
    }
}

/// Every correctness gate; returns the failures.
fn check(args: &Args, m: &Measured) -> Vec<String> {
    let mut failures = Vec::new();
    let expected = args.workload.fingerprints();
    let plain = m.plain.iter().map(|(v, s)| (*v, s));
    let replays = plain.chain(m.traced.iter().map(|s| (0, s)));
    for (v, s) in replays {
        let o = &s.outcome;
        if o.jobs_ok != o.jobs || o.stopped_early {
            failures.push(format!(
                "variant {v}: {}/{} jobs succeeded, stopped early: {}",
                o.jobs_ok, o.jobs, o.stopped_early
            ));
        }
        if o.fingerprint != expected[v] {
            failures.push(format!(
                "variant {v} (seed {}): fingerprint {} differs from the committed {}",
                variant_seed(v),
                o.fingerprint,
                expected[v]
            ));
        }
    }
    // Exact gate on deterministic work: every replay of the same code and
    // seed, traced or not, does identical work.
    for v in 0..m.variants() {
        let mut same_seed = m.plain_of(v);
        if v == 0 {
            same_seed.extend(&m.traced);
        }
        let first = &same_seed[0].outcome;
        for s in &same_seed[1..] {
            if s.outcome != *first {
                failures.push(format!(
                    "replays of variant {v} disagree on deterministic work:\n  {first:?}\n  {:?}",
                    s.outcome
                ));
            }
        }
    }
    let profiles: Vec<&Profile> = m.traced.iter().filter_map(|s| s.profile.as_ref()).collect();
    for (s, p) in m.traced.iter().zip(&profiles) {
        if p.events() != s.outcome.events {
            failures.push(format!(
                "per-kind events sum to {}, the engine handled {}",
                p.events(),
                s.outcome.events
            ));
        }
        if p.counts() != profiles[0].counts() {
            failures.push(format!(
                "traced replays disagree on per-kind counts:\n  {:?}\n  {:?}",
                profiles[0].counts(),
                p.counts()
            ));
        }
        let attributed = (p.handler_ns() + p.outside_ns) as f64 * 1e-9;
        if (attributed - s.run_s).abs() > ATTRIBUTION_TOLERANCE * s.run_s {
            failures.push(format!(
                "handler + outside time {attributed:.4}s does not account for the traced wall {:.4}s",
                s.run_s
            ));
        }
    }
    failures
}

fn times<'a>(samples: impl IntoIterator<Item = &'a Sample>, f: impl Fn(&Sample) -> f64) -> f64 {
    median(&samples.into_iter().map(f).collect::<Vec<_>>())
}

fn end_to_end(m: &Measured) -> Vec<(&'static str, f64)> {
    let jobs: usize = m.all().map(|s| s.outcome.jobs).sum();
    let ok: usize = m.all().map(|s| s.outcome.jobs_ok).sum();
    vec![
        ("run_s", m.raw_run_s() * m.speed()),
        ("setup_s", m.raw_setup_s() * m.speed()),
        ("peak_rss_mb", m.suite_mean(|s| s.peak_rss_mb)),
        ("jobs_done_frac", ok as f64 / jobs as f64),
    ]
}

fn per_layer(m: &Measured) -> Vec<(&'static str, f64)> {
    let traced = &m.traced;
    let o = &traced[0].outcome;
    fn prof(s: &Sample) -> &Profile {
        s.profile.as_ref().expect("traced replay has a profile")
    }
    let p0 = prof(&traced[0]);
    let ms = |kinds: &[Kind]| {
        times(traced, |s| {
            kinds.iter().map(|&k| prof(s).kind(k).ns).sum::<u64>() as f64 * 1e-6
        })
    };
    let count = |k: Kind| p0.kind(k).events as f64;
    let ns_per = |k: Kind| ms(&[k]) * 1e6 / count(k).max(1.0);
    let other = [
        Kind::DiskCheck,
        Kind::MapInputReady,
        Kind::MapComputeDone,
        Kind::SubmitJob,
        Kind::FetchTimeout,
        Kind::AttemptDoomed,
        Kind::ResizePool,
        Kind::BalancerTick,
        Kind::Chaos,
        Kind::ChaosEnd,
        Kind::MasterPromote,
    ];
    let heartbeats = count(Kind::Heartbeat);
    let (node_local, site_local, remote) = o.locality;
    let starts = (node_local + site_local + remote).max(1) as f64;
    vec![
        ("sim-core.events", o.events as f64),
        ("sim-core.peak_queue", o.peak_queue as f64),
        (
            "sim-core.outside_ms",
            times(traced, |s| prof(s).outside_ns as f64 * 1e-6),
        ),
        ("sim-core.hb_batches", p0.hb_batches as f64),
        (
            "sim-core.hb_batch_mean",
            p0.hb_batched as f64 / p0.hb_batches.max(1) as f64,
        ),
        ("net.ticks", count(Kind::NetTick)),
        ("net.tick_ms", ms(&[Kind::NetTick])),
        ("net.tick_ns_per", ns_per(Kind::NetTick)),
        ("net.recomputes", o.net_recomputes as f64),
        ("net.recompute_work", o.net_recompute_work as f64),
        ("mapreduce.heartbeats", heartbeats),
        ("mapreduce.heartbeat_ms", ms(&[Kind::Heartbeat])),
        (
            "mapreduce.heartbeat_idle_frac",
            p0.hb_idle as f64 / heartbeats.max(1.0),
        ),
        ("mapreduce.map_spill_ms", ms(&[Kind::MapSpillDone])),
        ("mapreduce.reduce_sort_ms", ms(&[Kind::ReduceSortDone])),
        ("mapreduce.failures", o.failures as f64),
        ("mapreduce.speculative", o.speculative as f64),
        ("mapreduce.rescue_copies", o.rescue_copies as f64),
        ("mapreduce.rescue_hits", o.rescue_hits as f64),
        ("hdfs.master_ticks", count(Kind::MasterTick)),
        ("hdfs.master_tick_ms", ms(&[Kind::MasterTick])),
        ("hdfs.master_tick_ns_per", ns_per(Kind::MasterTick)),
        ("hdfs.uploads", count(Kind::PumpUpload)),
        ("hdfs.upload_ms", ms(&[Kind::PumpUpload])),
        ("hdfs.repl_done", o.nn_counters.0 as f64),
        ("hdfs.repl_failed", o.nn_counters.1 as f64),
        ("hdfs.blocks_lost", o.nn_counters.2 as f64),
        ("hdfs.under_repl_peak", p0.under_repl_peak as f64),
        ("hdfs.replica_gb", o.replica_bytes as f64 / GIB),
        ("hdfs.repair_gb", o.repair_bytes as f64 / GIB),
        ("hdfs.targets_raised", o.availability.0 as f64),
        ("hdfs.targets_lowered", o.availability.1 as f64),
        ("hdfs.replicas_trimmed", o.availability.2 as f64),
        ("sched.node_local", node_local as f64),
        ("sched.site_local", site_local as f64),
        ("sched.remote", remote as f64),
        ("sched.node_local_frac", node_local as f64 / starts),
        ("grid.events", count(Kind::Grid)),
        ("grid.event_ms", ms(&[Kind::Grid])),
        ("grid.preemptions", o.grid.0 as f64),
        ("grid.outages", o.grid.1 as f64),
        ("grid.node_starts", o.grid.2 as f64),
        ("core.sim_makespan_s", o.makespan_s),
        ("core.sim_mean_job_s", o.mean_job_s),
        ("core.other_ms", ms(&other)),
        ("core.collect_ms", times(traced, |s| s.collect_s * 1e3)),
        (
            "core.trace_overhead_frac",
            times(traced, |s| s.run_s) / times(m.plain_of(0), |s| s.run_s) - 1.0,
        ),
    ]
}

/// Replay times per variant, and where the traced wall time went per
/// event kind, for stderr.
fn summarize(args: &Args, m: &Measured) {
    eprintln!(
        "{} seed {}: {} untraced replay(s), {} traced, {} set-up sample(s)",
        args.workload.name(),
        args.seed,
        m.plain.len(),
        m.traced.len(),
        m.setups.len()
    );
    eprintln!(
        "  as measured: run_s {:.4}, setup_s {:.3e}; host speed {:.4} over {} reference slices",
        m.raw_run_s(),
        m.raw_setup_s(),
        m.speed(),
        m.slices.len()
    );
    for v in 0..m.variants() {
        let replays = m.plain_of(v);
        let runs: Vec<String> = replays.iter().map(|s| format!("{:.3}", s.run_s)).collect();
        let o = &replays[0].outcome;
        eprintln!(
            "  variant {v} (seed {}): run_s [{}], {} events, fingerprint {}",
            variant_seed(v),
            runs.join(", "),
            o.events,
            o.fingerprint
        );
    }
    let Some(s) = m.traced.first() else { return };
    let p = s.profile.as_ref().expect("traced replay has a profile");
    let wall_ms = s.run_s * 1e3;
    eprintln!("traced replay: {wall_ms:.1} ms in Simulation::run");
    let mut rows: Vec<(String, u64, f64)> = Kind::ALL
        .iter()
        .map(|&k| {
            (
                format!("{k:?}"),
                p.kind(k).events,
                p.kind(k).ns as f64 * 1e-6,
            )
        })
        .filter(|&(_, n, _)| n > 0)
        .collect();
    rows.push(("(outside handlers)".into(), 0, p.outside_ns as f64 * 1e-6));
    rows.sort_by(|a, b| b.2.total_cmp(&a.2));
    for (name, n, ms) in rows {
        eprintln!(
            "  {name:<20} {n:>10} events {ms:>10.1} ms {:>5.1}%",
            100.0 * ms / wall_ms
        );
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hog-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let m = measure(&args);
    let failures = check(&args, &m);
    for f in &failures {
        eprintln!("hog-perfbench: GATE FAILED: {f}");
    }
    summarize(&args, &m);
    let (values, defs) = if args.trace {
        (per_layer(&m), PER_LAYER)
    } else {
        (end_to_end(&m), END_TO_END)
    };
    assert_eq!(
        values.len(),
        defs.len(),
        "metric count differs from the catalogue"
    );
    let metrics = defs
        .iter()
        .zip(values)
        .map(|(def, (name, value))| {
            assert_eq!(def.name, name, "metric order differs from the catalogue");
            Metric {
                name: name.to_string(),
                value,
                unit: def.unit.to_string(),
            }
        })
        .collect();
    let report = Report {
        correct: failures.is_empty(),
        attempted: m.all().map(|s| s.outcome.jobs as u64).sum(),
        failed: m
            .all()
            .map(|s| (s.outcome.jobs - s.outcome.jobs_ok) as u64)
            .sum(),
        metrics,
    };
    println!("{}", report.to_json());
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
