//! Benchmark harness for the HOG reproduction.
//!
//! Binaries (see `src/bin/`):
//!
//! * `tables` — regenerate Tables I, II and III.
//! * `fig4` — the equivalent-performance sweep (Figure 4).
//! * `fig5` — node-fluctuation traces + Table IV areas.
//! * `ablations` — experiments X1–X7 from DESIGN.md.
//! * `probe` — quick calibration probe (single runs).
//! * `scale`, `sched`, `elastic`, `failover`, `federation`, `churn`,
//!   `replication` — the tracked studies, which share one report format,
//!   baseline checker and command line ([`report`]).
//!
//! Criterion microbenches live in `benches/`.

#![warn(missing_docs)]

pub mod report;

use hog_chaos::{Fault, FaultPlan};
use hog_core::driver::RunResult;
use hog_fed::FedResult;
use hog_sim_core::SimDuration;
use hog_workload::SubmissionSchedule;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Simulated horizon of every truncated-workload study cell: long enough
/// that only a broken configuration stops early.
pub const STUDY_HORIZON: SimDuration = SimDuration::from_secs(100 * 3600);

/// Sites hammered by the X11 preemption-burst plan (sched and elastic
/// studies). Concentrating every burst on the same two sites is what
/// gives a history-keeping scheduler something to learn.
pub const BURST_SITES: [&str; 2] = ["UCSDT2", "AGLT2"];

/// X11: one 45-victim burst every 5 minutes for the first ~90 minutes,
/// alternating between the two [`BURST_SITES`], so each site is hit
/// every 10 minutes — within a half-life (600 s) of the previous hit,
/// which is what lets the failure-aware policy's reliability score stay
/// above threshold between bursts.
pub fn burst_plan() -> FaultPlan {
    (0..18u64).fold(FaultPlan::new(), |plan, k| {
        plan.at(
            SimDuration::from_secs(300 + k * 300),
            Fault::PreemptBurst {
                site: BURST_SITES[(k % 2) as usize].to_string(),
                count: 45,
            },
        )
    })
}

/// Run `f`, returning its result and the host wall-clock it took in ms.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let wall = Instant::now();
    let out = f();
    (out, wall.elapsed().as_millis() as u64)
}

/// `"88 jobs / 2410 maps / 504 reduces"`: the size of a study's workload.
pub fn describe(schedule: &SubmissionSchedule) -> String {
    format!(
        "{} jobs / {} maps / {} reduces",
        schedule.len(),
        schedule.total_maps(),
        schedule.total_reduces()
    )
}

/// Resolve the output directory for benchmark artifacts (CSV files),
/// creating it if needed. Defaults to `target/paper-results`, overridable
/// via `HOG_RESULTS_DIR`.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("HOG_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("target/paper-results"));
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// FNV-1a over the outcome-defining facts of a run: anything the
/// simulation *produces* (job completion instants, locality, replication
/// counters) but nothing about how the host computed it — deliberately
/// excluding the engine event count, which legitimately shrinks when the
/// mediator dedups redundant NetTick arms without changing any outcome.
///
/// Shared by every study bin; the canonical string (and therefore every
/// committed baseline fingerprint) must never change.
pub fn outcome_fingerprint(r: &RunResult) -> String {
    let mut canon = String::new();
    let _ = write!(
        canon,
        "resp={:?};ok={};",
        r.response_time.map(|d| d.as_millis()),
        r.jobs_succeeded()
    );
    for j in &r.jobs {
        let _ = write!(
            canon,
            "j{}={:?}/{};",
            j.index,
            j.finished.map(|t| t.as_millis()),
            j.succeeded
        );
    }
    let _ = write!(
        canon,
        "jt={},{},{},{},{};nn={},{},{},{}",
        r.jt.node_local,
        r.jt.site_local,
        r.jt.remote,
        r.jt.speculative,
        r.jt.failures,
        r.nn_counters.0,
        r.nn_counters.1,
        r.nn_counters.2,
        r.nn_counters.3
    );
    fnv1a_hex(&canon)
}

/// Federation-level outcome fingerprint: FNV-1a over every pool's
/// canonical [`outcome_fingerprint`] plus the routing vector and WAN byte
/// total — any change in any pool's simulated outcome, in where a job
/// ran, or in cross-pool traffic moves it.
pub fn federation_fingerprint(r: &FedResult) -> String {
    let mut canon = String::new();
    for p in &r.pools {
        let _ = write!(canon, "{};", outcome_fingerprint(p));
    }
    let _ = write!(canon, "routed={:?};wan={}", r.routed_to, r.wan_bytes);
    fnv1a_hex(&canon)
}

/// 64-bit FNV-1a of `canon`, as 16 hex digits.
fn fnv1a_hex(canon: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in canon.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Parse `--threads N` style args with a default.
pub fn arg_usize(args: &[String], flag: &str, default: usize) -> usize {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Default worker count for bench sweeps: the available cores.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The `--threads N` argument, defaulting to [`default_threads`].
pub fn arg_threads(args: &[String]) -> usize {
    arg_usize(args, "--threads", default_threads()).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_parsing() {
        let args: Vec<String> = ["x", "--threads", "7"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(arg_usize(&args, "--threads", 3), 7);
        assert_eq!(arg_usize(&args, "--seeds", 3), 3);
    }
}
