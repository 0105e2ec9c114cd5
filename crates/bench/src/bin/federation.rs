//! Federation benchmark: the truncated Facebook workload replayed on a
//! fixed ~100-node budget split across 1 / 2 / 4 HOG pools, with the
//! meta-scheduler's locality-aware routing pitted against uniform-random
//! routing at two shared-dataset fractions.
//!
//! The headline claim (EXPERIMENTS.md X14): locality-aware routing beats
//! random routing on **mean job response** and on **cross-pool WAN
//! bytes** at 2 and 4 pools. The bench computes that verdict itself and
//! exits non-zero when it fails, so CI gates on it directly.
//!
//! Usage: `federation [--smoke] [--seed S] [--out PATH] [--check BASELINE]
//! [--threads N] [--verify-threads]` (see [`hog_bench::report::Args`]).
//! `--smoke` runs only the 1-pool cell and the 2-pool pair at the low
//! sharing fraction (CI per-PR gate). `--seed S` is the base seed; pool
//! p's cluster seed is S+p. `--check` fails on any cell's fingerprint
//! drift.
//!
//! The 1-pool cell is the federation-overhead control: its pool
//! fingerprint must equal the plain 100-node `Cluster` fingerprint from
//! the scale bench (tests/federation.rs proves the identity; the shared
//! fingerprint makes it visible across baselines).
//!
//! Keep the schema in sync with DESIGN.md §14.

use hog_bench::report::{Args, Cell, Check, Report};
use hog_bench::STUDY_HORIZON;
use hog_core::sweep::par_map;
use hog_core::ClusterConfig;
use hog_fed::{assert_fed_finished, run_federation, FedConfig, RoutingPolicy};
use hog_workload::SubmissionSchedule;

/// Node budget split evenly across the pools of every cell.
const TOTAL_NODES: usize = 100;
/// Pool counts swept by the full benchmark.
const POOL_TIERS: [usize; 3] = [1, 2, 4];
/// Shared-dataset fractions (percent) swept at 2 and 4 pools.
const SHARED_PCTS: [u32; 2] = [25, 75];
/// Peer pools receiving a copy of each shared dataset.
const PEERS: usize = 1;
/// Cross-pool replication factor for shared copies.
const R_REMOTE: u16 = 2;
/// `--check` matches cells by pool count, routing policy and sharing.
const CHECK: Check = Check {
    sections: &["cells"],
    key: &["pools", "policy", "shared_pct"],
    wall_gate: false,
};

struct CellReport {
    pools: usize,
    policy: &'static str,
    shared_pct: u32,
    wall_ms: u64,
    mean_job_secs: f64,
    response_secs: f64,
    jobs_ok: usize,
    jobs: usize,
    wan_bytes: u64,
    wan_transfers: u64,
    route_stagings: u64,
    initial_stagings: u64,
    fairness: f64,
    routed: Vec<u64>,
    fingerprint: String,
}

fn run_cell(
    pools: usize,
    policy: RoutingPolicy,
    shared_pct: u32,
    seed: u64,
    schedule: &SubmissionSchedule,
) -> CellReport {
    let pool_cfgs: Vec<ClusterConfig> = (0..pools)
        .map(|p| ClusterConfig::hog(TOTAL_NODES / pools, seed + p as u64))
        .collect();
    let cfg = FedConfig::new(pool_cfgs, seed)
        .with_routing(policy)
        .with_sharing(shared_pct as f64 / 100.0, PEERS, R_REMOTE)
        .with_audit(true)
        .named(format!("fed-{pools}p-{}-s{shared_pct}", policy.name()));
    let (r, wall_ms) = hog_bench::timed(|| run_federation(cfg, schedule, STUDY_HORIZON));
    assert_fed_finished(&r);
    CellReport {
        pools,
        policy: r.policy,
        shared_pct,
        wall_ms,
        mean_job_secs: r.mean_job_response_secs(),
        response_secs: r.response_time.map(|d| d.as_secs_f64()).unwrap_or(0.0),
        jobs_ok: r.jobs_succeeded(),
        jobs: r.jobs.len(),
        wan_bytes: r.wan_bytes,
        wan_transfers: r.wan_transfers,
        route_stagings: r.route_stagings,
        initial_stagings: r.initial_stagings,
        fairness: r.pool_fairness(),
        routed: r.routed_counts.clone(),
        fingerprint: hog_bench::federation_fingerprint(&r),
    }
}

impl CellReport {
    fn cell(&self) -> Cell {
        let routed: Vec<String> = self.routed.iter().map(|n| n.to_string()).collect();
        Cell::new()
            .raw("pools", self.pools)
            .str("policy", self.policy)
            .raw("shared_pct", self.shared_pct)
            .raw("wall_ms", self.wall_ms)
            .float("mean_job_secs", self.mean_job_secs, 3)
            .float("response_secs", self.response_secs, 3)
            .raw("jobs_ok", self.jobs_ok)
            .raw("jobs", self.jobs)
            .raw("wan_bytes", self.wan_bytes)
            .raw("wan_transfers", self.wan_transfers)
            .raw("route_stagings", self.route_stagings)
            .raw("initial_stagings", self.initial_stagings)
            .float("fairness", self.fairness, 4)
            .raw("routed", format_args!("[{}]", routed.join(", ")))
            .str("fingerprint", &self.fingerprint)
    }
}

/// The locality-vs-random verdicts, one per multi-pool tier present in
/// the sweep: locality must win (mean job response strictly lower, WAN
/// bytes no higher) aggregated across the shared fractions run.
fn verdicts(cells: &[CellReport]) -> Vec<(usize, bool, f64, f64, u64, u64)> {
    let mut out = Vec::new();
    for &n in &POOL_TIERS[1..] {
        let agg = |policy: &str| -> Option<(f64, u64)> {
            let picked: Vec<&CellReport> = cells
                .iter()
                .filter(|c| c.pools == n && c.policy == policy)
                .collect();
            if picked.is_empty() {
                return None;
            }
            let mean = picked.iter().map(|c| c.mean_job_secs).sum::<f64>() / picked.len() as f64;
            let wan = picked.iter().map(|c| c.wan_bytes).sum();
            Some((mean, wan))
        };
        if let (Some((lm, lw)), Some((rm, rw))) = (agg("locality"), agg("random")) {
            out.push((n, lm < rm && lw <= rw, lm, rm, lw, rw));
        }
    }
    out
}

fn verdict_cell(&(n, ok, lm, rm, lw, rw): &(usize, bool, f64, f64, u64, u64)) -> Cell {
    Cell::new()
        .raw("pools", n)
        .raw("locality_beats_random", ok)
        .float("locality_mean_secs", lm, 3)
        .float("random_mean_secs", rm, 3)
        .raw("locality_wan_bytes", lw)
        .raw("random_wan_bytes", rw)
}

fn main() {
    let args = Args::parse("federation");
    let seed = args.seed;
    let schedule = SubmissionSchedule::facebook_truncated(1000 + seed);
    println!(
        "federation: {}, seed {seed}, {TOTAL_NODES} nodes",
        hog_bench::describe(&schedule)
    );

    // Cell grid: the 1-pool control plus (policy × shared fraction) at
    // each multi-pool tier. Smoke keeps the control and the 2-pool pair
    // at the low fraction so the verdict still gates per-PR CI.
    let mut grid: Vec<(usize, RoutingPolicy, u32)> = vec![(1, RoutingPolicy::Home, 0)];
    for &n in &POOL_TIERS[1..] {
        for &pct in &SHARED_PCTS {
            for policy in [RoutingPolicy::locality_default(), RoutingPolicy::Random] {
                grid.push((n, policy, pct));
            }
        }
    }
    if args.smoke {
        grid.retain(|&(n, _, pct)| n == 1 || (n == 2 && pct == SHARED_PCTS[0]));
    }

    let sweep = |threads| {
        par_map(&grid, threads, |&(n, policy, pct)| {
            run_cell(n, policy, pct, seed, &schedule)
        })
    };
    let report = |cells: &[CellReport]| {
        Report::new("federation", seed)
            .scalar("total_nodes", TOTAL_NODES)
            .section("cells", cells.iter().map(CellReport::cell))
            .section("verdicts", verdicts(cells).iter().map(verdict_cell))
    };

    let cells = sweep(args.threads);
    for c in &cells {
        println!(
            "  {}p {:>8} s={:>2}%: wall={:>6}ms mean_job={:>8.1}s wan={:>11}B route_stage={:>3} fair={:.3} routed={:?} fp={}",
            c.pools,
            c.policy,
            c.shared_pct,
            c.wall_ms,
            c.mean_job_secs,
            c.wan_bytes,
            c.route_stagings,
            c.fairness,
            c.routed,
            c.fingerprint
        );
    }

    let vs = verdicts(&cells);
    for (n, ok, lm, rm, lw, rw) in &vs {
        println!(
            "  verdict {n} pools: locality mean {lm:.1}s / {lw}B vs random {rm:.1}s / {rw}B — {}",
            if *ok {
                "LOCALITY WINS"
            } else {
                "LOCALITY LOSES"
            }
        );
    }

    args.finish(&report(&cells), &CHECK, || report(&sweep(1)));

    if vs.iter().any(|&(_, ok, ..)| !ok) {
        eprintln!("federation: locality-vs-random verdict failed");
        std::process::exit(1);
    }
}
