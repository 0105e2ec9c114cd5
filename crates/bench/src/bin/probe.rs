//! Quick calibration probe: run the Facebook workload on the dedicated
//! cluster and/or HOG at one pool size, print the headline numbers.
//!
//! Usage: `probe [--nodes N] [--seed S] [--dedicated] [--lifetime SECS]`

use hog_core::driver::run_workload;
use hog_core::ClusterConfig;
use hog_sim_core::SimDuration;
use hog_workload::SubmissionSchedule;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let nodes = hog_bench::arg_usize(&args, "--nodes", 100);
    let seed = hog_bench::arg_usize(&args, "--seed", 1) as u64;
    let lifetime = hog_bench::arg_usize(&args, "--lifetime", 0);
    let zombies = hog_bench::arg_usize(&args, "--zombies", 0); // percent
    let zombie_fix = args.iter().any(|a| a == "--zombie-fix");
    let dedicated = args.iter().any(|a| a == "--dedicated");

    let schedule = SubmissionSchedule::facebook_truncated(1000 + seed);
    println!(
        "workload: {} jobs, {} maps, {} reduces, last submit {:.0}s",
        schedule.len(),
        schedule.total_maps(),
        schedule.total_reduces(),
        schedule.last_submission().as_secs_f64()
    );

    let cfg = if dedicated {
        ClusterConfig::dedicated(seed)
    } else {
        let mut c = ClusterConfig::hog(nodes, seed);
        if lifetime > 0 {
            c = c.with_mean_lifetime(SimDuration::from_secs(lifetime as u64));
        }
        if zombies > 0 {
            c = c.with_zombies(zombies as f64 / 100.0, zombie_fix);
        }
        c
    };
    let name = cfg.name.clone();
    let wall = Instant::now();
    let r = run_workload(cfg, &schedule, SimDuration::from_secs(100 * 3600));
    println!(
        "{name}: response={:?}s jobs_ok={}/{} events={}M wall={:.1}s",
        r.response_time.map(|d| d.as_secs_f64()),
        r.jobs_succeeded(),
        r.jobs.len(),
        r.events / 1_000_000,
        wall.elapsed().as_secs_f64()
    );
    println!(
        "  locality: node={} site={} remote={} spec={} failures={}",
        r.jt.node_local, r.jt.site_local, r.jt.remote, r.jt.speculative, r.jt.failures
    );
    println!(
        "  nn: repl_ok={} repl_fail={} lost={} bad_reports={} missing_now={} missing_input={}",
        r.nn_counters.0,
        r.nn_counters.1,
        r.nn_counters.2,
        r.nn_counters.3,
        r.missing_blocks,
        r.missing_input_blocks
    );
    if let Some((pre, out, starts)) = r.grid {
        println!("  grid: preemptions={pre} outages={out} starts={starts}");
    }
    println!("  mediator: {:?}", r.cluster);
    for s in &r.stuck_jobs {
        println!("  STUCK {s}");
    }
}
