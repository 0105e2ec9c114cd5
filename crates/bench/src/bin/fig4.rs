//! Regenerate Figure 4 — "HOG vs. Cluster Equivalent Performance".
//!
//! Sweeps the paper's twelve pool sizes (three seeded runs each) plus the
//! dedicated 100-core baseline, prints the response-time table, and
//! reports the equivalent-performance crossover (paper: 99–100 nodes).
//!
//! Usage: `fig4 [--quick] [--threads N] [--runs N]`
//! `--quick` samples a 5-point subset (fast smoke run).

use hog_core::experiments::{figure4, FIG4_POOL_SIZES};
use hog_core::report::TextTable;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let threads = hog_bench::arg_threads(&args);
    let runs = hog_bench::arg_usize(&args, "--runs", 3);
    let sizes: Vec<usize> = if quick {
        vec![40, 60, 100, 180, 500]
    } else {
        FIG4_POOL_SIZES.to_vec()
    };

    eprintln!(
        "fig4: {} pool sizes × {runs} runs + {runs} baseline runs, {threads} threads",
        sizes.len()
    );
    let wall = Instant::now();
    let fig = figure4(&sizes, runs, threads);
    eprintln!("fig4: swept in {:.0}s wall", wall.elapsed().as_secs_f64());

    let mut t = TextTable::new(&[
        "Nodes in HOG",
        "Runs (s)",
        "Mean response (s)",
        "vs cluster",
    ]);
    let base = fig.cluster_mean();
    for p in &fig.hog {
        let runs_s = p
            .responses
            .iter()
            .map(|r| format!("{r:.0}"))
            .collect::<Vec<_>>()
            .join(" ");
        t.row(&[
            p.nodes.to_string(),
            runs_s,
            format!("{:.0}", p.mean()),
            format!("{:+.1}%", (p.mean() / base - 1.0) * 100.0),
        ]);
    }
    t.row(&[
        "cluster (100 cores)".into(),
        fig.cluster
            .iter()
            .map(|r| format!("{r:.0}"))
            .collect::<Vec<_>>()
            .join(" "),
        format!("{base:.0}"),
        "baseline".into(),
    ]);
    let rendered = t.render();
    println!("FIGURE 4 — HOG vs. Cluster Equivalent Performance\n{rendered}");
    match fig.equivalence_at(0.05) {
        Some(n) => println!(
            "Equivalent performance (within 5%) reached at {n} HOG nodes (paper: [99, 100])."
        ),
        None => println!("No sampled pool size came within 5% of the cluster baseline."),
    }
    match fig.crossover_nodes() {
        Some(n) => println!("Strictly faster than the cluster from {n} HOG nodes."),
        None => println!("No sampled pool size strictly beat the cluster."),
    }

    // CSV export.
    let mut csv = TextTable::new(&["nodes", "run", "response_secs"]);
    for p in &fig.hog {
        for (i, r) in p.responses.iter().enumerate() {
            csv.row(&[p.nodes.to_string(), i.to_string(), format!("{r:.3}")]);
        }
    }
    for (i, r) in fig.cluster.iter().enumerate() {
        csv.row(&["cluster".into(), i.to_string(), format!("{r:.3}")]);
    }
    let dir = hog_bench::results_dir();
    std::fs::write(dir.join("fig4.csv"), csv.to_csv()).expect("write fig4.csv");
    std::fs::write(dir.join("fig4.txt"), &rendered).expect("write fig4.txt");
    eprintln!("(written to {}/fig4.{{csv,txt}})", dir.display());
}
