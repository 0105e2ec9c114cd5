//! The metric catalogue and the one-line report the benchmark prints.

use std::fmt::Write as _;

/// A metric's name and unit. Which direction is better is stated in
/// `BENCHMARK.json`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricDef {
    /// Report key, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit, as written in `BENCHMARK.json`.
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// Metrics of untraced runs: what a user of the simulator sees.
pub const END_TO_END: &[MetricDef] = &[
    def("run_s", "s"),
    def("setup_s", "s"),
    def("peak_rss_mb", "MiB"),
    def("jobs_done_frac", "frac"),
];

/// Metrics of traced runs, one layer (crate) each.
pub const PER_LAYER: &[MetricDef] = &[
    def("sim-core.events", "count"),
    def("sim-core.peak_queue", "count"),
    def("sim-core.outside_ms", "ms"),
    def("sim-core.hb_batches", "count"),
    def("sim-core.hb_batch_mean", "events"),
    def("net.ticks", "count"),
    def("net.tick_ms", "ms"),
    def("net.tick_ns_per", "ns"),
    def("net.recomputes", "count"),
    def("net.recompute_work", "flows"),
    def("mapreduce.heartbeats", "count"),
    def("mapreduce.heartbeat_ms", "ms"),
    def("mapreduce.heartbeat_idle_frac", "frac"),
    def("mapreduce.map_spill_ms", "ms"),
    def("mapreduce.reduce_sort_ms", "ms"),
    def("mapreduce.failures", "count"),
    def("mapreduce.speculative", "count"),
    def("mapreduce.rescue_copies", "count"),
    def("mapreduce.rescue_hits", "count"),
    def("hdfs.master_ticks", "count"),
    def("hdfs.master_tick_ms", "ms"),
    def("hdfs.master_tick_ns_per", "ns"),
    def("hdfs.uploads", "count"),
    def("hdfs.upload_ms", "ms"),
    def("hdfs.repl_done", "count"),
    def("hdfs.repl_failed", "count"),
    def("hdfs.blocks_lost", "count"),
    def("hdfs.under_repl_peak", "count"),
    def("hdfs.replica_gb", "GiB"),
    def("hdfs.repair_gb", "GiB"),
    def("hdfs.targets_raised", "count"),
    def("hdfs.targets_lowered", "count"),
    def("hdfs.replicas_trimmed", "count"),
    def("sched.node_local", "count"),
    def("sched.site_local", "count"),
    def("sched.remote", "count"),
    def("sched.node_local_frac", "frac"),
    def("grid.events", "count"),
    def("grid.event_ms", "ms"),
    def("grid.preemptions", "count"),
    def("grid.outages", "count"),
    def("grid.node_starts", "count"),
    def("core.sim_makespan_s", "s"),
    def("core.sim_mean_job_s", "s"),
    def("core.other_ms", "ms"),
    def("core.collect_ms", "ms"),
    def("core.trace_overhead_frac", "frac"),
];

/// Whether `name` is a valid metric name: 1 to 64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let b = name.as_bytes();
    !b.is_empty()
        && b.len() <= 64
        && b[0].is_ascii_alphanumeric()
        && b.iter()
            .all(|c| c.is_ascii_alphanumeric() || b"_.-".contains(c))
}

/// One measured metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name from the catalogue.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit from the catalogue.
    pub unit: String,
}

/// The benchmark's result line.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// Whether every correctness gate held.
    pub correct: bool,
    /// Jobs submitted over every replay.
    pub attempted: u64,
    /// Jobs that failed or never finished.
    pub failed: u64,
    /// The metrics, in catalogue order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// The report as one line of JSON. Values print in Rust's shortest
    /// round-trip form, so a JSON reader gets back the exact `f64`.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn metric_names_are_valid_and_unique() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "bad metric name {}", m.name);
            assert!(seen.insert(m.name), "duplicate metric name {}", m.name);
            assert!(
                !m.unit.is_empty() && m.unit.len() <= 16,
                "bad unit {}",
                m.unit
            );
        }
        assert!(!valid_name("") && !valid_name(".x") && !valid_name("a b"));
    }
}
