//! The one report format, baseline checker and CLI shared by the study
//! bins (`scale`, `sched`, `elastic`, `failover`, `federation`, `churn`,
//! `replication`).
//!
//! A report is a JSON object written in a fixed layout: header scalars
//! (`bench`, `workload`, `seed`, …), then named sections (`tiers`,
//! `cells`, `ablation`, `extended`, `verdicts`), each an array of
//! one-line [`Cell`] objects:
//!
//! ```text
//! {
//!   "bench": "scale",
//!   "seed": 7,
//!   "tiers": [
//!     {"nodes": 100, "wall_ms": 1442, "fingerprint": "cf17f90b65a09cc8"}
//!   ]
//! }
//! ```
//!
//! Cells keep their fields in insertion order and store each value
//! already rendered, so [`Report::parse`] followed by rendering gives
//! back the input byte for byte — committed baselines are read by the
//! same code that writes new reports (no serde in the workspace).
//!
//! `--check BASELINE` ([`Check`]) matches the run's cells to the
//! baseline's by a bin-specific key and fails on any changed outcome
//! fingerprint; bins that track host time also gate `wall_ms` at
//! [`REGRESSION_FRAC`] plus [`NOISE_FLOOR_MS`].

use std::fmt::{self, Display};
use std::str::FromStr;

/// Wall-clock regression gate for `--check` (fraction of baseline).
pub const REGRESSION_FRAC: f64 = 0.25;
/// Absolute slack below which a wall-clock regression is timer noise.
pub const NOISE_FLOOR_MS: u64 = 250;

/// One report row: ordered `(key, rendered JSON value)` fields.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Cell(Vec<(String, String)>);

impl Cell {
    /// An empty cell.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a field rendered with `Display` as-is: numbers, bools, or
    /// an already-rendered JSON value such as `null` or `[1, 2]`.
    pub fn raw(mut self, key: &str, value: impl Display) -> Self {
        self.0.push((key.to_string(), value.to_string()));
        self
    }

    /// Append a JSON string field.
    pub fn str(self, key: &str, value: impl Display) -> Self {
        self.raw(key, format_args!("\"{value}\""))
    }

    /// Append a float rendered with `decimals` fractional digits.
    pub fn float(self, key: &str, value: f64, decimals: usize) -> Self {
        self.raw(key, format_args!("{value:.decimals$}"))
    }

    /// The rendered value of `key` (strings keep their quotes).
    pub fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// `key`'s value without JSON string quotes.
    fn text(&self, key: &str) -> Option<&str> {
        self.get(key).map(|v| v.trim_matches('"'))
    }

    /// `key=value` for each key field, for check messages.
    fn label(&self, key: &[&str]) -> String {
        key.iter()
            .map(|k| format!("{k}={}", self.text(k).unwrap_or("?")))
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Parse one `{"k": v, ...}` object written by this type.
    fn parse(line: &str) -> Result<Cell, String> {
        let inner = line
            .strip_prefix('{')
            .and_then(|s| s.strip_suffix('}'))
            .ok_or_else(|| format!("not a one-line object: {line}"))?;
        split_top_level(inner)
            .into_iter()
            .try_fold(Cell::new(), |cell, field| {
                let (key, value) = parse_field(field)?;
                Ok(cell.raw(key, value))
            })
    }
}

impl Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, (k, v)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(f, "{sep}\"{k}\": {v}")?;
        }
        f.write_str("}")
    }
}

/// Split on commas outside strings and brackets.
fn split_top_level(s: &str) -> Vec<&str> {
    let (mut parts, mut start, mut depth, mut in_str, mut escaped) =
        (Vec::new(), 0, 0, false, false);
    for (i, ch) in s.char_indices() {
        match ch {
            _ if escaped => escaped = false,
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '[' | '{' if !in_str => depth += 1,
            ']' | '}' if !in_str => depth -= 1,
            ',' if !in_str && depth == 0 => {
                parts.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if !s.trim().is_empty() {
        parts.push(&s[start..]);
    }
    parts
}

/// `"key": value` → `(key, value)`.
fn parse_field(field: &str) -> Result<(&str, &str), String> {
    field
        .trim()
        .strip_prefix('"')
        .and_then(|s| s.split_once("\": "))
        .ok_or_else(|| format!("malformed field: {field}"))
}

/// A whole bench report: header scalars, then named sections of cells.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Report {
    header: Cell,
    sections: Vec<(String, Vec<Cell>)>,
}

impl Report {
    /// The header every study writes: bench name, the truncated
    /// Facebook workload, and the base seed.
    pub fn new(bench: &str, seed: u64) -> Self {
        Report {
            header: Cell::new()
                .str("bench", bench)
                .str("workload", "facebook_truncated")
                .raw("seed", seed),
            sections: Vec::new(),
        }
    }

    /// Append a header scalar (rendered as-is, like [`Cell::raw`]).
    pub fn scalar(mut self, key: &str, value: impl Display) -> Self {
        self.header = self.header.raw(key, value);
        self
    }

    /// Append a named section of cells.
    pub fn section(mut self, name: &str, cells: impl IntoIterator<Item = Cell>) -> Self {
        self.sections
            .push((name.to_string(), cells.into_iter().collect()));
        self
    }

    /// The cells of section `name` (empty if absent).
    pub fn cells(&self, name: &str) -> &[Cell] {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map_or(&[], |(_, cells)| cells)
    }

    /// Parse a report in the layout this type renders.
    pub fn parse(text: &str) -> Result<Report, String> {
        let mut report = Report::default();
        let mut lines = text.lines();
        if lines.next() != Some("{") {
            return Err("report does not start with `{`".into());
        }
        let mut open: Option<(String, Vec<Cell>)> = None;
        for line in lines {
            let line = line.trim().trim_end_matches(',');
            match &mut open {
                Some(_) if line == "]" => report.sections.extend(open.take()),
                Some((_, cells)) => cells.push(Cell::parse(line)?),
                None if line == "}" => return Ok(report),
                None => match line.strip_suffix(": [") {
                    Some(name) => open = Some((name.trim_matches('"').to_string(), Vec::new())),
                    None => {
                        let (key, value) = parse_field(line)?;
                        report.header = report.header.raw(key, value);
                    }
                },
            }
        }
        Err("report is not closed by `}`".into())
    }
}

impl Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut entries: Vec<String> = self
            .header
            .0
            .iter()
            .map(|(k, v)| format!("  \"{k}\": {v}"))
            .collect();
        for (name, cells) in &self.sections {
            let mut s = format!("  \"{name}\": [\n");
            for (i, c) in cells.iter().enumerate() {
                let sep = if i + 1 < cells.len() { ",\n" } else { "\n" };
                s.push_str(&format!("    {c}{sep}"));
            }
            s.push_str("  ]");
            entries.push(s);
        }
        write!(f, "{{\n{}\n}}\n", entries.join(",\n"))
    }
}

/// How a bin's `--check` matches its cells to the baseline's.
pub struct Check {
    /// Sections whose cells are checked.
    pub sections: &'static [&'static str],
    /// Fields that identify a cell across runs.
    pub key: &'static [&'static str],
    /// Also fail when `wall_ms` exceeds the baseline's by more than
    /// [`REGRESSION_FRAC`] plus [`NOISE_FLOOR_MS`].
    pub wall_gate: bool,
}

/// The largest `wall_ms` that passes the gate against `base_ms`.
fn wall_limit(base_ms: u64) -> u64 {
    base_ms + (base_ms as f64 * REGRESSION_FRAC) as u64 + NOISE_FLOOR_MS
}

impl Check {
    /// Compare `run` with `baseline`, printing one line per shared cell.
    /// Run cells absent from the baseline are skipped (a smoke run
    /// checked against a full baseline); a baseline without checked
    /// cells, or with a cell lacking a fingerprint, is an error.
    pub fn run(&self, run: &Report, baseline: &Report) -> Result<(), String> {
        let base: Vec<&Cell> = self
            .sections
            .iter()
            .flat_map(|s| baseline.cells(s))
            .collect();
        if base.is_empty() {
            return Err("baseline has no cells".into());
        }
        if let Some(c) = base.iter().find(|c| c.get("fingerprint").is_none()) {
            return Err(format!(
                "baseline cell {} has no fingerprint",
                c.label(self.key)
            ));
        }
        let mut failures = Vec::new();
        for cell in self.sections.iter().flat_map(|s| run.cells(s)) {
            let Some(b) = base.iter().find(|b| {
                self.key
                    .iter()
                    .all(|k| cell.get(k).is_some() && b.get(k) == cell.get(k))
            }) else {
                continue;
            };
            let label = cell.label(self.key);
            let (fp, base_fp) = (cell.text("fingerprint"), b.text("fingerprint"));
            if fp == base_fp {
                println!("  check {label}: fingerprint matches baseline");
            } else {
                println!(
                    "  check {label}: fingerprint {} != baseline {} — OUTCOME CHANGED",
                    fp.unwrap_or("none"),
                    base_fp.unwrap_or("none")
                );
                failures.push(format!("{label}: outcome fingerprint changed"));
            }
            if self.wall_gate {
                let ms = |c: &Cell| c.get("wall_ms").and_then(|v| v.parse::<u64>().ok());
                let (Some(wall), Some(base_ms)) = (ms(cell), ms(b)) else {
                    return Err(format!("cell {label} has no wall_ms"));
                };
                let limit = wall_limit(base_ms);
                let verdict = if wall > limit { "REGRESSED" } else { "ok" };
                println!("  check {label}: {wall}ms vs baseline {base_ms}ms (limit {limit}ms) — {verdict}");
                if wall > limit {
                    failures.push(format!(
                        "{label}: wall-clock regression beyond {:.0}% + {NOISE_FLOOR_MS}ms noise floor ({wall}ms > {limit}ms)",
                        REGRESSION_FRAC * 100.0
                    ));
                }
            }
        }
        if failures.is_empty() {
            Ok(())
        } else {
            Err(failures.join("; "))
        }
    }
}

/// Strip host-dependent measurements from a report: `"wall_ms": 123` →
/// `"wall_ms": 0` (likewise the derived `events_per_sec`). Everything
/// else in the bench JSON is simulation outcome, which is deterministic —
/// so two reports of the same sweep must be byte-identical after this,
/// whatever `--threads`.
pub fn zero_wall(json: &str) -> String {
    let mut out = json.to_string();
    for key in ["\"wall_ms\": ", "\"events_per_sec\": "] {
        let mut next = String::with_capacity(out.len());
        let mut rest = out.as_str();
        while let Some(i) = rest.find(key) {
            let start = i + key.len();
            next.push_str(&rest[..start]);
            next.push('0');
            let tail = &rest[start..];
            let digits = tail
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(tail.len());
            rest = &tail[digits..];
        }
        next.push_str(rest);
        out = next;
    }
    out
}

/// The command line every study bin accepts:
///
/// * `--smoke`          run the bin's small CI subset
/// * `--seed S`         base cluster seed (default 7; schedule seed 1000+S)
/// * `--out PATH`       report path (default `BENCH_<bench>.json`)
/// * `--check BASELINE` compare against a previous report ([`Check`])
/// * `--threads N`      sweep width (default: available cores); every
///   cell is an independent deterministic simulation, so the report is
///   the same at any width — only wall clocks move
/// * `--verify-threads` rerun at `--threads 1` and assert the two
///   reports are byte-identical after [`zero_wall`]
pub struct Args {
    /// Bench name, used in messages and the default `--out`.
    bench: &'static str,
    /// `--smoke`.
    pub smoke: bool,
    /// `--seed`.
    pub seed: u64,
    /// `--out`.
    pub out: String,
    /// `--check`.
    pub check: Option<String>,
    /// `--threads`.
    pub threads: usize,
    /// `--verify-threads`.
    pub verify_threads: bool,
    raw: Vec<String>,
}

impl Args {
    /// Parse the process arguments.
    pub fn parse(bench: &'static str) -> Self {
        Self::from_vec(bench, std::env::args().collect())
    }

    /// Parse `raw` (argv, program name first).
    pub fn from_vec(bench: &'static str, raw: Vec<String>) -> Self {
        let mut args = Args {
            bench,
            smoke: false,
            seed: 7,
            out: String::new(),
            check: None,
            threads: crate::arg_threads(&raw),
            verify_threads: false,
            raw,
        };
        args.smoke = args.flag("--smoke");
        args.seed = args.value("--seed").unwrap_or(7);
        args.out = args
            .value("--out")
            .unwrap_or_else(|| format!("BENCH_{bench}.json"));
        args.check = args.value("--check");
        args.verify_threads = args.flag("--verify-threads");
        args
    }

    /// Whether the bare flag `name` was passed.
    pub fn flag(&self, name: &str) -> bool {
        self.raw.iter().any(|a| a == name)
    }

    /// The value following `name`, if present and parseable.
    pub fn value<T: FromStr>(&self, name: &str) -> Option<T> {
        let i = self.raw.iter().position(|a| a == name)?;
        self.raw.get(i + 1)?.parse().ok()
    }

    /// Write `report` to `--out`; with `--verify-threads`, assert that
    /// `serial()` (the sweep rerun at one thread) renders the same after
    /// [`zero_wall`]; with `--check`, run `check` against the baseline
    /// and exit 1 on any failure.
    pub fn finish(&self, report: &Report, check: &Check, serial: impl FnOnce() -> Report) {
        let json = report.to_string();
        std::fs::write(&self.out, &json).expect("write report");
        println!("wrote {}", self.out);
        if self.verify_threads {
            assert!(
                zero_wall(&json) == zero_wall(&serial().to_string()),
                "{}: parallel report differs from --threads 1 rerun",
                self.bench
            );
            println!(
                "{}: --verify-threads ok (report identical to --threads 1)",
                self.bench
            );
        }
        if let Some(path) = &self.check {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
            if let Err(e) = Report::parse(&text).and_then(|base| check.run(report, &base)) {
                eprintln!("{}: --check {path} failed: {e}", self.bench);
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GATED: Check = Check {
        sections: &["tiers"],
        key: &["nodes"],
        wall_gate: true,
    };

    fn tier(nodes: u64, wall_ms: u64, fp: &str) -> Cell {
        Cell::new()
            .raw("nodes", nodes)
            .raw("wall_ms", wall_ms)
            .str("fingerprint", fp)
    }

    fn scale(tiers: Vec<Cell>) -> Report {
        Report::new("scale", 7).section("tiers", tiers)
    }

    #[test]
    fn every_committed_baseline_round_trips_byte_identically() {
        let benches = [
            "scale",
            "sched",
            "elastic",
            "failover",
            "federation",
            "churn",
            "replication",
        ];
        for bench in benches {
            let path = format!(
                "{}/../../BENCH_{bench}.baseline.json",
                env!("CARGO_MANIFEST_DIR")
            );
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
            let report = Report::parse(&text).unwrap_or_else(|e| panic!("{bench}: {e}"));
            assert_eq!(report.header.text("bench"), Some(bench));
            assert!(report.sections.iter().any(|(_, cells)| !cells.is_empty()));
            assert_eq!(
                report.to_string(),
                text,
                "{bench} baseline does not round-trip"
            );
        }
    }

    #[test]
    fn empty_sections_and_nested_values_round_trip() {
        let report = Report::new("sched", 7)
            .scalar("total_nodes", 100)
            .section(
                "cells",
                [Cell::new()
                    .raw("routed", "[45, 43]")
                    .raw("crash_at", "null")],
            )
            .section("ablation", []);
        let text = report.to_string();
        assert!(text.ends_with("  \"ablation\": [\n  ]\n}\n"));
        assert_eq!(Report::parse(&text).unwrap(), report);
        assert_eq!(
            Report::parse(&text).unwrap().cells("cells")[0].get("routed"),
            Some("[45, 43]")
        );
    }

    #[test]
    fn check_passes_on_identical_and_skips_cells_missing_from_baseline() {
        let base = scale(vec![tier(100, 1000, "aa")]);
        let run = scale(vec![tier(100, 1000, "aa"), tier(300, 99_999, "zz")]);
        assert_eq!(GATED.run(&run, &base), Ok(()));
    }

    #[test]
    fn check_fails_on_changed_fingerprint() {
        let base = scale(vec![tier(100, 1000, "aa")]);
        let run = scale(vec![tier(100, 1000, "bb")]);
        let err = GATED.run(&run, &base).unwrap_err();
        assert!(
            err.contains("nodes=100: outcome fingerprint changed"),
            "{err}"
        );
        let ungated = Check {
            wall_gate: false,
            ..GATED
        };
        assert!(ungated.run(&run, &base).is_err());
    }

    #[test]
    fn wall_gate_trips_exactly_past_base_plus_quarter_plus_noise_floor() {
        assert_eq!(wall_limit(1000), 1500);
        let base = scale(vec![tier(100, 1000, "aa")]);
        assert_eq!(
            GATED.run(&scale(vec![tier(100, 1500, "aa")]), &base),
            Ok(())
        );
        let err = GATED
            .run(&scale(vec![tier(100, 1501, "aa")]), &base)
            .unwrap_err();
        assert_eq!(
            err,
            "nodes=100: wall-clock regression beyond 25% + 250ms noise floor (1501ms > 1500ms)"
        );
        let ungated = Check {
            wall_gate: false,
            ..GATED
        };
        assert_eq!(
            ungated.run(&scale(vec![tier(100, 1501, "aa")]), &base),
            Ok(())
        );
    }

    #[test]
    fn baseline_cell_without_fingerprint_is_an_error() {
        let base = scale(vec![Cell::new().raw("nodes", 100).raw("wall_ms", 1000)]);
        let run = scale(vec![tier(100, 1000, "aa")]);
        let err = GATED.run(&run, &base).unwrap_err();
        assert_eq!(err, "baseline cell nodes=100 has no fingerprint");
        assert!(GATED.run(&run, &scale(vec![])).is_err());
    }

    #[test]
    fn args_parse_the_shared_flags() {
        let raw = "bin --smoke --seed 9 --check b.json --threads 3 --wave 6.5";
        let args = Args::from_vec("churn", raw.split(' ').map(String::from).collect());
        assert!(args.smoke && !args.verify_threads);
        assert_eq!((args.seed, args.threads), (9, 3));
        assert_eq!(args.out, "BENCH_churn.json");
        assert_eq!(args.check.as_deref(), Some("b.json"));
        assert_eq!(args.value::<f64>("--wave"), Some(6.5));
    }

    #[test]
    fn zero_wall_strips_only_host_times() {
        let a = "{\"wall_ms\": 1442, \"events_per_sec\": 210107, \"sim_events\": 302975}";
        assert_eq!(
            zero_wall(a),
            "{\"wall_ms\": 0, \"events_per_sec\": 0, \"sim_events\": 302975}"
        );
    }
}
