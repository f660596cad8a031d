//! The benchmark driver: one invocation measures one workload.
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
//! measures the per-layer metrics (ladder, kernels, repeatable counts, one
//! traced execution). Both print a report for people and return the metrics
//! for the machine-readable last line.

use crate::measure::{Rounds, END_TO_END};
use crate::stats::{fmt_slowdown, median};
use crate::subject::{setup, Config, Outcome, Prepared, Sizes};
use serde_json::{json, Value};
use std::fmt::Write as _;
use std::time::Instant;

/// How often set-up runs in one invocation; `setup_s` is the median.
const SETUPS: usize = 5;

/// A metric: name, unit, and whether higher is better.
pub type MetricDef = (&'static str, &'static str, bool);

/// The end-to-end metrics, as `BENCHMARK.json` lists them.
pub const END_TO_END_METRICS: [MetricDef; 6] = [
    ("setup_s", "s", false),
    ("base_wall_ms", "ms", false),
    ("single_run_slowdown", "x", false),
    ("first_run_slowdown", "x", false),
    ("second_run_slowdown", "x", false),
    ("velodrome_slowdown", "x", false),
];

/// What one invocation measures.
#[derive(Clone, Debug)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds the measured phase may take.
    pub seconds: f64,
    /// Per-layer run (`--trace 1`) instead of the end-to-end one.
    pub trace: bool,
}

/// What one invocation produced.
#[derive(Clone, Debug)]
pub struct Report {
    /// The report for people.
    pub text: String,
    /// `(name, value, unit)` of every metric of the run's kind.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Checker executions made in the measured phase.
    pub attempted: u64,
    /// Executions whose outputs failed a check.
    pub failed: u64,
    /// Known false cycles seen (tallied apart from `failed`:
    /// see [`Outcome::false_cycles`]).
    pub false_cycles: u64,
    /// Everything measured, sample by sample (what `--out` writes).
    pub detail: Value,
    /// The traced run's spans as JSON lines `{id, parent, name, workload,
    /// start_ns, end_ns}` (what `--out` writes beside the detail).
    pub spans: Vec<String>,
}

impl Report {
    /// True when set-up verified and no execution failed its gate.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The machine-readable result: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: std::collections::BTreeMap<String, Value> = self
            .metrics
            .iter()
            .map(|&(name, value, unit)| (name.to_string(), json!({"value": value, "unit": unit})))
            .collect();
        json!({
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": Value::Object(metrics),
        })
        .to_string()
    }
}

/// Runs set-up [`SETUPS`] times; returns the last result and every duration.
fn prepare(options: &Options, sizes: Sizes) -> Result<(Prepared, Vec<f64>), String> {
    let mut durations = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        prepared = Some(setup(&options.workload, options.seed, sizes, None)?);
        durations.push(start.elapsed().as_secs_f64());
    }
    Ok((prepared.expect("SETUPS is positive"), durations))
}

/// Tallies one execution's verdict into the report: every checker execution
/// is an operation (a history batch makes one per document), and a failed
/// one is printed with where it happened.
pub(crate) fn tally(outcome: &Outcome, units: u64, place: &str, report: &mut Report) {
    report.attempted += units;
    report.failed += outcome.failures.len() as u64;
    for failure in &outcome.failures {
        let _ = writeln!(
            report.text,
            "FAILED {} {place}: {failure}",
            outcome.config.name()
        );
    }
    report.false_cycles += outcome.false_cycles.len() as u64;
    for cycle in &outcome.false_cycles {
        let _ = writeln!(
            report.text,
            "KNOWN DEFECT {} {place}: false precise cycle {cycle}",
            outcome.config.name()
        );
    }
}

/// [`tally`] for every execution of a timed phase.
pub(crate) fn tally_rounds(rounds: &Rounds, units: u64, report: &mut Report) {
    for (r, round) in rounds.rounds.iter().enumerate() {
        for outcome in round {
            tally(outcome, units, &format!("round {r}"), report);
        }
    }
}

pub(crate) fn samples_json(rounds: &Rounds) -> Value {
    let rows: Vec<Value> = rounds
        .rounds
        .iter()
        .map(|round| {
            Value::Array(
                round
                    .iter()
                    .map(|o| {
                        json!({
                            "config": o.config.name(),
                            "wall_ns": o.wall_ns,
                            "peak_heap_bytes": o.peak_heap as u64,
                            "failures": o.failures.clone(),
                            "false_cycles": o.false_cycles.clone(),
                        })
                    })
                    .collect(),
            )
        })
        .collect();
    Value::Array(rows)
}

/// Measures one workload. `sizes` is an argument so that tests run this same
/// code on the small instances.
pub fn run(options: &Options, sizes: Sizes) -> Result<Report, String> {
    let mut report = Report {
        text: String::new(),
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
        false_cycles: 0,
        detail: Value::Null,
        spans: Vec::new(),
    };
    let _ = writeln!(
        report.text,
        "# dc-benchmark {} seed {} ({} s, {})",
        options.workload,
        options.seed,
        options.seconds,
        if options.trace {
            "per-layer"
        } else {
            "end-to-end"
        }
    );
    if options.trace {
        crate::layers::run(options, sizes, &mut report)?;
    } else {
        end_to_end(options, sizes, &mut report)?;
    }
    Ok(report)
}

fn end_to_end(options: &Options, sizes: Sizes, report: &mut Report) -> Result<(), String> {
    let (prepared, setups) = prepare(options, sizes)?;
    let subject = &prepared.full;
    let rounds = Rounds::measure(subject, &END_TO_END, options.seconds, 3);
    tally_rounds(&rounds, subject.units(), report);

    let text = &mut report.text;
    text.push_str(&rounds.describe(&END_TO_END));

    let mut metrics = vec![
        ("setup_s", median(&setups)),
        ("base_wall_ms", rounds.gated_ms(Config::Nop)),
    ];
    for (name, config) in [
        ("single_run_slowdown", Config::SingleRun),
        ("first_run_slowdown", Config::FirstRun),
        ("second_run_slowdown", Config::SecondRun),
        ("velodrome_slowdown", Config::Velodrome),
    ] {
        let r = rounds.slowdown(config);
        let _ = writeln!(text, "{name}: {}", fmt_slowdown(r));
        metrics.push((name, r.x));
    }
    let _ = writeln!(
        text,
        "known false cycles (tallied apart from failed): {}",
        report.false_cycles
    );
    // Not a metric of its own: it is the two above, read as a throughput.
    let _ = writeln!(
        text,
        "single-run checker executions per second: {:.1}",
        subject.units() as f64 * 1e3 / (metrics[1].1 * metrics[2].1)
    );
    for (def, (name, value)) in END_TO_END_METRICS.iter().zip(&metrics) {
        assert_eq!(def.0, *name, "metrics are reported in their declared order");
        let _ = writeln!(text, "{name} = {value} {}", def.1);
        report.metrics.push((name, *value, def.1));
    }
    report.detail = json!({
        "setup_s": setups,
        "rounds": samples_json(&rounds),
        "noise_floor": rounds.aa_floor(),
        "false_cycles": report.false_cycles,
    });
    Ok(())
}
