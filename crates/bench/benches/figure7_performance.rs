//! Regenerates **Figure 7**: run-time performance of Velodrome,
//! DoubleChecker's single-run mode, and the first and second runs of
//! multi-run mode, normalized to an unmodified run — plus the §5.3 extra
//! configurations: the unsound Velodrome variant, Velodrome as the second
//! run, and the always-instrument-unary second run.
//!
//! Shapes to check against the paper: Velodrome slowest among sound
//! checkers (6.1x there); single-run clearly faster (3.6x); first run
//! fastest (1.9x); second run in between (2.4x); unsound Velodrome between
//! Velodrome and single-run (4.1x); Velodrome-as-second-run slower than the
//! ICD+PCD second run (2.9x); always-instrument-unary slower than the
//! conditional second run.
//!
//! `single-run-pipelined` is this reproduction's addition (no paper
//! counterpart): single-run with the asynchronous analysis pipeline, where
//! application threads never take the graph mutex (`graph_locks = 0`) and
//! SCC detection + PCD replay run on background threads.
//! `single-run-aerodrome` races the vector-clock backend (no paper
//! counterpart): same dependence discovery as Velodrome, but cycle
//! detection is a constant-time clock comparison per join instead of a
//! graph search; the observed record carries the clock-join latency
//! histogram.

use dc_aerodrome::{AeroConfig, AeroDrome};
use dc_bench::{filter_workloads, final_spec, fmt_ratio, geomean, scale_from_env, time_real};
use dc_core::{DcConfig, DoubleChecker, ExecPlan, StaticTxInfo};
use dc_octet::CoordinationMode;
use dc_runtime::checker::NopChecker;
use dc_runtime::spec::AtomicitySpec;
use dc_velodrome::{Variant, Velodrome, VelodromeConfig};
use dc_workloads::Workload;

struct Config {
    name: &'static str,
    paper: &'static str,
}

const CONFIGS: &[Config] = &[
    Config {
        name: "velodrome",
        paper: "6.1x",
    },
    Config {
        name: "velodrome-unsound",
        paper: "4.1x",
    },
    Config {
        name: "single-run-aerodrome",
        paper: "n/a (this repro)",
    },
    Config {
        name: "single-run",
        paper: "3.6x",
    },
    Config {
        name: "single-run-pipelined",
        paper: "n/a (this repro)",
    },
    Config {
        name: "first-run",
        paper: "1.9x",
    },
    Config {
        name: "second-run",
        paper: "2.4x",
    },
    Config {
        name: "second-run-always-unary",
        paper: "2.69x (169%)",
    },
    Config {
        name: "velodrome-second-run",
        paper: "2.9x",
    },
];

fn main() {
    let scale = scale_from_env();
    let trials = dc_bench::trials_from_env(3);
    let quiescent = 4;
    let workloads = filter_workloads(dc_workloads::performance_suite(scale));

    let mut headers: Vec<&str> = vec!["Benchmark", "base (ms)"];
    headers.extend(CONFIGS.iter().map(|c| c.name));
    headers.push("pipeline metrics");
    let mut rows = Vec::new();
    let mut ratio_columns: Vec<Vec<f64>> = vec![Vec::new(); CONFIGS.len()];

    for wl in &workloads {
        eprintln!("[figure7] {} …", wl.name);
        let spec = final_spec(wl, quiescent);
        // First-run static info for the second-run configurations
        // (union of several first runs, §5.1's methodology).
        let info = first_run_info(wl, &spec, 4);

        let (base, _) = time_real(&wl.program, || NopChecker, trials);
        let mut row = vec![wl.name.to_string(), format!("{:.1}", base as f64 / 1e6)];
        for (i, config) in CONFIGS.iter().enumerate() {
            let nanos = run_config(wl, &spec, &info, config.name, trials);
            let ratio = nanos as f64 / base.max(1) as f64;
            ratio_columns[i].push(ratio);
            row.push(fmt_ratio(ratio));
            dc_bench::record_json(
                "figure7.jsonl",
                &serde_json::json!({
                    "benchmark": wl.name,
                    "config": config.name,
                    "base_ns": base,
                    "checker_ns": nanos,
                    "slowdown": ratio,
                }),
            );
        }
        // One extra instrumented run of the pipelined configuration
        // (observability `full`, excluded from the timing columns): queue
        // high-watermarks and stage tail latencies for the metrics column,
        // full pipeline report to the jsonl record.
        let (cell, pipeline_json) = pipeline_metrics(wl, &spec);
        row.push(cell);
        dc_bench::record_json(
            "figure7.jsonl",
            &serde_json::json!({
                "benchmark": wl.name,
                "config": "single-run-pipelined-observed",
                "pipeline": pipeline_json,
            }),
        );
        // One instrumented AeroDrome run (join timing on, excluded from the
        // timing columns): edge/join counters plus the clock-join latency
        // histogram for the vector-clock race in EXPERIMENTS.md.
        dc_bench::record_json(
            "figure7.jsonl",
            &serde_json::json!({
                "benchmark": wl.name,
                "config": "single-run-aerodrome-observed",
                "aerodrome": aerodrome_metrics(wl, &spec),
            }),
        );
        rows.push(row);
    }
    let mut geo = vec!["geomean".to_string(), String::new()];
    for column in &ratio_columns {
        geo.push(fmt_ratio(geomean(column)));
    }
    geo.push(String::new());
    rows.push(geo);
    let mut paper_row = vec!["paper geomean".to_string(), String::new()];
    paper_row.extend(CONFIGS.iter().map(|c| c.paper.to_string()));
    paper_row.push(String::new());
    rows.push(paper_row);
    let header_refs: Vec<&str> = headers.clone();
    dc_bench::print_table(
        "Figure 7 — normalized execution time (median of trials, real threads)",
        &header_refs,
        &rows,
    );
}

/// Runs the pipelined configuration once with full observability and
/// distils the pipeline report into a table cell (queue high-watermark and
/// stage p99s) plus the complete JSON record.
fn pipeline_metrics(wl: &Workload, spec: &AtomicitySpec) -> (String, serde_json::Value) {
    let report = dc_core::run_doublechecker(
        &wl.program,
        spec,
        DcConfig::single_run(CoordinationMode::Threaded)
            .with_pipelined(true)
            .with_observability(dc_core::ObsLevel::Full),
        &ExecPlan::Real,
    )
    .expect("instrumented pipelined run");
    let p = report.pipeline.expect("observability was on");
    let cell = format!(
        "q hwm {}, scc p99 {}ns, replay p99 {}ns",
        p.graph.queue_depth.high_watermark, p.graph.scc_latency.p99, p.replay.latency.p99,
    );
    (cell, dc_core::pipeline_report_to_json(&p))
}

/// Runs AeroDrome once on real threads with join timing enabled and
/// distils the counters and the clock-join latency histogram into the
/// observed JSON record.
fn aerodrome_metrics(wl: &Workload, spec: &AtomicitySpec) -> serde_json::Value {
    let (_, aero) = time_real(
        &wl.program,
        || {
            AeroDrome::new(
                wl.program.threads.len(),
                spec.clone(),
                AeroConfig {
                    time_joins: true,
                    ..AeroConfig::default()
                },
            )
        },
        1,
    );
    let h = aero.stats().clock_join_latency.summary();
    serde_json::json!({
        "violations": aero.violations().len(),
        "cross_edges": aero.cross_edges(),
        "clock_joins": aero.clock_joins(),
        "propagated_joins": aero.propagated_joins(),
        "clock_join_latency": serde_json::json!({
            "count": h.count,
            "sum_ns": h.sum,
            "p50_ns": h.p50,
            "p90_ns": h.p90,
            "p99_ns": h.p99,
            "max_ns": h.max,
        }),
    })
}

fn first_run_info(wl: &Workload, spec: &AtomicitySpec, n: u32) -> StaticTxInfo {
    let mut info = StaticTxInfo::default();
    for k in 0..n {
        let plan = ExecPlan::Det(dc_runtime::engine::det::Schedule::random(
            1000 + u64::from(k),
        ));
        let report = dc_core::run_doublechecker(
            &wl.program,
            spec,
            DcConfig::first_run(CoordinationMode::Immediate),
            &plan,
        )
        .expect("first run");
        info.union(&report.static_info);
    }
    info
}

fn run_config(
    wl: &Workload,
    spec: &AtomicitySpec,
    info: &StaticTxInfo,
    name: &str,
    trials: u32,
) -> u64 {
    let n = wl.program.threads.len();
    match name {
        "velodrome" => {
            time_real(
                &wl.program,
                || Velodrome::new(n, spec.clone(), VelodromeConfig::default()),
                trials,
            )
            .0
        }
        "velodrome-unsound" => {
            time_real(
                &wl.program,
                || {
                    Velodrome::new(
                        n,
                        spec.clone(),
                        VelodromeConfig {
                            variant: Variant::Unsound,
                            ..VelodromeConfig::default()
                        },
                    )
                },
                trials,
            )
            .0
        }
        "single-run-aerodrome" => {
            time_real(
                &wl.program,
                || AeroDrome::new(n, spec.clone(), AeroConfig::default()),
                trials,
            )
            .0
        }
        "single-run" => {
            time_real(
                &wl.program,
                || {
                    DoubleChecker::new(
                        n,
                        spec.clone(),
                        DcConfig::single_run(CoordinationMode::Threaded),
                    )
                },
                trials,
            )
            .0
        }
        "single-run-pipelined" => {
            time_real(
                &wl.program,
                || {
                    DoubleChecker::new(
                        n,
                        spec.clone(),
                        DcConfig::single_run(CoordinationMode::Threaded).with_pipelined(true),
                    )
                },
                trials,
            )
            .0
        }
        "first-run" => {
            time_real(
                &wl.program,
                || {
                    DoubleChecker::new(
                        n,
                        spec.clone(),
                        DcConfig::first_run(CoordinationMode::Threaded),
                    )
                },
                trials,
            )
            .0
        }
        "second-run" => {
            time_real(
                &wl.program,
                || {
                    DoubleChecker::new(
                        n,
                        spec.clone(),
                        DcConfig::second_run(info, CoordinationMode::Threaded),
                    )
                },
                trials,
            )
            .0
        }
        "second-run-always-unary" => {
            time_real(
                &wl.program,
                || {
                    DoubleChecker::new(
                        n,
                        spec.clone(),
                        DcConfig {
                            filter: info.to_filter_always_unary(),
                            ..DcConfig::single_run(CoordinationMode::Threaded)
                        },
                    )
                },
                trials,
            )
            .0
        }
        "velodrome-second-run" => {
            time_real(
                &wl.program,
                || {
                    Velodrome::new(
                        n,
                        spec.clone(),
                        VelodromeConfig {
                            filter: info.to_filter(),
                            ..VelodromeConfig::default()
                        },
                    )
                },
                trials,
            )
            .0
        }
        other => unreachable!("unknown config {other}"),
    }
}
