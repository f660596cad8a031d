//! The per-layer run (`--trace 1`): the ablation ladder as differences of
//! measured configurations, the micro-kernels, the repeatable counts of the
//! small instance, and one traced execution whose sampled attribution is
//! reconciled with the ladder.
//!
//! A layer is a crate. Nothing here reads inside the program: every number
//! comes from timing calls into public functions or from public statistics.

use crate::bench::{samples_json, tally, tally_rounds, MetricDef, Options, Report};
use crate::kernels;
use crate::measure::{Rounds, LAYERS};
use crate::spans::{self_times, Span, SpanRecorder, ACCESS_EVERY, TX_END_EVERY};
use crate::stats::{fmt_delta, fmt_slowdown, median, rung_noise};
use crate::subject::{count, setup, Config, Sizes, Subject};
use crate::workloads;
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The per-layer metrics, as `BENCHMARK.json` lists them: layer = crate.
pub const PER_LAYER_METRICS: [MetricDef; 56] = [
    ("runtime.base_ns_per_access", "ns", false),
    ("runtime.det_ns_per_step", "ns", false),
    ("octet.barrier_ns_per_access", "ns", false),
    ("octet.fast_path_ns", "ns", false),
    ("octet.cache_hit_ns", "ns", false),
    ("octet.conflict_immediate_ns", "ns", false),
    ("octet.conflicts", "count", false),
    ("octet.upgrades", "count", false),
    ("octet.fences", "count", false),
    ("octet.cache_hit_ratio", "ratio", true),
    ("octet.cache_off_slowdown", "x", false),
    ("icd.track_ns_per_access", "ns", false),
    ("icd.scc_ns_per_tx", "ns", false),
    ("icd.logging_ns_per_access", "ns", false),
    ("icd.record_access_ns", "ns", false),
    ("icd.record_access_elided_ns", "ns", false),
    ("icd.graph_op_ns", "ns", false),
    ("icd.scc_probe_ns", "ns", false),
    ("icd.collect_ns_per_tx", "ns", false),
    ("icd.cross_edges", "count", false),
    ("icd.sccs", "count", false),
    ("icd.sccs_to_pcd", "count", false),
    ("icd.log_entries", "count", false),
    ("icd.log_elision_ratio", "ratio", true),
    ("icd.collected_txs", "count", true),
    ("icd.graph_locks", "count", false),
    ("pcd.replay_ns_per_scc", "ns", false),
    ("pcd.replay_ns_per_entry", "ns", false),
    ("pcd.replayed_entries", "count", false),
    ("pcd.precise_cycles", "count", false),
    ("pcd.useful_ratio", "ratio", true),
    ("core.overhead_ns_per_access", "ns", false),
    ("core.pipelined_slowdown", "x", false),
    ("core.pipelined_run_end_ms", "ms", false),
    ("core.access_p50_ns", "ns", false),
    ("core.access_p99_ns", "ns", false),
    ("core.tx_end_p50_ns", "ns", false),
    ("core.tx_end_p99_ns", "ns", false),
    ("core.run_end_ms", "ms", false),
    ("core.unblamed_cycles", "count", false),
    ("core.false_cycles", "count", false),
    ("core.single_run_peak_heap_mb", "MB", false),
    ("velodrome.ns_per_access", "ns", false),
    ("velodrome.meta_lock_ns", "ns", false),
    ("velodrome.cross_edges", "count", false),
    ("aerodrome.slowdown", "x", false),
    ("aerodrome.clock_joins", "count", false),
    ("aerodrome.propagated_joins", "count", false),
    ("obs.counters_slowdown", "x", false),
    ("obs.full_slowdown", "x", false),
    ("histories.parse_mb_per_s", "MB/s", true),
    ("histories.lower_us_per_tx", "us", false),
    ("histories.check_us_per_tx", "us", false),
    ("bench.aa_floor", "ratio", false),
    ("bench.inconclusive_metrics", "count", false),
    ("bench.trace_overhead_ratio", "x", false),
];

/// The rungs of the ladder as `(label, metric, configuration, the one
/// before)`: each is the slowdown of its configuration minus that of the one
/// before (1 for the uninstrumented run), so they sum to the single-run
/// slowdown minus 1 exactly. The metric is the rung per access — or per
/// transaction, or per SCC replayed — at the gated uninstrumented time.
const RUNGS: [(&str, &str, Config, Config); 5] = [
    (
        "octet barriers",
        "octet.barrier_ns_per_access",
        Config::OctetOnly,
        Config::Nop,
    ),
    (
        "icd tracking",
        "icd.track_ns_per_access",
        Config::FirstNoScc,
        Config::OctetOnly,
    ),
    (
        "icd scc detection",
        "icd.scc_ns_per_tx",
        Config::FirstRun,
        Config::FirstNoScc,
    ),
    (
        "icd logging",
        "icd.logging_ns_per_access",
        Config::SingleNoPcd,
        Config::FirstRun,
    ),
    (
        "pcd replay",
        "pcd.replay_ns_per_scc",
        Config::SingleRun,
        Config::SingleNoPcd,
    ),
];

/// The configurations compared with single-run, and the slowdown metric of
/// each.
const VERSUS_SINGLE: [(&str, Config); 6] = [
    ("octet.cache_off_slowdown", Config::CacheOff),
    ("core.pipelined_slowdown", Config::Pipelined),
    ("velodrome.ns_per_access", Config::Velodrome),
    ("aerodrome.slowdown", Config::Aerodrome),
    ("obs.counters_slowdown", Config::ObsCounters),
    ("obs.full_slowdown", Config::ObsFull),
];

/// A per-event figure over fewer events than this says nothing about one
/// event.
const MIN_EVENTS: f64 = 100.0;

/// The share of `--seconds` the rotation gets.
const ROTATION_SHARE: f64 = 0.9;

/// The `q`-th percentile (nearest rank) of sorted values; 0 when empty.
fn percentile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Durations of the spans named `name`, less the bracket overhead, sorted.
fn sampled(spans: &[Span], name: &str, overhead: u64) -> Vec<u64> {
    let mut d: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns().saturating_sub(overhead))
        .collect();
    d.sort_unstable();
    d
}

fn total_ms(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .sum::<u64>() as f64
        / 1e6
}

fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

/// Runs the per-layer measurement of one workload into `report`.
pub fn run(options: &Options, sizes: Sizes, report: &mut Report) -> Result<(), String> {
    let recorder = SpanRecorder::new();
    let (pipelined_spans, empty_spans) = (SpanRecorder::new(), SpanRecorder::new());
    let root = recorder.fresh_id();
    let root_start = recorder.now();
    // The rotation is three times as long as the end-to-end one, so it runs
    // on the `layers` instance (half the iterations) to fit as many rounds
    // into the same run length; its figures are per access, per transaction
    // or relative, so they speak for the full instance.
    let sizes = Sizes {
        full: sizes.layers,
        ..sizes
    };
    let prepared = setup(
        &options.workload,
        options.seed,
        sizes,
        Some((&recorder, root)),
    )?;
    let (full, small) = (&prepared.full, &prepared.small);

    // Most of the time goes to the rotation; the rest to the three traced
    // executions, the kernels and the small-instance counts.
    let rounds = Rounds::measure(full, &LAYERS, options.seconds * ROTATION_SHARE, 2);
    tally_rounds(&rounds, full.units(), report);
    let traced = full.execute(Config::SingleRun, Some((&recorder, root)));
    // Into a recorder of their own: pipelined for its `run_end`, and the
    // uninstrumented run for what an empty bracket costs in place.
    let traced_pipelined = full.execute(Config::Pipelined, Some((&pipelined_spans, 0)));
    let traced_nop = full.execute(Config::Nop, Some((&empty_spans, 0)));
    let kernel_values = kernels::run();
    let det_counts = small.execute(Config::ObsCounters, None);
    let det_nop = small.execute(Config::Nop, None);
    let det_velodrome = small.execute(Config::Velodrome, None);
    let det_aerodrome = small.execute(Config::Aerodrome, None);
    // The history path as a kernel: the traced batch itself, or a small
    // batch of the same generator on the other workloads.
    let split = match full {
        Subject::Histories { .. } => traced.split,
        Subject::Program { .. } => {
            let docs = workloads::history_batch(options.seed, 40);
            let infos = vec![Default::default(); docs.len()];
            Subject::Histories { docs, infos }
                .execute(Config::SingleRun, None)
                .split
        }
    };
    recorder.extend([Span {
        id: root,
        parent: 0,
        name: "bench.workload",
        start_ns: root_start,
        end_ns: recorder.now(),
    }]);
    for outcome in [
        &traced,
        &traced_pipelined,
        &traced_nop,
        &det_counts,
        &det_nop,
        &det_velodrome,
        &det_aerodrome,
    ] {
        tally(outcome, 1, "outside the rotation", report);
    }

    let spans = recorder.spans();
    let floor = rounds.aa_floor();
    let base_ms = rounds.gated_ms(Config::Nop);
    let slowdown = |c: Config| match c {
        Config::Nop => 1.0,
        _ => rounds.slowdown(c).x,
    };
    let accesses = rounds.median_count(Config::Nop, "accesses");
    let parallelism = full.parallelism() as f64;
    // A difference of slowdowns as ns of thread time per one of `events`.
    let per = |share: f64, events: f64| {
        if events > 0.0 {
            share * base_ms * 1e6 * parallelism / events
        } else {
            0.0
        }
    };
    let text = &mut report.text;
    text.push_str(&rounds.describe(&LAYERS));

    // The ladder and the configurations on trial, as text and as metrics. A
    // rung inside the noise floor is published as 0 and a slowdown below
    // 1.0x as 1, each counted in `bench.inconclusive_metrics`: the metrics
    // carry no number that reads as a win.
    let mut values: BTreeMap<&str, f64> = kernel_values.into_iter().collect();
    let mut inconclusive = 0u32;
    let txs = rounds.median_count(Config::FirstRun, "txs");
    let sccs_to_pcd = rounds.median_count(Config::SingleRun, "icd.sccs_to_pcd");
    let single = slowdown(Config::SingleRun);
    let overhead_ms = (single - 1.0) * base_ms;
    let _ = writeln!(
        text,
        "ladder, as ms of the {base_ms:.1} ms uninstrumented run and share of single-run − nop:"
    );
    let mut rung_sum = 0.0;
    for (label, metric, upper, lower) in RUNGS {
        let (hi, lo) = (slowdown(upper), slowdown(lower));
        let share = hi - lo;
        rung_sum += share;
        let events = match metric {
            "icd.scc_ns_per_tx" => txs,
            "pcd.replay_ns_per_scc" => sccs_to_pcd,
            _ => accesses,
        };
        let per_round: Vec<f64> = rounds
            .ratios(upper)
            .iter()
            .zip(rounds.ratios(lower))
            .map(|(h, l)| h - l)
            .collect();
        let noise = rung_noise(share, hi.max(lo), floor, &per_round);
        let ms = share * base_ms;
        let _ = writeln!(
            text,
            "  {label:<18} {:<64} {:5.1} %",
            match noise {
                Some(why) => format!("inconclusive ({ms:+.2} ms: {why})"),
                None => format!("{ms:+.2} ms"),
            },
            100.0 * share / (single - 1.0)
        );
        let measurable = noise.is_none() && events >= MIN_EVENTS;
        inconclusive += u32::from(!measurable);
        values.insert(metric, if measurable { per(share, events) } else { 0.0 });
    }
    let _ = writeln!(
        text,
        "  rungs sum to {:.3} ms; single-run − nop is {overhead_ms:.3} ms",
        rung_sum * base_ms
    );
    let _ = writeln!(
        text,
        "  single-run   {}",
        fmt_slowdown(rounds.slowdown(Config::SingleRun))
    );
    for (metric, config) in VERSUS_SINGLE {
        let x = slowdown(config);
        let _ = writeln!(
            text,
            "  {:<24} {}; against single-run {}",
            config.name(),
            fmt_slowdown(rounds.slowdown(config)),
            fmt_delta((x - single) * base_ms, x.max(single) * base_ms, floor)
        );
        inconclusive += u32::from(x < 1.0);
        let value = match config {
            Config::Velodrome => per(x.max(1.0) - 1.0, accesses),
            _ => x.max(1.0),
        };
        values.insert(metric, value);
    }
    // The traced execution: sampled attribution against the ladder.
    // A sampled hook is bracketed by two clock reads, which cost more than an
    // access hook does; the same brackets around `NopChecker`'s empty hooks
    // say how much, in place.
    let empty = empty_spans.spans();
    let bracket = |name| percentile(&sampled(&empty, name, 0), 0.5) as u64;
    let access = sampled(&spans, "checker.access", bracket("checker.access"));
    let tx_end = sampled(&spans, "checker.tx_end", bracket("checker.tx_end"));
    let busy_ms = |samples: &[u64], every: u32| {
        samples.iter().sum::<u64>() as f64 * f64::from(every) / parallelism / 1e6
    };
    let run_end_ms = total_ms(&spans, "checker.run_end");
    let attributed_ms = busy_ms(&access, ACCESS_EVERY)
        + busy_ms(&tx_end, TX_END_EVERY)
        + total_ms(&spans, "checker.run_begin")
        + run_end_ms;
    let traced_ms = traced.wall_ns as f64 / 1e6;
    let untraced_ms = single * base_ms;
    let trace_overhead = traced_ms / untraced_ms;
    let _ = writeln!(
        text,
        "traced single-run: {traced_ms:.1} ms ({trace_overhead:.3}x the untraced {untraced_ms:.1} ms); \
         sampled attribution {attributed_ms:.1} ms vs ladder {overhead_ms:.1} ms (gap {:+.1} %)",
        100.0 * (attributed_ms - overhead_ms) / overhead_ms
    );
    let selfs = self_times(&spans);
    for (name, ns) in &selfs {
        let _ = writeln!(text, "  self {name:<20} {:10.3} ms", *ns as f64 / 1e6);
    }

    // The remaining metrics.
    let det = &det_counts.counts;
    let instrumented = count(det, "instrumented");
    for key in [
        "octet.conflicts",
        "octet.upgrades",
        "octet.fences",
        "icd.cross_edges",
        "icd.sccs",
        "icd.sccs_to_pcd",
        "icd.log_entries",
        "icd.collected_txs",
        "icd.graph_locks",
        "pcd.replayed_entries",
        "pcd.precise_cycles",
        "core.unblamed_cycles",
    ] {
        values.insert(key, count(det, key) as f64);
    }
    values.extend([
        ("runtime.base_ns_per_access", per(1.0, accesses)),
        (
            "runtime.det_ns_per_step",
            // The engine alone: a history batch's wall time also parses and
            // lowers.
            ratio(
                match small {
                    Subject::Histories { .. } => det_nop.split.check_ns,
                    Subject::Program { .. } => det_nop.wall_ns,
                },
                count(&det_nop.counts, "accesses"),
            ),
        ),
        (
            "octet.cache_hit_ratio",
            ratio(count(det, "octet.cache_hits"), instrumented),
        ),
        (
            "icd.log_elision_ratio",
            1.0 - ratio(count(det, "icd.log_entries"), instrumented),
        ),
        (
            "pcd.useful_ratio",
            ratio(
                count(det, "pcd.precise_cycles"),
                count(det, "icd.sccs_to_pcd"),
            ),
        ),
        ("core.overhead_ns_per_access", per(single - 1.0, accesses)),
        ("core.false_cycles", report.false_cycles as f64),
        (
            "core.pipelined_run_end_ms",
            total_ms(&pipelined_spans.spans(), "checker.run_end"),
        ),
        ("core.access_p50_ns", percentile(&access, 0.5)),
        ("core.access_p99_ns", percentile(&access, 0.99)),
        ("core.tx_end_p50_ns", percentile(&tx_end, 0.5)),
        ("core.tx_end_p99_ns", percentile(&tx_end, 0.99)),
        ("core.run_end_ms", run_end_ms),
        ("core.single_run_peak_heap_mb", {
            let peaks: Vec<f64> = rounds
                .of(Config::SingleRun)
                .map(|o| o.peak_heap as f64 / (1u64 << 20) as f64)
                .collect();
            median(&peaks)
        }),
        (
            "velodrome.cross_edges",
            count(&det_velodrome.counts, "velodrome.cross_edges") as f64,
        ),
        (
            "aerodrome.clock_joins",
            count(&det_aerodrome.counts, "aerodrome.clock_joins") as f64,
        ),
        (
            "aerodrome.propagated_joins",
            count(&det_aerodrome.counts, "aerodrome.propagated_joins") as f64,
        ),
        (
            "histories.parse_mb_per_s",
            ratio(split.bytes * 1000, split.parse_ns),
        ),
        (
            "histories.lower_us_per_tx",
            ratio(split.lower_ns, split.txs * 1000),
        ),
        (
            "histories.check_us_per_tx",
            ratio(split.check_ns, split.txs * 1000),
        ),
        ("bench.aa_floor", floor),
        ("bench.inconclusive_metrics", f64::from(inconclusive)),
        ("bench.trace_overhead_ratio", trace_overhead),
    ]);
    for (name, unit, _) in PER_LAYER_METRICS {
        let value = *values
            .get(name)
            .unwrap_or_else(|| panic!("per-layer metric {name} was not measured"));
        let _ = writeln!(text, "{name} = {value} {unit}");
        report.metrics.push((name, value, unit));
    }

    let span_summary: BTreeMap<String, Value> = selfs
        .iter()
        .map(|(name, self_ns)| {
            let n = spans.iter().filter(|s| s.name == *name).count() as u64;
            (
                name.to_string(),
                json!({"count": n, "total_ms": total_ms(&spans, name), "self_ms": *self_ns as f64 / 1e6}),
            )
        })
        .collect();
    report.detail = json!({
        "rounds": samples_json(&rounds),
        "noise_floor": floor,
        "false_cycles": report.false_cycles,
        "traced_wall_ns": traced.wall_ns,
        "spans": Value::Object(span_summary),
    });
    report.spans = spans
        .iter()
        .map(|s| {
            json!({
                "id": s.id, "parent": s.parent, "name": s.name,
                "workload": options.workload.clone(),
                "start_ns": s.start_ns, "end_ns": s.end_ns,
            })
            .to_string()
        })
        .collect();
    Ok(())
}
