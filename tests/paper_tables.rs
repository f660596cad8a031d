//! Tables 2 and 3 of the paper (§5.2, §5.3) as assertions on the 19
//! workload analogs: deterministic engine, `Scale::Tiny`, fixed seeds, so
//! every number is exact and is a *count* — nothing here reads a clock.
//!
//! The absolute counts belong to the synthetic analogs, not to the paper's
//! Java programs; what is asserted is the paper's shape (which rows are
//! clean, multi-run finding most of what single-run finds, the second run
//! instrumenting a subset or nothing, edges ≪ accesses) plus pinned totals
//! so a drift is noticed.
//!
//! `cargo test` runs the [`TIER1`] rows; the 19-row sweeps are `#[ignore]`d
//! (a minute and a half in a debug build) and CI runs them in release.
//! `cargo test --release --test paper_tables -- --include-ignored --nocapture`
//! makes the sweeps print the markdown tables EXPERIMENTS.md quotes.

mod common;

use common::refine::{final_spec, refine, RefineDriver};
use dc_core::{run_doublechecker, DcConfig, DcStats, ExecPlan, StaticTxInfo};
use dc_octet::CoordinationMode;
use dc_runtime::engine::det::Schedule;
use dc_workloads::{Scale, Workload};
use doublechecker_repro as _;
use std::collections::HashSet;

/// The rows `cargo test` runs, chosen among the cheap analogs: clean and
/// violating rows, two single-worker analogs (luindex9, pmd9), rows whose
/// first runs see no SCC (luindex9, pmd9, sor), luindex9 for the
/// edges-against-accesses bound and raytracer for its second-run column.
const TIER1: &[&str] = &[
    "avrora9",
    "luindex9",
    "pmd9",
    "hedc",
    "philo",
    "sor",
    "tsp",
    "moldyn",
    "montecarlo",
    "raytracer",
];

/// Rows the paper's Table 2 reports as all-zero (its three single-worker
/// DaCapo programs are among them).
const PAPER_ZERO_ROWS: &[&str] = &[
    "jython9",
    "luindex9",
    "pmd9",
    "philo",
    "sor",
    "moldyn",
    "raytracer",
];

/// Rows whose first runs report no SCC, so the second run has nothing to
/// instrument.
const NO_SCC_ROWS: &[&str] = &["lusearch6", "jython9", "luindex9", "pmd9", "sor"];

fn workloads(names: Option<&[&str]>) -> Vec<Workload> {
    let mut all = dc_workloads::all(Scale::Tiny);
    if let Some(names) = names {
        all.retain(|w| names.contains(&w.name));
        assert_eq!(all.len(), names.len(), "unknown workload in {names:?}");
    }
    all
}

fn markdown_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = format!("\n### {title}\n\n| {} |\n", headers.join(" | "));
    out += &format!("|{}|\n", vec!["---"; headers.len()].join("|"));
    for row in rows {
        out += &format!("| {} |\n", row.join(" | "));
    }
    out
}

/// Table 2 totals: distinct static violations per driver, multi-run's
/// violations single-run did not report, and how many of single-run's
/// violations multi-run found.
#[derive(Debug, Default, PartialEq, Eq)]
struct Table2Totals {
    velodrome: usize,
    single: usize,
    multi: usize,
    multi_unique: usize,
    single_found_by_multi: usize,
}

/// Refines each workload to quiescence under the three drivers and asserts
/// the per-row shape; returns the markdown table and the totals.
fn table2(names: Option<&[&str]>) -> (String, Table2Totals) {
    const QUIESCENT_TRIALS: u32 = 5;
    const FIRST_RUNS: u32 = 4;
    let mut totals = Table2Totals::default();
    let mut rows = Vec::new();
    for wl in &workloads(names) {
        let velo = refine(wl, RefineDriver::Velodrome, QUIESCENT_TRIALS);
        let single = refine(wl, RefineDriver::SingleRun, QUIESCENT_TRIALS);
        let multi = refine(
            wl,
            RefineDriver::MultiRun {
                first_runs: FIRST_RUNS,
            },
            QUIESCENT_TRIALS,
        );
        let single_keys: HashSet<_> = single.violations.iter().map(|v| &v.key).collect();
        let unique_to = |r: &dc_core::RefinementResult| {
            r.violations
                .iter()
                .filter(|v| !single_keys.contains(&v.key))
                .count()
        };
        let (velo_unique, multi_unique) = (unique_to(&velo), unique_to(&multi));
        let counts = [
            velo.distinct_violations(),
            single.distinct_violations(),
            multi.distinct_violations(),
        ];
        if PAPER_ZERO_ROWS.contains(&wl.name) {
            assert_eq!(counts, [0; 3], "{}: a clean row of the paper", wl.name);
        }
        totals.velodrome += counts[0];
        totals.single += counts[1];
        totals.multi += counts[2];
        totals.multi_unique += multi_unique;
        // Keys are distinct per driver: what multi-run reported and
        // single-run also reported is what multi-run found of single-run's.
        totals.single_found_by_multi += counts[2] - multi_unique;
        rows.push(vec![
            wl.name.to_string(),
            format!("{} ({velo_unique})", counts[0]),
            counts[1].to_string(),
            format!("{} ({multi_unique})", counts[2]),
        ]);
    }
    rows.push(vec![
        "Total".into(),
        totals.velodrome.to_string(),
        totals.single.to_string(),
        format!("{} ({})", totals.multi, totals.multi_unique),
    ]);
    let mut table = markdown_table(
        "Table 2 — static atomicity violations during iterative refinement",
        &[
            "Benchmark",
            "Velodrome total (unique)",
            "DoubleChecker single-run",
            "DoubleChecker multi-run (unique)",
        ],
        &rows,
    );
    table += &format!(
        "\nMulti-run detected {}/{} of single-run's violations (paper: 83%).\n",
        totals.single_found_by_multi, totals.single
    );
    assert!(
        2 * totals.single_found_by_multi >= totals.single,
        "multi-run must find at least half of single-run's violations: {totals:?}"
    );
    (table, totals)
}

#[test]
fn table2_tier1_rows() {
    assert_eq!(
        table2(Some(TIER1)).1,
        Table2Totals {
            velodrome: 12,
            single: 16,
            multi: 15,
            multi_unique: 3,
            single_found_by_multi: 12,
        }
    );
}

#[test]
#[ignore = "19-row sweep, ~70 s in a debug build; CI runs it in release"]
fn table2_all_rows() {
    let (table, totals) = table2(None);
    print!("{table}");
    assert_eq!(
        totals,
        Table2Totals {
            velodrome: 27,
            single: 36,
            multi: 34,
            multi_unique: 12,
            single_found_by_multi: 22,
        }
    );
}

/// The five columns of Table 3 for one run.
fn table3_columns(s: &DcStats) -> [u64; 5] {
    [
        s.regular_txs,
        s.regular_accesses,
        s.unary_accesses,
        s.idg_cross_edges,
        s.icd_sccs,
    ]
}

/// Under each workload's final specification: single-run mode against the
/// second run of multi-run mode (four first runs), on one schedule.
/// Asserts the per-row shape and returns the markdown table.
fn table3(names: Option<&[&str]>) -> String {
    const QUIESCENT_TRIALS: u32 = 4;
    let mut rows = Vec::new();
    for wl in &workloads(names) {
        let spec = final_spec(wl, QUIESCENT_TRIALS);
        let run = |config, seed| {
            let plan = ExecPlan::Det(Schedule::random(seed));
            run_doublechecker(&wl.program, &spec, config, &plan).expect("det run")
        };
        let single = run(DcConfig::single_run(CoordinationMode::Immediate), 42);
        let mut info = StaticTxInfo::default();
        let mut first_run_sccs = 0;
        for seed in 500..504 {
            let first = run(DcConfig::first_run(CoordinationMode::Immediate), seed);
            first_run_sccs += first.stats.icd_sccs;
            info.union(&first.static_info);
        }
        let second = run(DcConfig::second_run(&info, CoordinationMode::Immediate), 42);

        let name = wl.name;
        assert!(
            single.violations.is_empty() && second.violations.is_empty(),
            "{name}: the final specification is violation-free on the measured schedule"
        );
        let (one, two) = (table3_columns(&single.stats), table3_columns(&second.stats));
        assert!(
            two.iter().zip(&one).all(|(t, o)| t <= o),
            "{name}: the second run instruments a subset: {two:?} vs {one:?}"
        );
        assert_eq!(
            first_run_sccs == 0,
            NO_SCC_ROWS.contains(&name),
            "{name}: first runs reported {first_run_sccs} SCC(s)"
        );
        if first_run_sccs == 0 {
            assert_eq!(two, [0; 5], "{name}: nothing to instrument");
        }
        if name == "raytracer" {
            assert_eq!(two[2], 0, "raytracer: no unary transaction is in an SCC");
        }
        // ICD's optimistic bet (§3.2): cross-thread edges are rare against
        // accesses where sharing is rare.
        if ["lusearch", "jython", "luindex"]
            .iter()
            .any(|p| name.starts_with(p))
        {
            for cols in [one, two] {
                assert!(
                    100 * cols[3] <= cols[1] + cols[2],
                    "{name}: IDG edges above 1 % of instrumented accesses: {cols:?}"
                );
            }
        }
        rows.push(
            std::iter::once(name.to_string())
                .chain(one.iter().chain(&two).map(u64::to_string))
                .collect(),
        );
    }
    markdown_table(
        "Table 3 — run-time characteristics (single-run vs second run of multi-run)",
        &[
            "Benchmark",
            "1run reg tx",
            "1run reg acc",
            "1run non-tx acc",
            "1run IDG edges",
            "1run SCCs",
            "2nd reg tx",
            "2nd reg acc",
            "2nd non-tx acc",
            "2nd IDG edges",
            "2nd SCCs",
        ],
        &rows,
    )
}

#[test]
fn table3_tier1_rows() {
    table3(Some(TIER1));
}

#[test]
#[ignore = "19-row sweep, ~20 s in a debug build; CI runs it in release"]
fn table3_all_rows() {
    print!("{}", table3(None));
}
