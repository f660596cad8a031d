//! A recycled IDG is the graph a fresh one would be: an `Icd` takes the
//! storage the last one dropped on its thread, so every run after the first
//! on a thread starts from another run's buffers. DoubleChecker single-run
//! and first-run over the six corpus histories and 200 generated ones, run
//! back to back on one thread, must report what the same runs report each
//! on a thread of its own: the same statistics, violations (members and
//! blame) and static transaction information.

use dc_core::{run_doublechecker, DcConfig, DcReport, ExecPlan};
use dc_histories::{generate, lower, AnomalyMode, GenHistoryParams, History, Lowered};
use dc_octet::CoordinationMode;
use doublechecker_repro as _;

/// The corpus under `tests/histories/`, then 200 generated histories of
/// the benchmark's shape, every anomaly mode in turn.
fn histories() -> Vec<Lowered> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/histories");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("tests/histories exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    paths.sort();
    let corpus = paths.iter().map(|path| {
        let text = std::fs::read_to_string(path).expect("readable history");
        History::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    });
    let generated = (0..200u64).map(|seed| {
        let params = GenHistoryParams {
            seed,
            sessions: 4,
            base_txs: 64,
            ops_per_tx: 4,
            keys: 16,
            mode: AnomalyMode::ALL[seed as usize % AnomalyMode::ALL.len()],
        };
        generate(&params).history
    });
    let lowered: Vec<_> = corpus
        .chain(generated)
        .map(|h| lower(&h).expect("history lowers"))
        .collect();
    assert_eq!(lowered.len(), 206);
    lowered
}

/// What a run reports, less its clocks.
type Outcome = (
    dc_core::DcStats,
    Vec<dc_pcd::Violation>,
    dc_core::StaticTxInfo,
);

/// A DoubleChecker configuration, given the plan's coordination mode.
type Config = fn(CoordinationMode) -> DcConfig;

fn run(lowered: &Lowered, config: Config) -> Outcome {
    let plan = ExecPlan::Det(lowered.schedule.clone());
    let DcReport {
        violations,
        static_info,
        stats,
        ..
    } = run_doublechecker(
        &lowered.program,
        &lowered.spec,
        config(plan.coordination()),
        &plan,
    )
    .expect("history run");
    (stats, violations, static_info)
}

const CONFIGS: [(&str, Config); 2] = [
    ("single-run", DcConfig::single_run),
    ("first-run", DcConfig::first_run),
];

#[test]
fn back_to_back_runs_on_one_thread_match_runs_on_fresh_threads() {
    let histories = histories();
    let recycled: Vec<Outcome> = std::thread::scope(|s| {
        let runs = || {
            let runs = histories
                .iter()
                .flat_map(|h| CONFIGS.map(|(_, c)| run(h, c)));
            runs.collect()
        };
        s.spawn(runs).join().expect("back-to-back runs")
    });
    let mut violations = 0;
    for (i, lowered) in histories.iter().enumerate() {
        for (j, (name, config)) in CONFIGS.into_iter().enumerate() {
            let fresh =
                std::thread::scope(|s| s.spawn(|| run(lowered, config)).join().expect("fresh run"));
            let back_to_back = &recycled[2 * i + j];
            assert_eq!(back_to_back, &fresh, "history {i}, {name}");
            violations += fresh.1.len();
        }
    }
    assert!(violations > 0, "the inputs include violating histories");
}
