//! Differential property tests on two frontiers: randomly generated
//! lock-disciplined programs executed under random deterministic schedules
//! (`ProgramStrategy`), and randomly generated database histories with
//! known-by-construction verdicts replayed through the history-import
//! lowering (`HistoryStrategy`, see `crates/histories`). On both, the
//! three checkers — Velodrome, AeroDrome, and DoubleChecker single-run —
//! plus the offline trace oracle must agree (see `tests/common`). Any
//! failing case is shrunk to a minimal witness and persisted under
//! `tests/regressions/` so `tests/regression_corpus.rs` replays it on
//! every run thereafter.

mod common;

use common::gen::{GenCase, GenProgram, HistoryCase, HistoryStrategy, ProgramStrategy};
use dc_core::{run_single, ExecPlan};
use dc_histories::{generate, lower, AnomalyMode};
use dc_runtime::engine::det::Schedule;
use doublechecker_repro as _;
use proptest::prelude::*;

/// Directory where failing generated cases are persisted.
fn regressions_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("regressions")
}

/// Runs `check`; if it panics, writes the already-encoded case to
/// `tests/regressions/<name>.case` before propagating. The shrink loop
/// re-enters this for every failing candidate, so the last write — the
/// file that survives — is the minimal witness. Both case codecs
/// (`GenCase`, `HistoryCase`) funnel through here.
fn persisting(name: &str, encoded: &str, check: impl FnOnce()) {
    if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(check)) {
        let dir = regressions_dir();
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join(format!("{name}.case"));
        if std::fs::write(&path, encoded).is_ok() {
            eprintln!("persisted failing case to {}", path.display());
        }
        std::panic::resume_unwind(payload);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline three-way property: violation keys and blame agree
    /// between the online checkers, existence agrees across all three
    /// plus the offline oracle, on any generated program and schedule.
    #[test]
    fn three_way_agreement(p in ProgramStrategy, seed in 0u64..1000) {
        let case = GenCase { program: p.clone(), seed };
        persisting("three_way_agreement", &case.encode(), || {
            let (program, spec) = p.build();
            let schedule = Schedule::random(seed);
            common::assert_three_way(
                &format!("generated program (seed {seed})"),
                &program,
                &spec,
                &schedule,
            );
        });
    }

    /// The Octet ownership inline cache is a pure performance change: on
    /// any generated program and schedule, disabling the cache reproduces
    /// the cache-on run's deduplicated violations, static transaction
    /// info, and statistics bit for bit — a hit may only ever stand in for
    /// a same-state classification the metadata word would have made.
    /// Cache-off is the null-cache-handle leg of the same access kernel,
    /// not a second kernel.
    #[test]
    fn barrier_cache_off_matches_cache_on(p in ProgramStrategy, seed in 0u64..1000) {
        use dc_core::{run_doublechecker, DcConfig};
        let (program, spec) = p.build();
        let plan = ExecPlan::Det(Schedule::random(seed));
        let base = DcConfig::single_run(plan.coordination());
        let on = run_doublechecker(
            &program,
            &spec,
            base.clone().with_barrier_cache(true),
            &plan,
        )
        .expect("cache-on run");
        let off = run_doublechecker(
            &program,
            &spec,
            base.with_barrier_cache(false),
            &plan,
        )
        .expect("cache-off run");
        prop_assert_eq!(&on.violations, &off.violations, "violations diverge");
        prop_assert_eq!(&on.static_info, &off.static_info, "static info diverges");
        prop_assert_eq!(on.stats, off.stats, "stats diverge");
    }

    /// Full observability is invisible to the analysis: on any generated
    /// program and schedule, the run with every clock and trace site live
    /// is bit-identical — violations, static transaction info, and
    /// statistics — to the uninstrumented run, while its histograms
    /// balance (one timed replay per SCC handed to PCD).
    #[test]
    fn observability_is_a_pure_observer(p in ProgramStrategy, seed in 0u64..1000) {
        use dc_core::{run_doublechecker, DcConfig, ObsLevel};
        let (program, spec) = p.build();
        let plan = ExecPlan::Det(Schedule::random(seed));
        let base = DcConfig::single_run(plan.coordination());
        let off = run_doublechecker(
            &program,
            &spec,
            base.clone().with_observability(ObsLevel::Off),
            &plan,
        )
        .expect("off run");
        let full = run_doublechecker(
            &program,
            &spec,
            base.with_observability(ObsLevel::Full),
            &plan,
        )
        .expect("full run");
        prop_assert_eq!(&off.violations, &full.violations, "violations diverge");
        prop_assert_eq!(&off.static_info, &full.static_info, "static info diverges");
        prop_assert_eq!(off.stats, full.stats, "stats diverge");
        prop_assert_eq!(off.pipeline.octet, full.pipeline.octet, "counts diverge");
        prop_assert_eq!(full.pipeline.replay.latency.count, full.stats.sccs_to_pcd);
    }

    /// Serial execution (one giant quantum) is always violation-free:
    /// precision under the most favourable schedule.
    #[test]
    fn serial_schedules_are_clean(p in ProgramStrategy) {
        let (program, spec) = p.build();
        let schedule = Schedule::RoundRobin { quantum: u32::MAX };
        let report = run_single(&program, &spec, &ExecPlan::Det(schedule)).expect("dc run");
        prop_assert!(report.violations.is_empty(), "serial execution is serializable");
    }

    /// History frontier, serializable control: a generated history with no
    /// injected anomaly lowers, replays, satisfies the full three-way
    /// agreement, and every checker reports zero violations — the
    /// timestamp-chained base is serializable by construction, so any
    /// report is a false positive in the lowering or a checker.
    #[test]
    fn history_serializable_mode_is_clean(hc in HistoryStrategy) {
        persisting("history_serializable_mode_is_clean", &hc.encode(), || {
            let generated = generate(&hc.params());
            let lowered = lower(&generated.history)
                .unwrap_or_else(|e| panic!("{hc:?} must lower: {e}"));
            let ctx = format!("generated history {hc:?}");
            common::assert_three_way(&ctx, &lowered.program, &lowered.spec, &lowered.schedule);
            let (velo, _) = common::velodrome_verdict_with_trace(
                &lowered.program,
                &lowered.spec,
                &lowered.schedule,
            );
            assert!(
                !velo.found(),
                "{ctx}: serializable control reported {:?}",
                velo.keys
            );
        });
    }

    /// History frontier, anomaly injection: a generated history with an
    /// injected lost update, write skew, or fractured read lowers, replays,
    /// satisfies the full three-way agreement, and DoubleChecker reports a
    /// violation whose cycle covers both injected transactions.
    #[test]
    fn history_injected_anomaly_is_caught(hc in HistoryStrategy, mode_ix in 0usize..3) {
        let modes = [
            AnomalyMode::LostUpdate,
            AnomalyMode::WriteSkew,
            AnomalyMode::FracturedRead,
        ];
        let case = HistoryCase { mode: modes[mode_ix], ..hc };
        persisting("history_injected_anomaly_is_caught", &case.encode(), || {
            let generated = generate(&case.params());
            let lowered = lower(&generated.history)
                .unwrap_or_else(|e| panic!("{case:?} must lower: {e}"));
            let ctx = format!("generated history {case:?}");
            common::assert_three_way(&ctx, &lowered.program, &lowered.spec, &lowered.schedule);
            let report = run_single(
                &lowered.program,
                &lowered.spec,
                &ExecPlan::Det(lowered.schedule.clone()),
            )
            .expect("dc run");
            let cycle_methods: std::collections::BTreeSet<_> = report
                .violations
                .iter()
                .flat_map(|v| v.cycle.iter().filter_map(|m| m.kind.method()))
                .collect();
            for &(s, t) in &generated.injected {
                let m = lowered.tx_methods[s][t];
                assert!(
                    cycle_methods.contains(&m),
                    "{ctx}: cycle methods {cycle_methods:?} miss injected {m:?}"
                );
            }
        });
    }
}

/// The generator's shrink preserves transaction boundaries: no candidate
/// ever splits a LockedRmw, empties a method, or drops below two threads.
#[test]
fn shrink_preserves_program_invariants() {
    use common::gen::GenOp;
    use proptest::{Strategy, TestRng};
    let strat = ProgramStrategy;
    let mut rng = TestRng::for_case("shrink_invariants", 0);
    for _ in 0..50 {
        let p: GenProgram = strat.generate(&mut rng);
        for q in strat.shrink(&p) {
            assert!(!q.methods.is_empty(), "shrink emptied the method list");
            assert!(q.threads >= 2, "shrink dropped below two threads");
            assert!(q.iters >= 1, "shrink zeroed the loop count");
            for m in &q.methods {
                assert!(!m.is_empty(), "shrink emptied a method");
            }
            // Every candidate still builds (LockedRmw stayed whole, so
            // lock operations stay balanced by construction).
            let locked_rmws = |prog: &GenProgram| {
                prog.methods
                    .iter()
                    .flatten()
                    .filter(|op| matches!(op, GenOp::LockedRmw(_)))
                    .count()
            };
            assert!(locked_rmws(&q) <= locked_rmws(&p));
            q.build();
        }
    }
}
