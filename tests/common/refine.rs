//! Iterative refinement (paper Figure 6, §5.1) under each checker, on the
//! deterministic engine with fixed seeds: the same workload, driver and
//! window always produce the same [`RefinementResult`].

use dc_core::{
    initial_spec, iterative_refinement, run_doublechecker, DcConfig, ExecPlan, RefinementResult,
    ReportedViolation, StaticTxInfo,
};
use dc_octet::CoordinationMode;
use dc_runtime::engine::det::{run_det, Schedule};
use dc_runtime::program::Program;
use dc_runtime::spec::AtomicitySpec;
use dc_velodrome::{Velodrome, VelodromeConfig};
use dc_workloads::Workload;

/// One DoubleChecker trial, reported in the refinement loop's shape.
fn dc_trial(
    program: &Program,
    spec: &AtomicitySpec,
    config: DcConfig,
    seed: u64,
) -> Vec<ReportedViolation> {
    let plan = ExecPlan::Det(Schedule::random(seed));
    let report = run_doublechecker(program, spec, config, &plan).expect("trial run");
    report
        .violations
        .iter()
        .map(|v| ReportedViolation {
            blamed: v.blamed_methods(),
            key: v.static_key(),
        })
        .collect()
}

/// One Velodrome trial.
fn velodrome_trial(program: &Program, spec: &AtomicitySpec, seed: u64) -> Vec<ReportedViolation> {
    let v = Velodrome::new(
        program.threads.len(),
        spec.clone(),
        VelodromeConfig::default(),
    );
    run_det(program, &v, &Schedule::random(seed)).expect("trial run");
    v.violations()
        .into_iter()
        .map(|violation| ReportedViolation {
            key: violation.static_key(),
            blamed: violation.blamed_methods,
        })
        .collect()
}

/// Which checker drives a refinement (the columns of Table 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RefineDriver {
    /// Velodrome baseline.
    Velodrome,
    /// DoubleChecker single-run mode.
    SingleRun,
    /// DoubleChecker multi-run mode: the static information of
    /// `first_runs` first-run trials is unioned for each second run
    /// (paper: 10).
    MultiRun { first_runs: u32 },
}

/// Refines `wl`'s initial specification to quiescence: a window of
/// `quiescent_trials` trials with no new distinct violation ends it.
pub fn refine(wl: &Workload, driver: RefineDriver, quiescent_trials: u32) -> RefinementResult {
    let start = initial_spec(&wl.program, &wl.extra_exclusions);
    // Disjoint seed ranges per driver, so no column reuses another's
    // schedules.
    let mut salt = match driver {
        RefineDriver::Velodrome => 0x10_000u64,
        RefineDriver::SingleRun => 0x20_000,
        RefineDriver::MultiRun { .. } => 0x30_000,
    };
    iterative_refinement(start, quiescent_trials, 32, move |spec, trial| {
        salt += 1;
        let seed = salt * 1000 + u64::from(trial);
        match driver {
            RefineDriver::Velodrome => velodrome_trial(&wl.program, spec, seed),
            RefineDriver::SingleRun => dc_trial(
                &wl.program,
                spec,
                DcConfig::single_run(CoordinationMode::Immediate),
                seed,
            ),
            RefineDriver::MultiRun { first_runs } => {
                let mut info = StaticTxInfo::default();
                for k in 0..first_runs {
                    let plan = ExecPlan::Det(Schedule::random(seed + 7 * u64::from(k)));
                    let report = run_doublechecker(
                        &wl.program,
                        spec,
                        DcConfig::first_run(CoordinationMode::Immediate),
                        &plan,
                    )
                    .expect("first run");
                    info.union(&report.static_info);
                }
                dc_trial(
                    &wl.program,
                    spec,
                    DcConfig::second_run(&info, CoordinationMode::Immediate),
                    seed,
                )
            }
        }
    })
}

/// The *final specification* the paper measures under: the intersection of
/// the atomic sets refined by Velodrome and by single-run mode (§5.1, "to
/// avoid any bias toward one approach").
pub fn final_spec(wl: &Workload, quiescent_trials: u32) -> AtomicitySpec {
    let v = refine(wl, RefineDriver::Velodrome, quiescent_trials);
    let d = refine(wl, RefineDriver::SingleRun, quiescent_trials);
    v.final_spec.intersect_atomic(&d.final_spec)
}
