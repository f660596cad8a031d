//! End-to-end drivers for the paper's execution modes.
//!
//! These wrap checker construction, engine selection, and result collection
//! so examples, tests, and the benchmark harness all run modes the same way.

use crate::checker::{DcConfig, DoubleChecker};
use crate::report::{DcStats, StaticTxInfo};
use dc_obs::{PipelineReport, TraceEvent};
use dc_octet::CoordinationMode;
use dc_pcd::Violation;
use dc_runtime::engine::det::{run_det, DetError, Schedule};
use dc_runtime::engine::real::run_real;
use dc_runtime::engine::RunStats;
use dc_runtime::program::Program;
use dc_runtime::spec::AtomicitySpec;

/// How to execute a program.
#[derive(Clone, Debug)]
pub enum ExecPlan {
    /// Real OS threads (performance experiments).
    Real,
    /// Deterministic scheduler with the given interleaving policy.
    Det(Schedule),
}

impl ExecPlan {
    /// The Octet coordination mode matching this plan.
    pub fn coordination(&self) -> CoordinationMode {
        match self {
            ExecPlan::Real => CoordinationMode::Threaded,
            ExecPlan::Det(_) => CoordinationMode::Immediate,
        }
    }

    /// Runs `checker` over `program` under this plan.
    ///
    /// # Errors
    ///
    /// Propagates [`DetError`] from the deterministic engine (deadlock, bad
    /// script, invalid program).
    pub fn run<C: dc_runtime::checker::Checker>(
        &self,
        program: &Program,
        checker: &C,
    ) -> Result<RunStats, DetError> {
        match self {
            ExecPlan::Real => Ok(run_real(program, checker)),
            ExecPlan::Det(schedule) => run_det(program, checker, schedule),
        }
    }
}

/// Everything one DoubleChecker run produced.
#[derive(Clone, Debug)]
pub struct DcReport {
    /// Precise violations (empty for the first run of multi-run mode).
    pub violations: Vec<Violation>,
    /// Static transaction information (meaningful for the first run).
    pub static_info: StaticTxInfo,
    /// Analysis statistics (Table 3 columns).
    pub stats: DcStats,
    /// Engine statistics (access counts, wall-clock time).
    pub run: RunStats,
    /// Observability report: counts at every level, latencies and the
    /// trace count at `Full`.
    pub pipeline: PipelineReport,
    /// Trace events (empty below the `Full` observability level).
    pub trace: Vec<TraceEvent>,
}

/// Runs one DoubleChecker configuration over `program`.
///
/// # Errors
///
/// Propagates [`DetError`] from the deterministic engine (deadlock, bad
/// script, invalid program).
///
/// # Panics
///
/// Panics if `config.coordination` is not `plan.coordination()`: under the
/// deterministic engine a `Threaded` requester would wait forever for a
/// responder that never runs, and under real threads an `Immediate` one
/// would run a responder's hook while that responder runs.
pub fn run_doublechecker(
    program: &Program,
    spec: &AtomicitySpec,
    config: DcConfig,
    plan: &ExecPlan,
) -> Result<DcReport, DetError> {
    assert_eq!(
        config.coordination,
        plan.coordination(),
        "the configured coordination mode (left) does not match the plan's (right)"
    );
    let checker = DoubleChecker::new(program.threads.len(), spec.clone(), config);
    let run = plan.run(program, &checker)?;
    Ok(DcReport {
        violations: checker.violations(),
        static_info: checker.static_info(),
        stats: checker.stats(),
        run,
        pipeline: checker
            .pipeline_report()
            .expect("the report is built at every level"),
        trace: checker.trace_events(),
    })
}

/// Runs single-run mode (ICD + logging + PCD in one execution).
///
/// # Errors
///
/// See [`run_doublechecker`].
pub fn run_single(
    program: &Program,
    spec: &AtomicitySpec,
    plan: &ExecPlan,
) -> Result<DcReport, DetError> {
    run_doublechecker(
        program,
        spec,
        DcConfig::single_run(plan.coordination()),
        plan,
    )
}

/// Result of a full multi-run cycle.
#[derive(Clone, Debug)]
pub struct MultiRunReport {
    /// Per-trial reports of the first run.
    pub first_runs: Vec<DcReport>,
    /// The unioned static transaction information fed to the second run.
    pub static_info: StaticTxInfo,
    /// The second run's report (this is where violations appear).
    pub second_run: DcReport,
}

/// Runs the first run of multi-run mode once per plan and unions the runs'
/// static information (§5.1's methodology of several first-run trials).
///
/// # Errors
///
/// See [`run_doublechecker`].
pub fn run_first_runs(
    program: &Program,
    spec: &AtomicitySpec,
    plans: &[ExecPlan],
) -> Result<(Vec<DcReport>, StaticTxInfo), DetError> {
    let mut reports = Vec::with_capacity(plans.len());
    let mut info = StaticTxInfo::default();
    for plan in plans {
        let report = run_doublechecker(
            program,
            spec,
            DcConfig::first_run(plan.coordination()),
            plan,
        )?;
        info.union(&report.static_info);
        reports.push(report);
    }
    Ok((reports, info))
}

/// Runs multi-run mode: [`run_first_runs`] under `first_plans`, then one
/// second run under `second_plan` restricted to their unioned static
/// information.
///
/// # Errors
///
/// See [`run_doublechecker`].
pub fn run_multi(
    program: &Program,
    spec: &AtomicitySpec,
    first_plans: &[ExecPlan],
    second_plan: &ExecPlan,
) -> Result<MultiRunReport, DetError> {
    let (first_runs, info) = run_first_runs(program, spec, first_plans)?;
    let second_run = run_doublechecker(
        program,
        spec,
        DcConfig::second_run(&info, second_plan.coordination()),
        second_plan,
    )?;
    Ok(MultiRunReport {
        first_runs,
        static_info: info,
        second_run,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_runtime::heap::ObjKind;
    use dc_runtime::program::{Op, ProgramBuilder};

    /// Two atomic methods whose accesses interleave under most random
    /// schedules, producing a real atomicity violation.
    fn racy_program(iters: u32) -> (Program, AtomicitySpec) {
        let mut b = ProgramBuilder::new();
        let o = b.object(ObjKind::Plain { fields: 2 });
        let alpha = b.method(
            "alpha",
            vec![Op::Write(o, 0), Op::Compute(5), Op::Read(o, 1)],
        );
        let beta = b.method(
            "beta",
            vec![Op::Write(o, 1), Op::Compute(5), Op::Read(o, 0)],
        );
        let t0 = b.method(
            "t0",
            vec![Op::Loop {
                count: iters,
                body: vec![Op::Call(alpha)],
            }],
        );
        let t1 = b.method(
            "t1",
            vec![Op::Loop {
                count: iters,
                body: vec![Op::Call(beta)],
            }],
        );
        b.thread(t0);
        b.thread(t1);
        let p = b.build().unwrap();
        let spec = AtomicitySpec::excluding([
            p.method_by_name("t0").unwrap(),
            p.method_by_name("t1").unwrap(),
        ]);
        (p, spec)
    }

    #[test]
    fn single_run_detects_violation_deterministically() {
        let (p, spec) = racy_program(10);
        let report = run_single(&p, &spec, &ExecPlan::Det(Schedule::random(3))).unwrap();
        assert!(
            !report.violations.is_empty(),
            "interleaved atomic regions must produce a violation"
        );
        assert!(report.stats.icd_sccs > 0);
        assert!(report.stats.sccs_to_pcd > 0);
        assert!(
            report.stats.log_entries > 0,
            "single-run mode logs accesses"
        );
    }

    #[test]
    fn single_run_on_serial_schedule_is_clean() {
        let (p, spec) = racy_program(10);
        let report = run_single(
            &p,
            &spec,
            &ExecPlan::Det(Schedule::RoundRobin { quantum: 100_000 }),
        )
        .unwrap();
        assert!(report.violations.is_empty());
    }

    #[test]
    fn first_run_logs_nothing_but_identifies_methods() {
        let (p, spec) = racy_program(10);
        let report = run_doublechecker(
            &p,
            &spec,
            DcConfig::first_run(CoordinationMode::Immediate),
            &ExecPlan::Det(Schedule::random(3)),
        )
        .unwrap();
        assert!(report.violations.is_empty(), "first run has no PCD");
        assert_eq!(report.stats.log_entries, 0);
        assert!(
            !report.static_info.methods.is_empty(),
            "methods in imprecise cycles are identified statically"
        );
    }

    #[test]
    fn multi_run_finds_the_violation_in_the_second_run() {
        let (p, spec) = racy_program(10);
        let firsts: Vec<ExecPlan> = (0..5).map(|s| ExecPlan::Det(Schedule::random(s))).collect();
        let report = run_multi(&p, &spec, &firsts, &ExecPlan::Det(Schedule::random(3))).unwrap();
        assert!(
            !report.second_run.violations.is_empty(),
            "second run should reproduce the violation"
        );
        // The second run instrumented a subset (or all) of transactions.
        assert!(report.static_info.methods.len() <= 2);
    }

    #[test]
    fn second_run_with_empty_info_instruments_nothing() {
        let (p, spec) = racy_program(5);
        let info = StaticTxInfo::default();
        let report = run_doublechecker(
            &p,
            &spec,
            DcConfig::second_run(&info, CoordinationMode::Immediate),
            &ExecPlan::Det(Schedule::random(3)),
        )
        .unwrap();
        assert_eq!(report.stats.regular_accesses, 0);
        assert_eq!(report.stats.unary_accesses, 0);
        assert!(report.violations.is_empty());
    }

    /// §5.4, "ICD is an essential first-pass filter", by counts on one
    /// schedule instead of the paper's 16.6x-vs-3.1x wall clock: without
    /// ICD, PCD replays the whole log; with it, only the SCCs' share.
    #[test]
    fn pcd_only_variant_finds_the_same_violation() {
        let (p, spec) = racy_program(10);
        let plan = ExecPlan::Det(Schedule::random(3));
        let report = run_doublechecker(
            &p,
            &spec,
            DcConfig::pcd_only(CoordinationMode::Immediate),
            &plan,
        )
        .unwrap();
        assert!(!report.violations.is_empty());
        assert_eq!(report.stats.icd_sccs, 0, "ICD filtering disabled");
        assert!(
            report.stats.pcd.txs >= report.stats.regular_txs,
            "PCD processed every transaction"
        );
        assert_eq!(
            report.stats.pcd.entries, report.stats.log_entries,
            "PCD replayed every logged entry"
        );
        let single = run_single(&p, &spec, &plan).unwrap();
        assert!(!single.violations.is_empty());
        assert_eq!(single.stats.log_entries, report.stats.log_entries);
        assert!(
            single.stats.pcd.entries < report.stats.pcd.entries,
            "ICD filters: single-run replayed {} of {} entries",
            single.stats.pcd.entries,
            report.stats.pcd.entries
        );
    }

    /// The builder stubs kept for the frozen benchmark are inert:
    /// `with_pipelined` (`dc-benchmark/src/subject.rs:129`),
    /// `with_op_transport` (`:131`) and `with_shards` (`:132`) leave the
    /// analysis bit-identical, and `pipeline_error` (`:331`) is `None`.
    /// Goes with them in ROADMAP 1(a).
    #[test]
    fn frozen_benchmark_stubs_change_nothing() {
        let (p, spec) = racy_program(10);
        let plain = DcConfig::single_run(CoordinationMode::Immediate);
        let stubbed = plain
            .clone()
            .with_pipelined(true)
            .with_op_transport(crate::OpTransport::Ring)
            .with_shards(1);
        let run = |config: DcConfig| {
            let checker = DoubleChecker::new(p.threads.len(), spec.clone(), config);
            run_det(&p, &checker, &Schedule::random(3)).unwrap();
            assert!(checker.pipeline_error().is_none());
            (checker.violations(), checker.static_info(), checker.stats())
        };
        let (violations, info, stats) = run(plain);
        assert!(!violations.is_empty(), "the run is racy");
        assert_eq!(run(stubbed), (violations, info, stats));
    }

    #[test]
    fn single_run_on_real_threads_is_stable() {
        let (p, spec) = racy_program(200);
        let report = run_single(&p, &spec, &ExecPlan::Real).unwrap();
        // Violations depend on real timing; the analysis must at least have
        // demarcated all transactions and logged accesses.
        assert_eq!(report.stats.regular_txs, 400);
        assert!(report.stats.log_entries > 0);
    }
}
