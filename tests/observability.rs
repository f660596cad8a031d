//! Observability-layer integration tests: what the histograms and the trace
//! must agree on with the analysis' statistics after every run, a stress
//! test of back-to-back real-thread runs under a hang guard, and the
//! multi-run end-to-end flow with full observability enabled on the second
//! run.
//!
//! The companion *differential* guarantees — no observability level may
//! change violations, static transaction info, or statistics — live in
//! `oracle_threeway.rs` and `proptest_differential.rs`.

use dc_core::{run_doublechecker, DcConfig, DcReport, ExecPlan, ObsLevel, StaticTxInfo};
use dc_runtime::engine::det::Schedule;
use dc_runtime::heap::ObjKind;
use dc_runtime::program::{Op, Program, ProgramBuilder};
use dc_runtime::spec::AtomicitySpec;
use doublechecker_repro as _;
use std::sync::mpsc;
use std::time::Duration;

/// Two atomic methods racing on one shared object — interleaves into a real
/// atomicity violation under most random schedules (same shape as the
/// `dc-core` mode tests).
fn racy_program(iters: u32, pairs: u32) -> (Program, AtomicitySpec) {
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
    let mut entries = Vec::new();
    for p in 0..pairs {
        let t0 = b.method(
            format!("t{}", 2 * p),
            vec![Op::Loop {
                count: iters,
                body: vec![Op::Call(alpha)],
            }],
        );
        let t1 = b.method(
            format!("t{}", 2 * p + 1),
            vec![Op::Loop {
                count: iters,
                body: vec![Op::Call(beta)],
            }],
        );
        entries.push(t0);
        entries.push(t1);
    }
    for &e in &entries {
        b.thread(e);
    }
    let p = b.build().unwrap();
    let spec = AtomicitySpec::excluding(entries);
    (p, spec)
}

/// What a `Full` run's histograms and trace must agree on with the
/// analysis' statistics: every SCC handed to PCD is timed and traced, every
/// detected SCC was timed and traced, and the run begins and ends once.
fn assert_accounting(report: &DcReport, ctx: &str) {
    let p = report
        .pipeline
        .as_ref()
        .unwrap_or_else(|| panic!("{ctx}: expected a pipeline report"));
    assert_eq!(p.level, ObsLevel::Full, "{ctx}");
    let s = &report.stats;
    assert_eq!(
        p.replay.latency.count, s.sccs_to_pcd,
        "{ctx}: replay latency histogram disagrees with analysis stats"
    );
    assert!(
        p.graph.scc_latency.count >= s.icd_sccs + p.graph.sccs_skipped_trivial,
        "{ctx}: SCC latency histogram missed probes"
    );
    if p.trace_recorded == report.trace.len() as u64 {
        let traced = |kind: &str| {
            report
                .trace
                .iter()
                .filter(|e| e.kind.as_str() == kind)
                .count() as u64
        };
        assert_eq!(traced("scc_detected"), s.icd_sccs, "{ctx}: SCC trace");
        assert_eq!(
            traced("replay_submit"),
            s.sccs_to_pcd,
            "{ctx}: replay trace"
        );
        assert_eq!(traced("replay_done"), s.sccs_to_pcd, "{ctx}: replay trace");
        assert_eq!(traced("run_begin"), 1, "{ctx}: one run begins once");
        assert_eq!(traced("run_end"), 1, "{ctx}: one run ends once");
    }
}

#[test]
fn sync_run_balances_its_books_at_full() {
    let (p, spec) = racy_program(10, 1);
    let plan = ExecPlan::Det(Schedule::random(3));
    let report = run_doublechecker(
        &p,
        &spec,
        DcConfig::single_run(plan.coordination()).with_observability(ObsLevel::Full),
        &plan,
    )
    .unwrap();
    assert!(!report.violations.is_empty(), "schedule must interleave");
    assert_accounting(&report, "sync/full");
    assert!(report.stats.icd_sccs > 0, "SCCs were detected");
    assert_eq!(
        report.trace.len() as u64,
        report.pipeline.unwrap().trace_recorded,
        "the ring holds the whole run, so the trace was checked"
    );
}

#[test]
fn counters_level_counts_without_clocks_or_trace() {
    let (p, spec) = racy_program(10, 1);
    let plan = ExecPlan::Det(Schedule::random(3));
    let report = run_doublechecker(
        &p,
        &spec,
        DcConfig::single_run(plan.coordination()).with_observability(ObsLevel::Counters),
        &plan,
    )
    .unwrap();
    let p = report.pipeline.as_ref().unwrap();
    assert_eq!(p.level, ObsLevel::Counters);
    assert!(
        p.octet.first_touch + p.octet.upgrades + p.octet.fences + p.octet.conflicts > 0,
        "the report carries Octet's transition counts"
    );
    assert!(report.stats.icd_sccs > 0, "SCCs were detected");
    assert_eq!(
        p.graph.collect_latency.count, 0,
        "no clock reads at counters"
    );
    assert_eq!(p.graph.scc_latency.count, 0, "no clock reads at counters");
    assert_eq!(p.replay.latency.count, 0, "no clock reads at counters");
    assert_eq!(p.trace_recorded, 0, "no trace at counters");
    assert!(report.trace.is_empty());
}

#[test]
fn off_level_reports_nothing() {
    let (p, spec) = racy_program(10, 1);
    let plan = ExecPlan::Det(Schedule::random(3));
    let report = run_doublechecker(
        &p,
        &spec,
        DcConfig::single_run(plan.coordination()).with_observability(ObsLevel::Off),
        &plan,
    )
    .unwrap();
    assert!(report.pipeline.is_none());
    assert!(report.trace.is_empty());
}

#[test]
fn full_level_traces_the_run_lifecycle_in_order() {
    let (p, spec) = racy_program(10, 1);
    let plan = ExecPlan::Det(Schedule::random(3));
    let report = run_doublechecker(
        &p,
        &spec,
        DcConfig::single_run(plan.coordination()).with_observability(ObsLevel::Full),
        &plan,
    )
    .unwrap();
    let trace = &report.trace;
    assert!(!trace.is_empty(), "full level records trace events");
    assert!(
        trace.windows(2).all(|w| w[0].seq < w[1].seq),
        "trace sequence numbers are strictly increasing"
    );
    assert_eq!(trace.first().unwrap().kind.as_str(), "run_begin");
    assert_eq!(trace.last().unwrap().kind.as_str(), "run_end");
    let obs = report.pipeline.as_ref().unwrap();
    assert!(
        obs.trace_recorded >= trace.len() as u64,
        "recorded total covers the ring snapshot"
    );
}

/// Stress: four application threads on the real engine, a hundred
/// back-to-back runs at `Full` — every run must balance its books and the
/// whole thing must not hang. The run is wrapped in a thread and a
/// `recv_timeout` so a wedged Octet round trip fails the test instead of
/// wedging the suite.
#[test]
fn stress_run_end_drains_under_real_thread_hammering() {
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        for round in 0..100u32 {
            let (p, spec) = racy_program(20, 2);
            let plan = ExecPlan::Real;
            let report = run_doublechecker(
                &p,
                &spec,
                DcConfig::single_run(plan.coordination()).with_observability(ObsLevel::Full),
                &plan,
            )
            .unwrap();
            assert_accounting(&report, &format!("stress round {round}"));
        }
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(120))
        .expect("stress run hung: 100 real-thread runs did not finish within 120s");
}

/// Multi-run end-to-end with observability: the first run (ICD only) emits
/// static transaction information; the second run consumes it with full
/// observability on. Methods never in an
/// imprecise cycle (the `gamma` below runs on its own thread against a
/// private object) are excluded from the second run's instrumentation, so
/// its instrumented-access counters shrink.
#[test]
fn multi_run_second_run_shrinks_instrumented_accesses_under_pipeline_and_obs() {
    let mut b = ProgramBuilder::new();
    let shared = b.object(ObjKind::Plain { fields: 2 });
    let private = b.object(ObjKind::Plain { fields: 4 });
    let alpha = b.method(
        "alpha",
        vec![Op::Write(shared, 0), Op::Compute(5), Op::Read(shared, 1)],
    );
    let beta = b.method(
        "beta",
        vec![Op::Write(shared, 1), Op::Compute(5), Op::Read(shared, 0)],
    );
    let gamma_body: Vec<Op> = (0..4)
        .flat_map(|f| [Op::Write(private, f), Op::Read(private, f)])
        .collect();
    let gamma = b.method("gamma", gamma_body);
    let t0 = b.method(
        "t0",
        vec![Op::Loop {
            count: 10,
            body: vec![Op::Call(alpha)],
        }],
    );
    let t1 = b.method(
        "t1",
        vec![Op::Loop {
            count: 10,
            body: vec![Op::Call(beta)],
        }],
    );
    let t2 = b.method(
        "t2",
        vec![Op::Loop {
            count: 10,
            body: vec![Op::Call(gamma)],
        }],
    );
    b.thread(t0);
    b.thread(t1);
    b.thread(t2);
    let p = b.build().unwrap();
    let spec = AtomicitySpec::excluding([t0, t1, t2]);

    // Run 1 (×5 trials, per the paper's multi-run methodology): ICD alone,
    // collecting static transaction information.
    let mut info = StaticTxInfo::default();
    let mut first_accesses = 0u64;
    for seed in 0..5u64 {
        let plan = ExecPlan::Det(Schedule::random(seed));
        let first =
            run_doublechecker(&p, &spec, DcConfig::first_run(plan.coordination()), &plan).unwrap();
        assert_eq!(first.stats.log_entries, 0, "first run does not log");
        info.union(&first.static_info);
        first_accesses = first_accesses.max(first.stats.regular_accesses);
    }
    assert!(
        info.methods.contains(&p.method_by_name("alpha").unwrap()),
        "alpha is in an imprecise cycle"
    );
    assert!(
        !info.methods.contains(&p.method_by_name("gamma").unwrap()),
        "gamma never conflicts, so it must stay out of the static info"
    );

    // Run 2: instrument only the implicated transactions, observability
    // full.
    let plan = ExecPlan::Det(Schedule::random(3));
    let second = run_doublechecker(
        &p,
        &spec,
        DcConfig::second_run(&info, plan.coordination()).with_observability(ObsLevel::Full),
        &plan,
    )
    .unwrap();
    assert!(
        !second.violations.is_empty(),
        "the second run reproduces the violation"
    );
    assert!(
        second.stats.regular_accesses < first_accesses,
        "second run instruments fewer accesses ({} vs {first_accesses})",
        second.stats.regular_accesses
    );
    assert_accounting(&second, "multi-run second run");
    assert!(
        second.stats.icd_sccs > 0,
        "the second run's cycles were detected"
    );
}
