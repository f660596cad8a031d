//! End-to-end checker tests spanning all crates: workloads → engines →
//! checkers → violations.

use dc_core::{run_doublechecker, run_multi, run_single, DcConfig, ExecPlan};
use dc_runtime::engine::det::Schedule;
use dc_runtime::heap::ObjKind;
use dc_runtime::program::{Op, ProgramBuilder};
use dc_runtime::spec::AtomicitySpec;
use dc_velodrome::{Velodrome, VelodromeConfig};
use dc_workloads::{all, by_name, Scale, Workload};
use doublechecker_repro as _;

fn spec_of(wl: &Workload) -> AtomicitySpec {
    dc_core::initial_spec(&wl.program, &wl.extra_exclusions)
}

fn velodrome_violations(wl: &Workload, spec: &AtomicitySpec, seed: u64) -> usize {
    let v = Velodrome::new(
        wl.program.threads.len(),
        spec.clone(),
        VelodromeConfig::default(),
    );
    dc_runtime::engine::det::run_det(&wl.program, &v, &Schedule::random(seed)).unwrap();
    v.violations().len()
}

fn doublechecker_violations(wl: &Workload, spec: &AtomicitySpec, seed: u64) -> usize {
    let report = run_single(&wl.program, spec, &ExecPlan::Det(Schedule::random(seed))).unwrap();
    report.violations.len()
}

/// The paper's central soundness/precision claim, checked differentially:
/// on the *same execution* (same deterministic schedule), Velodrome and
/// DoubleChecker's single-run mode — both sound and precise — must agree on
/// whether any violation exists.
#[test]
fn velodrome_and_single_run_agree_on_violation_existence() {
    for wl in all(Scale::Tiny) {
        let spec = spec_of(&wl);
        for seed in 0..3u64 {
            let v = velodrome_violations(&wl, &spec, seed);
            let d = doublechecker_violations(&wl, &spec, seed);
            assert_eq!(
                v > 0,
                d > 0,
                "{} seed {seed}: velodrome found {v}, doublechecker found {d}",
                wl.name
            );
        }
    }
}

/// Clean benchmarks (properly synchronized by construction) must report no
/// violations under any schedule — the precision check.
#[test]
fn clean_workloads_report_no_violations() {
    for name in [
        "philo",
        "sor",
        "moldyn",
        "raytracer",
        "jython9",
        "luindex9",
        "pmd9",
    ] {
        let wl = by_name(name, Scale::Tiny).unwrap();
        let spec = spec_of(&wl);
        for seed in 0..5u64 {
            assert_eq!(
                doublechecker_violations(&wl, &spec, seed),
                0,
                "{name} must be violation-free (seed {seed})"
            );
            assert_eq!(
                velodrome_violations(&wl, &spec, seed),
                0,
                "{name} must be violation-free under velodrome (seed {seed})"
            );
        }
    }
}

/// Seeded-racy benchmarks must manifest violations under at least one of a
/// handful of schedules — the detection check.
#[test]
fn racy_workloads_manifest_violations() {
    for name in [
        "eclipse6", "hsqldb6", "xalan6", "avrora9", "tsp", "elevator", "hedc",
    ] {
        let wl = by_name(name, Scale::Tiny).unwrap();
        let spec = spec_of(&wl);
        let found = (0..8u64).any(|seed| doublechecker_violations(&wl, &spec, seed) > 0);
        assert!(found, "{name} should manifest at least one violation");
    }
}

/// Multi-run mode end to end on a racy workload: the first runs identify
/// the racy methods; the second run catches violations.
#[test]
fn multi_run_mode_catches_violations_on_tsp() {
    let wl = by_name("tsp", Scale::Tiny).unwrap();
    let spec = spec_of(&wl);
    let firsts: Vec<ExecPlan> = (0..6).map(|s| ExecPlan::Det(Schedule::random(s))).collect();
    let report = run_multi(
        &wl.program,
        &spec,
        &firsts,
        &ExecPlan::Det(Schedule::random(2)),
    )
    .unwrap();
    assert!(
        !report.static_info.methods.is_empty(),
        "first runs identify methods in imprecise cycles"
    );
    // The second run instruments fewer (or equal) accesses than single-run.
    let single = run_single(&wl.program, &spec, &ExecPlan::Det(Schedule::random(2))).unwrap();
    let second = &report.second_run;
    assert!(
        second.stats.regular_accesses + second.stats.unary_accesses
            <= single.stats.regular_accesses + single.stats.unary_accesses
    );
}

/// A write stream over far more thread-owned objects than any fixed-size
/// ownership cache holds: the per-object stamp table has no capacity to
/// exceed, so under the deterministic engine everything but the first
/// touches is an inline-cache hit (counted, not timed).
#[test]
fn streaming_over_owned_objects_hits_the_ownership_cache() {
    const OBJECTS: usize = 192;
    const PASSES: u32 = 64;
    let mut b = ProgramBuilder::new();
    let mut entries = Vec::new();
    for t in 0..2 {
        let sweep = (0..OBJECTS)
            .map(|_| b.object(ObjKind::Plain { fields: 1 }))
            .flat_map(|o| [Op::Write(o, 0), Op::Read(o, 0)])
            .collect();
        let sweep = b.method(format!("sweep{t}"), sweep);
        let body = vec![Op::Loop {
            count: PASSES,
            body: vec![Op::Call(sweep)],
        }];
        entries.push(b.method(format!("run{t}"), body));
    }
    for &e in &entries {
        b.thread(e);
    }
    let program = b.build().unwrap();
    let spec = AtomicitySpec::excluding(entries);
    let plan = ExecPlan::Det(Schedule::random(1));
    let config = DcConfig::single_run(plan.coordination());
    let report = run_doublechecker(&program, &spec, config, &plan).unwrap();
    let hits = report.pipeline.octet.cache_hits;
    let accesses = report.stats.regular_accesses + report.stats.unary_accesses;
    assert!(
        hits * 100 >= accesses * 99,
        "{hits} cache hits over {accesses} instrumented accesses"
    );
}

/// xalan6's signature behaviour (§5.3): many imprecise SCCs whose precise
/// replay finds *no* cycle — pure ICD false positives from object-granular
/// ping-pong, all filtered by PCD.
#[test]
fn xalan6_produces_imprecise_sccs_filtered_by_pcd() {
    let wl = by_name("xalan6", Scale::Tiny).unwrap();
    // Restrict to the serializable part: exclude the genuinely racy methods
    // so every SCC is imprecise-only.
    let mut spec = spec_of(&wl);
    for (i, m) in wl.program.methods.iter().enumerate() {
        if m.name.contains("racyUpdate") {
            spec.exclude(dc_runtime::ids::MethodId::from_index(i));
        }
    }
    let mut total_sccs = 0;
    for seed in 0..5u64 {
        let report =
            run_single(&wl.program, &spec, &ExecPlan::Det(Schedule::random(seed))).unwrap();
        total_sccs += report.stats.icd_sccs;
        assert!(
            report.violations.is_empty(),
            "ping-pong is serializable; PCD must filter all SCCs (seed {seed})"
        );
    }
    assert!(total_sccs > 0, "object-granularity creates imprecise SCCs");
}

/// The first run of multi-run mode records no logs; single-run records
/// plenty (its key cost, §3.1).
#[test]
fn logging_cost_is_single_run_only() {
    let wl = by_name("hsqldb6", Scale::Tiny).unwrap();
    let spec = spec_of(&wl);
    let plan = ExecPlan::Det(Schedule::random(1));
    let single = run_single(&wl.program, &spec, &plan).unwrap();
    let first = run_doublechecker(
        &wl.program,
        &spec,
        DcConfig::first_run(plan.coordination()),
        &plan,
    )
    .unwrap();
    assert!(single.stats.log_entries > 0);
    assert_eq!(first.stats.log_entries, 0);
}

/// lusearch9's cycles involve only regular transactions, so the second run
/// skips non-transactional instrumentation (paper §5.5).
#[test]
fn lusearch9_second_run_skips_unary_instrumentation() {
    let wl = by_name("lusearch9", Scale::Tiny).unwrap();
    let spec = spec_of(&wl);
    let firsts: Vec<ExecPlan> = (0..8).map(|s| ExecPlan::Det(Schedule::random(s))).collect();
    let report = run_multi(
        &wl.program,
        &spec,
        &firsts,
        &ExecPlan::Det(Schedule::random(0)),
    )
    .unwrap();
    // Whether unary transactions join cycles is execution-dependent; the
    // mechanism under test is the conditional instrumentation: no unary
    // involvement in the first runs ⇒ no unary instrumentation in the
    // second run.
    if !report.static_info.any_unary {
        assert_eq!(report.second_run.stats.unary_accesses, 0);
    } else {
        assert!(
            report.second_run.stats.unary_accesses > 0 || report.static_info.methods.is_empty()
        );
    }
}
