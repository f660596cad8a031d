//! Direct-drive tests of DoubleChecker's checker semantics: second-run
//! filtering, sync-operation logging, array conflation, and the multi-run
//! soundness upper bound.

use dc_core::{run_doublechecker, run_single, DcConfig, DoubleChecker, ExecPlan, StaticTxInfo};
use dc_octet::CoordinationMode;
use dc_runtime::checker::Checker;
use dc_runtime::engine::det::Schedule;
use dc_runtime::heap::{Heap, ObjKind};
use dc_runtime::ids::{MethodId, ObjId, ThreadId};
use dc_runtime::spec::AtomicitySpec;
use dc_workloads::{by_name, Scale};
use doublechecker_repro as _;

const T0: ThreadId = ThreadId(0);
const T1: ThreadId = ThreadId(1);
const M0: MethodId = MethodId(0);
const M1: MethodId = MethodId(1);
const O: ObjId = ObjId(0);

fn drive(config: DcConfig, f: impl Fn(&DoubleChecker)) -> DoubleChecker {
    let checker = DoubleChecker::new(2, AtomicitySpec::all_atomic(), config);
    let heap = Heap::new(
        &[ObjKind::Plain { fields: 2 }, ObjKind::Array { len: 8 }],
        2,
    );
    checker.run_begin(&heap);
    checker.thread_begin(T0);
    checker.thread_begin(T1);
    f(&checker);
    checker.thread_end(T0);
    checker.thread_end(T1);
    checker.run_end();
    checker
}

#[test]
fn second_run_filter_skips_uncovered_transactions_entirely() {
    let info = StaticTxInfo {
        methods: [M0].into_iter().collect(),
        any_unary: false,
    };
    let checker = drive(
        DcConfig::second_run(&info, CoordinationMode::Immediate),
        |c| {
            // Covered transaction: instrumented.
            c.enter_method(T0, M0);
            c.read(T0, O, 0);
            c.exit_method(T0, M0);
            // Uncovered transaction: skipped.
            c.enter_method(T1, M1);
            c.read(T1, O, 0);
            c.write(T1, O, 0);
            c.exit_method(T1, M1);
        },
    );
    let stats = checker.stats();
    assert_eq!(stats.regular_accesses, 1, "only the covered read counts");
}

#[test]
fn unary_accesses_follow_the_unary_switch() {
    for (any_unary, expected) in [(false, 0u64), (true, 2u64)] {
        let info = StaticTxInfo {
            methods: std::collections::BTreeSet::new(),
            any_unary,
        };
        let checker = drive(
            DcConfig::second_run(&info, CoordinationMode::Immediate),
            |c| {
                // Accesses outside any transaction (still inside the
                // excluded-by-filter method M0's *non*-transactional
                // context because the filter does not cover it… drive
                // plainly without entering methods).
                c.read(T0, O, 0);
                c.write(T0, O, 1);
            },
        );
        assert_eq!(
            checker.stats().unary_accesses,
            expected,
            "any_unary={any_unary}"
        );
    }
}

#[test]
fn array_accesses_are_ignored_by_default_but_conflated_when_on() {
    let arr = ObjId(1);
    let default_config = DcConfig::single_run(CoordinationMode::Immediate);
    let checker = drive(default_config, |c| {
        c.enter_method(T0, M0);
        c.array_write(T0, arr, 3);
        c.array_read(T0, arr, 5);
        c.exit_method(T0, M0);
    });
    assert_eq!(checker.stats().regular_accesses, 0, "arrays off by default");

    let mut on = DcConfig::single_run(CoordinationMode::Immediate);
    on.instrument_arrays = true;
    let checker = drive(on, |c| {
        c.enter_method(T0, M0);
        c.array_write(T0, arr, 3);
        c.array_read(T0, arr, 5);
        c.exit_method(T0, M0);
        // Another thread writes a different element: with conflated
        // (array-granularity) metadata this is still a dependence chain
        // through the same slot.
        c.enter_method(T1, M1);
        c.array_write(T1, arr, 7);
        c.exit_method(T1, M1);
    });
    assert_eq!(checker.stats().regular_accesses, 3);
    assert!(
        checker.stats().idg_cross_edges >= 1,
        "conflated array metadata produces the cross-thread edge"
    );
}

#[test]
fn sync_operations_are_logged_as_sync_accesses() {
    let checker = drive(DcConfig::single_run(CoordinationMode::Immediate), |c| {
        c.enter_method(T0, M0);
        c.sync_acquire(T0, O);
        c.sync_release(T0, O);
        c.exit_method(T0, M0);
    });
    assert_eq!(checker.stats().regular_accesses, 2);
    assert!(checker.stats().log_entries >= 2, "sync ops enter the logs");
}

/// Multi-run soundness upper bound (paper §3.1: "DoubleChecker guarantees
/// soundness if the two program runs execute identically"): with static
/// information covering every method and unary accesses, the second run on
/// the same schedule finds exactly single-run's violations.
#[test]
fn full_static_info_makes_the_second_run_equal_single_run() {
    let wl = by_name("hsqldb6", Scale::Tiny).unwrap();
    let spec = dc_core::initial_spec(&wl.program, &wl.extra_exclusions);
    let info = StaticTxInfo {
        methods: (0..wl.program.methods.len())
            .map(MethodId::from_index)
            .collect(),
        any_unary: true,
    };
    for seed in 0..4u64 {
        let plan = ExecPlan::Det(Schedule::random(seed));
        let single = run_single(&wl.program, &spec, &plan).unwrap();
        let second = run_doublechecker(
            &wl.program,
            &spec,
            DcConfig::second_run(&info, CoordinationMode::Immediate),
            &plan,
        )
        .unwrap();
        let keys = |r: &dc_core::DcReport| {
            let mut v: Vec<_> = r.violations.iter().map(|v| v.static_key()).collect();
            v.sort();
            v
        };
        assert_eq!(keys(&single), keys(&second), "seed {seed}");
    }
}

/// The violations a *covering* second run reports are a superset of what a
/// narrower filter reports on the same schedule.
#[test]
fn narrower_filters_find_fewer_or_equal_violations() {
    let wl = by_name("tsp", Scale::Tiny).unwrap();
    let spec = dc_core::initial_spec(&wl.program, &wl.extra_exclusions);
    let full = StaticTxInfo {
        methods: (0..wl.program.methods.len())
            .map(MethodId::from_index)
            .collect(),
        any_unary: true,
    };
    let narrow = StaticTxInfo {
        methods: wl
            .program
            .methods
            .iter()
            .enumerate()
            .filter(|(_, m)| m.name.contains("checkBound"))
            .map(|(i, _)| MethodId::from_index(i))
            .collect(),
        any_unary: false,
    };
    for seed in 0..4u64 {
        let plan = ExecPlan::Det(Schedule::random(seed));
        let wide = run_doublechecker(
            &wl.program,
            &spec,
            DcConfig::second_run(&full, CoordinationMode::Immediate),
            &plan,
        )
        .unwrap();
        let thin = run_doublechecker(
            &wl.program,
            &spec,
            DcConfig::second_run(&narrow, CoordinationMode::Immediate),
            &plan,
        )
        .unwrap();
        assert!(
            thin.violations.len() <= wide.violations.len(),
            "seed {seed}: narrow filter must not find more"
        );
    }
}
