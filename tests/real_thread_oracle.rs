//! Real-thread DoubleChecker against the offline trace oracle (ROADMAP 18).
//!
//! On the deterministic engine DoubleChecker and the oracle agree on every
//! run. On real threads they do not: DoubleChecker reports violations whose
//! trace has no cycle. This hunt measures how often, on which kind of
//! cycle, and whether a deterministic replay of the recorded trace
//! reproduces the report. It asserts no rate (ROADMAP 18(d)); it prints
//! the counts.
//!
//! Each run drives `Tee::new(DoubleChecker, TraceChecker)` under
//! `run_real`, DoubleChecker first, so the trace is a faithful
//! linearization of what DoubleChecker saw: each event is recorded inside
//! the hook, after Octet's barrier, and a conflicting access by another
//! thread cannot pass its own barrier until this thread reaches a safe
//! point, which comes after the record (DESIGN.md §Checkers).
//!
//! Run with `cargo test --release --test real_thread_oracle -- --ignored
//! --nocapture` (about a minute on two cores).

use dc_core::{initial_spec, DcConfig, DoubleChecker};
use dc_octet::CoordinationMode;
use dc_pcd::Violation;
use dc_runtime::checker::Checker;
use dc_runtime::heap::Heap;
use dc_runtime::program::{Op, Program};
use dc_runtime::spec::AtomicitySpec;
use dc_runtime::trace::{Tee, TraceChecker, TraceEvent};
use dc_runtime::{oracle, run_real};
use dc_workloads::{all, Scale};
use doublechecker_repro as _;

const RUNS: u64 = 200;

/// The kind of cycle behind a DoubleChecker-only run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Class {
    /// Every cycle member is a unary transaction.
    UnaryOnly,
    /// Every cycle member runs a method whose body starts by acquiring a
    /// monitor and ends by releasing it: no execution has such a cycle.
    LockProtectedOnly,
    Other,
}

const CLASSES: [Class; 3] = [Class::UnaryOnly, Class::LockProtectedOnly, Class::Other];

fn classify(program: &Program, violations: &[Violation]) -> Class {
    let members = || violations.iter().flat_map(|v| &v.cycle);
    let locked = |m: &dc_pcd::CycleMember| {
        m.kind.method().is_some_and(|method| {
            let body = &program.methods[method.index()].body;
            matches!((body.first(), body.last()),
                (Some(Op::Acquire(a)), Some(Op::Release(r))) if a == r)
        })
    };
    if members().all(|m| m.kind.method().is_none()) {
        Class::UnaryOnly
    } else if members().all(locked) {
        Class::LockProtectedOnly
    } else {
        Class::Other
    }
}

/// Feeds a recorded trace to a fresh single-run DoubleChecker in
/// `Immediate` mode, in trace order: each event's hook, then a safe point
/// after each event that is not an access. True if it reports a violation.
fn immediate_replay_reports(program: &Program, spec: &AtomicitySpec, trace: &[TraceEvent]) -> bool {
    let c = DoubleChecker::new(
        program.threads.len(),
        spec.clone(),
        DcConfig::single_run(CoordinationMode::Immediate),
    );
    c.run_begin(&Heap::new(&program.objects, program.n_threads()));
    use TraceEvent::*;
    for &event in trace {
        match event {
            ThreadBegin(t) => c.thread_begin(t),
            ThreadEnd(t) => c.thread_end(t),
            Enter(t, m) => c.enter_method(t, m),
            Exit(t, m) => c.exit_method(t, m),
            Read(t, o, f) => c.read(t, o, f),
            Write(t, o, f) => c.write(t, o, f),
            ArrayRead(t, o, i) => c.array_read(t, o, i),
            ArrayWrite(t, o, i) => c.array_write(t, o, i),
            SyncAcquire(t, o) => c.sync_acquire(t, o),
            SyncRelease(t, o) => c.sync_release(t, o),
        }
        if !matches!(event, Read(..) | Write(..) | ArrayRead(..) | ArrayWrite(..)) {
            c.safe_point(event.thread());
        }
    }
    c.run_end();
    !c.violations().is_empty()
}

#[test]
#[ignore = "a hunt: 3 800 real-thread runs, prints counts, asserts no rate"]
fn real_thread_doublechecker_against_the_trace_oracle() {
    // [class][reproduced by the Immediate replay]
    let mut dc_only = [[0u64; 2]; 3];
    let (mut oracle_only, mut both, mut total) = (0u64, 0u64, 0u64);
    for wl in all(Scale::Tiny) {
        let spec = initial_spec(&wl.program, &wl.extra_exclusions);
        let mut per_workload = 0;
        for _ in 0..RUNS {
            let dc = DoubleChecker::new(
                wl.program.threads.len(),
                spec.clone(),
                DcConfig::single_run(CoordinationMode::Threaded),
            );
            let tee = Tee::new(dc, TraceChecker::new());
            run_real(&wl.program, &tee);
            let trace = tee.b.into_events();
            let violations = tee.a.violations();
            let oracle_found = !oracle::check(&trace, &spec, false).sccs.is_empty();
            total += 1;
            match (violations.is_empty(), oracle_found) {
                (false, true) => both += 1,
                (true, true) => oracle_only += 1,
                (false, false) => {
                    per_workload += 1;
                    let class = classify(&wl.program, &violations);
                    let replayed = immediate_replay_reports(&wl.program, &spec, &trace);
                    let row = CLASSES.iter().position(|&c| c == class).unwrap();
                    dc_only[row][usize::from(replayed)] += 1;
                }
                (true, false) => {}
            }
        }
        if per_workload > 0 {
            println!("{}: {per_workload} DC-only runs", wl.name);
        }
    }
    let dc_only_total: u64 = dc_only.iter().flatten().sum();
    println!(
        "{total} runs: {both} flagged by both, {dc_only_total} DC-only, {oracle_only} oracle-only"
    );
    for (class, [vanished, reproduced]) in CLASSES.iter().zip(dc_only) {
        println!(
            "  DC-only {class:?}: {reproduced} reproduced by an Immediate replay, {vanished} not"
        );
    }
}
