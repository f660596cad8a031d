//! True three-way differential oracle on one execution: Velodrome (online
//! graph search), AeroDrome (vector clocks), and DoubleChecker single-run
//! (dual-analysis) all consume the same replayed deterministic
//! interleaving, with the trace oracle's input recorded by a [`Tee`] in
//! the *same run* as Velodrome. The two online checkers must agree bit
//! for bit on violation keys and blame; all of them must agree on
//! violation existence. The suite also pins the pure-performance-change
//! equivalences (barrier cache, observability) of the
//! DoubleChecker configuration space.

mod common;

use common::{assert_same_analysis, assert_three_way};
use dc_core::{run_doublechecker, DcConfig, ExecPlan};
use dc_runtime::engine::det::Schedule;
use dc_runtime::heap::ObjKind;
use dc_runtime::ids::ThreadId;
use dc_runtime::program::{Op, Program, ProgramBuilder};
use dc_runtime::spec::AtomicitySpec;
use dc_workloads::{all, Scale};
use doublechecker_repro as _;

#[test]
fn all_three_checkers_agree_across_the_suite() {
    for wl in all(Scale::Tiny) {
        let spec = dc_core::initial_spec(&wl.program, &wl.extra_exclusions);
        for seed in 0..2u64 {
            let schedule = Schedule::random(seed);
            let ctx = format!("{} seed {seed}", wl.name);
            assert_three_way(&ctx, &wl.program, &spec, &schedule);
        }
    }
    let (program, spec, schedule) = cycle_open_across_collections(126);
    assert_three_way("cycle open across collections", &program, &spec, &schedule);
}

/// One violation that stays open across collector passes: `beta` runs
/// entirely inside `alpha` (alpha → beta), then its thread makes `calls`
/// atomic calls on a private object — at 126, enough begins for a
/// Velodrome pass (every 256) and enough ends for an ICD pass (every 128)
/// — before `alpha` reads what `beta` wrote (beta → alpha). By then `beta` and the
/// calls after it are finished and no thread's current transaction, but
/// reachable from the current `alpha`: a collector that dropped them would
/// miss the cycle the trace oracle finds.
fn cycle_open_across_collections(calls: u32) -> (Program, AtomicitySpec, Schedule) {
    let mut b = ProgramBuilder::new();
    let o = b.object(ObjKind::Plain { fields: 2 });
    let private = b.object(ObjKind::Plain { fields: 1 });
    let alpha = b.method("alpha", vec![Op::Write(o, 0), Op::Read(o, 1)]);
    let beta = b.method("beta", vec![Op::Read(o, 0), Op::Write(o, 1)]);
    let idle = b.method("idle", vec![Op::Write(private, 0)]);
    let t0 = b.method("t0", vec![Op::Call(alpha)]);
    let body = vec![
        Op::Call(beta),
        Op::Loop {
            count: calls,
            body: vec![Op::Call(idle)],
        },
    ];
    let t1 = b.method("t1", body);
    b.thread(t0);
    b.thread(t1);
    let program = b.build().expect("valid program");
    let spec = AtomicitySpec::excluding([t0, t1]);
    // t0 enters its body and `alpha` and writes; t1 enters its body, runs
    // `beta` (enter, read, write, exit) and every call (enter, write,
    // exit); the script then falls back to round-robin, so t0 reads next.
    let (a, b) = (ThreadId(0), ThreadId(1));
    let mut script = vec![a; 3];
    script.extend(std::iter::repeat_n(b, 5 + 3 * calls as usize));
    (program, spec, Schedule::Scripted(script))
}

/// The Octet ownership inline cache is a pure performance change: a cache
/// hit must classify exactly the accesses the metadata word would classify
/// as same-state, so disabling the cache on the same deterministic schedule
/// must reproduce the violation set, static transaction information, and statistics bit
/// for bit (modulo the collector's timing-dependent reclaim count). Both
/// legs run the one fused access kernel: cache-off is the leg whose
/// per-thread Octet handle carries no ownership-table slot, so every probe
/// misses.
#[test]
fn barrier_cache_on_and_off_are_bit_identical_across_the_suite() {
    for wl in all(Scale::Tiny) {
        let spec = dc_core::initial_spec(&wl.program, &wl.extra_exclusions);
        for seed in 0..2u64 {
            let plan = ExecPlan::Det(Schedule::random(seed));
            let base = DcConfig::single_run(plan.coordination());
            let on = run_doublechecker(
                &wl.program,
                &spec,
                base.clone().with_barrier_cache(true),
                &plan,
            )
            .unwrap();
            let off = run_doublechecker(&wl.program, &spec, base.with_barrier_cache(false), &plan)
                .unwrap();
            assert_same_analysis(
                &format!("{} seed {seed}: cache-on vs cache-off", wl.name),
                &on,
                &off,
            );
        }
    }
}

/// Observability is a pure observer: with every instrumentation site live
/// (`ObsLevel::Full`) the analysis artefacts — violations, static
/// transaction information, statistics — are identical to the
/// uninstrumented (`ObsLevel::Off`) run on the same deterministic schedule.
#[test]
fn observability_full_vs_off_is_bit_identical_across_the_suite() {
    use dc_core::ObsLevel;
    for wl in all(Scale::Tiny) {
        let spec = dc_core::initial_spec(&wl.program, &wl.extra_exclusions);
        for seed in 0..2u64 {
            let plan = ExecPlan::Det(Schedule::random(seed));
            let base = DcConfig::single_run(plan.coordination());
            let off = run_doublechecker(
                &wl.program,
                &spec,
                base.clone().with_observability(ObsLevel::Off),
                &plan,
            )
            .unwrap();
            let full = run_doublechecker(
                &wl.program,
                &spec,
                base.with_observability(ObsLevel::Full),
                &plan,
            )
            .unwrap();
            let ctx = format!("{} seed {seed}", wl.name);
            assert_eq!(off.pipeline.octet, full.pipeline.octet, "{ctx}: counts");
            assert_eq!(off.violations, full.violations, "{ctx}: violations");
            assert_eq!(off.stats, full.stats, "{ctx}: stats");
            assert_eq!(off.static_info, full.static_info, "{ctx}: static info");
        }
    }
}

/// The trace oracle finds the canonical blame case's cycle as one SCC of
/// both transactions. It assigns no blame (an SCC has no edge order);
/// `aerodrome_blames_the_cycle_completer` checks the blame on the same case.
#[test]
fn oracle_blames_the_cycle_completer() {
    use dc_runtime::ids::{MethodId, ObjId, ThreadId};
    use dc_runtime::spec::TxKind;
    use dc_runtime::trace::TraceEvent;
    let events = vec![
        TraceEvent::Enter(ThreadId(0), MethodId(0)),
        TraceEvent::Write(ThreadId(0), ObjId(0), 0),
        TraceEvent::Enter(ThreadId(1), MethodId(1)),
        TraceEvent::Read(ThreadId(1), ObjId(0), 0), // edge 0 → 1 (first out of tx0)
        TraceEvent::Write(ThreadId(1), ObjId(0), 1),
        TraceEvent::Read(ThreadId(0), ObjId(0), 1), // edge 1 → 0 closes the cycle
        TraceEvent::Exit(ThreadId(1), MethodId(1)),
        TraceEvent::Exit(ThreadId(0), MethodId(0)),
    ];
    let report = dc_runtime::oracle::check(&events, &AtomicitySpec::all_atomic(), false);
    let [scc] = &report.sccs[..] else {
        panic!("one SCC, got {:?}", report.sccs);
    };
    let mut members = scc.clone();
    members.sort_by_key(|&(thread, _)| thread);
    let regular = |t, m| (ThreadId(t), TxKind::Regular(MethodId(m)));
    assert_eq!(members, [regular(0, 0), regular(1, 1)]);
    let mut key: Vec<_> = scc.iter().map(|(_, kind)| kind.method()).collect();
    key.sort();
    assert_eq!(key, [Some(MethodId(0)), Some(MethodId(1))], "static key");
    assert_eq!((report.transactions, report.edges), (2, 2));
}

/// AeroDrome on the canonical blame case: the same two-transaction
/// interleaving as `oracle_blames_the_cycle_completer`, executed for real,
/// blames the transaction whose outgoing edge came first.
#[test]
fn aerodrome_blames_the_cycle_completer() {
    use dc_runtime::heap::ObjKind;
    use dc_runtime::ids::ThreadId;
    use dc_runtime::program::{Op, ProgramBuilder};

    let mut b = ProgramBuilder::new();
    let x = b.object(ObjKind::Plain { fields: 2 });
    // m0: W(x.0) then R(x.1); m1: R(x.0) then W(x.1).
    let m0 = b.method("m0", vec![Op::Write(x, 0), Op::Read(x, 1)]);
    let m1 = b.method("m1", vec![Op::Read(x, 0), Op::Write(x, 1)]);
    let e0 = b.method("e0", vec![Op::Call(m0)]);
    let e1 = b.method("e1", vec![Op::Call(m1)]);
    b.thread(e0);
    b.thread(e1);
    let program = b.build().unwrap();
    let spec = dc_runtime::spec::AtomicitySpec::excluding(vec![e0, e1]);

    // Thread 0 writes x.0, thread 1 runs its whole transaction (reading
    // x.0 — edge m0→m1 — and writing x.1), then thread 0 reads x.1,
    // closing the cycle with edge m1→m0.
    let script = vec![
        ThreadId(0), // Enter e0
        ThreadId(0), // Enter m0
        ThreadId(0), // Write x.0
        ThreadId(1), // Enter e1
        ThreadId(1), // Enter m1
        ThreadId(1), // Read x.0  (edge m0 → m1, first out of m0)
        ThreadId(1), // Write x.1
        ThreadId(0), // Read x.1  (edge m1 → m0 closes the cycle)
    ];
    let aero = common::aerodrome_verdict(&program, &spec, &Schedule::Scripted(script));
    assert_eq!(aero.keys.len(), 1, "one deduplicated violation");
    assert_eq!(
        aero.blames.iter().next().unwrap(),
        &vec![m0],
        "the transaction whose outgoing edge came first is blamed"
    );
}
