//! True three-way differential oracle on one execution: Velodrome (online
//! graph search), AeroDrome (vector clocks), and DoubleChecker single-run
//! (dual-analysis) all consume the same replayed deterministic
//! interleaving, with the offline trace oracle recorded by a [`Tee`] in
//! the *same run* as Velodrome. The two online checkers must agree bit
//! for bit on violation keys and blame; all of them must agree on
//! violation existence. The suite also pins the pure-performance-change
//! equivalences (pipelining, transports, sharding, observability) of the
//! DoubleChecker configuration space.

mod common;

use common::{
    aerodrome_verdict, assert_three_way, scrub_collected, velodrome_verdict_with_trace,
    violation_keys,
};
use dc_core::{run_doublechecker, run_single, DcConfig, ExecPlan, OpTransport};
use dc_pcd::{analyze_trace, OfflineConfig};
use dc_runtime::engine::det::Schedule;
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
}

/// The three-way agreement must survive every analysis-pipeline
/// configuration: the DoubleChecker leg re-runs pipelined under shards
/// ∈ {1, 2} and both op transports, and each variant must (a) agree with
/// the online checkers on existence and (b) report the same deduplicated
/// violation set as every other variant.
#[test]
fn three_way_agreement_holds_under_shards_and_transports() {
    for wl in all(Scale::Tiny) {
        let spec = dc_core::initial_spec(&wl.program, &wl.extra_exclusions);
        let schedule = Schedule::random(0);
        let (velo, _) = velodrome_verdict_with_trace(&wl.program, &spec, &schedule);
        let aero = aerodrome_verdict(&wl.program, &spec, &schedule);
        assert_eq!(velo, aero, "{}: velodrome vs aerodrome", wl.name);

        let plan = ExecPlan::Det(schedule);
        let base = DcConfig::single_run(plan.coordination()).with_pipelined(true);
        let mut baseline_keys = None;
        for shards in [1u32, 2] {
            for transport in [OpTransport::Ring, OpTransport::Channel] {
                let config = base
                    .clone()
                    .with_shards(shards)
                    .with_op_transport(transport);
                let report = run_doublechecker(&wl.program, &spec, config, &plan).unwrap();
                let ctx = format!("{} shards {shards} transport {transport:?}", wl.name);
                assert_eq!(
                    velo.found(),
                    !report.violations.is_empty(),
                    "{ctx}: online checkers vs doublechecker (existence)"
                );
                assert_eq!(
                    report.pipeline_error, None,
                    "{ctx}: healthy run must not report a pipeline error"
                );
                let keys = violation_keys(&report);
                match &baseline_keys {
                    None => baseline_keys = Some(keys),
                    Some(b) => assert_eq!(b, &keys, "{ctx}: violation set drifted"),
                }
            }
        }
    }
}

/// The asynchronous analysis pipeline must be a pure performance change:
/// on the same deterministic schedule, the pipelined configuration produces
/// the same deduplicated violation set and the same static transaction
/// information as the synchronous single-run — while never taking the graph
/// mutex on application threads.
#[test]
fn pipelined_single_run_matches_synchronous_across_the_suite() {
    for wl in all(Scale::Tiny) {
        let spec = dc_core::initial_spec(&wl.program, &wl.extra_exclusions);
        for seed in 0..2u64 {
            let plan = ExecPlan::Det(Schedule::random(seed));
            let sync = run_single(&wl.program, &spec, &plan).unwrap();
            let piped = run_doublechecker(
                &wl.program,
                &spec,
                DcConfig::single_run(plan.coordination()).with_pipelined(true),
                &plan,
            )
            .unwrap();

            assert_eq!(
                violation_keys(&sync),
                violation_keys(&piped),
                "{} seed {seed}: sync vs pipelined violation sets",
                wl.name
            );
            assert_eq!(
                sync.static_info, piped.static_info,
                "{} seed {seed}: sync vs pipelined static transaction info",
                wl.name
            );
            assert_eq!(
                piped.stats.graph_locks, 0,
                "{} seed {seed}: pipelined application threads must not lock the graph",
                wl.name
            );
        }
    }
}

/// The op transport is a pure performance change: the fixed-capacity ring
/// and the legacy unbounded channel must produce identical deduplicated
/// violations, static transaction information, and statistics (modulo the
/// collector's timing-dependent reclaim count) on the same deterministic
/// schedule.
#[test]
fn ring_and_channel_transports_are_bit_identical_across_the_suite() {
    for wl in all(Scale::Tiny) {
        let spec = dc_core::initial_spec(&wl.program, &wl.extra_exclusions);
        for seed in 0..2u64 {
            let plan = ExecPlan::Det(Schedule::random(seed));
            let base = DcConfig::single_run(plan.coordination()).with_pipelined(true);
            let ring = run_doublechecker(
                &wl.program,
                &spec,
                base.clone().with_op_transport(OpTransport::Ring),
                &plan,
            )
            .unwrap();
            let chan = run_doublechecker(
                &wl.program,
                &spec,
                base.with_op_transport(OpTransport::Channel),
                &plan,
            )
            .unwrap();
            let ctx = format!("{} seed {seed}", wl.name);
            assert_eq!(
                violation_keys(&ring),
                violation_keys(&chan),
                "{ctx}: ring vs channel violations"
            );
            assert_eq!(
                ring.static_info, chan.static_info,
                "{ctx}: ring vs channel static transaction info"
            );
            assert_eq!(
                scrub_collected(ring.stats),
                scrub_collected(chan.stats),
                "{ctx}: ring vs channel stats"
            );
        }
    }
}

/// Sharding the IDG by connected component is a pure performance change:
/// shards 1 (the classic single graph owner), 2, and 4 must produce
/// identical deduplicated violations, static transaction information, and
/// statistics (modulo the per-shard collector's timing-dependent reclaim
/// count) on the same deterministic schedule.
#[test]
fn sharded_idg_is_bit_identical_across_the_suite() {
    for wl in all(Scale::Tiny) {
        let spec = dc_core::initial_spec(&wl.program, &wl.extra_exclusions);
        for seed in 0..2u64 {
            let plan = ExecPlan::Det(Schedule::random(seed));
            let base = DcConfig::single_run(plan.coordination()).with_pipelined(true);
            let run = |shards: u32| {
                run_doublechecker(&wl.program, &spec, base.clone().with_shards(shards), &plan)
                    .unwrap()
            };
            let single = run(1);
            for shards in [2u32, 4] {
                let sharded = run(shards);
                let ctx = format!("{} seed {seed} shards {shards}", wl.name);
                assert_eq!(
                    violation_keys(&single),
                    violation_keys(&sharded),
                    "{ctx}: single-owner vs sharded violations"
                );
                assert_eq!(
                    single.static_info, sharded.static_info,
                    "{ctx}: single-owner vs sharded static transaction info"
                );
                assert_eq!(
                    scrub_collected(single.stats),
                    scrub_collected(sharded.stats),
                    "{ctx}: single-owner vs sharded stats"
                );
                assert_eq!(
                    sharded.pipeline_error, None,
                    "{ctx}: healthy run must not report a pipeline error"
                );
            }
        }
    }
}

/// The Octet ownership inline cache is a pure performance change: a cache
/// hit must classify exactly the accesses the metadata word would classify
/// as same-state, so disabling the cache on the same deterministic schedule
/// — across shards ∈ {1, 2} and both op transports — must reproduce the
/// violation set, static transaction information, and statistics bit for
/// bit (modulo the collector's timing-dependent reclaim count). Both legs
/// run the one fused access kernel: cache-off is the leg whose per-thread
/// Octet handle carries no ownership-table slot, so every probe misses.
#[test]
fn barrier_cache_on_and_off_are_bit_identical_across_the_suite() {
    for wl in all(Scale::Tiny) {
        let spec = dc_core::initial_spec(&wl.program, &wl.extra_exclusions);
        for seed in 0..2u64 {
            let plan = ExecPlan::Det(Schedule::random(seed));
            let base = DcConfig::single_run(plan.coordination()).with_pipelined(true);
            for shards in [1u32, 2] {
                for transport in [OpTransport::Ring, OpTransport::Channel] {
                    let variant = base
                        .clone()
                        .with_shards(shards)
                        .with_op_transport(transport);
                    let on = run_doublechecker(
                        &wl.program,
                        &spec,
                        variant.clone().with_barrier_cache(true),
                        &plan,
                    )
                    .unwrap();
                    let off = run_doublechecker(
                        &wl.program,
                        &spec,
                        variant.with_barrier_cache(false),
                        &plan,
                    )
                    .unwrap();
                    let ctx = format!(
                        "{} seed {seed} shards {shards} transport {transport:?}",
                        wl.name
                    );
                    assert_eq!(
                        violation_keys(&on),
                        violation_keys(&off),
                        "{ctx}: cache-on vs cache-off violations"
                    );
                    assert_eq!(
                        on.static_info, off.static_info,
                        "{ctx}: cache-on vs cache-off static transaction info"
                    );
                    assert_eq!(
                        scrub_collected(on.stats),
                        scrub_collected(off.stats),
                        "{ctx}: cache-on vs cache-off stats"
                    );
                    assert_eq!(
                        off.pipeline_error, None,
                        "{ctx}: healthy run must not report a pipeline error"
                    );
                }
            }
        }
    }
}

/// Observability is a pure observer: with every instrumentation site live
/// (`ObsLevel::Full`) the analysis artefacts — violations, static
/// transaction information, statistics — are identical to the
/// uninstrumented (`ObsLevel::Off`) run on the same deterministic schedule,
/// in both the synchronous and the pipelined configuration.
#[test]
fn observability_full_vs_off_is_bit_identical_across_the_suite() {
    use dc_core::ObsLevel;
    for wl in all(Scale::Tiny) {
        let spec = dc_core::initial_spec(&wl.program, &wl.extra_exclusions);
        for seed in 0..2u64 {
            for pipelined in [false, true] {
                let plan = ExecPlan::Det(Schedule::random(seed));
                let base = DcConfig::single_run(plan.coordination()).with_pipelined(pipelined);
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
                let ctx = format!("{} seed {seed} pipelined {pipelined}", wl.name);
                assert!(off.pipeline.is_none(), "{ctx}: off must report nothing");
                assert!(full.pipeline.is_some(), "{ctx}: full must report");
                if pipelined {
                    // Replay-pool workers race for SCCs, so which dynamic
                    // instance represents each deduplicated violation — and
                    // the collector's timing-dependent reclaim count — may
                    // differ between runs; the violation *set* (by static
                    // key) and everything else must match bit for bit.
                    assert_eq!(
                        violation_keys(&off),
                        violation_keys(&full),
                        "{ctx}: violations"
                    );
                    assert_eq!(
                        scrub_collected(off.stats),
                        scrub_collected(full.stats),
                        "{ctx}: stats"
                    );
                } else {
                    assert_eq!(off.violations, full.violations, "{ctx}: violations");
                    assert_eq!(off.stats, full.stats, "{ctx}: stats");
                }
                assert_eq!(off.static_info, full.static_info, "{ctx}: static info");
            }
        }
    }
}

/// The oracle also validates the blame direction on a canonical case.
#[test]
fn oracle_blames_the_cycle_completer() {
    use dc_runtime::ids::{MethodId, ObjId, ThreadId};
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
    let report = analyze_trace(
        &events,
        &dc_runtime::spec::AtomicitySpec::all_atomic(),
        OfflineConfig::default(),
    );
    assert_eq!(report.violations.len(), 1);
    assert_eq!(
        report.violations[0].blamed_methods(),
        vec![MethodId(0)],
        "the transaction whose outgoing edge came first is blamed"
    );
}

/// AeroDrome agrees with the offline oracle on the canonical blame case:
/// the same two-transaction interleaving, executed for real, blames the
/// transaction whose outgoing edge came first.
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
