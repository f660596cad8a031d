//! The transaction collector vs. the analysis it cleans up after.
//!
//! The collector runs inside the transaction boundary's critical section
//! while other threads' edge procedures queue for the same lock. A pass
//! must never reclaim a transaction in a way that changes the analysis:
//! with the collection cadence forced to its most aggressive setting, the
//! run must still match a run that never collects.

use dc_core::{run_doublechecker, DcConfig, ExecPlan, ObsLevel};
use dc_runtime::engine::det::Schedule;
use dc_runtime::heap::ObjKind;
use dc_runtime::program::{Op, Program, ProgramBuilder};
use dc_runtime::spec::AtomicitySpec;
use dc_workloads::{by_name, Scale};
use doublechecker_repro as _;
use proptest::prelude::*;
use std::collections::HashSet;

/// A `DcConfig` that runs the collector every `collect_every` transaction
/// ends: 1 is a pass at every boundary, 0 never collects.
fn cadence(plan: &ExecPlan, collect_every: u32) -> DcConfig {
    let mut config = DcConfig::single_run(plan.coordination());
    config.collect_every = collect_every;
    config
}

/// Real OS threads, collector on every finish: Octet coordination adds
/// cross edges from arbitrary threads between collector passes. The run
/// must actually exercise collection and replay every SCC it hands to PCD
/// — unobserved, and at `Full`, whose clocks and trace events sit on the
/// same paths.
#[test]
fn aggressive_collection_is_stable_under_real_threads() {
    let wl = by_name("tsp", Scale::Tiny).unwrap();
    let spec = dc_core::initial_spec(&wl.program, &wl.extra_exclusions);
    for round in 0..8 {
        let level = [ObsLevel::Off, ObsLevel::Full][round % 2];
        let report = run_doublechecker(
            &wl.program,
            &spec,
            cadence(&ExecPlan::Real, 1).with_observability(level),
            &ExecPlan::Real,
        )
        .unwrap();
        assert!(report.stats.collected_txs > 0, "collector never ran");
        assert_eq!(report.pipeline.is_some(), level == ObsLevel::Full);
        if let Some(p) = report.pipeline {
            assert_eq!(
                p.replay.latency.count, report.stats.sccs_to_pcd,
                "an SCC handed to PCD was not replayed (round {round})"
            );
            assert!(p.graph.collect_latency.count > 0, "no collector pass timed");
        }
    }
}

/// One primitive op of a generated atomic method. The mix is chosen to
/// provoke every edge-producing Octet transition: plain reads/writes create
/// conflicting (Cross) and upgrading transitions, the lock section adds
/// fence-heavy read-shared traffic.
#[derive(Clone, Debug)]
enum GenOp {
    Read(u8, u8),
    Write(u8, u8),
    Compute(u8),
    LockedRmw(u8),
}

fn gen_method() -> impl Strategy<Value = Vec<GenOp>> {
    prop::collection::vec(
        prop_oneof![
            (0u8..2, 0u8..2).prop_map(|(o, f)| GenOp::Read(o, f)),
            (0u8..2, 0u8..2).prop_map(|(o, f)| GenOp::Write(o, f)),
            (1u8..20).prop_map(GenOp::Compute),
            (0u8..2).prop_map(GenOp::LockedRmw),
        ],
        1..6,
    )
}

fn gen_program() -> impl Strategy<Value = (Vec<Vec<GenOp>>, usize, u8)> {
    (
        prop::collection::vec(gen_method(), 2..5),
        2usize..4, // threads
        1u8..6,    // loop iterations
    )
}

fn build(methods: &[Vec<GenOp>], threads: usize, iters: u8) -> (Program, AtomicitySpec) {
    let mut b = ProgramBuilder::new();
    let shared: Vec<_> = (0..2)
        .map(|_| b.object(ObjKind::Plain { fields: 2 }))
        .collect();
    let lock = b.object(ObjKind::Monitor);
    let method_ids: Vec<_> = methods
        .iter()
        .enumerate()
        .map(|(i, ops)| {
            let body: Vec<Op> = ops
                .iter()
                .flat_map(|op| match *op {
                    GenOp::Read(o, f) => vec![Op::Read(shared[o as usize], u32::from(f))],
                    GenOp::Write(o, f) => vec![Op::Write(shared[o as usize], u32::from(f))],
                    GenOp::Compute(u) => vec![Op::Compute(u32::from(u))],
                    GenOp::LockedRmw(o) => vec![
                        Op::Acquire(lock),
                        Op::Read(shared[o as usize], 0),
                        Op::Write(shared[o as usize], 0),
                        Op::Release(lock),
                    ],
                })
                .collect();
            b.method(format!("gen{i}"), body)
        })
        .collect();
    let mut entries = Vec::new();
    for t in 0..threads {
        let body = vec![Op::Loop {
            count: u32::from(iters),
            body: method_ids
                .iter()
                .enumerate()
                .filter(|(k, _)| (k + t) % 2 == 0 || threads == 2)
                .map(|(_, &m)| Op::Call(m))
                .collect(),
        }];
        entries.push(b.method(format!("entry{t}"), body));
    }
    for &e in &entries {
        b.thread(e);
    }
    let program = b.build().expect("generated program is valid");
    let spec = AtomicitySpec::excluding(entries);
    (program, spec)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// On any generated program and schedule, collecting after *every*
    /// finish changes nothing: the run matches one that never collects —
    /// violations, static transaction info, SCCs.
    #[test]
    fn racing_collector_matches_synchronous((methods, threads, iters) in gen_program(), seed in 0u64..1000) {
        let (program, spec) = build(&methods, threads, iters);
        let plan = ExecPlan::Det(Schedule::random(seed));
        let never = run_doublechecker(&program, &spec, cadence(&plan, 0), &plan)
            .expect("run without collection");
        let every = run_doublechecker(&program, &spec, cadence(&plan, 1), &plan)
            .expect("run collecting at every finish");
        let never_keys: HashSet<_> = never.violations.iter().map(|v| v.static_key()).collect();
        let every_keys: HashSet<_> = every.violations.iter().map(|v| v.static_key()).collect();
        prop_assert_eq!(never_keys, every_keys, "violation sets diverge");
        prop_assert_eq!(&never.static_info, &every.static_info, "static info diverges");
        prop_assert_eq!(never.stats.collected_txs, 0u64, "cadence 0 collected");
        // Cycle-relevant state must be identical (SCCs cannot be lost), but
        // the raw cross-edge count may run lower when collecting: an edge
        // whose source was already collected — possible only once that
        // source is finished, unreachable, and provably outside any future
        // cycle — is dropped.
        prop_assert_eq!(never.stats.icd_sccs, every.stats.icd_sccs, "SCCs lost or invented");
        prop_assert!(
            every.stats.idg_cross_edges <= never.stats.idg_cross_edges,
            "collection invented cross edges ({} > {})",
            every.stats.idg_cross_edges,
            never.stats.idg_cross_edges
        );
    }
}
