//! AeroDrome is Velodrome's checker with the vector-clock filter, so its
//! hooks need no tests of their own (`dc-velodrome`'s cover them); what
//! needs testing is that the filter changes nothing but how a cycle is
//! found. Checker level: on one deterministic schedule both report the same
//! violations, blame, edges and instrumentation counts, across the programs
//! and configurations of `dc-velodrome`'s hook tests. Graph level: on random
//! begin / edge / collect streams `VGraph<()>` and `VGraph<ClockGraph>`
//! agree on every result.

use dc_aerodrome::{AeroConfig, AeroDrome, ClockGraph};
use dc_runtime::checker::Checker;
use dc_runtime::engine::det::{run_det, Schedule};
use dc_runtime::heap::{Heap, ObjKind};
use dc_runtime::ids::{MethodId, ThreadId};
use dc_runtime::program::{Op, Program, ProgramBuilder};
use dc_runtime::spec::{AtomicitySpec, TxFilter, TxKind};
use dc_velodrome::{CycleFilter, Online, OnlineConfig, VGraph, VTxId, Variant};
use proptest::prelude::*;
use std::sync::atomic::Ordering;

/// Two threads each run an atomic method that writes then reads a shared
/// field; interleavings where the accesses interleave produce a cycle.
fn racy_program() -> Program {
    let mut b = ProgramBuilder::new();
    let o = b.object(ObjKind::Plain { fields: 2 });
    let m0 = b.method("alpha", vec![Op::Write(o, 0), Op::Read(o, 1)]);
    let m1 = b.method("beta", vec![Op::Write(o, 1), Op::Read(o, 0)]);
    let t0 = b.method("t0", vec![Op::Call(m0)]);
    let t1 = b.method("t1", vec![Op::Call(m1)]);
    b.thread(t0);
    b.thread(t1);
    b.build().unwrap()
}

/// The racy program's accesses under one lock, `calls` calls per thread:
/// serializable, so the sync edges must order the transactions one way.
fn locked_program(calls: u32) -> Program {
    let mut b = ProgramBuilder::new();
    let o = b.object(ObjKind::Plain { fields: 2 });
    let lock = b.object(ObjKind::Monitor);
    let critical = |w, r| {
        vec![
            Op::Acquire(lock),
            Op::Write(o, w),
            Op::Read(o, r),
            Op::Release(lock),
        ]
    };
    let m0 = b.method("alpha", critical(0, 1));
    let m1 = b.method("beta", critical(1, 0));
    for (name, m) in [("t0", m0), ("t1", m1)] {
        let body = vec![Op::Loop {
            count: calls,
            body: vec![Op::Call(m)],
        }];
        let t = b.method(name, body);
        b.thread(t);
    }
    b.build().unwrap()
}

fn array_program() -> Program {
    let mut b = ProgramBuilder::new();
    let a = b.object(ObjKind::Array { len: 16 });
    let m = b.method("arr", vec![Op::ArrayWrite(a, 3), Op::ArrayRead(a, 3)]);
    b.thread(m);
    b.build().unwrap()
}

fn excluding_thread_bodies(p: &Program) -> AtomicitySpec {
    AtomicitySpec::excluding([
        p.method_by_name("t0").unwrap(),
        p.method_by_name("t1").unwrap(),
    ])
}

/// Everything one run reports: violation keys and blame, cross edges, and
/// the run statistics (transactions, instrumented, skipped, collected).
type Observed = (
    Vec<Vec<Option<MethodId>>>,
    Vec<Vec<MethodId>>,
    u64,
    [u64; 4],
);

fn observe<C: CycleFilter>(
    p: &Program,
    spec: &AtomicitySpec,
    config: &OnlineConfig,
    schedule: &Schedule,
) -> Observed {
    let checker = Online::<C>::new(p.threads.len(), spec.clone(), config.clone());
    run_det(p, &checker, schedule).unwrap();
    let violations = checker.violations();
    let s = checker.stats();
    let load = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
    (
        violations.iter().map(|v| v.static_key()).collect(),
        violations
            .iter()
            .map(|v| v.blamed_methods.clone())
            .collect(),
        checker.cross_edges(),
        [
            load(&s.transactions),
            load(&s.instrumented),
            load(&s.skipped_unsound),
            load(&s.collected_txs),
        ],
    )
}

/// The load-bearing differential property at crate level: on the same
/// deterministic interleaving, AeroDrome and Velodrome agree on the
/// deduplicated violation set, on blame, on the edges they added and on
/// what they instrumented — under every configuration value.
#[test]
fn matches_velodrome_bit_for_bit_on_deterministic_runs() {
    let t = ThreadId;
    // t0 enters+writes, t1 enters+writes+reads, t0 reads: a cycle.
    let interleaved = Schedule::Scripted(vec![t(0), t(0), t(0), t(1), t(1), t(1), t(1), t(0)]);
    let mut schedules = vec![interleaved, Schedule::RoundRobin { quantum: 1000 }];
    schedules.extend((0..20).map(Schedule::random));

    let default = OnlineConfig::default();
    let unsound = OnlineConfig {
        variant: Variant::Unsound,
        ..OnlineConfig::default()
    };
    let second_run = OnlineConfig {
        filter: TxFilter {
            methods: Some(std::collections::BTreeSet::new()),
            instrument_unary: false,
        },
        ..OnlineConfig::default()
    };
    let arrays = OnlineConfig {
        instrument_arrays: true,
        ..OnlineConfig::default()
    };
    let (racy, locked, array) = (racy_program(), locked_program(20), array_program());
    let cases = [
        ("racy", &racy, &default),
        ("racy, unsound", &racy, &unsound),
        ("racy, second run", &racy, &second_run),
        ("locked", &locked, &default),
        ("locked, unsound", &locked, &unsound),
        ("arrays off", &array, &default),
        ("arrays on", &array, &arrays),
    ];
    for (what, p, config) in cases {
        let spec = if p.threads.len() == 2 {
            excluding_thread_bodies(p)
        } else {
            AtomicitySpec::all_atomic()
        };
        for schedule in &schedules {
            if matches!(schedule, Schedule::Scripted(_)) && !std::ptr::eq(p, &racy) {
                continue; // the script is the racy program's
            }
            assert_eq!(
                observe::<()>(p, &spec, config, schedule),
                observe::<ClockGraph>(p, &spec, config, schedule),
                "{what}, {schedule:?}"
            );
        }
    }
}

/// The `MetaTable` is laid out for one heap, and the message names the
/// checker that was misused.
#[test]
#[should_panic(expected = "AeroDrome is single-run: run_begin called twice")]
fn second_run_begin_panics_naming_aerodrome() {
    let a = AeroDrome::new(1, AtomicitySpec::all_atomic(), AeroConfig::default());
    let heap = Heap::new(&[ObjKind::Plain { fields: 2 }], 1);
    a.run_begin(&heap);
    a.run_begin(&heap);
}

#[test]
fn real_engine_concurrent_run_is_safe() {
    let p = locked_program(300);
    let a = AeroDrome::new(2, excluding_thread_bodies(&p), AeroConfig::default());
    dc_runtime::engine::real::run_real(&p, &a);
    // Sanity: instrumentation ran (four accesses per call) and the clocks
    // stayed consistent.
    assert!(a.stats().instrumented.load(Ordering::Relaxed) >= 2 * 300 * 4);
    let _ = a.violations();
}

/// A random graph stream over 2–4 threads, as the checker produces one:
/// `(op, a, b, c)` with op 0 = thread `a` begins a transaction (unary or a
/// regular call of one of five methods, by `b`), 1 = a cross edge from a
/// transaction of another thread (picked by `b`, `c`; possibly collected)
/// into thread `a`'s current one, 2 = a collection (its roots are the
/// unfinished transactions: every thread's current one).
fn streams() -> impl Strategy<Value = (usize, Vec<(u8, u16, u16, u16)>)> {
    let op = (0u8..3, any::<u16>(), any::<u16>(), any::<u16>());
    (2usize..5, prop::collection::vec(op, 1..200))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The clocks answer "did this edge close a cycle?" exactly as the DFS
    /// does: identical violations (cycle members and blame), cross edges,
    /// cycles and collected counts, with the DFS behind the clocks running
    /// only on a cycle.
    #[test]
    fn clock_filter_matches_the_dfs_on_random_streams((threads, ops) in streams()) {
        let mut velo = VGraph::<()>::new(threads);
        let mut aero = VGraph::<ClockGraph>::new(threads);
        let mut seq = vec![0u64; threads];
        let tx = |t: usize, s: u64| VTxId::new(ThreadId(t as u16), s);
        for &(op, a, b, c) in &ops {
            let t = usize::from(a) % threads;
            match op {
                0 => {
                    let prev = if seq[t] > 0 { tx(t, seq[t]) } else { VTxId::NONE };
                    seq[t] += 1;
                    let kind = match b % 6 {
                        0 => TxKind::Unary,
                        m => TxKind::Regular(MethodId(u32::from(m))),
                    };
                    velo.begin(tx(t, seq[t]), kind, prev);
                    aero.begin(tx(t, seq[t]), kind, prev);
                }
                1 => {
                    let u = (t + 1 + usize::from(b) % (threads - 1)) % threads;
                    if seq[t] > 0 && seq[u] > 0 {
                        let src = tx(u, 1 + u64::from(c) % seq[u]);
                        let dst = tx(t, seq[t]);
                        prop_assert_eq!(
                            velo.add_cross_edge(src, dst),
                            aero.add_cross_edge(src, dst),
                            "edge {:?} → {:?}", src, dst
                        );
                    }
                }
                _ => prop_assert_eq!(velo.collect(), aero.collect()),
            }
        }
        prop_assert_eq!(velo.cross_edges, aero.cross_edges);
        prop_assert_eq!(velo.cycles, aero.cycles);
        prop_assert_eq!(velo.len(), aero.len());
    }
}
