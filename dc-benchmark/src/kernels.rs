//! Micro-kernels: the per-operation costs under the ladder, timed by calling
//! each layer's public functions directly. They do not depend on the
//! workload; every per-layer run re-times them with the same harness, so a
//! kernel that moves explains a rung that moves.

use dc_icd::graph::{Graph, SccProbe};
use dc_icd::{Edge, EdgeKind, Icd, IcdConfig, LogEntry, TxId, TxKind};
use dc_octet::{CoordinationMode, NullSink, Protocol};
use dc_pcd::replay_scc;
use dc_runtime::heap::{Heap, ObjKind};
use dc_runtime::ids::{ObjId, ThreadId};
use dc_velodrome::{MetaTable, VTxId};
use std::hint::black_box;
use std::time::Instant;

/// Batches per kernel; the reported value is the gated one (the minimum).
const BATCHES: usize = 5;

/// Times `batch` [`BATCHES`] times; returns ns per operation, `ops` being the
/// operations one batch performs.
fn per_op(ops: u64, mut batch: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            batch();
            start.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    crate::stats::gated(&samples)
}

/// Every kernel as `(metric name, ns per operation)`.
pub fn run() -> Vec<(&'static str, f64)> {
    const N: u64 = 50_000;
    let (t0, t1) = (ThreadId(0), ThreadId(1));
    let mut out = Vec::new();

    // Octet: the uncached same-state fast path, the inline-cache hit, and a
    // conflicting transition under immediate coordination (two threads take
    // one object from each other in turn).
    for (name, cache) in [("octet.fast_path_ns", false), ("octet.cache_hit_ns", true)] {
        let p = Protocol::with_config(1, 2, CoordinationMode::Immediate, NullSink, None, cache);
        p.thread_begin(t0);
        p.write_barrier(t0, ObjId(0));
        out.push((
            name,
            per_op(N, || {
                for _ in 0..N {
                    black_box(p.write_barrier(black_box(t0), black_box(ObjId(0))));
                }
            }),
        ));
    }
    let p = Protocol::new(1, 2, CoordinationMode::Immediate, NullSink);
    p.thread_begin(t0);
    p.thread_begin(t1);
    out.push((
        "octet.conflict_immediate_ns",
        per_op(N, || {
            for _ in 0..N / 2 {
                black_box(p.write_barrier(t0, ObjId(0)));
                black_box(p.write_barrier(t1, ObjId(0)));
            }
        }),
    ));

    // Velodrome: one metadata lock round trip.
    let heap = Heap::new(&[ObjKind::Plain { fields: 4 }], 2);
    let meta = MetaTable::new(&heap);
    let slot = meta.slot(ObjId(0), 0);
    out.push((
        "velodrome.meta_lock_ns",
        per_op(N, || {
            for _ in 0..N {
                meta.lock(slot);
                let w = meta.writer(slot);
                meta.set_writer(slot, VTxId::new(t0, 1));
                meta.unlock(slot);
                black_box(w);
            }
        }),
    ));

    // ICD: a logged access to a fresh field, and one duplicate elision drops.
    const FIELDS: u32 = 4096;
    for (name, distinct) in [
        ("icd.record_access_ns", true),
        ("icd.record_access_elided_ns", false),
    ] {
        out.push((
            name,
            per_op(u64::from(FIELDS), || {
                let icd = Icd::new(1, IcdConfig::default());
                icd.thread_begin(t0);
                icd.record_access(t0, ObjId(0), 0, true, false, false);
                for f in 1..=FIELDS {
                    let (obj, cell) = if distinct { (f / 64, f % 64) } else { (0, 0) };
                    icd.record_access(t0, ObjId(obj), cell, f % 2 == 0, false, false);
                }
                black_box(&icd);
            }),
        ));
    }

    // The IDG: a synthetic op stream of two threads whose transactions form
    // 2-cycles pairwise; then SCC probes; then the collector (build included:
    // it needs a fresh graph, and `icd.graph_op_ns` says what building costs).
    const TXS: u64 = 5_000;
    let cross = |src: u64, dst: u64| Edge {
        src: TxId(src),
        src_pos: 1,
        dst: TxId(dst),
        dst_pos: 0,
        kind: EdgeKind::Cross,
    };
    let build = |intra: bool| {
        let mut g = Graph::new();
        for id in 1..=TXS {
            let thread = ThreadId((id % 2) as u16);
            g.insert(TxId(id), thread, TxKind::Unary, id / 2);
            if intra && id > 2 {
                g.add_edge(Edge {
                    kind: EdgeKind::Intra,
                    ..cross(id - 2, id)
                });
            }
            if id % 2 == 0 {
                g.add_edge(cross(id - 1, id));
                g.add_edge(cross(id, id - 1));
            }
        }
        for id in 1..=TXS {
            let log = vec![LogEntry::new(ObjId(id as u32 % 8), 0, id % 2 == 0, false)];
            g.finish(TxId(id), log).expect("each tx finishes once");
        }
        g
    };
    // insert + intra edge + cross edge + finish per transaction.
    out.push((
        "icd.graph_op_ns",
        per_op(4 * TXS, || drop(black_box(build(true)))),
    ));
    // Probed without the program-order edges, which would chain the pairs
    // into one SCC of every transaction: each probe finds its own 2-cycle.
    let mut graph = build(false);
    out.push((
        "icd.scc_probe_ns",
        per_op(TXS, || {
            for id in 1..=TXS {
                black_box(matches!(graph.scc_probe(TxId(id)), SccProbe::Cycle(_)));
            }
        }),
    ));
    out.push((
        "icd.collect_ns_per_tx",
        per_op(TXS, || {
            let mut g = build(true);
            black_box(g.collect([TxId(TXS), TxId(TXS - 1)]));
        }),
    ));

    // PCD: replay of a ring SCC — 64 transactions on two threads, each
    // depending on the next and the last on the first, 256 log entries each.
    const RING: u64 = 64;
    const LOG: u32 = 256;
    let mut g = Graph::new();
    for id in 1..=RING {
        g.insert(TxId(id), ThreadId((id % 2) as u16), TxKind::Unary, id);
    }
    for id in 1..=RING {
        g.add_edge(cross(id, id % RING + 1));
    }
    for id in 1..=RING {
        let log = (0..LOG)
            .map(|i| LogEntry::new(ObjId(id as u32), i, i % 2 == 0, false))
            .collect();
        g.finish(TxId(id), log).expect("each tx finishes once");
    }
    let ring = g.scc_from(TxId(RING)).expect("the ring is one SCC");
    out.push((
        "pcd.replay_ns_per_entry",
        per_op(RING * u64::from(LOG), || {
            black_box(replay_scc(black_box(&ring)));
        }),
    ));
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_kernel_reports_a_positive_time() {
        let kernels = super::run();
        assert_eq!(kernels.len(), 10);
        for (name, ns) in kernels {
            assert!(ns > 0.0 && ns.is_finite(), "{name} = {ns}");
        }
    }
}
