//! Steady-state allocation freedom: once the slab, the two arenas and the
//! epoch-stamped scratch arrays are warm, cycle probes that find no cycle
//! and collector runs that reclaim nothing must not touch the heap at all
//! (`Graph::scc_from` allocates the report of a cycle it finds; a
//! transaction boundary writes it into a recycled one). A warm transaction
//! boundary allocates nothing: a finished log is copied into the graph's
//! log arena, and an SCC it closes is written into the buffers of the last
//! report handed back on this thread.

use dc_icd::graph::Graph;
use dc_icd::{Edge, EdgeKind, Icd, IcdConfig, LogEntry, TxId, TxKind};
use dc_runtime::ids::{MethodId, ObjId, ThreadId};

#[path = "../../../tests/common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations;

fn cross(src: u64, dst: u64) -> Edge {
    Edge {
        src: TxId(src),
        src_pos: 0,
        dst: TxId(dst),
        dst_pos: 0,
        kind: EdgeKind::Cross,
    }
}

#[test]
fn warm_scc_probe_and_collect_do_not_allocate() {
    let n = 64u64;
    let mut g = Graph::new();
    for i in 1..=n {
        g.insert(TxId(i), ThreadId((i % 4) as u16), TxKind::Unary, i);
    }
    // A long chain: every interior node has both an incoming and an
    // outgoing edge, so probes run full Tarjan traversals (not the trivial
    // pre-filter) yet never find a cycle.
    for i in 1..n {
        g.add_edge(cross(i, i + 1));
    }
    for i in 1..=n {
        g.finish(TxId(i), vec![]).unwrap();
    }

    // Warm-up: size the stamp arrays, DFS stack, and mark scratch.
    for i in 1..=n {
        assert!(g.scc_from(TxId(i)).is_none(), "a chain has no cycle");
    }
    g.collect([TxId(1)]); // everything reachable from the chain head survives

    let before = allocations();
    for _ in 0..100 {
        for i in 1..=n {
            g.scc_from(TxId(i));
        }
    }
    assert_eq!(
        allocations(),
        before,
        "steady-state scc_from must be allocation-free"
    );

    let before = allocations();
    for _ in 0..100 {
        g.collect([TxId(1)]);
    }
    assert_eq!(
        allocations(),
        before,
        "a collector run reclaiming nothing must be allocation-free"
    );
}

#[test]
fn warm_sync_boundary_does_not_allocate() {
    const ENTRIES: u32 = 48;
    let icd = Icd::new(
        1,
        IcdConfig {
            collect_every: 8, // slots recycle, so the slab stops growing
            ..IcdConfig::default()
        },
    );
    let t = ThreadId(0);
    icd.thread_begin(t);
    // One atomic-method call: the first boundary inserts the regular
    // transaction after the previous one (the unary transaction between
    // them stayed pending), the second ends it with its log.
    let call = |entries: u32| {
        icd.begin_regular(t, MethodId(0));
        let at_begin = allocations();
        for cell in 0..entries {
            icd.record_access(t, ObjId(0), cell, true, false, false);
        }
        let logged = allocations();
        icd.end_regular(t);
        (at_begin, logged, allocations())
    };
    // Warm-up: the slab, the id map, the log arena, the collector's
    // scratch, the elision table and the thread's log buffer reach their
    // steady-state sizes.
    for _ in 0..256 {
        call(ENTRIES);
    }
    for round in 0..64 {
        let before = allocations();
        let (at_begin, logged, at_end) = call(ENTRIES);
        assert_eq!(
            at_begin, before,
            "round {round}: a boundary retaining no log must not allocate"
        );
        assert_eq!(
            logged, at_begin,
            "round {round}: the log buffer kept its capacity across the boundary"
        );
        assert_eq!(
            at_end, logged,
            "round {round}: ending a {ENTRIES}-entry log copies it into the warm arena"
        );
        let before = allocations();
        let (.., at_end) = call(0);
        assert_eq!(
            at_end, before,
            "round {round}: an empty call allocates nothing"
        );
    }
    icd.thread_end(t);
}

/// One warm round in which a transaction with a non-empty log ends and
/// closes an SCC: two atomic calls on two threads take an object from each
/// other, and the second end reports the 2-cycle. With the report handed
/// back (`SccReport::recycle`), the round makes no allocator call.
#[test]
fn warm_boundary_closing_an_scc_does_not_allocate() {
    let icd = Icd::new(2, IcdConfig::default());
    let (t0, t1) = (ThreadId(0), ThreadId(1));
    icd.thread_begin(t0);
    icd.thread_begin(t1);
    let round = || {
        icd.begin_regular(t0, MethodId(0));
        icd.begin_regular(t1, MethodId(1));
        icd.record_access(t0, ObjId(0), 0, true, false, false);
        icd.handle_conflicting(t0, t1);
        icd.record_access(t1, ObjId(0), 1, true, false, true);
        icd.handle_conflicting(t1, t0);
        icd.record_access(t0, ObjId(0), 2, false, false, true);
        assert!(icd.end_regular(t0).is_none(), "t1's transaction is open");
        let scc = icd.end_regular(t1).expect("the two calls form a cycle");
        assert_eq!((scc.len(), scc.entries.len()), (2, 3));
        scc.recycle();
    };
    for _ in 0..256 {
        round();
    }
    let sccs = icd.scc_count();
    let before = allocations();
    for _ in 0..64 {
        round();
    }
    assert_eq!(allocations(), before, "a warm SCC-closing round allocates");
    assert_eq!(icd.scc_count(), sccs + 64);
    assert!(icd.collected_txs() > 0, "the rounds ran collector passes");
}

/// A *cold* graph allocates only by amortized growth — of the slab, the
/// edge and log arenas and the id map (Tarjan's per-slot records grow at
/// the first probe) — never per node, per edge or per log: 40 allocator
/// calls here. (Per-node edge vectors made 5 020, and an exact-size copy
/// per log 1 000 more.)
#[test]
fn cold_graph_allocates_only_by_amortized_growth() {
    const N: u64 = 1_000;
    // Built before counting: the graph copies each log into its arena.
    let mut logs: Vec<Vec<LogEntry>> = (0..N)
        .map(|i| vec![LogEntry::new(ObjId(i as u32), 0, true, false)])
        .collect();
    let before = allocations();
    let mut g = Graph::new();
    for i in 1..=N {
        g.insert(TxId(i), ThreadId((i % 4) as u16), TxKind::Unary, i);
    }
    for i in 0..N {
        for hop in [1, 7, 31, 211] {
            g.add_edge(cross(i + 1, (i + hop) % N + 1));
        }
        g.add_edge(Edge {
            kind: EdgeKind::Intra,
            ..cross(i + 1, (i + 4) % N + 1)
        });
    }
    for i in 1..=N {
        g.finish(TxId(i), logs.pop().expect("one log per node"))
            .unwrap();
    }
    assert_eq!(g.cross_edges(), 4 * N);
    assert_eq!(g.edge_arena_len() as u64, 5 * N);
    assert_eq!(g.log_arena_len() as u64, N);
    let calls = allocations() - before;
    assert!(calls <= 64, "{calls} allocator calls for a cold graph");
}

/// Allocator calls of a *cold* `Icd` driven through `calls` atomic-method
/// calls on two threads, one conflicting transition per call.
fn cold_icd_allocations(calls: u32) -> u64 {
    let (t0, t1) = (ThreadId(0), ThreadId(1));
    let before = allocations();
    let icd = Icd::new(2, IcdConfig::default());
    icd.thread_begin(t0);
    icd.thread_begin(t1);
    for i in 0..calls {
        let (t, other) = if i % 2 == 0 { (t0, t1) } else { (t1, t0) };
        icd.begin_regular(t, MethodId(0));
        icd.record_access(t, ObjId(0), 0, true, false, false);
        icd.handle_conflicting(other, t);
        icd.end_regular(t);
    }
    icd.thread_end(t0);
    icd.thread_end(t1);
    assert_eq!(icd.cross_edges(), u64::from(calls));
    allocations() - before
}

/// A cold `Icd` allocates O(log n) times — growth steps of its buffers and
/// arenas, nothing per call: doubling the call count adds a handful.
#[test]
fn cold_icd_allocates_only_by_growth() {
    const CALLS: u32 = 128;
    // Measured: 42 at 128 calls, 46 at 256.
    let small = cold_icd_allocations(CALLS);
    let large = cold_icd_allocations(2 * CALLS);
    assert!(small <= 64, "{small} allocator calls for {CALLS} calls");
    assert!(
        large - small <= 8,
        "doubling the calls added {} allocator calls",
        large - small
    );
}
