//! Steady-state allocation freedom: once the slab and the epoch-stamped
//! scratch arrays are warm, cycle probes that find no cycle and collector
//! runs that reclaim nothing must not touch the heap at all. (A probe that
//! *does* find a cycle necessarily allocates its `SccReport`.) The same
//! holds for the whole pipelined enqueue→apply path: pooled batches over
//! the fixed-capacity ring, the reorder scoreboard, and the graph-owner
//! apply loop. And a warm synchronous transaction boundary allocates
//! exactly what it retains: nothing for an empty log, one exact-size
//! `Arc<[LogEntry]>` for a non-empty one.

use dc_icd::graph::Graph;
use dc_icd::{Edge, EdgeKind, Icd, IcdConfig, PipelineMode, TxId, TxKind};
use dc_obs::{ObsLevel, PipelineObs};
use dc_runtime::ids::{MethodId, ObjId, ThreadId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

struct CountingAlloc;

thread_local! {
    // const-init: a lazily-initialized thread_local would itself allocate
    // on first use, recursing into the allocator under measurement.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Process-wide allocation count: the pipelined test must also see the
/// graph-owner thread's allocations, which a thread-local cannot.
static GLOBAL_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Serializes the tests in this file: the global counter would otherwise
/// pick up a concurrently running sibling's allocations.
static SERIAL: Mutex<()> = Mutex::new(());

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        GLOBAL_ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        GLOBAL_ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.with(|c| c.get())
}

fn global_allocations() -> u64 {
    GLOBAL_ALLOCS.load(Ordering::Relaxed)
}

fn cross(src: u64, dst: u64) -> Edge {
    Edge {
        src: TxId(src),
        src_pos: 0,
        dst: TxId(dst),
        dst_pos: 0,
        kind: EdgeKind::Cross,
    }
}

/// One round of pipelined work: two threads each run a regular transaction,
/// with one cross-thread coordination event between them. Every hook flushes
/// through the op ring; both transactions finish, so the collector keeps the
/// graph bounded.
fn pipelined_round(icd: &Icd, t0: ThreadId, t1: ThreadId) {
    icd.begin_regular(t0, MethodId(0));
    icd.begin_regular(t1, MethodId(1));
    icd.handle_conflicting(t0, t1);
    icd.end_regular(t0);
    icd.end_regular(t1);
}

/// Spins until the graph owner has applied everything enqueued so far.
fn await_drain(obs: &PipelineObs) {
    let target = obs.graph.ops_enqueued.get();
    while obs.graph.ops_applied.get() < target {
        std::hint::spin_loop();
    }
}

#[test]
fn warm_pipelined_enqueue_apply_path_does_not_allocate() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let obs = PipelineObs::new(ObsLevel::Counters).expect("counters level");
    // Logging off (the first-run configuration): op payloads are empty logs,
    // so the steady state exercises the transport, the reorder scoreboard,
    // slab reuse, SCC probes, and the collector — and none of it may touch
    // the heap once warm.
    let icd = Icd::with_observability(
        2,
        IcdConfig {
            logging: false,
            collect_every: 8,
            pipeline: PipelineMode::Pipelined,
            ..IcdConfig::default()
        },
        None,
        Some(std::sync::Arc::clone(&obs)),
    );
    let (t0, t1) = (ThreadId(0), ThreadId(1));
    icd.thread_begin(t0);
    icd.thread_begin(t1);

    // Warm-up: fill the batch pool, size the ring/reorder/slab/scratch, and
    // reach the collector's steady state.
    for _ in 0..512 {
        pipelined_round(&icd, t0, t1);
    }
    await_drain(&obs);

    // The apply loop runs on the owner thread concurrently with our sends,
    // so measure whole enqueue→apply windows; allow a couple of retries for
    // one-off lazy initialization that the warm-up happened not to reach.
    let mut best = u64::MAX;
    for _ in 0..3 {
        let before = global_allocations();
        for _ in 0..256 {
            pipelined_round(&icd, t0, t1);
        }
        await_drain(&obs);
        best = best.min(global_allocations() - before);
        if best == 0 {
            break;
        }
    }
    assert_eq!(
        best, 0,
        "steady-state pipelined enqueue→apply must be allocation-free"
    );

    icd.thread_end(t0);
    icd.thread_end(t1);
    let _ = icd.drain_pipeline();
}

#[test]
fn warm_scc_probe_and_collect_do_not_allocate() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
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
fn warm_sync_boundary_allocates_only_the_retained_log() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
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
    // One atomic-method call: the first boundary ends an empty unary
    // transaction, the second one the regular transaction and its log.
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
    // Warm-up: the slab, the id map, the collector's scratch, the elision
    // table and the thread's log buffer reach their steady-state sizes.
    for _ in 0..256 {
        call(ENTRIES);
    }
    for round in 0..64 {
        let before = allocations();
        let (at_begin, logged, at_end) = call(ENTRIES);
        assert_eq!(
            at_begin, before,
            "round {round}: a boundary ending an empty log must not allocate"
        );
        assert_eq!(
            logged, at_begin,
            "round {round}: the log buffer kept its capacity across the boundary"
        );
        assert_eq!(
            at_end - logged,
            1,
            "round {round}: ending a {ENTRIES}-entry log allocates its exact-size copy only"
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
