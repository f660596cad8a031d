//! Steady-state allocation freedom for the online checkers' graph: once the
//! shared core's slab, edge arena and mark scratch, the DFS's predecessor
//! table and (for AeroDrome) the slot-indexed clock table are warm, a
//! begin → cross-edge → collect round must not touch the heap at all — for
//! Velodrome's `VGraph<()>`, whose cross edge runs the DFS, and for
//! AeroDrome's `VGraph<ClockGraph>`, whose cross edge runs the clock join.
//! A begin takes a collected transaction's slot (and its clock row), an
//! edge a freed record: an allocation per begin, per edge or per traversal
//! would cost exactly what AeroDrome's O(1) cycle check is supposed to
//! save.

use dc_aerodrome::ClockGraph;
use dc_runtime::ids::{MethodId, ThreadId};
use dc_runtime::spec::TxKind;
use dc_velodrome::{CycleFilter, VGraph, VTxId};

#[path = "../../../tests/common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations;

const THREADS: usize = 3;

/// One round: every thread begins a transaction chained to its previous
/// one, one cross-thread edge lands between two current transactions, and
/// the collector reclaims everything the current transactions don't reach
/// (each thread's predecessor: its slot, clock row and edge records are
/// reused by the next round).
fn round<C: CycleFilter>(g: &mut VGraph<C>, seq: u64) -> [VTxId; THREADS] {
    let mut cur = [VTxId::NONE; THREADS];
    for (t, slot) in cur.iter_mut().enumerate() {
        let id = VTxId::new(ThreadId(t as u16), seq);
        let prev = if seq > 1 {
            VTxId::new(ThreadId(t as u16), seq - 1)
        } else {
            VTxId::NONE
        };
        g.begin(id, TxKind::Regular(MethodId(t as u32)), prev);
        *slot = id;
    }
    assert!(
        g.add_cross_edge(cur[0], cur[1]).is_none(),
        "a forward edge between fresh transactions never closes a cycle"
    );
    g.collect();
    cur
}

fn assert_warm_round_does_not_allocate<C: CycleFilter>() {
    let mut g = VGraph::<C>::new(THREADS);

    // Warm-up: size the slab, the arena, the scratch and the clock table
    // to their steady state.
    for seq in 1..=64 {
        round(&mut g, seq);
    }
    assert_eq!(g.len(), THREADS, "collector keeps the graph bounded");

    let before = allocations();
    for seq in 65..=320 {
        round(&mut g, seq);
    }
    assert_eq!(
        allocations(),
        before,
        "{}: a warm begin → cross-edge → collect round must be allocation-free",
        C::NAME
    );
    assert_eq!(g.len(), THREADS);
    assert_eq!(g.cycles, 0);
}

#[test]
fn warm_begin_edge_collect_round_does_not_allocate() {
    assert_warm_round_does_not_allocate::<ClockGraph>();
    assert_warm_round_does_not_allocate::<()>();
}
