//! Steady-state allocation freedom for the online checkers' graph: once the
//! out-list pool, the traversal scratch and (for AeroDrome) the clock free
//! list are warm, a begin → cross-edge → collect round must not touch the
//! heap at all — for Velodrome's `VGraph<()>`, whose cross edge runs the
//! DFS, and for AeroDrome's `VGraph<ClockGraph>`, whose cross edge runs the
//! clock join. Without the pools every `begin` allocates an out-list (and a
//! `threads`-wide clock), every DFS and every `collect` run allocates mark
//! scratch — which costs exactly what AeroDrome's O(1) cycle check is
//! supposed to save.

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
/// (each thread's predecessor — its out-list, and its clock, go back to the
/// pools).
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
    g.collect(cur);
    cur
}

fn assert_warm_round_does_not_allocate<C: CycleFilter>() {
    let mut g = VGraph::<C>::new(THREADS);

    // Warm-up: fill the pools, size the traversal scratch and the node
    // table's steady-state capacity.
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
