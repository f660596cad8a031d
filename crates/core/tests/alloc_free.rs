//! Steady-state allocation freedom of a whole transaction end: once warm, a
//! transaction with a non-empty log that ends and closes an SCC, and PCD's
//! replay of that SCC, make no allocator call. ICD writes the report into
//! the buffers the checker recycled, and PCD replays it on this thread's
//! scratch.

use dc_core::{DcConfig, DoubleChecker};
use dc_octet::CoordinationMode;
use dc_runtime::checker::Checker;
use dc_runtime::heap::{Heap, ObjKind};
use dc_runtime::ids::{MethodId, ObjId, ThreadId};
use dc_runtime::spec::AtomicitySpec;

#[path = "../../../tests/common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations;

const T0: ThreadId = ThreadId(0);
const T1: ThreadId = ThreadId(1);
const O: ObjId = ObjId(0);

/// One round through the checker's hooks: `alpha` on T0 writes `o.0` and
/// later reads `o.2`; `beta` on T1 reads `o.0` and writes `o.1` in between.
/// ICD sees an object-level cycle (T1 takes `o` from T0 and T0 takes it
/// back), which `beta`'s end closes; the two share the written field `o.0`,
/// so PCD replays both logs — and finds only `alpha → beta`.
fn round(c: &DoubleChecker) {
    c.enter_method(T0, MethodId(0));
    c.enter_method(T1, MethodId(1));
    c.write(T0, O, 0);
    c.read(T1, O, 0);
    c.write(T1, O, 1);
    c.read(T0, O, 2);
    c.exit_method(T0, MethodId(0));
    c.exit_method(T1, MethodId(1));
}

#[test]
fn warm_transaction_end_and_replay_do_not_allocate() {
    let c = DoubleChecker::new(
        2,
        AtomicitySpec::all_atomic(),
        DcConfig::single_run(CoordinationMode::Immediate),
    );
    c.run_begin(&Heap::new(&[ObjKind::Plain { fields: 3 }], 2));
    c.thread_begin(T0);
    c.thread_begin(T1);
    // Warm-up: the graph, both arenas, the collector's scratch, the recycled
    // report, PCD's scratch and the static-info set reach their sizes.
    for _ in 0..256 {
        round(&c);
    }
    let warm = c.stats();
    let before = allocations();
    for _ in 0..64 {
        round(&c);
    }
    assert_eq!(allocations(), before, "a warm round allocates");
    let stats = c.stats();
    assert_eq!(stats.icd_sccs - warm.icd_sccs, 64, "one SCC per round");
    assert_eq!(stats.sccs_to_pcd - warm.sccs_to_pcd, 64);
    assert_eq!(
        stats.pcd.entries - warm.pcd.entries,
        4 * 64,
        "replayed, not refuted"
    );
    assert!(stats.collected_txs > 0, "the rounds ran collector passes");
    c.thread_end(T0);
    c.thread_end(T1);
    c.run_end();
    assert!(
        c.violations().is_empty(),
        "the replay finds no precise cycle"
    );
}
