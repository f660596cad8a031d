//! The log positions IDG edges snapshot. They come from the shared
//! per-thread `log_len` atomic, which `record_access` updates only when the
//! log actually grows (elided accesses never touch it), so the sequence
//! deliberately mixes elided duplicates in around the edge-creating hooks.

use dc_icd::{Icd, IcdConfig, LogEntry, ReplayConstraint, SccReport};
use dc_runtime::heap::{CellLayout, Heap, ObjKind};
use dc_runtime::ids::{MethodId, ObjId, ThreadId, SYNC_CELL};

const T0: ThreadId = ThreadId(0);
const T1: ThreadId = ThreadId(1);

/// ICD for `threads` threads over a heap of three plain objects of four
/// fields, every finished transaction kept for `snapshot_all_finished`.
fn keep_all_icd(threads: usize) -> Icd {
    let heap = Heap::new(&[ObjKind::Plain { fields: 4 }; 3], threads as u16);
    Icd::with_layout(
        threads,
        IcdConfig {
            collect_every: 0,
            ..IcdConfig::default()
        },
        &CellLayout::new(&heap),
        None,
    )
}

fn drive(icd: &Icd) -> SccReport {
    icd.thread_begin(T0);
    icd.thread_begin(T1);
    icd.begin_regular(T0, MethodId(0));
    icd.begin_regular(T1, MethodId(1));
    icd.record_access(T0, ObjId(0), 0, true, false, false);
    icd.record_access(T0, ObjId(0), 0, true, false, false); // elided duplicate
    icd.record_access(T0, ObjId(1), 0, false, false, false);
    icd.handle_conflicting(T0, T1); // src_pos must be 2, not 3
    icd.record_access(T1, ObjId(0), 0, true, false, true);
    icd.record_access(T1, ObjId(0), 0, false, false, false); // elided duplicate
    icd.handle_conflicting(T1, T0); // src_pos must be 1, dst_pos 2
    icd.record_access(T0, ObjId(0), 0, false, false, true);
    icd.end_regular(T0);
    icd.end_regular(T1);
    icd.record_access(T0, ObjId(2), 3, false, false, false);
    icd.record_access(T1, ObjId(2), 3, true, false, false);
    icd.thread_end(T0);
    icd.thread_end(T1);
    icd.snapshot_all_finished()
}

#[test]
fn edge_positions_skip_elided_duplicates() {
    let a = drive(&keep_all_icd(2));
    // Elided duplicates must not have advanced the published log length
    // the edges snapshot. Every cross edge into a member is one constraint.
    let cross = &a.constraints;
    assert_eq!(cross.len(), 2);
    assert!(
        cross
            .iter()
            .any(|c| c.src_pos == 2 && c.dst_pos == 0 && c.src.0 < c.dst.0),
        "first conflict: T0 logged 2 of 3 accesses, T1 nothing: {cross:?}"
    );
    assert!(
        cross
            .iter()
            .any(|c| c.src_pos == 1 && c.dst_pos == 2 && c.src.0 > c.dst.0),
        "second conflict: T1 logged 1 of 2 accesses, T0 still at 2: {cross:?}"
    );
}

/// Conflation of array and monitor cells happens where ICD appends to the
/// log (the caller passes cells as the program gave them): with the heap's
/// heap's layout, every cell of a conflated kind logs — and elides — as
/// one cell per object, and a `Plain` object's cells stay apart.
#[test]
fn log_append_conflates_arrays_and_monitors_but_not_plain_objects() {
    const PLAIN: ObjId = ObjId(0);
    const ARRAY: ObjId = ObjId(1);
    const MONITOR: ObjId = ObjId(2);
    let heap = Heap::new(
        &[
            ObjKind::Plain { fields: 8 },
            ObjKind::Array { len: 8 },
            ObjKind::Monitor,
        ],
        1,
    );
    let icd = Icd::with_layout(
        1,
        IcdConfig {
            collect_every: 0,
            ..IcdConfig::default()
        },
        &CellLayout::new(&heap),
        None,
    );
    icd.thread_begin(T0);
    icd.begin_regular(T0, MethodId(0));
    icd.record_access(T0, ARRAY, 5, false, false, false); // logs cell 0
    icd.record_access(T0, ARRAY, 2, false, false, false); // same slot: elided
    icd.record_access(T0, MONITOR, SYNC_CELL, false, true, false); // acquire
    icd.record_access(T0, MONITOR, SYNC_CELL, true, true, false); // release
    icd.record_access(T0, PLAIN, 5, true, false, false); // as given
    icd.record_access(T0, PLAIN, 2, true, false, false); // its own slot
    icd.end_regular(T0);
    icd.thread_end(T0);
    let report = icd.snapshot_all_finished();
    let tx = report
        .txs
        .iter()
        .find(|t| t.kind.is_regular())
        .expect("the regular transaction finished");
    assert_eq!(
        report.log(tx),
        [
            LogEntry::new(ARRAY, 0, false, false),
            LogEntry::new(MONITOR, SYNC_CELL, false, true),
            LogEntry::new(MONITOR, SYNC_CELL, true, true),
            LogEntry::new(PLAIN, 5, true, false),
            LogEntry::new(PLAIN, 2, true, false),
        ]
    );
}

/// [`keep_all_icd`] with every thread begun.
fn keep_all(threads: usize) -> Icd {
    let icd = keep_all_icd(threads);
    for i in 0..threads {
        icd.thread_begin(ThreadId::from_index(i));
    }
    icd
}

/// A conflicting edge whose responder sits between two atomic methods —
/// the unary transaction its first method's end opened is still pending,
/// so it has no node — leaves the regular transaction that just finished,
/// at that transaction's final log length. The replay constraint it
/// becomes gates the sink on every entry of that transaction, as an edge
/// out of the empty unary transaction after it did; and the next atomic
/// method follows it directly.
#[test]
fn edge_from_a_pending_unary_window_leaves_the_finished_regular_transaction() {
    let icd = keep_all(2);
    icd.begin_regular(T0, MethodId(0));
    icd.record_access(T0, ObjId(0), 0, true, false, false);
    icd.record_access(T0, ObjId(0), 0, true, false, false); // elided duplicate
    icd.record_access(T0, ObjId(1), 0, true, false, false);
    let finished = icd.current_tx(T0);
    icd.end_regular(T0);
    assert_eq!(
        icd.current_tx(T0),
        finished,
        "currTX names it while pending"
    );
    icd.begin_regular(T1, MethodId(1));
    let sink = icd.current_tx(T1);
    icd.record_access(T1, ObjId(2), 0, false, false, false);
    // T1 takes ObjId(0) from T0, which has not accessed anything since.
    icd.handle_conflicting(T0, T1);
    icd.record_access(T1, ObjId(0), 0, false, false, true);
    icd.begin_regular(T0, MethodId(0));
    let next = icd.current_tx(T0);
    icd.end_regular(T0);
    icd.end_regular(T1);
    icd.thread_end(T0);
    icd.thread_end(T1);
    let all = icd.snapshot_all_finished();

    let source = all.txs.iter().find(|t| t.id == finished).unwrap();
    assert_eq!(source.log.len(), 2);
    assert_eq!(
        all.constraints,
        [ReplayConstraint {
            dst: sink,
            dst_pos: 1,
            src: finished,
            src_thread: T0,
            src_seq: source.seq,
            src_pos: 2,
        }],
        "the sink's entries from position 1 on wait for all of the source's"
    );
    // The next atomic method on T0 is the source's successor in program
    // order (the edge itself: `graph.rs`,
    // `insert_after_links_program_order_from_the_final_log_length`).
    let next = all.txs.iter().find(|t| t.id == next).unwrap();
    assert_eq!((next.thread, next.seq), (T0, source.seq + 2));
    assert!(
        !all.txs
            .iter()
            .any(|t| t.thread == T0 && t.seq == source.seq + 1),
        "the pending unary transaction never got a node"
    );
}

/// A RdSh upgrade from inside the same window names the thread's `lastRdEx`
/// — the regular transaction that just finished, which `currTX` still
/// names too — and the edge leaves it at its final log length.
#[test]
fn upgrade_from_a_pending_unary_window_names_the_finished_regular_transaction() {
    let icd = keep_all(2);
    icd.begin_regular(T0, MethodId(0));
    icd.record_access(T0, ObjId(0), 0, false, false, false);
    icd.note_rdex_claim(T0); // ObjId(0) is RdEx-T0
    icd.record_access(T0, ObjId(1), 0, true, false, false);
    icd.record_access(T0, ObjId(1), 1, true, false, false);
    let finished = icd.current_tx(T0);
    icd.end_regular(T0);
    icd.begin_regular(T1, MethodId(1));
    let sink = icd.current_tx(T1);
    // T1 reads ObjId(0): RdEx-T0 → RdSh.
    icd.handle_upgrading(T1, T0);
    icd.record_access(T1, ObjId(0), 0, false, false, true);
    icd.end_regular(T1);
    icd.thread_end(T0);
    icd.thread_end(T1);
    let all = icd.snapshot_all_finished();
    let [edge] = all.constraints[..] else {
        panic!("one constraint, the upgrade edge: {:?}", all.constraints);
    };
    assert_eq!((edge.src, edge.src_pos), (finished, 3));
    assert_eq!((edge.dst, edge.dst_pos), (sink, 0));
}
