//! Integration tests of ICD's duplicate elision (with the heap's layout,
//! and without one, when every access is logged) and the adaptive
//! transaction collector.

use dc_icd::{Icd, IcdConfig, LogEntry};
use dc_runtime::heap::{CellLayout, Heap, ObjKind};
use dc_runtime::ids::{MethodId, ObjId, ThreadId};
use std::sync::atomic::Ordering;

const T0: ThreadId = ThreadId(0);
const ARRAY: ObjId = ObjId(1);

/// One ICD over a heap of a plain object and an array, and one without a
/// layout; both keep every finished transaction.
fn icd_pair() -> (Icd, Icd) {
    let config = IcdConfig {
        collect_every: 0,
        ..IcdConfig::default()
    };
    let heap = Heap::new(
        &[ObjKind::Plain { fields: 4 }, ObjKind::Array { len: 8 }],
        1,
    );
    let with_layout = Icd::with_layout(1, config, &CellLayout::new(&heap), None);
    let without_layout = Icd::new(1, config);
    with_layout.thread_begin(T0);
    without_layout.thread_begin(T0);
    (with_layout, without_layout)
}

fn entries(icd: &Icd) -> u64 {
    icd.stats().log_entries.load(Ordering::Relaxed)
}

/// With the heap's layout duplicates are elided and an array logs at one
/// cell; without a layout every access is logged at the cell given.
#[test]
fn layout_elides_duplicates_and_no_layout_logs_every_access() {
    let (a, b) = icd_pair();
    let accesses = [
        (ObjId(0), 0u32, false),
        (ObjId(0), 0, false), // duplicate read → elided
        (ObjId(0), 0, true),  // write after read → logged
        (ObjId(0), 0, true),  // duplicate write → elided
        (ObjId(0), 0, false), // read after write → elided
        (ObjId(0), 1, false),
        (ObjId(0), 2, true),
        (ObjId(0), 2, false),
        (ARRAY, 5, false), // conflated to cell 0 with a layout
        (ARRAY, 2, false), // same slot: elided with a layout
    ];
    for &(obj, cell, write) in &accesses {
        a.record_access(T0, obj, cell, write, false, false);
        b.record_access(T0, obj, cell, write, false, false);
    }
    a.thread_end(T0);
    b.thread_end(T0);
    let logged = |icd: &Icd, obj: ObjId| -> Vec<LogEntry> {
        let report = icd.snapshot_all_finished();
        let log = report.txs.iter().flat_map(|t| report.log(t));
        log.copied().filter(|e| e.obj() == obj).collect()
    };
    // Read, write, cell-1 read, cell-2 write.
    assert_eq!(logged(&a, ObjId(0)).len(), 4);
    assert_eq!(entries(&b), accesses.len() as u64);
    assert_eq!(logged(&a, ARRAY), [LogEntry::new(ARRAY, 0, false, false)]);
    assert_eq!(
        logged(&b, ARRAY),
        [
            LogEntry::new(ARRAY, 5, false, false),
            LogEntry::new(ARRAY, 2, false, false),
        ],
        "no layout: the array's cells are logged unconflated"
    );
}

/// Epoch bumps at transaction boundaries re-log in both schemes.
#[test]
fn new_transactions_relog_in_both_schemes() {
    let (a, b) = icd_pair();
    for icd in [&a, &b] {
        icd.record_access(T0, ObjId(0), 0, false, false, false);
        icd.record_access(T0, ObjId(0), 0, false, false, false); // duplicate
        icd.begin_regular(T0, MethodId(0));
        icd.record_access(T0, ObjId(0), 0, false, false, false);
        icd.record_access(T0, ObjId(0), 0, false, false, false); // duplicate
        icd.end_regular(T0);
        icd.record_access(T0, ObjId(0), 0, false, false, false);
        icd.record_access(T0, ObjId(0), 0, false, false, false); // duplicate
        icd.thread_end(T0);
    }
    assert_eq!(entries(&a), 3);
    assert_eq!(entries(&b), 6, "no layout: every access is logged");
}

/// Forced logging (dependence sinks) bypasses elision in both schemes.
#[test]
fn forced_entries_bypass_elision_in_both_schemes() {
    let (a, b) = icd_pair();
    for icd in [&a, &b] {
        icd.record_access(T0, ObjId(0), 0, false, false, false);
        icd.record_access(T0, ObjId(0), 0, false, false, true); // forced
        icd.record_access(T0, ObjId(0), 0, false, false, true); // forced again
        icd.record_access(T0, ObjId(0), 0, false, false, false); // duplicate
        icd.thread_end(T0);
    }
    assert_eq!(entries(&a), 3);
    assert_eq!(entries(&b), 4, "no layout: every access is logged");
}

/// The adaptive collector keeps amortized cost bounded: over a long run of
/// disconnected transactions it reclaims nearly everything, and the live
/// graph stays far below the total transaction count.
#[test]
fn collector_keeps_live_graph_bounded() {
    let icd = Icd::new(
        1,
        IcdConfig {
            logging: false,
            collect_every: 32,
            ..IcdConfig::default()
        },
    );
    icd.thread_begin(T0);
    let total = 4000u32;
    for i in 0..total {
        icd.begin_regular(T0, MethodId(i % 7));
        icd.record_access(T0, ObjId(0), 0, true, false, false);
        icd.end_regular(T0);
    }
    icd.thread_end(T0);
    let collected = icd.collected_txs();
    assert!(
        collected as u32 > total / 2,
        "most of {total} transactions should be reclaimed, got {collected}"
    );
}

/// `snapshot_all_finished` (PCD-only support) sees every uncollected
/// transaction with its log.
#[test]
fn snapshot_all_finished_reflects_history() {
    let icd = Icd::new(
        1,
        IcdConfig {
            logging: true,
            collect_every: 0,
            detect_sccs: false,
        },
    );
    icd.thread_begin(T0);
    for i in 0..5u32 {
        icd.begin_regular(T0, MethodId(i));
        icd.record_access(T0, ObjId(0), i, true, false, false);
        icd.end_regular(T0);
    }
    icd.thread_end(T0);
    let snapshot = icd.snapshot_all_finished();
    // The thread's first (unary) transaction and the 5 regular ones, all
    // finished. The unary transactions between the calls were never
    // accessed, so none of them got a node.
    assert_eq!(snapshot.len(), 6);
    let logged: usize = snapshot.txs.iter().map(|t| snapshot.log(t).len()).sum();
    assert_eq!(logged, 5);
    assert_eq!(snapshot.entries.len(), 5);
}
