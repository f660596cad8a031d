//! Offline conflict-serializability analysis over a recorded trace.
//!
//! The related-work alternative to online checking (paper §6, Farzan &
//! Parthasarathy): record the execution, then build the precise
//! transaction dependence graph afterwards and look for cycles. This
//! implementation shares only the low-level [`Pdg`] rules with PCD — no
//! Octet, no ICD, no logs — which makes it an independent oracle for
//! differential testing: on the same deterministic execution it must agree
//! with both Velodrome and DoubleChecker's single-run mode about whether a
//! violation exists.
//!
//! Differences from the online checkers (all precision-neutral):
//! * every non-transactional access is its own unary transaction (no
//!   merging optimization);
//! * cycles are detected once, at end of trace, rather than per edge.

use crate::rules::Pdg;
use crate::violation::Violation;
use dc_icd::TxId;
use dc_runtime::ids::{ThreadId, SYNC_CELL};
use dc_runtime::spec::{AtomicitySpec, EnterOutcome, ExitOutcome, TxKind, TxTracker};
use dc_runtime::trace::TraceEvent;
use std::collections::HashMap;

/// Configuration of the offline analysis.
#[derive(Clone, Copy, Debug, Default)]
pub struct OfflineConfig {
    /// Analyze array accesses (off by default, matching the online
    /// checkers' default).
    pub instrument_arrays: bool,
}

/// Result of one offline analysis.
#[derive(Clone, Debug)]
pub struct OfflineReport {
    /// Violations, deduplicated by static identity.
    pub violations: Vec<Violation>,
    /// Transactions demarcated (regular + unary).
    pub transactions: u64,
    /// Precise cross-thread dependence edges.
    pub edges: u64,
}

/// One thread's transaction state; transactions are named by their PDG
/// member index.
struct ThreadState {
    tracker: TxTracker,
    current: Option<u32>,
    prev: Option<u32>,
}

/// Analyzes a recorded trace against `spec`.
///
/// The trace must be a valid linearization of one execution (what
/// [`dc_runtime::trace::TraceChecker`] records).
pub fn analyze_trace(
    events: &[TraceEvent],
    spec: &AtomicitySpec,
    config: OfflineConfig,
) -> OfflineReport {
    let mut threads: HashMap<ThreadId, ThreadState> = HashMap::new();
    let mut next_tx = 1u64;
    let mut pdg = Pdg::default();
    let mut transactions = 0u64;
    let mut raw_violations: Vec<Violation> = Vec::new();
    let mut new_edges = Vec::new();

    let begin_tx = |pdg: &mut Pdg,
                    threads: &mut HashMap<ThreadId, ThreadState>,
                    next_tx: &mut u64,
                    transactions: &mut u64,
                    t: ThreadId,
                    kind: TxKind| {
        let id = TxId(*next_tx);
        *next_tx += 1;
        *transactions += 1;
        let m = pdg.add_tx(id, t, kind);
        let st = threads.entry(t).or_insert_with(|| ThreadState {
            tracker: TxTracker::new(),
            current: None,
            prev: None,
        });
        if let Some(prev) = st.current.take().or(st.prev) {
            pdg.add_intra_edge(prev, m);
        }
        st.current = Some(m);
        m
    };

    for event in events {
        let t = event.thread();
        threads.entry(t).or_insert_with(|| ThreadState {
            tracker: TxTracker::new(),
            current: None,
            prev: None,
        });
        match *event {
            TraceEvent::ThreadBegin(_) | TraceEvent::ThreadEnd(_) => {}
            TraceEvent::Enter(_, m) => {
                let outcome = threads.get_mut(&t).expect("state").tracker.enter(m, spec);
                if let EnterOutcome::BeginTransaction(method) = outcome {
                    begin_tx(
                        &mut pdg,
                        &mut threads,
                        &mut next_tx,
                        &mut transactions,
                        t,
                        TxKind::Regular(method),
                    );
                }
            }
            TraceEvent::Exit(_, m) => {
                let outcome = threads.get_mut(&t).expect("state").tracker.exit(m);
                if let ExitOutcome::EndTransaction(_) = outcome {
                    let st = threads.get_mut(&t).expect("state");
                    st.prev = st.current.take();
                }
            }
            TraceEvent::ArrayRead(..) | TraceEvent::ArrayWrite(..) if !config.instrument_arrays => {
            }
            TraceEvent::Read(..)
            | TraceEvent::Write(..)
            | TraceEvent::ArrayRead(..)
            | TraceEvent::ArrayWrite(..)
            | TraceEvent::SyncAcquire(..)
            | TraceEvent::SyncRelease(..) => {
                let (obj, cell, is_write) = match *event {
                    TraceEvent::Read(_, obj, cell) => (obj, cell, false),
                    TraceEvent::Write(_, obj, cell) => (obj, cell, true),
                    // Arrays conflate to one metadata slot, as online.
                    TraceEvent::ArrayRead(_, obj, _) => (obj, 0, false),
                    TraceEvent::ArrayWrite(_, obj, _) => (obj, 0, true),
                    TraceEvent::SyncAcquire(_, obj) => (obj, SYNC_CELL, false),
                    TraceEvent::SyncRelease(_, obj) => (obj, SYNC_CELL, true),
                    _ => unreachable!(),
                };
                let in_tx = threads[&t].current.is_some() && threads[&t].tracker.in_transaction();
                let tx = if in_tx {
                    threads[&t].current.expect("in transaction")
                } else {
                    // A fresh unary transaction per non-transactional access.
                    begin_tx(
                        &mut pdg,
                        &mut threads,
                        &mut next_tx,
                        &mut transactions,
                        t,
                        TxKind::Unary,
                    )
                };
                new_edges.clear();
                if is_write {
                    pdg.write((obj, cell), tx, &mut new_edges);
                } else {
                    new_edges.extend(pdg.read((obj, cell), tx));
                }
                // Offline: still record cycles per edge so blame order is
                // meaningful, but detection could equally run once at the
                // end.
                for &edge in &new_edges {
                    raw_violations.extend(pdg.violation_through(edge));
                }
                if !in_tx {
                    let st = threads.get_mut(&t).expect("state");
                    st.prev = st.current.take();
                }
            }
        }
    }

    let mut seen = std::collections::HashSet::new();
    let violations = raw_violations
        .into_iter()
        .filter(|v| seen.insert(v.static_key()))
        .collect();
    OfflineReport {
        violations,
        transactions,
        edges: pdg.edges().len() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_runtime::ids::{MethodId, ObjId};

    const T0: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);
    const M0: MethodId = MethodId(0);
    const M1: MethodId = MethodId(1);
    const O: ObjId = ObjId(0);

    #[test]
    fn detects_interleaved_atomic_regions() {
        // T0: [wr f … rd g]; T1: [wr g, rd f] interleaved inside.
        let events = vec![
            TraceEvent::Enter(T0, M0),
            TraceEvent::Write(T0, O, 0),
            TraceEvent::Enter(T1, M1),
            TraceEvent::Write(T1, O, 1),
            TraceEvent::Read(T1, O, 0),
            TraceEvent::Exit(T1, M1),
            TraceEvent::Read(T0, O, 1),
            TraceEvent::Exit(T0, M0),
        ];
        let report = analyze_trace(
            &events,
            &AtomicitySpec::all_atomic(),
            OfflineConfig::default(),
        );
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.transactions, 2);
        assert!(report.edges >= 2);
    }

    #[test]
    fn serial_regions_are_clean() {
        let events = vec![
            TraceEvent::Enter(T0, M0),
            TraceEvent::Write(T0, O, 0),
            TraceEvent::Read(T0, O, 1),
            TraceEvent::Exit(T0, M0),
            TraceEvent::Enter(T1, M1),
            TraceEvent::Write(T1, O, 1),
            TraceEvent::Read(T1, O, 0),
            TraceEvent::Exit(T1, M1),
        ];
        let report = analyze_trace(
            &events,
            &AtomicitySpec::all_atomic(),
            OfflineConfig::default(),
        );
        assert!(report.violations.is_empty());
    }

    #[test]
    fn unary_accesses_are_single_access_transactions() {
        // Excluded method: each access is its own unary transaction; a
        // single access on each side cannot form a cycle.
        let spec = AtomicitySpec::excluding([M0, M1]);
        let events = vec![
            TraceEvent::Enter(T0, M0),
            TraceEvent::Write(T0, O, 0),
            TraceEvent::Enter(T1, M1),
            TraceEvent::Write(T1, O, 0),
            TraceEvent::Read(T1, O, 0),
            TraceEvent::Exit(T1, M1),
            TraceEvent::Read(T0, O, 0),
            TraceEvent::Exit(T0, M0),
        ];
        let report = analyze_trace(&events, &spec, OfflineConfig::default());
        assert!(report.violations.is_empty());
        assert_eq!(report.transactions, 4);
    }

    #[test]
    fn unary_access_can_join_a_cycle_with_a_regular_transaction() {
        // R (T0, atomic): wr f … wr f ; u (T1, unary): rd f between them.
        let spec = AtomicitySpec::excluding([M1]);
        let events = vec![
            TraceEvent::Enter(T0, M0),
            TraceEvent::Write(T0, O, 0),
            TraceEvent::Enter(T1, M1),
            TraceEvent::Read(T1, O, 0),
            TraceEvent::Exit(T1, M1),
            TraceEvent::Write(T0, O, 0),
            TraceEvent::Exit(T0, M0),
        ];
        let report = analyze_trace(&events, &spec, OfflineConfig::default());
        assert_eq!(
            report.violations.len(),
            1,
            "W→R and R→W around the unary read"
        );
    }

    #[test]
    fn arrays_skipped_unless_configured() {
        let events = vec![
            TraceEvent::Enter(T0, M0),
            TraceEvent::ArrayWrite(T0, O, 3),
            TraceEvent::Enter(T1, M1),
            TraceEvent::ArrayWrite(T1, O, 4),
            TraceEvent::ArrayRead(T1, O, 3),
            TraceEvent::Exit(T1, M1),
            TraceEvent::ArrayRead(T0, O, 4),
            TraceEvent::Exit(T0, M0),
        ];
        let spec = AtomicitySpec::all_atomic();
        let off = analyze_trace(&events, &spec, OfflineConfig::default());
        assert!(off.violations.is_empty(), "arrays not analyzed by default");
        let on = analyze_trace(
            &events,
            &spec,
            OfflineConfig {
                instrument_arrays: true,
            },
        );
        assert_eq!(
            on.violations.len(),
            1,
            "conflated array metadata yields the (imprecise) cycle"
        );
    }

    #[test]
    fn lock_discipline_is_serializable() {
        let lock = ObjId(1);
        let mut events = Vec::new();
        for (t, m) in [(T0, M0), (T1, M1), (T0, M0), (T1, M1)] {
            events.extend([
                TraceEvent::Enter(t, m),
                TraceEvent::SyncAcquire(t, lock),
                TraceEvent::Read(t, O, 0),
                TraceEvent::Write(t, O, 0),
                TraceEvent::SyncRelease(t, lock),
                TraceEvent::Exit(t, m),
            ]);
        }
        let report = analyze_trace(
            &events,
            &AtomicitySpec::all_atomic(),
            OfflineConfig::default(),
        );
        assert!(report.violations.is_empty());
    }
}
