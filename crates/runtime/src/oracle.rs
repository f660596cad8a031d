//! The trace oracle: conflict serializability of a recorded trace, checked
//! from first principles after the run — the related-work alternative to
//! online checking (paper §6; RegionTrack's sound and complete trace
//! checker). It is the oracle every checker is compared against, so it
//! shares none of their code (no Octet, no logs, no graph core, no PCD
//! rules), only the demarcation all of them use ([`TxTracker`]):
//!
//! * every non-transactional access is a unary transaction of its own;
//! * per field, the last writer and each thread's last reader since that
//!   write give the cross-thread edges. Array elements conflate to cell 0
//!   (and count only when asked for); an acquire reads and a release writes
//!   the object's [`SYNC_CELL`], as the online checkers see them;
//! * program order chains each thread's transactions;
//! * one iterative Tarjan at the end: every strongly connected component of
//!   two or more transactions is a conflict-serializability violation.
//!
//! It assigns no blame, which needs the order edges appeared in.

use crate::ids::{CellId, ObjId, ThreadId, SYNC_CELL};
use crate::spec::{AtomicitySpec, EnterOutcome, ExitOutcome, TxKind, TxTracker};
use crate::trace::TraceEvent;
use std::collections::{HashMap, HashSet};

/// What the oracle found in one trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Report {
    /// Every SCC of two or more transactions: its members' threads and
    /// kinds, in the order Tarjan popped them. Sorting the members' methods
    /// (unary members as `None`) gives the checkers' `static_key`.
    pub sccs: Vec<Vec<(ThreadId, TxKind)>>,
    /// Transactions demarcated (regular + unary).
    pub transactions: u64,
    /// Distinct cross-thread dependence edges.
    pub edges: u64,
}

/// One thread's demarcation: its open transaction and its last one.
#[derive(Default)]
struct Thread {
    tracker: TxTracker,
    open: Option<usize>,
    last: Option<usize>,
}

/// One field's last writer and each thread's last reader since that write.
#[derive(Default)]
struct Field {
    writer: Option<usize>,
    readers: Vec<(ThreadId, usize)>,
}

/// The dependence graph: transactions numbered in the order they begin,
/// each with its thread, kind and successors.
#[derive(Default)]
struct Graph {
    txs: Vec<(ThreadId, TxKind)>,
    succ: Vec<Vec<usize>>,
    cross: HashSet<(usize, usize)>,
}

impl Graph {
    /// Begins `thread`'s next transaction, after its last in program order.
    fn begin(&mut self, thread: &mut Thread, t: ThreadId, kind: TxKind) -> usize {
        let tx = self.txs.len();
        self.txs.push((t, kind));
        self.succ.push(Vec::new());
        if let Some(last) = thread.last {
            self.succ[last].push(tx);
        }
        thread.open = Some(tx);
        tx
    }

    /// Adds `src → dst` if it is new and crosses threads.
    fn conflict(&mut self, src: usize, dst: usize) {
        if self.txs[src].0 != self.txs[dst].0 && self.cross.insert((src, dst)) {
            self.succ[src].push(dst);
        }
    }

    /// Every SCC of two or more transactions, by an iterative Tarjan over
    /// every node.
    fn sccs(&self) -> Vec<Vec<(ThreadId, TxKind)>> {
        const UNSEEN: usize = usize::MAX;
        let n = self.txs.len();
        let (mut index, mut low, mut on_stack) = (vec![UNSEEN; n], vec![0; n], vec![false; n]);
        let (mut stack, mut frames, mut sccs) = (Vec::new(), Vec::new(), Vec::new());
        let mut next = 0;
        for root in 0..n {
            if index[root] == UNSEEN {
                frames.push((root, 0));
            }
            // Frames: (node, next successor); a node is numbered at its first.
            while let Some(&(v, i)) = frames.last() {
                if i == 0 && index[v] == UNSEEN {
                    (index[v], low[v], on_stack[v]) = (next, next, true);
                    next += 1;
                    stack.push(v);
                }
                if let Some(&w) = self.succ[v].get(i) {
                    frames.last_mut().expect("a frame").1 += 1;
                    if index[w] == UNSEEN {
                        frames.push((w, 0));
                    } else if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                    continue;
                }
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let at = stack.iter().rposition(|&w| w == v).expect("v on the stack");
                    let scc = stack.split_off(at);
                    scc.iter().for_each(|&w| on_stack[w] = false);
                    if scc.len() > 1 {
                        sccs.push(scc.iter().map(|&w| self.txs[w]).collect());
                    }
                }
            }
        }
        sccs
    }
}

/// Checks `events`, a linearization of one execution, against `spec`;
/// array accesses count only with `instrument_arrays`.
pub fn check(events: &[TraceEvent], spec: &AtomicitySpec, instrument_arrays: bool) -> Report {
    let mut threads: HashMap<ThreadId, Thread> = HashMap::new();
    let mut fields: HashMap<(ObjId, CellId), Field> = HashMap::new();
    let mut g = Graph::default();
    for event in events {
        let t = event.thread();
        let th = threads.entry(t).or_default();
        let (field, write) = match *event {
            TraceEvent::Enter(_, m) => {
                if let EnterOutcome::BeginTransaction(m) = th.tracker.enter(m, spec) {
                    g.begin(th, t, TxKind::Regular(m));
                }
                continue;
            }
            TraceEvent::Exit(_, m) => {
                if let ExitOutcome::EndTransaction(_) = th.tracker.exit(m) {
                    th.last = th.open.take();
                }
                continue;
            }
            TraceEvent::Read(_, obj, cell) => ((obj, cell), false),
            TraceEvent::Write(_, obj, cell) => ((obj, cell), true),
            TraceEvent::ArrayRead(_, obj, _) if instrument_arrays => ((obj, 0), false),
            TraceEvent::ArrayWrite(_, obj, _) if instrument_arrays => ((obj, 0), true),
            TraceEvent::SyncAcquire(_, obj) => ((obj, SYNC_CELL), false),
            TraceEvent::SyncRelease(_, obj) => ((obj, SYNC_CELL), true),
            _ => continue,
        };
        let unary = th.open.is_none();
        let tx = th.open.unwrap_or_else(|| g.begin(th, t, TxKind::Unary));
        let f = fields.entry(field).or_default();
        if write {
            let last = std::mem::take(f);
            f.writer = Some(tx);
            let readers = last.readers.into_iter().map(|(_, reader)| reader);
            for src in last.writer.into_iter().chain(readers) {
                g.conflict(src, tx);
            }
        } else {
            if let Some(src) = f.writer {
                g.conflict(src, tx);
            }
            match f.readers.iter_mut().find(|(reader, _)| *reader == t) {
                Some(last) => last.1 = tx,
                None => f.readers.push((t, tx)),
            }
        }
        if unary {
            th.last = th.open.take();
        }
    }
    Report {
        sccs: g.sccs(),
        transactions: g.txs.len() as u64,
        edges: g.cross.len() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::MethodId;

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
        let report = check(&events, &AtomicitySpec::all_atomic(), false);
        assert_eq!(report.sccs.len(), 1);
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
        let report = check(&events, &AtomicitySpec::all_atomic(), false);
        assert!(report.sccs.is_empty());
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
        let report = check(&events, &spec, false);
        assert!(report.sccs.is_empty());
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
        let report = check(&events, &spec, false);
        assert_eq!(report.sccs.len(), 1, "W→R and R→W around the unary read");
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
        let off = check(&events, &spec, false);
        assert!(off.sccs.is_empty(), "arrays not analyzed by default");
        let on = check(&events, &spec, true);
        assert_eq!(
            on.sccs.len(),
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
        let report = check(&events, &AtomicitySpec::all_atomic(), false);
        assert!(report.sccs.is_empty());
    }
}
