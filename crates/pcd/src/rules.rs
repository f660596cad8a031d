//! The precise dependence graph (PDG) and the Figure-5 last-access rules.
//!
//! PCD tracks, per field, the last transaction to write it (`W(f)`) and each
//! thread's last transaction to read it since that write (`R(T,f)`). Each
//! replayed access adds precise cross-thread PDG edges and updates the
//! tables; a PDG cycle is a precise conflict-serializability violation.

use dc_icd::{IdHasher, IdMap, TxId, TxKind};
use dc_runtime::ids::{CellId, ObjId, ThreadId};
use std::collections::{HashMap, HashSet};
use std::hash::BuildHasherDefault;

/// A field identity: object plus cell (arrays are conflated by the caller).
pub type Field = (ObjId, CellId);

/// One precise dependence edge with its creation order (for blame
/// assignment).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PdgEdge {
    /// Source transaction.
    pub src: TxId,
    /// Sink transaction.
    pub dst: TxId,
    /// Creation sequence number within this PCD invocation.
    pub order: u32,
}

/// The PDG under construction plus the last-access tables. The tables are
/// keyed by fields and transaction ids the checker numbered itself, so they
/// hash with the IDG's [`IdHasher`].
#[derive(Debug, Default)]
pub struct Pdg {
    /// `W(f)`: last transaction to write each field.
    last_write: IdMap<Field, TxId>,
    /// `R(T,f)`: per field, each thread's last read transaction since the
    /// last write.
    last_reads: IdMap<Field, Vec<(ThreadId, TxId)>>,
    /// Adjacency (deduplicated).
    out: IdMap<TxId, Vec<TxId>>,
    /// All edges in creation order.
    edges: Vec<PdgEdge>,
    /// Executing thread of each transaction.
    thread_of: IdMap<TxId, ThreadId>,
    /// Kind of each transaction (for reporting).
    kind_of: IdMap<TxId, TxKind>,
}

impl Pdg {
    /// Creates an empty PDG over the given transactions.
    pub fn new(txs: impl IntoIterator<Item = (TxId, ThreadId, TxKind)>) -> Self {
        let mut pdg = Pdg::default();
        for (id, thread, kind) in txs {
            pdg.thread_of.insert(id, thread);
            pdg.kind_of.insert(id, kind);
        }
        pdg
    }

    /// Registers a transaction after construction (used by the offline
    /// analysis, which discovers transactions as it walks the trace).
    pub fn add_tx(&mut self, id: TxId, thread: ThreadId, kind: TxKind) {
        self.thread_of.insert(id, thread);
        self.kind_of.insert(id, kind);
    }

    /// The executing thread of `tx`.
    pub fn thread(&self, tx: TxId) -> ThreadId {
        self.thread_of[&tx]
    }

    /// The kind of `tx`.
    pub fn kind(&self, tx: TxId) -> TxKind {
        self.kind_of[&tx]
    }

    /// All PDG edges in creation order.
    pub fn edges(&self) -> &[PdgEdge] {
        &self.edges
    }

    /// Replays a read of `f` by `tx` (Figure 5, `READ`). Returns the new
    /// cross-thread edge, if one was added.
    pub fn read(&mut self, f: Field, tx: TxId) -> Option<PdgEdge> {
        let t = self.thread(tx);
        let mut added = None;
        if let Some(&w) = self.last_write.get(&f) {
            if self.thread(w) != t {
                added = self.add_edge(w, tx);
            }
        }
        let readers = self.last_reads.entry(f).or_default();
        match readers.iter_mut().find(|(rt, _)| *rt == t) {
            Some(slot) => slot.1 = tx,
            None => readers.push((t, tx)),
        }
        added
    }

    /// Replays a write of `f` by `tx` (Figure 5, `WRITE`), appending the
    /// new cross-thread edges to `added` (the caller's buffer, so a replay
    /// loop allocates none per write).
    pub fn write(&mut self, f: Field, tx: TxId, added: &mut Vec<PdgEdge>) {
        let t = self.thread(tx);
        if let Some(w) = self.last_write.insert(f, tx) {
            if self.thread(w) != t {
                added.extend(self.add_edge(w, tx));
            }
        }
        // ∀T, R(T,f) := null
        for (rt, rtx) in self.last_reads.remove(&f).unwrap_or_default() {
            if rt != t {
                added.extend(self.add_edge(rtx, tx));
            }
        }
    }

    /// Adds an intra-thread program-order edge: it participates in cycle
    /// detection (Velodrome's graph chains consecutive transactions of a
    /// thread, §2) but not in blame ordering.
    pub fn add_intra_edge(&mut self, src: TxId, dst: TxId) {
        if src == dst {
            return;
        }
        let succ = self.out.entry(src).or_default();
        if !succ.contains(&dst) {
            succ.push(dst);
        }
    }

    /// Adds `src → dst`, deduplicating; self-edges are ignored.
    fn add_edge(&mut self, src: TxId, dst: TxId) -> Option<PdgEdge> {
        if src == dst {
            return None;
        }
        let succ = self.out.entry(src).or_default();
        if succ.contains(&dst) {
            return None;
        }
        succ.push(dst);
        let edge = PdgEdge {
            src,
            dst,
            order: u32::try_from(self.edges.len()).expect("too many PDG edges"),
        };
        self.edges.push(edge);
        Some(edge)
    }

    /// Finds a cycle through the just-added edge `src → dst`: a path from
    /// `dst` back to `src`. Returns the cycle as a node list
    /// `[src, dst, …, src-predecessor]` if found.
    pub fn cycle_through(&self, edge: PdgEdge) -> Option<Vec<TxId>> {
        // DFS from dst searching for src.
        let mut stack = vec![edge.dst];
        let mut parent: IdMap<TxId, TxId> = IdMap::default();
        let mut visited: HashSet<TxId, BuildHasherDefault<IdHasher>> = HashSet::default();
        visited.insert(edge.dst);
        while let Some(v) = stack.pop() {
            if v == edge.src {
                // Reconstruct dst → … → src, then prepend the edge.
                let mut path = vec![v];
                let mut cur = v;
                while cur != edge.dst {
                    cur = parent[&cur];
                    path.push(cur);
                }
                path.reverse(); // dst … src
                let mut cycle = vec![edge.src];
                cycle.extend(path.into_iter().take_while(|&n| n != edge.src));
                return Some(cycle);
            }
            if let Some(succ) = self.out.get(&v) {
                for &w in succ {
                    if visited.insert(w) {
                        parent.insert(w, v);
                        stack.push(w);
                    }
                }
            }
        }
        None
    }

    /// Blame assignment (paper §3.3): blame each cycle member whose first
    /// outgoing cycle edge was created before its first incoming cycle edge
    /// — it "completed" the cycle. Falls back to the sink of the newest
    /// edge if the heuristic selects nobody.
    pub fn blame(&self, cycle: &[TxId]) -> Vec<TxId> {
        let members: HashSet<TxId> = cycle.iter().copied().collect();
        let mut first_out: HashMap<TxId, u32> = HashMap::new();
        let mut first_in: HashMap<TxId, u32> = HashMap::new();
        for e in &self.edges {
            if members.contains(&e.src) && members.contains(&e.dst) {
                first_out.entry(e.src).or_insert(e.order);
                first_in.entry(e.dst).or_insert(e.order);
            }
        }
        let mut blamed: Vec<TxId> = cycle
            .iter()
            .copied()
            .filter(|tx| match (first_out.get(tx), first_in.get(tx)) {
                (Some(o), Some(i)) => o < i,
                _ => false,
            })
            .collect();
        if blamed.is_empty() {
            if let Some(last) = self
                .edges
                .iter()
                .rev()
                .find(|e| members.contains(&e.src) && members.contains(&e.dst))
            {
                blamed.push(last.dst);
            }
        }
        blamed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_runtime::ids::MethodId;

    const T0: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);
    const F: Field = (ObjId(0), 0);
    const G: Field = (ObjId(0), 1);

    /// One write's new edges.
    fn write(pdg: &mut Pdg, f: Field, tx: TxId) -> Vec<PdgEdge> {
        let mut added = Vec::new();
        pdg.write(f, tx, &mut added);
        added
    }

    fn pdg2() -> Pdg {
        Pdg::new([
            (TxId(1), T0, TxKind::Regular(MethodId(0))),
            (TxId(2), T1, TxKind::Regular(MethodId(1))),
            (TxId(3), T0, TxKind::Unary),
        ])
    }

    #[test]
    fn write_read_dependence() {
        let mut pdg = pdg2();
        assert!(write(&mut pdg, F, TxId(1)).is_empty());
        let e = pdg.read(F, TxId(2)).expect("W→R edge");
        assert_eq!((e.src, e.dst), (TxId(1), TxId(2)));
    }

    #[test]
    fn read_write_dependence() {
        let mut pdg = pdg2();
        pdg.read(F, TxId(1));
        let es = write(&mut pdg, F, TxId(2));
        assert_eq!(es.len(), 1);
        assert_eq!((es[0].src, es[0].dst), (TxId(1), TxId(2)));
    }

    #[test]
    fn write_write_dependence() {
        let mut pdg = pdg2();
        write(&mut pdg, F, TxId(1));
        let es = write(&mut pdg, F, TxId(2));
        assert_eq!(es.len(), 1);
        assert_eq!((es[0].src, es[0].dst), (TxId(1), TxId(2)));
    }

    #[test]
    fn same_thread_accesses_add_no_edges() {
        let mut pdg = pdg2();
        write(&mut pdg, F, TxId(1));
        assert!(pdg.read(F, TxId(3)).is_none(), "same thread: intra");
        assert!(write(&mut pdg, F, TxId(3)).is_empty());
    }

    #[test]
    fn write_clears_reader_table() {
        let mut pdg = pdg2();
        pdg.read(F, TxId(1));
        write(&mut pdg, F, TxId(2)); // clears R(·, F)
                                     // A later write by T1's tx again: no stale read→write edge to Tx1.
        let es = write(&mut pdg, F, TxId(2));
        assert!(es.is_empty(), "duplicate edge and cleared readers");
    }

    #[test]
    fn distinct_fields_are_independent() {
        let mut pdg = pdg2();
        write(&mut pdg, F, TxId(1));
        assert!(
            pdg.read(G, TxId(2)).is_none(),
            "no dependence across fields"
        );
    }

    #[test]
    fn edges_are_deduplicated_but_ordered() {
        let mut pdg = pdg2();
        write(&mut pdg, F, TxId(1));
        pdg.read(F, TxId(2));
        pdg.read(F, TxId(2)); // duplicate read: no new edge
        write(&mut pdg, G, TxId(2));
        pdg.read(G, TxId(1)); // second distinct edge
        assert_eq!(pdg.edges().len(), 2);
        assert!(pdg.edges()[0].order < pdg.edges()[1].order);
    }

    #[test]
    fn cycle_detection_finds_two_cycle() {
        let mut pdg = pdg2();
        write(&mut pdg, F, TxId(1));
        pdg.read(F, TxId(2)); // 1→2
        write(&mut pdg, G, TxId(2));
        let e = pdg.read(G, TxId(1)).unwrap(); // 2→1 closes the cycle
        let cycle = pdg.cycle_through(e).expect("cycle");
        assert_eq!(cycle.len(), 2);
        assert!(cycle.contains(&TxId(1)) && cycle.contains(&TxId(2)));
    }

    #[test]
    fn no_cycle_on_dag() {
        let mut pdg = pdg2();
        write(&mut pdg, F, TxId(1));
        let e = pdg.read(F, TxId(2)).unwrap();
        assert!(pdg.cycle_through(e).is_none());
    }

    #[test]
    fn blame_prefers_early_outgoing_edge() {
        let mut pdg = pdg2();
        // Tx1's outgoing edge (order 0) precedes its incoming (order 1):
        // Tx1 completes the cycle and is blamed — the Figure 3 situation.
        write(&mut pdg, F, TxId(1));
        pdg.read(F, TxId(2)); // edge 1→2, order 0
        write(&mut pdg, G, TxId(2));
        let e = pdg.read(G, TxId(1)).unwrap(); // edge 2→1, order 1
        let cycle = pdg.cycle_through(e).unwrap();
        assert_eq!(pdg.blame(&cycle), vec![TxId(1)]);
    }
}
