//! Velodrome's transaction dependence graph with online cycle detection.
//!
//! Velodrome builds a graph of transactions at run time: intra-thread edges
//! between consecutive transactions of a thread and cross-thread edges for
//! each detected dependence. A cycle is a sound and precise
//! conflict-serializability violation (paper §2), reported with blame
//! assignment. Transactions unreachable from any thread's current
//! transaction are reclaimed (the paper treats metadata references as weak
//! references).

use dc_runtime::ids::{MethodId, ThreadId};
use dc_runtime::spec::TxKind;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// A Velodrome transaction id: per-thread sequence number packed with the
/// thread id, so the owning thread is recoverable without a lookup.
/// `VTxId(0)` means "none".
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VTxId(pub u64);

impl VTxId {
    /// The reserved "no transaction" value.
    pub const NONE: VTxId = VTxId(0);

    /// Packs a (thread, sequence) pair; `seq` must be ≥ 1.
    pub fn new(thread: ThreadId, seq: u64) -> Self {
        debug_assert!(seq >= 1);
        VTxId((seq << 16) | u64::from(thread.0))
    }

    /// True unless this is [`VTxId::NONE`].
    #[inline]
    pub fn is_some(self) -> bool {
        self.0 != 0
    }

    /// The owning thread.
    #[inline]
    pub fn thread(self) -> ThreadId {
        ThreadId(self.0 as u16)
    }
}

impl fmt::Debug for VTxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VTx{}@{}", self.0 >> 16, self.0 & 0xffff)
    }
}

/// A violation found by Velodrome: the cycle members and the blamed
/// methods (for iterative refinement).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VViolation {
    /// Cycle members with their kinds.
    pub cycle: Vec<(VTxId, TxKind)>,
    /// Blamed methods.
    pub blamed_methods: Vec<MethodId>,
}

impl VViolation {
    /// Static identity for cross-trial deduplication.
    pub fn static_key(&self) -> Vec<Option<MethodId>> {
        let mut key: Vec<Option<MethodId>> = self.cycle.iter().map(|(_, k)| k.method()).collect();
        key.sort();
        key
    }
}

struct VNode {
    kind: TxKind,
    out: Vec<VTxId>,
    /// Orders of this node's earliest incoming/outgoing edges (for blame).
    first_out: Option<u32>,
    first_in: Option<u32>,
}

/// The dependence graph.
#[derive(Default)]
pub struct VGraph {
    nodes: HashMap<VTxId, VNode>,
    next_order: u32,
    /// Cross-thread dependence edges added.
    pub cross_edges: u64,
    /// Cycles detected.
    pub cycles: u64,
}

impl fmt::Debug for VGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VGraph")
            .field("nodes", &self.nodes.len())
            .finish()
    }
}

impl VGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Live node count.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if no nodes are live.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Registers a new transaction, adding the intra-thread edge from the
    /// thread's previous transaction.
    pub fn begin(&mut self, id: VTxId, kind: TxKind, prev: VTxId) {
        self.nodes.insert(
            id,
            VNode {
                kind,
                out: Vec::new(),
                first_out: None,
                first_in: None,
            },
        );
        if prev.is_some() {
            if let Some(p) = self.nodes.get_mut(&prev) {
                p.out.push(id);
            }
        }
    }

    /// Adds a cross-thread dependence edge and checks for a cycle through
    /// it. Returns the violation if one is found. Edges to/from collected
    /// transactions are ignored (they cannot be in a future cycle).
    pub fn add_cross_edge(&mut self, src: VTxId, dst: VTxId) -> Option<VViolation> {
        if src == dst || !src.is_some() || !dst.is_some() {
            return None;
        }
        if !self.nodes.contains_key(&src) || !self.nodes.contains_key(&dst) {
            return None;
        }
        let order = self.next_order;
        self.next_order += 1;
        {
            let s = self.nodes.get_mut(&src).expect("src exists");
            if s.out.contains(&dst) {
                return None; // duplicate edge: no new cycle possible
            }
            s.out.push(dst);
            s.first_out.get_or_insert(order);
        }
        self.nodes
            .get_mut(&dst)
            .expect("dst exists")
            .first_in
            .get_or_insert(order);
        self.cross_edges += 1;
        let cycle = self.find_cycle(src, dst)?;
        self.cycles += 1;
        Some(self.report(cycle))
    }

    /// Path from `dst` back to `src` (the cycle closed by edge src→dst).
    fn find_cycle(&self, src: VTxId, dst: VTxId) -> Option<Vec<VTxId>> {
        let mut stack = vec![dst];
        let mut visited: HashSet<VTxId> = [dst].into_iter().collect();
        let mut parent: HashMap<VTxId, VTxId> = HashMap::new();
        while let Some(v) = stack.pop() {
            if v == src {
                let mut path = vec![v];
                let mut cur = v;
                while cur != dst {
                    cur = parent[&cur];
                    path.push(cur);
                }
                path.reverse();
                return Some(path); // dst … src
            }
            if let Some(node) = self.nodes.get(&v) {
                for &w in &node.out {
                    if self.nodes.contains_key(&w) && visited.insert(w) {
                        parent.insert(w, v);
                        stack.push(w);
                    }
                }
            }
        }
        None
    }

    fn report(&self, cycle: Vec<VTxId>) -> VViolation {
        let members: Vec<(VTxId, TxKind)> =
            cycle.iter().map(|&tx| (tx, self.nodes[&tx].kind)).collect();
        // Blame: first outgoing edge earlier than first incoming edge.
        let mut blamed: Vec<MethodId> = members
            .iter()
            .filter(|(tx, _)| {
                let n = &self.nodes[tx];
                matches!((n.first_out, n.first_in), (Some(o), Some(i)) if o < i)
            })
            .filter_map(|(_, k)| k.method())
            .collect();
        if blamed.is_empty() {
            blamed = members.iter().filter_map(|(_, k)| k.method()).collect();
        }
        blamed.sort();
        blamed.dedup();
        VViolation {
            cycle: members,
            blamed_methods: blamed,
        }
    }

    /// Reclaims transactions unreachable from the roots (current
    /// transactions) via outgoing edges. Returns the number collected.
    pub fn collect(&mut self, roots: impl IntoIterator<Item = VTxId>) -> usize {
        let mut marked: HashSet<VTxId> = HashSet::new();
        let mut work: Vec<VTxId> = Vec::new();
        for r in roots {
            if r.is_some() && marked.insert(r) {
                work.push(r);
            }
        }
        while let Some(id) = work.pop() {
            if let Some(node) = self.nodes.get(&id) {
                for &w in &node.out {
                    if marked.insert(w) {
                        work.push(w);
                    }
                }
            }
        }
        let before = self.nodes.len();
        self.nodes.retain(|id, _| marked.contains(id));
        before - self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);

    fn reg(m: u32) -> TxKind {
        TxKind::Regular(MethodId(m))
    }

    #[test]
    fn vtxid_packs_thread_and_seq() {
        let id = VTxId::new(ThreadId(3), 9);
        assert_eq!(id.thread(), ThreadId(3));
        assert!(id.is_some());
        assert!(!VTxId::NONE.is_some());
        assert_eq!(format!("{id:?}"), "VTx9@3");
    }

    #[test]
    fn two_transaction_cycle_is_reported_with_blame() {
        let mut g = VGraph::new();
        let a = VTxId::new(T0, 1);
        let b = VTxId::new(T1, 1);
        g.begin(a, reg(0), VTxId::NONE);
        g.begin(b, reg(1), VTxId::NONE);
        assert!(g.add_cross_edge(a, b).is_none());
        let v = g.add_cross_edge(b, a).expect("cycle");
        assert_eq!(v.cycle.len(), 2);
        // a's out-edge (order 0) precedes its in-edge (order 1): a blamed.
        assert_eq!(v.blamed_methods, vec![MethodId(0)]);
        assert_eq!(g.cycles, 1);
        assert_eq!(g.cross_edges, 2);
    }

    #[test]
    fn duplicate_edges_do_not_re_report() {
        let mut g = VGraph::new();
        let a = VTxId::new(T0, 1);
        let b = VTxId::new(T1, 1);
        g.begin(a, reg(0), VTxId::NONE);
        g.begin(b, reg(1), VTxId::NONE);
        g.add_cross_edge(a, b);
        g.add_cross_edge(b, a);
        assert!(g.add_cross_edge(b, a).is_none(), "duplicate");
        assert_eq!(g.cross_edges, 2);
    }

    #[test]
    fn cycle_through_intra_thread_edges() {
        // a1 →intra a2 on T0; cross a2→b, cross b→a1: cycle a1,a2,b.
        let mut g = VGraph::new();
        let a1 = VTxId::new(T0, 1);
        let a2 = VTxId::new(T0, 2);
        let b = VTxId::new(T1, 1);
        g.begin(a1, reg(0), VTxId::NONE);
        g.begin(b, reg(2), VTxId::NONE);
        g.add_cross_edge(b, a1); // b → a1 first
        g.begin(a2, reg(1), a1); // intra a1 → a2
        let v = g.add_cross_edge(a2, b).expect("cycle via intra edge");
        assert_eq!(v.cycle.len(), 3);
    }

    #[test]
    fn collect_reclaims_unreachable() {
        let mut g = VGraph::new();
        let a1 = VTxId::new(T0, 1);
        let a2 = VTxId::new(T0, 2);
        g.begin(a1, reg(0), VTxId::NONE);
        g.begin(a2, reg(0), a1);
        // Root is a2 (current): a1 has only an edge *to* a2, so from a2
        // nothing reaches a1 — a1 collected.
        assert_eq!(g.collect([a2]), 1);
        assert_eq!(g.len(), 1);
        // Edges naming a1 are now ignored.
        assert!(g.add_cross_edge(a1, a2).is_none());
    }

    #[test]
    fn unary_only_cycle_blames_nothing_but_reports() {
        let mut g = VGraph::new();
        let a = VTxId::new(T0, 1);
        let b = VTxId::new(T1, 1);
        g.begin(a, TxKind::Unary, VTxId::NONE);
        g.begin(b, TxKind::Unary, VTxId::NONE);
        g.add_cross_edge(a, b);
        let v = g.add_cross_edge(b, a).expect("cycle");
        assert!(v.blamed_methods.is_empty());
        assert_eq!(v.static_key(), vec![None, None]);
    }
}
