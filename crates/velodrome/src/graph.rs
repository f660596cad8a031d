//! The online checkers' transaction dependence graph with cycle detection.
//!
//! The graph holds transactions as they run: intra-thread edges between
//! consecutive transactions of a thread and cross-thread edges for each
//! detected dependence. A cycle is a sound and precise conflict-serializability
//! violation (paper §2), reported with blame assignment. Transactions
//! unreachable from any thread's current transaction are reclaimed (the paper
//! treats metadata references as weak references).
//!
//! How a new cross edge is tested for a cycle is the one decision the online
//! checkers differ in, so it is a type parameter, a [`CycleFilter`]:
//! Velodrome's is `()`, which answers "maybe" to every edge, so every edge
//! runs the DFS; AeroDrome's (`dc-aerodrome`'s `ClockGraph`) answers exactly
//! with vector clocks, so the DFS runs only to reconstruct a cycle the clocks
//! already proved — once per violation, for the blame. Everything else (the
//! node store, the edge bookkeeping, the DFS, blame and the collector) exists
//! once, here.
//!
//! # Storage
//!
//! Out-lists of collected transactions go to a free list that `begin` reuses,
//! and the DFS and the collector share one reused stack and one reused
//! "reached from" map, so a warm begin → edge → collect round does not touch
//! the heap (pinned by `dc-aerodrome`'s `tests/alloc_pool.rs`).

use dc_runtime::ids::{MethodId, ThreadId};
use dc_runtime::spec::TxKind;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;

/// A transaction id: per-thread sequence number packed with the thread id,
/// so the owning thread is recoverable without a lookup. `VTxId(0)` means
/// "none".
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

/// A violation found by an online checker: the cycle members and the blamed
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

/// Decides whether a new cross edge may have closed a cycle; [`VGraph`] runs
/// its DFS only when the answer is `true`, so `false` must mean "no cycle".
///
/// A filter may keep state per transaction: the graph calls [`begin`] for
/// every transaction it registers and [`reclaim`] for every one its
/// collector drops, so the filter's live set is the graph's.
///
/// [`begin`]: CycleFilter::begin
/// [`reclaim`]: CycleFilter::reclaim
pub trait CycleFilter: Send {
    /// The checker's name, for messages.
    const NAME: &'static str;

    /// A filter for a run of `n_threads` threads.
    fn new(n_threads: usize) -> Self;

    /// Transaction `id` begins; `prev` is its thread's previous transaction
    /// (`NONE` for the first).
    fn begin(&mut self, id: VTxId, prev: VTxId);

    /// The cross edge `src → dst` was just added (both live, `dst` its
    /// thread's newest transaction, the edge already in `src`'s out-list):
    /// may it have closed a cycle?
    fn edge(&mut self, graph: OutLists<'_>, src: VTxId, dst: VTxId) -> bool;

    /// The collector dropped `id`.
    fn reclaim(&mut self, id: VTxId);
}

/// Velodrome: no filter — every cross edge runs the DFS.
impl CycleFilter for () {
    const NAME: &'static str = "Velodrome";

    fn new(_: usize) -> Self {}

    fn begin(&mut self, _: VTxId, _: VTxId) {}

    fn edge(&mut self, _: OutLists<'_>, _: VTxId, _: VTxId) -> bool {
        true
    }

    fn reclaim(&mut self, _: VTxId) {}
}

#[derive(Debug)]
struct VNode {
    kind: TxKind,
    /// Intra-thread and cross successors, in insertion order.
    out: Vec<VTxId>,
    /// Orders of this node's earliest incoming/outgoing edges (for blame).
    first_out: Option<u32>,
    first_in: Option<u32>,
}

/// Read access to the live transactions' out-lists, for a [`CycleFilter`]
/// that propagates along them.
#[derive(Clone, Copy, Debug)]
pub struct OutLists<'a>(&'a HashMap<VTxId, VNode>);

impl<'a> OutLists<'a> {
    /// `id`'s successors in insertion order, or `None` if `id` is not live.
    pub fn get(self, id: VTxId) -> Option<&'a [VTxId]> {
        self.0.get(&id).map(|n| n.out.as_slice())
    }
}

/// The dependence graph, its cycle test chosen by `C`.
pub struct VGraph<C> {
    nodes: HashMap<VTxId, VNode>,
    filter: C,
    next_order: u32,
    /// Cleared out-lists of collected transactions, reused by `begin`.
    free_out: Vec<Vec<VTxId>>,
    /// Traversal scratch shared by the DFS and the collector: the stack, and
    /// each reached node's predecessor (roots map to themselves).
    work: Vec<VTxId>,
    reached: HashMap<VTxId, VTxId>,
    /// Cross-thread dependence edges added.
    pub cross_edges: u64,
    /// Cycles detected.
    pub cycles: u64,
}

impl<C> fmt::Debug for VGraph<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VGraph")
            .field("nodes", &self.nodes.len())
            .finish()
    }
}

impl<C: CycleFilter> VGraph<C> {
    /// Creates an empty graph for a run of `n_threads` threads.
    pub fn new(n_threads: usize) -> Self {
        VGraph {
            nodes: HashMap::new(),
            filter: C::new(n_threads),
            next_order: 0,
            free_out: Vec::new(),
            work: Vec::new(),
            reached: HashMap::new(),
            cross_edges: 0,
            cycles: 0,
        }
    }

    /// Live node count.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if no nodes are live.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The cycle filter.
    pub fn filter(&self) -> &C {
        &self.filter
    }

    /// Registers a new transaction, adding the intra-thread edge from the
    /// thread's previous transaction.
    pub fn begin(&mut self, id: VTxId, kind: TxKind, prev: VTxId) {
        self.filter.begin(id, prev);
        let out = self.free_out.pop().unwrap_or_default();
        self.nodes.insert(
            id,
            VNode {
                kind,
                out,
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
        if !self.filter.edge(OutLists(&self.nodes), src, dst) {
            return None;
        }
        let cycle = self.find_cycle(src, dst)?;
        self.cycles += 1;
        Some(self.report(cycle))
    }

    /// Depth-first walk over live out-lists from `roots`, recording in
    /// `reached` the node each live node was first reached from. Returns
    /// `true`, stopping early, when it pops `target`.
    fn walk(&mut self, roots: impl IntoIterator<Item = VTxId>, target: VTxId) -> bool {
        self.work.clear();
        self.reached.clear();
        for r in roots {
            if r.is_some() && self.reached.insert(r, r).is_none() {
                self.work.push(r);
            }
        }
        while let Some(v) = self.work.pop() {
            if v == target {
                return true;
            }
            if let Some(node) = self.nodes.get(&v) {
                for &w in &node.out {
                    if self.nodes.contains_key(&w) {
                        if let Entry::Vacant(e) = self.reached.entry(w) {
                            e.insert(v);
                            self.work.push(w);
                        }
                    }
                }
            }
        }
        false
    }

    /// Path from `dst` back to `src` (the cycle closed by edge src→dst).
    fn find_cycle(&mut self, src: VTxId, dst: VTxId) -> Option<Vec<VTxId>> {
        if !self.walk([dst], src) {
            return None;
        }
        let mut path = vec![src];
        let mut cur = src;
        while cur != dst {
            cur = self.reached[&cur];
            path.push(cur);
        }
        path.reverse();
        Some(path) // dst … src
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
    /// Sound for a filter's state too: every edge terminates at a current
    /// transaction, so nothing a future edge or propagation could touch is
    /// dropped.
    pub fn collect(&mut self, roots: impl IntoIterator<Item = VTxId>) -> usize {
        self.walk(roots, VTxId::NONE);
        let before = self.nodes.len();
        let (reached, free_out, filter) = (&self.reached, &mut self.free_out, &mut self.filter);
        self.nodes.retain(|&id, node| {
            if reached.contains_key(&id) {
                return true;
            }
            node.out.clear();
            free_out.push(std::mem::take(&mut node.out));
            filter.reclaim(id);
            false
        });
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

    fn graph() -> VGraph<()> {
        VGraph::new(2)
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
        let mut g = graph();
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
        let mut g = graph();
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
        let mut g = graph();
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
        let mut g = graph();
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
        let mut g = graph();
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
