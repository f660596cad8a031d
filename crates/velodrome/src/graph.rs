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
//! duplicate-edge check, the DFS and blame) exists once, here.
//!
//! # Storage
//!
//! Nodes, edges and the collector are the shared [`TxGraph`] core's, the
//! one DoubleChecker's IDG is built on: a slab with a free list, one edge
//! arena with intrusive out- and in-lists, and a mark-and-sweep pass whose
//! roots are the unfinished transactions — a transaction finishes when its
//! thread begins the next one, so those are the threads' current
//! transactions. A node's payload is its kind and the orders of its first
//! outgoing and incoming cross edges (for blame); an edge carries none. The
//! DFS walks the core's out-lists on its mark set and keeps a predecessor
//! per slot in a retained vector, so a warm begin → edge → collect round
//! does not touch the heap (pinned by `dc-aerodrome`'s
//! `tests/alloc_pool.rs`).

use dc_runtime::ids::{MethodId, ThreadId};
use dc_runtime::spec::TxKind;
use dc_runtime::txgraph::{TxGraph, NIL};
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

/// Collector cadence in transaction begins.
const COLLECT_EVERY: u32 = 256;

/// A transaction's payload in the graph: its kind and the orders of its
/// earliest outgoing and incoming cross edges (for blame).
#[derive(Debug)]
pub struct VTxInfo {
    kind: TxKind,
    first_out: Option<u32>,
    first_in: Option<u32>,
}

/// The dependence graph's storage: the shared core over [`VTxId`]s.
pub type DepGraph = TxGraph<VTxId, VTxInfo, ()>;

/// Decides whether a new cross edge may have closed a cycle; [`VGraph`] runs
/// its DFS only when the answer is `true`, so `false` must mean "no cycle".
///
/// A filter may keep state per transaction, indexed by the slot the graph
/// gives it at [`begin`](CycleFilter::begin): a collected transaction's slot
/// is handed to the next transaction to begin, so the filter's live set is
/// the graph's without a hook of its own.
pub trait CycleFilter: Send {
    /// The checker's name, for messages.
    const NAME: &'static str;

    /// A filter for a run of `n_threads` threads.
    fn new(n_threads: usize) -> Self;

    /// Transaction `id` begins in `slot`; `prev` is the slot of its
    /// thread's previous transaction, `None` for a thread's first or one
    /// already collected.
    fn begin(&mut self, slot: u32, id: VTxId, prev: Option<u32>);

    /// The cross edge `src → dst` (slots) was just added (`dst` its thread's
    /// newest transaction, the edge already in `src`'s out-list): may it
    /// have closed a cycle?
    fn edge(&mut self, graph: &DepGraph, src: u32, dst: u32) -> bool;
}

/// Velodrome: no filter — every cross edge runs the DFS.
impl CycleFilter for () {
    const NAME: &'static str = "Velodrome";

    fn new(_: usize) -> Self {}

    fn begin(&mut self, _: u32, _: VTxId, _: Option<u32>) {}

    fn edge(&mut self, _: &DepGraph, _: u32, _: u32) -> bool {
        true
    }
}

/// The dependence graph, its cycle test chosen by `C`.
#[derive(Debug)]
pub struct VGraph<C> {
    core: DepGraph,
    filter: C,
    next_order: u32,
    /// Begins since the last collector pass.
    begins: u32,
    /// The DFS's predecessor of each slot it reached (valid for the slots
    /// in the core's mark set).
    pred: Vec<u32>,
    /// Cross-thread dependence edges added.
    pub cross_edges: u64,
    /// Cycles detected.
    pub cycles: u64,
}

impl<C: CycleFilter> VGraph<C> {
    /// Creates an empty graph for a run of `n_threads` threads.
    pub fn new(n_threads: usize) -> Self {
        VGraph {
            core: DepGraph::new(),
            filter: C::new(n_threads),
            next_order: 0,
            begins: 0,
            pred: Vec::new(),
            cross_edges: 0,
            cycles: 0,
        }
    }

    /// Live node count.
    pub fn len(&self) -> usize {
        self.core.len()
    }

    /// True if no nodes are live.
    pub fn is_empty(&self) -> bool {
        self.core.is_empty()
    }

    /// The cycle filter.
    pub fn filter(&self) -> &C {
        &self.filter
    }

    /// Registers a new transaction, finishing the thread's previous one and
    /// adding the intra-thread edge from it; every 256th begin
    /// (`COLLECT_EVERY`) then runs the collector. Returns the number of transactions it
    /// collected.
    pub fn begin(&mut self, id: VTxId, kind: TxKind, prev: VTxId) -> usize {
        let prev = self.core.slot(prev);
        let info = VTxInfo {
            kind,
            first_out: None,
            first_in: None,
        };
        let slot = self.core.insert(id, info);
        if let Some(p) = prev {
            self.core.finish(p);
            self.core.link(p, slot, ());
        }
        self.filter.begin(slot, id, prev);
        self.begins += 1;
        if self.begins < COLLECT_EVERY {
            return 0;
        }
        self.begins = 0;
        self.collect()
    }

    /// Adds a cross-thread dependence edge and checks for a cycle through
    /// it. Returns the violation if one is found. Edges to/from collected
    /// transactions are ignored (they cannot be in a future cycle).
    pub fn add_cross_edge(&mut self, src: VTxId, dst: VTxId) -> Option<VViolation> {
        if src == dst {
            return None;
        }
        let (Some(s), Some(d)) = (self.core.slot(src), self.core.slot(dst)) else {
            return None;
        };
        let order = self.next_order;
        self.next_order += 1;
        if self.core.out_list(s).any(|r| r.dst_slot == d) {
            return None; // duplicate edge: no new cycle possible
        }
        self.core.link(s, d, ());
        self.core.data_mut(s).first_out.get_or_insert(order);
        self.core.data_mut(d).first_in.get_or_insert(order);
        self.cross_edges += 1;
        if !self.filter.edge(&self.core, s, d) {
            return None;
        }
        let cycle = self.find_cycle(s, d)?;
        self.cycles += 1;
        Some(self.report(&cycle))
    }

    /// Slots of the path from `dst` back to `src` (the cycle closed by edge
    /// src→dst), found depth first over the core's out-lists.
    fn find_cycle(&mut self, src: u32, dst: u32) -> Option<Vec<u32>> {
        let pred = &mut self.pred;
        pred.resize(self.core.slab_len(), NIL);
        if !self.core.search(dst, src, |w, v| pred[w as usize] = v) {
            return None;
        }
        let mut path = vec![src];
        let mut cur = src;
        while cur != dst {
            cur = self.pred[cur as usize];
            path.push(cur);
        }
        path.reverse();
        Some(path) // dst … src
    }

    fn report(&self, cycle: &[u32]) -> VViolation {
        let nodes = cycle.iter().map(|&s| self.core.at(s));
        let members: Vec<(VTxId, TxKind)> = nodes.clone().map(|n| (n.id, n.data.kind)).collect();
        // Blame: first outgoing edge earlier than first incoming edge.
        let mut blamed: Vec<MethodId> = nodes
            .filter(|n| matches!((n.data.first_out, n.data.first_in), (Some(o), Some(i)) if o < i))
            .filter_map(|n| n.data.kind.method())
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

    /// Reclaims finished transactions unreachable via outgoing edges from
    /// the unfinished ones (each thread's current transaction). Returns the
    /// number collected. Sound for a filter's state too: every edge
    /// terminates at a current transaction, so nothing a future edge or
    /// propagation could touch is dropped.
    pub fn collect(&mut self) -> usize {
        self.core.collect([], |_| {})
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
        // a2 began, so a1 finished; a2 (current, unfinished) is the root.
        // a1 has only an edge *to* a2, so from a2 nothing reaches a1 — a1
        // collected.
        assert_eq!(g.collect(), 1);
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
