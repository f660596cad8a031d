//! AeroDrome's vector-clock view of the transaction dependence graph.
//!
//! Where Velodrome answers "did this edge close a cycle?" with a graph
//! search, AeroDrome answers it with a constant-time clock comparison
//! (Mathur & Viswanathan, *Atomicity Checking in Linear Time using Vector
//! Clocks*). Each transaction `T` of thread `t` carries a vector clock
//! `C_T` where `C_T[u] = s` means "thread `u`'s transaction with sequence
//! number `s` (and, by program order, every earlier one) must precede `T`
//! in any serialization". The clock is reflexive: `C_T[t] = seq(T)`.
//!
//! Adding a dependence edge `src → dst` then detects a cycle in O(1):
//! `dst` is already an ancestor of `src` exactly when
//! `C_src[thread(dst)] ≥ seq(dst)` — because `dst` is its thread's newest
//! transaction, no later transaction of that thread exists that could
//! account for the component. After the check, `C_src` is joined into
//! `C_dst` and the join is propagated transitively along out-edges until
//! clocks stop changing, which keeps the invariant "clock = exact ancestor
//! set" that the O(1) check relies on. Propagation must follow out-edges
//! into *finished* transactions too: a finished transaction never gains a
//! new in-edge (edges always terminate at the accessing thread's current
//! transaction), but its ancestor set can still grow through an existing
//! in-edge whose source is live.
//!
//! Out-edge lists are retained for propagation, which also lets a detected
//! cycle be reconstructed (Velodrome's DFS, run only on actual
//! violations) so blame assignment is bit-comparable with the baseline.

use dc_runtime::spec::TxKind;
use dc_velodrome::{VTxId, VViolation};
use std::collections::{HashMap, HashSet};
use std::fmt;

fn seq_of(id: VTxId) -> u64 {
    id.0 >> 16
}

struct Record {
    kind: TxKind,
    /// `clock[u]` = highest sequence number of thread `u` known to precede
    /// this transaction (reflexive in the owner's component).
    clock: Box<[u64]>,
    out: Vec<VTxId>,
    /// Orders of this node's earliest incoming/outgoing edges (for blame,
    /// mirroring Velodrome's numbering exactly).
    first_out: Option<u32>,
    first_in: Option<u32>,
}

/// The clock-annotated dependence graph.
pub struct ClockGraph {
    n_threads: usize,
    records: HashMap<VTxId, Record>,
    next_order: u32,
    scratch: Vec<u64>,
    work: Vec<(VTxId, VTxId)>,
    /// Free list of `n_threads`-wide clock slices reclaimed by
    /// [`ClockGraph::collect`]: steady state begins transactions without
    /// allocating (the per-tx clock allocation costs what the linear-time
    /// check saves).
    free: Vec<Box<[u64]>>,
    /// Pooled out-edge vectors, reclaimed alongside the clocks.
    free_out: Vec<Vec<VTxId>>,
    /// Collector scratch, reused across runs.
    collect_marked: HashSet<VTxId>,
    collect_work: Vec<VTxId>,
    collect_dropped: Vec<VTxId>,
    /// Cross-thread dependence edges added.
    pub cross_edges: u64,
    /// Cycles detected.
    pub cycles: u64,
    /// Clock joins performed (edge joins + transitive propagation).
    pub joins: u64,
    /// Joins that were transitive propagation rather than direct edges.
    pub propagated: u64,
}

impl fmt::Debug for ClockGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClockGraph")
            .field("records", &self.records.len())
            .field("threads", &self.n_threads)
            .finish()
    }
}

impl ClockGraph {
    /// Creates an empty graph for `n_threads` threads.
    pub fn new(n_threads: usize) -> Self {
        ClockGraph {
            n_threads,
            records: HashMap::new(),
            next_order: 0,
            scratch: Vec::new(),
            work: Vec::new(),
            free: Vec::new(),
            free_out: Vec::new(),
            collect_marked: HashSet::new(),
            collect_work: Vec::new(),
            collect_dropped: Vec::new(),
            cross_edges: 0,
            cycles: 0,
            joins: 0,
            propagated: 0,
        }
    }

    /// Live record count.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if no records are live.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Registers a new transaction: its clock starts as the program-order
    /// predecessor's clock (the predecessor is finished, so its clock is
    /// final) advanced to its own sequence number.
    pub fn begin(&mut self, id: VTxId, kind: TxKind, prev: VTxId) {
        // Reuse a pooled slice when one is free; either branch overwrites
        // every element, so stale pooled contents never leak through.
        let mut clock: Box<[u64]> = self
            .free
            .pop()
            .unwrap_or_else(|| vec![0; self.n_threads].into_boxed_slice());
        match self.records.get(&prev) {
            Some(p) if prev.is_some() => clock.copy_from_slice(&p.clock),
            _ => clock.fill(0),
        }
        let t = id.thread().index();
        if t < clock.len() {
            clock[t] = seq_of(id);
        }
        self.records.insert(
            id,
            Record {
                kind,
                clock,
                out: self.free_out.pop().unwrap_or_default(),
                first_out: None,
                first_in: None,
            },
        );
        if prev.is_some() {
            if let Some(p) = self.records.get_mut(&prev) {
                p.out.push(id);
            }
        }
    }

    /// Adds a cross-thread dependence edge, runs the O(1) clock cycle
    /// check, and joins + propagates clocks. Returns the violation if the
    /// edge closed a cycle. Edges to/from collected transactions are
    /// ignored (they cannot be in a future cycle).
    pub fn add_cross_edge(&mut self, src: VTxId, dst: VTxId) -> Option<VViolation> {
        if src == dst || !src.is_some() || !dst.is_some() {
            return None;
        }
        if !self.records.contains_key(&src) || !self.records.contains_key(&dst) {
            return None;
        }
        let order = self.next_order;
        self.next_order += 1;
        {
            let s = self.records.get_mut(&src).expect("src exists");
            if s.out.contains(&dst) {
                return None; // duplicate edge: no new cycle possible
            }
            s.out.push(dst);
            s.first_out.get_or_insert(order);
        }
        self.records
            .get_mut(&dst)
            .expect("dst exists")
            .first_in
            .get_or_insert(order);
        self.cross_edges += 1;
        // O(1) cycle test: dst is an ancestor of src iff src's clock
        // already covers dst's thread at or past dst's sequence number
        // (dst is its thread's newest transaction, so no later transaction
        // could account for the component).
        let dt = dst.thread().index();
        let cyclic = {
            let s = &self.records[&src];
            dt < s.clock.len() && s.clock[dt] >= seq_of(dst)
        };
        self.join_and_propagate(src, dst);
        if !cyclic {
            return None;
        }
        self.cycles += 1;
        let cycle = self.find_cycle(src, dst)?;
        Some(self.report(cycle))
    }

    /// Joins `from`'s clock into `to`, then propagates any growth along
    /// out-edges until clocks stop changing. Terminates because clocks are
    /// monotone and bounded by the current per-thread sequence numbers.
    fn join_and_propagate(&mut self, src: VTxId, dst: VTxId) {
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut work = std::mem::take(&mut self.work);
        work.clear();
        work.push((src, dst));
        let mut direct = true;
        while let Some((from, to)) = work.pop() {
            let Some(f) = self.records.get(&from) else {
                direct = false;
                continue;
            };
            scratch.clear();
            scratch.extend_from_slice(&f.clock);
            let Some(t) = self.records.get_mut(&to) else {
                direct = false;
                continue;
            };
            let mut changed = false;
            for (slot, &v) in t.clock.iter_mut().zip(scratch.iter()) {
                if v > *slot {
                    *slot = v;
                    changed = true;
                }
            }
            self.joins += 1;
            if !direct {
                self.propagated += 1;
            }
            direct = false;
            if changed {
                let t = &self.records[&to];
                for &next in &t.out {
                    work.push((to, next));
                }
            }
        }
        self.scratch = scratch;
        self.work = work;
    }

    /// Path from `dst` back to `src` (the cycle closed by edge src→dst).
    /// Only runs on a confirmed violation; mirrors Velodrome's DFS so the
    /// reconstructed cycle (and hence blame) is identical.
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
            if let Some(node) = self.records.get(&v) {
                for &w in &node.out {
                    if self.records.contains_key(&w) && visited.insert(w) {
                        parent.insert(w, v);
                        stack.push(w);
                    }
                }
            }
        }
        None
    }

    fn report(&self, cycle: Vec<VTxId>) -> VViolation {
        let members: Vec<(VTxId, TxKind)> = cycle
            .iter()
            .map(|&tx| (tx, self.records[&tx].kind))
            .collect();
        // Blame: first outgoing edge earlier than first incoming edge.
        let mut blamed: Vec<_> = members
            .iter()
            .filter(|(tx, _)| {
                let n = &self.records[tx];
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
    /// Sound for the clock invariant: every in-edge terminates at a
    /// currently-live transaction, so anything reachable from the roots —
    /// everything a future join could touch — stays resident.
    pub fn collect(&mut self, roots: impl IntoIterator<Item = VTxId>) -> usize {
        let mut marked = std::mem::take(&mut self.collect_marked);
        let mut work = std::mem::take(&mut self.collect_work);
        marked.clear();
        work.clear();
        for r in roots {
            if r.is_some() && marked.insert(r) {
                work.push(r);
            }
        }
        while let Some(id) = work.pop() {
            if let Some(node) = self.records.get(&id) {
                for &w in &node.out {
                    if marked.insert(w) {
                        work.push(w);
                    }
                }
            }
        }
        let before = self.records.len();
        // Remove unmarked records by hand (rather than `retain`) so their
        // clock slices and out-edge vectors land on the free lists for
        // reuse by `begin` — a warm collect run allocates nothing.
        let mut dropped = std::mem::take(&mut self.collect_dropped);
        dropped.clear();
        dropped.extend(self.records.keys().filter(|id| !marked.contains(id)));
        for &id in &dropped {
            if let Some(rec) = self.records.remove(&id) {
                self.free.push(rec.clock);
                let mut out = rec.out;
                out.clear();
                self.free_out.push(out);
            }
        }
        self.collect_marked = marked;
        self.collect_work = work;
        self.collect_dropped = dropped;
        before - self.records.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_runtime::ids::{MethodId, ThreadId};

    const T0: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);
    const T2: ThreadId = ThreadId(2);

    fn reg(m: u32) -> TxKind {
        TxKind::Regular(MethodId(m))
    }

    #[test]
    fn two_transaction_cycle_is_reported_with_blame() {
        let mut g = ClockGraph::new(2);
        let a = VTxId::new(T0, 1);
        let b = VTxId::new(T1, 1);
        g.begin(a, reg(0), VTxId::NONE);
        g.begin(b, reg(1), VTxId::NONE);
        assert!(g.add_cross_edge(a, b).is_none());
        let v = g.add_cross_edge(b, a).expect("cycle");
        assert_eq!(v.cycle.len(), 2);
        assert_eq!(v.blamed_methods, vec![MethodId(0)]);
        assert_eq!(g.cycles, 1);
        assert_eq!(g.cross_edges, 2);
    }

    #[test]
    fn duplicate_edges_do_not_re_report() {
        let mut g = ClockGraph::new(2);
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
        // a1 →intra a2 on T0; cross b→a1, cross a2→b: cycle a1,a2,b.
        let mut g = ClockGraph::new(2);
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

    /// The case that makes eager transitive propagation load-bearing:
    /// b's snapshot of a's ancestors predates the c→a edge, so without
    /// propagation the closing edge b→c would not see c as an ancestor.
    #[test]
    fn propagation_closes_cycles_through_stale_snapshots() {
        let mut g = ClockGraph::new(3);
        let a = VTxId::new(T0, 1);
        let b = VTxId::new(T1, 1);
        let c = VTxId::new(T2, 1);
        g.begin(a, reg(0), VTxId::NONE);
        g.begin(b, reg(1), VTxId::NONE);
        g.begin(c, reg(2), VTxId::NONE);
        assert!(g.add_cross_edge(a, b).is_none()); // b learns a
        assert!(g.add_cross_edge(c, a).is_none()); // a learns c; must flow on to b
        let v = g.add_cross_edge(b, c).expect("cycle b→c→a→b");
        assert_eq!(v.cycle.len(), 3);
        assert!(g.propagated > 0, "the c→a join must propagate a→b");
    }

    #[test]
    fn collect_reclaims_unreachable() {
        let mut g = ClockGraph::new(1);
        let a1 = VTxId::new(T0, 1);
        let a2 = VTxId::new(T0, 2);
        g.begin(a1, reg(0), VTxId::NONE);
        g.begin(a2, reg(0), a1);
        assert_eq!(g.collect([a2]), 1);
        assert_eq!(g.len(), 1);
        assert!(g.add_cross_edge(a1, a2).is_none());
    }

    #[test]
    fn unary_only_cycle_blames_nothing_but_reports() {
        let mut g = ClockGraph::new(2);
        let a = VTxId::new(T0, 1);
        let b = VTxId::new(T1, 1);
        g.begin(a, TxKind::Unary, VTxId::NONE);
        g.begin(b, TxKind::Unary, VTxId::NONE);
        g.add_cross_edge(a, b);
        let v = g.add_cross_edge(b, a).expect("cycle");
        assert!(v.blamed_methods.is_empty());
        assert_eq!(v.static_key(), vec![None, None]);
    }

    #[test]
    fn clocks_stay_exact_ancestor_sets() {
        // a→b, b→c: c's clock must cover a transitively at edge time.
        let mut g = ClockGraph::new(3);
        let a = VTxId::new(T0, 1);
        let b = VTxId::new(T1, 1);
        let c = VTxId::new(T2, 1);
        g.begin(a, reg(0), VTxId::NONE);
        g.begin(b, reg(1), VTxId::NONE);
        g.begin(c, reg(2), VTxId::NONE);
        g.add_cross_edge(a, b);
        g.add_cross_edge(b, c);
        // Closing c→a must be an O(1) positive without any propagation
        // having been necessary (the join at b→c carried a along).
        let v = g.add_cross_edge(c, a).expect("cycle");
        assert_eq!(v.cycle.len(), 3);
    }
}
