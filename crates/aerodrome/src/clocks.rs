//! AeroDrome's vector-clock cycle filter.
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
//! The out-edges are the shared [`VGraph`]'s, so [`ClockGraph`] is only a
//! [`CycleFilter`]: the graph's DFS runs only when the clocks report a
//! cycle, to reconstruct it for the same blame Velodrome assigns.
//!
//! [`VGraph`]: dc_velodrome::VGraph

use dc_velodrome::{CycleFilter, JoinCounts, OutLists, VTxId};
use std::collections::HashMap;
use std::fmt;

fn seq_of(id: VTxId) -> u64 {
    id.0 >> 16
}

/// Per-transaction vector clocks over the shared dependence graph.
pub struct ClockGraph {
    n_threads: usize,
    /// `clocks[T][u]` = highest sequence number of thread `u` known to
    /// precede `T` (reflexive in the owner's component).
    clocks: HashMap<VTxId, Box<[u64]>>,
    /// Free list of `n_threads`-wide clock slices of reclaimed
    /// transactions: steady state begins transactions without allocating
    /// (the per-tx clock allocation costs what the linear-time check saves).
    free: Vec<Box<[u64]>>,
    work: Vec<(VTxId, VTxId)>,
    joins: u64,
    propagated: u64,
}

impl fmt::Debug for ClockGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClockGraph")
            .field("clocks", &self.clocks.len())
            .field("threads", &self.n_threads)
            .finish()
    }
}

impl ClockGraph {
    /// Joins `src`'s clock into `dst`, then propagates any growth along
    /// out-edges until clocks stop changing. Terminates because clocks are
    /// monotone and bounded by the current per-thread sequence numbers.
    fn join_and_propagate(&mut self, graph: OutLists<'_>, src: VTxId, dst: VTxId) {
        let mut work = std::mem::take(&mut self.work);
        work.clear();
        work.push((src, dst));
        let mut direct = true;
        while let Some((from, to)) = work.pop() {
            // `from != to`: the graph holds no self-edges.
            let [Some(f), Some(t)] = self.clocks.get_disjoint_mut([&from, &to]) else {
                direct = false;
                continue;
            };
            let mut changed = false;
            for (slot, &v) in t.iter_mut().zip(f.iter()) {
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
                let out = graph.get(to).unwrap_or_default();
                work.extend(out.iter().map(|&next| (to, next)));
            }
        }
        self.work = work;
    }
}

impl CycleFilter for ClockGraph {
    const NAME: &'static str = "AeroDrome";

    fn new(n_threads: usize) -> Self {
        ClockGraph {
            n_threads,
            clocks: HashMap::new(),
            free: Vec::new(),
            work: Vec::new(),
            joins: 0,
            propagated: 0,
        }
    }

    /// The clock starts as the program-order predecessor's clock (the
    /// predecessor is finished, so its clock is final) advanced to the new
    /// transaction's own sequence number.
    fn begin(&mut self, id: VTxId, prev: VTxId) {
        // Reuse a pooled slice when one is free; either branch overwrites
        // every element, so stale pooled contents never leak through.
        let mut clock: Box<[u64]> = self
            .free
            .pop()
            .unwrap_or_else(|| vec![0; self.n_threads].into_boxed_slice());
        match self.clocks.get(&prev) {
            Some(p) => clock.copy_from_slice(p),
            None => clock.fill(0),
        }
        let t = id.thread().index();
        if t < clock.len() {
            clock[t] = seq_of(id);
        }
        self.clocks.insert(id, clock);
    }

    /// O(1) cycle test, then the join: `dst` is an ancestor of `src` iff
    /// `src`'s clock already covers `dst`'s thread at or past `dst`'s
    /// sequence number.
    fn edge(&mut self, graph: OutLists<'_>, src: VTxId, dst: VTxId) -> bool {
        let dt = dst.thread().index();
        let cyclic = self
            .clocks
            .get(&src)
            .is_some_and(|c| dt < c.len() && c[dt] >= seq_of(dst));
        self.join_and_propagate(graph, src, dst);
        cyclic
    }

    fn reclaim(&mut self, id: VTxId) {
        if let Some(clock) = self.clocks.remove(&id) {
            self.free.push(clock);
        }
    }
}

impl JoinCounts for ClockGraph {
    fn joins(&self) -> u64 {
        self.joins
    }

    fn propagated(&self) -> u64 {
        self.propagated
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_runtime::ids::{MethodId, ThreadId};
    use dc_runtime::spec::TxKind;
    use dc_velodrome::VGraph;

    const T0: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);
    const T2: ThreadId = ThreadId(2);

    fn reg(m: u32) -> TxKind {
        TxKind::Regular(MethodId(m))
    }

    /// The case that makes eager transitive propagation load-bearing:
    /// b's snapshot of a's ancestors predates the c→a edge, so without
    /// propagation the closing edge b→c would not see c as an ancestor.
    #[test]
    fn propagation_closes_cycles_through_stale_snapshots() {
        let mut g = VGraph::<ClockGraph>::new(3);
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
        assert!(
            g.filter().propagated() > 0,
            "the c→a join must propagate a→b"
        );
    }

    #[test]
    fn clocks_stay_exact_ancestor_sets() {
        // a→b, b→c: c's clock must cover a transitively at edge time.
        let mut g = VGraph::<ClockGraph>::new(3);
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
