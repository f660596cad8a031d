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
//! cycle, to reconstruct it for the same blame Velodrome assigns. The clocks
//! are one flat table indexed by the graph's slots, `n_threads` words per
//! slot: a transaction's row is written whole when it begins in a slot, so a
//! collected transaction's row needs no reclaiming, and a predecessor the
//! collector dropped reaches [`CycleFilter::begin`] as `None` — never as
//! the row of whichever transaction reused its slot.
//!
//! [`VGraph`]: dc_velodrome::VGraph

use dc_velodrome::{CycleFilter, DepGraph, JoinCounts, VTxId};

fn seq_of(id: VTxId) -> u64 {
    id.0 >> 16
}

/// Per-transaction vector clocks over the shared dependence graph.
#[derive(Debug)]
pub struct ClockGraph {
    n_threads: usize,
    /// `clocks[slot * n_threads + u]` = highest sequence number of thread
    /// `u` known to precede the transaction in `slot` (reflexive in the
    /// owner's component).
    clocks: Vec<u64>,
    work: Vec<(u32, u32)>,
    joins: u64,
    propagated: u64,
}

impl ClockGraph {
    /// Where `slot`'s row starts.
    fn row(&self, slot: u32) -> usize {
        slot as usize * self.n_threads
    }

    /// Joins `src`'s clock into `dst`, then propagates any growth along
    /// out-edges until clocks stop changing. Terminates because clocks are
    /// monotone and bounded by the current per-thread sequence numbers.
    fn join_and_propagate(&mut self, graph: &DepGraph, src: u32, dst: u32) {
        let mut work = std::mem::take(&mut self.work);
        work.clear();
        work.push((src, dst));
        let mut direct = true;
        while let Some((from, to)) = work.pop() {
            // `from != to`: the graph holds no self-edges.
            let (f, t) = (self.row(from), self.row(to));
            let mut changed = false;
            for u in 0..self.n_threads {
                let v = self.clocks[f + u];
                if v > self.clocks[t + u] {
                    self.clocks[t + u] = v;
                    changed = true;
                }
            }
            self.joins += 1;
            if !direct {
                self.propagated += 1;
            }
            direct = false;
            if changed {
                work.extend(graph.out_list(to).map(|r| (to, r.dst_slot)));
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
            clocks: Vec::new(),
            work: Vec::new(),
            joins: 0,
            propagated: 0,
        }
    }

    /// The clock starts as the program-order predecessor's clock (the
    /// predecessor is finished, so its clock is final) advanced to the new
    /// transaction's own sequence number.
    fn begin(&mut self, slot: u32, id: VTxId, prev: Option<u32>) {
        let (at, n) = (self.row(slot), self.n_threads);
        if self.clocks.len() < at + n {
            self.clocks.resize(at + n, 0);
        }
        match prev.map(|p| self.row(p)) {
            Some(from) => self.clocks.copy_within(from..from + n, at),
            None => self.clocks[at..at + n].fill(0),
        }
        let t = id.thread().index();
        if t < n {
            self.clocks[at + t] = seq_of(id);
        }
    }

    /// O(1) cycle test, then the join: `dst` is an ancestor of `src` iff
    /// `src`'s clock already covers `dst`'s thread at or past `dst`'s
    /// sequence number.
    fn edge(&mut self, graph: &DepGraph, src: u32, dst: u32) -> bool {
        let dst_id = graph.at(dst).id;
        let dt = dst_id.thread().index();
        let cyclic = dt < self.n_threads && self.clocks[self.row(src) + dt] >= seq_of(dst_id);
        self.join_and_propagate(graph, src, dst);
        cyclic
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
