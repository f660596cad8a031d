//! The imprecise dependence graph (IDG) and its maintenance.
//!
//! Nodes are transactions; edges are intra-thread program-order edges plus
//! the cross-thread edges ICD derives from Octet transitions (Figure 4).
//! When a transaction finishes, [`Graph::scc_from`] computes the maximal
//! strongly connected component containing it, exploring only finished
//! transactions (§3.2.3) — sound because a finished transaction never gains
//! incoming edges, so a cycle is fully present exactly when its last member
//! finishes.
//!
//! [`Graph::collect`] reclaims transactions the way the paper relies on the
//! JVM's GC: transactions are kept while reachable — following outgoing-edge
//! references — from a *root*: a thread's current transaction, a `lastRdEx`
//! reference, or `gLastRdSh`. Every edge's source is a root when the edge is
//! created, and edges only ever point *to* then-current transactions, so a
//! transaction that becomes unreachable can never regain reachability and
//! can never appear in a future cycle; it is dropped with its log.
//!
//! # Storage
//!
//! Nodes live in a slab (`Vec<TxNode>`) addressed by a dense `u32` slot
//! index; a free list, refilled by [`Graph::collect`], recycles slots. Each
//! out-edge stores its destination's slot alongside the [`Edge`], so Tarjan
//! and the collector's mark phase never hash — the `TxId → slot` map (on
//! the multiplicative [`IdHasher`](crate::types::IdHasher)) is consulted
//! only at the graph's boundary (insert/finish/edge creation).
//! Slot indices held by live edges never dangle: the collector retains
//! exactly the forward closure of the roots, so every out-edge of a
//! surviving node targets a surviving node, and a freed slot has no live
//! referrers when it is reused.
//!
//! Tarjan's per-node state (visit index, lowlink, on-stack bit) and the
//! collector's mark set live in epoch-stamped scratch arrays owned by the
//! graph: a slot's entry is valid only when its stamp equals the current
//! visit epoch, so "clearing" between passes is one counter bump. The DFS
//! stack, frame, and component buffers are retained across calls. In steady
//! state (slab not growing) [`Graph::scc_from`] and the collector's mark
//! phase therefore perform no heap allocation.

use crate::icd::{IcdStats, Registers};
use crate::types::{
    Edge, EdgeKind, IdMap, LogEntry, ReplayConstraint, SccReport, TxId, TxKind, TxSnapshot,
};
use dc_obs::{EventKind, PipelineObs, Stage};
use dc_runtime::ids::ThreadId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Table-3 counters the graph maintains. They live behind an `Arc` of
/// atomics so readers ([`crate::Icd::cross_edges`], [`crate::Icd::scc_count`])
/// never need the graph lock.
#[derive(Debug, Default)]
pub struct GraphCounters {
    /// Cross-thread edges added (Table 3 column).
    pub cross_edges: AtomicU64,
    /// SCCs with ≥ 2 transactions detected (Table 3 column).
    pub scc_count: AtomicU64,
}

/// One IDG node, stored in a slab slot. A free slot is recognizable by
/// `id == TxId::NONE`.
#[derive(Debug)]
pub struct TxNode {
    /// The transaction occupying this slot ([`TxId::NONE`] when free).
    pub id: TxId,
    /// Executing thread.
    pub thread: ThreadId,
    /// Regular or unary.
    pub kind: TxKind,
    /// Per-thread transaction sequence number.
    pub seq: u64,
    /// True once the transaction has ended.
    pub finished: bool,
    /// Outgoing edges.
    pub out: Vec<Edge>,
    /// Slab slot of each out-edge's destination, parallel to `out`, so
    /// traversals never hash.
    out_dst: Vec<u32>,
    /// Incoming cross-thread edges, self-contained for replay constraints
    /// (the source may be collected later).
    pub in_cross: Vec<ReplayConstraint>,
    /// Final read/write log (set when the transaction finishes), at its
    /// exact size.
    pub log: Arc<[LogEntry]>,
    /// Final log length (valid once finished).
    pub final_len: u32,
    /// Incoming edges added while the node has been live (intra + cross).
    /// Never decremented, so after a collection it may overcount — it is
    /// only ever used to *skip* cycle detection when zero, and a node with
    /// zero recorded in-edges certainly has none.
    in_count: u32,
}

/// A structurally invalid finish: the caller named a transaction the graph
/// does not know, or one that already finished.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FinishError {
    /// No live node carries this id (never inserted, or already collected).
    UnknownTx(TxId),
    /// The node was already marked finished.
    AlreadyFinished(TxId),
}

impl std::fmt::Display for FinishError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FinishError::UnknownTx(id) => write!(f, "finishing unknown tx {id:?}"),
            FinishError::AlreadyFinished(id) => write!(f, "tx {id:?} finished twice"),
        }
    }
}

impl std::error::Error for FinishError {}

/// Outcome of [`Graph::scc_probe`]: whether Tarjan ran and what it found.
#[derive(Debug)]
pub enum SccProbe {
    /// Tarjan was skipped: the root is missing, unfinished, or trivially
    /// acyclic (no incoming or no outgoing edges — it cannot be on a
    /// cycle). Exactly the cases where a full traversal would report
    /// nothing.
    Skipped,
    /// Tarjan ran; the root's SCC has fewer than two members.
    NoCycle,
    /// Tarjan ran and found the root's SCC (≥ 2 members).
    Cycle(SccReport),
}

/// Epoch-stamped Tarjan scratch: per-slot visit state plus the retained
/// DFS stack/frame/component buffers.
#[derive(Debug, Default)]
struct TarjanScratch {
    /// Slot entry is valid iff `stamp[slot] == epoch`.
    stamp: Vec<u32>,
    index: Vec<u32>,
    lowlink: Vec<u32>,
    on_stack: Vec<bool>,
    /// Tarjan's component stack (slot indices).
    stack: Vec<u32>,
    /// DFS frames: (slot, cursor into its out-edges).
    frames: Vec<(u32, u32)>,
    /// The root's component, reused across calls.
    component: Vec<u32>,
    epoch: u32,
}

impl TarjanScratch {
    /// Sizes the per-slot arrays to the slab and starts a fresh visit
    /// epoch. Allocation-free unless the slab grew since the last pass.
    fn begin(&mut self, slots: usize) -> u32 {
        self.stamp.resize(slots, 0);
        self.index.resize(slots, 0);
        self.lowlink.resize(slots, 0);
        self.on_stack.resize(slots, false);
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Epoch wrapped: stale stamps from the previous cycle could
            // alias the new epoch values. Reset and skip 0 (the stamp
            // arrays' fill value).
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
        self.epoch
    }
}

/// Epoch-stamped mark scratch shared by the collector's mark phase and
/// component snapshotting.
#[derive(Debug, Default)]
struct MarkScratch {
    /// Slot is marked iff `stamp[slot] == epoch`.
    stamp: Vec<u32>,
    /// BFS worklist (collector only).
    work: Vec<u32>,
    epoch: u32,
}

impl MarkScratch {
    /// Sizes the stamp array to the slab and starts a fresh mark epoch.
    fn begin(&mut self, slots: usize) -> u32 {
        self.stamp.resize(slots, 0);
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
        self.epoch
    }
}

/// The IDG plus the `gLastRdSh` register (§3.2.2).
#[derive(Debug, Default)]
pub struct Graph {
    /// Node storage; slots are recycled through `free`.
    slab: Vec<TxNode>,
    /// Slots holding no live transaction, refilled by [`Graph::collect`].
    free: Vec<u32>,
    /// Boundary map from transaction id to slab slot.
    index: IdMap<TxId, u32>,
    /// Last transaction (across all threads) to move an object to RdSh.
    pub g_last_rd_sh: TxId,
    counters: Arc<GraphCounters>,
    /// Shared empty log, cloned into fresh/freed slots without allocating.
    empty_log: Arc<[LogEntry]>,
    tarjan: TarjanScratch,
    mark: MarkScratch,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// The shared counter cell, for lock-free readers.
    pub fn counters(&self) -> Arc<GraphCounters> {
        Arc::clone(&self.counters)
    }

    /// Cross-thread edges added (Table 3 column).
    pub fn cross_edges(&self) -> u64 {
        self.counters.cross_edges.load(Ordering::Relaxed)
    }

    /// SCCs with ≥ 2 transactions detected (Table 3 column).
    pub fn scc_count(&self) -> u64 {
        self.counters.scc_count.load(Ordering::Relaxed)
    }

    /// Number of live (uncollected) transactions.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True if no transactions are live.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Total slab slots, live or free (tests/diagnostics: a stable slab
    /// size across insert/collect churn proves slot reuse).
    pub fn slab_len(&self) -> usize {
        self.slab.len()
    }

    /// Free-list length (tests/diagnostics).
    pub fn free_slots(&self) -> usize {
        self.free.len()
    }

    /// Access a node (tests/diagnostics).
    pub fn node(&self, id: TxId) -> Option<&TxNode> {
        self.index.get(&id).map(|&i| &self.slab[i as usize])
    }

    /// Inserts a new, unfinished transaction node, reusing a free slot when
    /// one exists.
    pub fn insert(&mut self, id: TxId, thread: ThreadId, kind: TxKind, seq: u64) {
        let slot = match self.free.pop() {
            Some(slot) => {
                let node = &mut self.slab[slot as usize];
                debug_assert!(!node.id.is_some(), "free slot still occupied");
                debug_assert!(node.out.is_empty() && node.in_cross.is_empty());
                node.id = id;
                node.thread = thread;
                node.kind = kind;
                node.seq = seq;
                node.finished = false;
                node.final_len = 0;
                node.in_count = 0;
                slot
            }
            None => {
                let slot = u32::try_from(self.slab.len()).expect("slab overflow");
                self.slab.push(TxNode {
                    id,
                    thread,
                    kind,
                    seq,
                    finished: false,
                    out: Vec::new(),
                    out_dst: Vec::new(),
                    in_cross: Vec::new(),
                    log: Arc::clone(&self.empty_log),
                    final_len: 0,
                    in_count: 0,
                });
                slot
            }
        };
        let prev = self.index.insert(id, slot);
        debug_assert!(prev.is_none(), "duplicate transaction id");
    }

    /// Adds an edge. Self-edges are dropped (a transaction trivially
    /// depends on itself). Missing endpoints (already collected) are
    /// ignored — a collected source cannot be part of a future cycle.
    pub fn add_edge(&mut self, edge: Edge) {
        if edge.src == edge.dst || !edge.src.is_some() || !edge.dst.is_some() {
            return;
        }
        let (Some(&src_slot), Some(&dst_slot)) =
            (self.index.get(&edge.src), self.index.get(&edge.dst))
        else {
            return;
        };
        let (src_thread, src_seq) = {
            let src = &mut self.slab[src_slot as usize];
            src.out.push(edge);
            src.out_dst.push(dst_slot);
            (src.thread, src.seq)
        };
        let dst = &mut self.slab[dst_slot as usize];
        dst.in_count += 1;
        if edge.kind == EdgeKind::Cross {
            self.counters.cross_edges.fetch_add(1, Ordering::Relaxed);
            dst.in_cross.push(ReplayConstraint {
                dst: edge.dst,
                dst_pos: edge.dst_pos,
                src: edge.src,
                src_thread,
                src_seq,
                src_pos: edge.src_pos,
            });
        }
    }

    /// Inserts `id` as `thread`'s next transaction: the node plus the
    /// program-order edge from the thread's previous transaction `prev`
    /// (finished by then; [`TxId::NONE`] for a thread's first).
    pub(crate) fn insert_after(
        &mut self,
        id: TxId,
        thread: ThreadId,
        kind: TxKind,
        seq: u64,
        prev: TxId,
    ) {
        self.insert(id, thread, kind, seq);
        if prev.is_some() {
            let src_pos = self.node(prev).map_or(0, |n| n.final_len);
            self.add_edge(Edge {
                src: prev,
                src_pos,
                dst: id,
                dst_pos: 0,
                kind: EdgeKind::Intra,
            });
        }
    }

    /// Marks `id` finished and stores its final log. A finish naming an
    /// unknown or already-finished transaction is a checked error.
    pub fn finish(&mut self, id: TxId, log: Vec<LogEntry>) -> Result<(), FinishError> {
        self.finish_shared(id, (!log.is_empty()).then(|| log.into()))
    }

    /// [`Graph::finish`] with the log already in its retained form (`None`
    /// for an empty one), so the copy is made before the graph is locked.
    pub(crate) fn finish_shared(
        &mut self,
        id: TxId,
        log: Option<Arc<[LogEntry]>>,
    ) -> Result<(), FinishError> {
        let Some(&slot) = self.index.get(&id) else {
            return Err(FinishError::UnknownTx(id));
        };
        let node = &mut self.slab[slot as usize];
        if node.finished {
            return Err(FinishError::AlreadyFinished(id));
        }
        node.finished = true;
        // Empty logs share the one empty slice instead of allocating an
        // `Arc` per finish: with logging off (first run of multi-run mode)
        // every finish takes this path.
        node.log = log.unwrap_or_else(|| Arc::clone(&self.empty_log));
        node.final_len = u32::try_from(node.log.len()).expect("log too long");
        Ok(())
    }

    /// [`Graph::finish_shared`] followed, when `detect_sccs`, by the cycle
    /// probe from the finished transaction (§3.2.3), with the probe's
    /// observability accounting: what a transaction end does to the graph.
    pub(crate) fn finish_and_probe(
        &mut self,
        id: TxId,
        log: Option<Arc<[LogEntry]>>,
        detect_sccs: bool,
        obs: Option<&PipelineObs>,
    ) -> Result<Option<SccReport>, FinishError> {
        self.finish_shared(id, log)?;
        if !detect_sccs {
            return Ok(None);
        }
        let t0 = obs.and_then(|o| o.clock());
        let probe = self.scc_probe(id);
        if let Some(obs) = obs {
            obs.graph.scc_latency.record_elapsed(t0);
            match &probe {
                SccProbe::Skipped => obs.graph.sccs_skipped_trivial.inc(),
                SccProbe::NoCycle => {}
                SccProbe::Cycle(r) => {
                    obs.graph.sccs_detected.inc();
                    obs.trace(Stage::Graph, EventKind::SccDetected, r.len() as u64);
                }
            }
        }
        Ok(match probe {
            SccProbe::Cycle(report) => Some(report),
            SccProbe::Skipped | SccProbe::NoCycle => None,
        })
    }

    /// Computes the maximal SCC containing `root`, exploring finished
    /// transactions only. Returns `None` unless the SCC has ≥ 2 members.
    pub fn scc_from(&mut self, root: TxId) -> Option<SccReport> {
        match self.scc_probe(root) {
            SccProbe::Cycle(report) => Some(report),
            SccProbe::Skipped | SccProbe::NoCycle => None,
        }
    }

    /// Like [`Graph::scc_from`], distinguishing "Tarjan skipped by the
    /// trivial pre-filter" from "Tarjan ran and found nothing" so callers
    /// can account for skipped traversals.
    ///
    /// The pre-filter is exact: a finished transaction with no incoming or
    /// no outgoing edges cannot be on a cycle, so the skipped traversal
    /// would have returned the root alone. (`in_count` may overcount after
    /// a collection, which only makes the filter more conservative.)
    pub fn scc_probe(&mut self, root: TxId) -> SccProbe {
        let Some(&root_slot) = self.index.get(&root) else {
            return SccProbe::Skipped;
        };
        {
            let node = &self.slab[root_slot as usize];
            if !node.finished || node.in_count == 0 || node.out.is_empty() {
                return SccProbe::Skipped;
            }
        }
        // Iterative Tarjan restricted to finished nodes reachable from
        // root, on epoch-stamped scratch (taken out of `self` so the slab
        // and the scratch can be borrowed simultaneously).
        let mut t = std::mem::take(&mut self.tarjan);
        let epoch = t.begin(self.slab.len());
        debug_assert!(t.stack.is_empty() && t.frames.is_empty());
        t.component.clear();
        let mut next_index = 1u32;
        t.stamp[root_slot as usize] = epoch;
        t.index[root_slot as usize] = 0;
        t.lowlink[root_slot as usize] = 0;
        t.on_stack[root_slot as usize] = true;
        t.stack.push(root_slot);
        t.frames.push((root_slot, 0));

        while let Some(&(v, cursor)) = t.frames.last() {
            let vi = v as usize;
            let next_child = {
                let node = &self.slab[vi];
                let mut cur = cursor as usize;
                let mut found = None;
                while cur < node.out_dst.len() {
                    let w = node.out_dst[cur];
                    cur += 1;
                    if self.slab[w as usize].finished {
                        found = Some(w);
                        break;
                    }
                }
                t.frames.last_mut().expect("frame exists").1 = cur as u32;
                found
            };
            match next_child {
                Some(w) => {
                    let wi = w as usize;
                    if t.stamp[wi] == epoch {
                        if t.on_stack[wi] {
                            let w_index = t.index[wi];
                            t.lowlink[vi] = t.lowlink[vi].min(w_index);
                        }
                    } else {
                        t.stamp[wi] = epoch;
                        t.index[wi] = next_index;
                        t.lowlink[wi] = next_index;
                        t.on_stack[wi] = true;
                        next_index += 1;
                        t.stack.push(w);
                        t.frames.push((w, 0));
                    }
                }
                None => {
                    t.frames.pop();
                    let v_low = t.lowlink[vi];
                    if let Some(&(parent, _)) = t.frames.last() {
                        let pi = parent as usize;
                        t.lowlink[pi] = t.lowlink[pi].min(v_low);
                    }
                    if v_low == t.index[vi] {
                        // Pop one SCC off the Tarjan stack. The root has
                        // visit index 0, so its SCC is headed by the root
                        // itself and popped exactly at `v == root_slot`;
                        // other components are discarded as they pop.
                        loop {
                            let w = t.stack.pop().expect("tarjan stack underflow");
                            t.on_stack[w as usize] = false;
                            if v == root_slot {
                                t.component.push(w);
                            }
                            if w == v {
                                break;
                            }
                        }
                    }
                }
            }
        }
        debug_assert!(t.stack.is_empty(), "tarjan stack drained");

        if t.component.len() < 2 {
            self.tarjan = t;
            return SccProbe::NoCycle;
        }
        self.counters.scc_count.fetch_add(1, Ordering::Relaxed);
        let component = std::mem::take(&mut t.component);
        self.tarjan = t;
        let report = self.snapshot_component(&component);
        self.tarjan.component = component;
        SccProbe::Cycle(report)
    }

    /// Snapshots *every* finished transaction and all edges among them —
    /// the "PCD-only" variant of §5.4, where PCD processes every executed
    /// transaction rather than just ICD's SCCs.
    pub fn snapshot_all_finished(&mut self) -> SccReport {
        let component: Vec<u32> = (0..self.slab.len() as u32)
            .filter(|&i| {
                let n = &self.slab[i as usize];
                n.id.is_some() && n.finished
            })
            .collect();
        self.snapshot_component(&component)
    }

    fn snapshot_component(&mut self, component: &[u32]) -> SccReport {
        let epoch = self.mark.begin(self.slab.len());
        for &i in component {
            self.mark.stamp[i as usize] = epoch;
        }
        let mut txs: Vec<TxSnapshot> = component
            .iter()
            .map(|&i| {
                let n = &self.slab[i as usize];
                TxSnapshot {
                    id: n.id,
                    thread: n.thread,
                    kind: n.kind,
                    seq: n.seq,
                    log: Arc::clone(&n.log),
                }
            })
            .collect();
        txs.sort_by_key(|t| (t.thread, t.seq));
        let mut edges = Vec::new();
        let mut constraints = Vec::new();
        for &i in component {
            let node = &self.slab[i as usize];
            for (e, &d) in node.out.iter().zip(&node.out_dst) {
                if self.mark.stamp[d as usize] == epoch {
                    edges.push(*e);
                }
            }
            constraints.extend(node.in_cross.iter().copied());
        }
        SccReport {
            txs,
            edges,
            constraints,
        }
    }

    /// Drops finished transactions unreachable from the roots via outgoing
    /// edges (the JVM-reachability semantics the paper relies on), pushing
    /// their slots onto the free list. Returns the number collected.
    pub fn collect(&mut self, roots: impl IntoIterator<Item = TxId>) -> usize {
        // Forward BFS from the roots over out-edges. Unfinished transactions
        // are roots too (each is some thread's current transaction). The
        // mark set is the epoch-stamped scratch; the worklist is retained
        // across passes — the mark phase allocates nothing in steady state.
        let mut m = std::mem::take(&mut self.mark);
        let epoch = m.begin(self.slab.len());
        m.work.clear();
        for r in roots {
            if let Some(&slot) = self.index.get(&r) {
                if m.stamp[slot as usize] != epoch {
                    m.stamp[slot as usize] = epoch;
                    m.work.push(slot);
                }
            }
        }
        for (i, node) in self.slab.iter().enumerate() {
            if node.id.is_some() && !node.finished && m.stamp[i] != epoch {
                m.stamp[i] = epoch;
                m.work.push(i as u32);
            }
        }
        while let Some(slot) = m.work.pop() {
            for &d in &self.slab[slot as usize].out_dst {
                let di = d as usize;
                if m.stamp[di] != epoch {
                    m.stamp[di] = epoch;
                    m.work.push(d);
                }
            }
        }
        let mut collected = 0;
        for i in 0..self.slab.len() {
            let node = &mut self.slab[i];
            if node.id.is_some() && node.finished && m.stamp[i] != epoch {
                self.index.remove(&node.id);
                node.id = TxId::NONE;
                node.finished = false;
                node.out.clear();
                node.out_dst.clear();
                node.in_cross.clear();
                node.log = Arc::clone(&self.empty_log);
                node.final_len = 0;
                node.in_count = 0;
                self.free.push(i as u32);
                collected += 1;
            }
        }
        self.mark = m;
        collected
    }
}

/// The transaction collector's pacing and its register-rooted pass, run
/// inside the transaction boundary's critical section.
///
/// Pacing counts transaction ends toward an adaptive threshold. With
/// collection disabled (`every == 0`) it counts nothing — an unconditional
/// count overflows `u32` on long soak runs (debug builds panicked after 2³²
/// ends).
#[derive(Debug)]
pub(crate) struct Collector {
    every: u32,
    ends: u32,
    threshold: u32,
    /// Root scratch, retained across passes.
    roots: Vec<TxId>,
}

impl Collector {
    pub(crate) fn new(every: u32) -> Self {
        Collector {
            every,
            ends: 0,
            threshold: every.max(1),
            roots: Vec::new(),
        }
    }

    /// Counts one transaction end (saturating: a threshold of `u32::MAX`
    /// must still trigger rather than wrap).
    pub(crate) fn on_finish(&mut self) {
        if self.every > 0 {
            self.ends = self.ends.saturating_add(1);
        }
    }

    /// True when enough ends accumulated for a collection pass.
    pub(crate) fn due(&self) -> bool {
        self.every > 0 && self.ends >= self.threshold
    }

    /// Resets after a pass: next threshold is the configured cadence or
    /// half the survivor count, whichever is larger (collecting a mostly
    /// live graph is wasted work), so scan cost stays amortized-linear even
    /// when nothing is collectable.
    fn after_collect(&mut self, survivors: usize) {
        self.ends = 0;
        self.threshold = self
            .every
            .max(u32::try_from(survivors / 2).unwrap_or(u32::MAX));
    }

    /// One pass: roots are every thread's `currTX` and `lastRdEx` and the
    /// graph's `gLastRdSh`; [`Graph::collect`] adds the unfinished
    /// transactions.
    pub(crate) fn collect(
        &mut self,
        graph: &mut Graph,
        regs: &Registers,
        stats: &IcdStats,
        obs: Option<&PipelineObs>,
    ) {
        let t_obs = obs.and_then(|o| o.clock());
        self.roots.clear();
        for tr in regs.threads.iter() {
            self.roots.push(TxId(tr.current_tx.load(Ordering::Acquire)));
            self.roots.push(TxId(tr.last_rd_ex.load(Ordering::Acquire)));
        }
        self.roots.push(graph.g_last_rd_sh);
        let collected = graph.collect(self.roots.iter().copied());
        self.after_collect(graph.len());
        stats
            .collected_txs
            .fetch_add(collected as u64, Ordering::Relaxed);
        if let Some(obs) = obs {
            obs.graph.collect_latency.record_elapsed(t_obs);
            obs.trace(Stage::Graph, EventKind::CollectRun, collected as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(src: u64, dst: u64) -> Edge {
        Edge {
            src: TxId(src),
            src_pos: 0,
            dst: TxId(dst),
            dst_pos: 0,
            kind: EdgeKind::Cross,
        }
    }

    fn graph_with(n: u64) -> Graph {
        let mut g = Graph::new();
        for i in 1..=n {
            g.insert(TxId(i), ThreadId((i % 4) as u16), TxKind::Unary, i);
        }
        g
    }

    fn finish_all(g: &mut Graph, n: u64) {
        for i in 1..=n {
            g.finish(TxId(i), vec![]).unwrap();
        }
    }

    #[test]
    fn two_cycle_is_detected_when_last_member_finishes() {
        let mut g = graph_with(2);
        g.add_edge(edge(1, 2));
        g.add_edge(edge(2, 1));
        g.finish(TxId(1), vec![]).unwrap();
        // Tx2 unfinished: no SCC yet.
        assert!(g.scc_from(TxId(1)).is_none());
        g.finish(TxId(2), vec![]).unwrap();
        let scc = g.scc_from(TxId(2)).expect("cycle complete");
        assert_eq!(scc.len(), 2);
        assert_eq!(scc.edges.len(), 2);
        assert_eq!(g.scc_count(), 1);
    }

    #[test]
    fn self_edges_are_dropped() {
        let mut g = graph_with(1);
        g.add_edge(edge(1, 1));
        g.finish(TxId(1), vec![]).unwrap();
        assert!(g.scc_from(TxId(1)).is_none());
        assert_eq!(g.cross_edges(), 0);
    }

    #[test]
    fn path_without_cycle_yields_no_scc() {
        let mut g = graph_with(3);
        g.add_edge(edge(1, 2));
        g.add_edge(edge(2, 3));
        finish_all(&mut g, 3);
        assert!(g.scc_from(TxId(3)).is_none());
        assert!(g.scc_from(TxId(1)).is_none());
    }

    #[test]
    fn maximal_scc_is_found_not_just_a_cycle() {
        // 1→2→3→1 and 2→4→2: one SCC of size 4.
        let mut g = graph_with(4);
        for (s, d) in [(1, 2), (2, 3), (3, 1), (2, 4), (4, 2)] {
            g.add_edge(edge(s, d));
        }
        finish_all(&mut g, 4);
        let scc = g.scc_from(TxId(1)).unwrap();
        assert_eq!(scc.len(), 4);
    }

    #[test]
    fn scc_excludes_unfinished_members_until_they_finish() {
        let mut g = graph_with(3);
        for (s, d) in [(1, 2), (2, 3), (3, 1)] {
            g.add_edge(edge(s, d));
        }
        g.finish(TxId(1), vec![]).unwrap();
        g.finish(TxId(2), vec![]).unwrap();
        assert!(
            g.scc_from(TxId(2)).is_none(),
            "3 unfinished breaks the loop"
        );
        g.finish(TxId(3), vec![]).unwrap();
        assert_eq!(g.scc_from(TxId(3)).unwrap().len(), 3);
    }

    #[test]
    fn snapshot_carries_logs_and_internal_edges_only() {
        let mut g = graph_with(3);
        g.add_edge(edge(1, 2));
        g.add_edge(edge(2, 1));
        g.add_edge(edge(2, 3)); // leaves the SCC
        g.finish(
            TxId(1),
            vec![LogEntry::new(dc_runtime::ids::ObjId(9), 0, true, false)],
        )
        .unwrap();
        g.finish(TxId(2), vec![]).unwrap();
        g.finish(TxId(3), vec![]).unwrap();
        let scc = g.scc_from(TxId(2)).unwrap();
        assert_eq!(scc.len(), 2);
        assert_eq!(scc.edges.len(), 2, "edge 2→3 excluded");
        let t1 = scc.txs.iter().find(|t| t.id == TxId(1)).unwrap();
        assert_eq!(t1.log.len(), 1);
    }

    #[test]
    fn collect_drops_only_unreachable_finished_txs() {
        let mut g = graph_with(4);
        // 2 is a root and points at 1; 3 is isolated; 4 is unfinished.
        g.add_edge(edge(2, 1));
        g.finish(TxId(1), vec![]).unwrap();
        g.finish(TxId(2), vec![]).unwrap();
        g.finish(TxId(3), vec![]).unwrap();
        let collected = g.collect([TxId(2)]);
        assert_eq!(collected, 1, "only Tx3 is collectable");
        assert!(g.node(TxId(1)).is_some(), "root Tx2 reaches Tx1");
        assert!(g.node(TxId(3)).is_none());
        assert!(g.node(TxId(4)).is_some(), "unfinished is kept");
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn collect_drops_old_intra_thread_chains() {
        // 1→2→3 with 3 unfinished (current): 1 and 2 can never gain new
        // incoming edges, so no future cycle can contain them — collected.
        let mut g = graph_with(3);
        g.add_edge(edge(1, 2));
        g.add_edge(edge(2, 3));
        g.finish(TxId(1), vec![]).unwrap();
        g.finish(TxId(2), vec![]).unwrap();
        assert_eq!(g.collect([TxId(3)]), 2);
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn collect_keeps_pending_cycle_members() {
        // Cycle in progress: 2 (current, root) → 1, and 1 → 2 back; both
        // stay until the SCC is detected and the roots move on.
        let mut g = graph_with(2);
        g.add_edge(edge(2, 1));
        g.add_edge(edge(1, 2));
        g.finish(TxId(1), vec![]).unwrap();
        assert_eq!(g.collect([TxId(2)]), 0);
    }

    #[test]
    fn edges_to_collected_nodes_are_ignored() {
        let mut g = graph_with(2);
        g.finish(TxId(1), vec![]).unwrap();
        assert_eq!(g.collect([TxId(2)]), 1);
        // Adding an edge naming the collected node is a no-op.
        g.add_edge(edge(1, 2));
        g.add_edge(edge(2, 1));
        assert_eq!(g.node(TxId(2)).unwrap().out.len(), 0);
    }

    #[test]
    fn cross_edge_stat_counts_only_cross_edges() {
        let mut g = graph_with(2);
        g.add_edge(Edge {
            src: TxId(1),
            src_pos: 0,
            dst: TxId(2),
            dst_pos: 0,
            kind: EdgeKind::Intra,
        });
        g.add_edge(edge(2, 1));
        assert_eq!(g.cross_edges(), 1);
    }

    #[test]
    fn trivial_pre_filter_skips_tarjan_exactly_when_it_would_find_nothing() {
        let mut g = graph_with(3);
        // Tx1 → Tx2 → Tx3: every node lacks an in- or out-edge, or both
        // ends but no cycle.
        g.add_edge(edge(1, 2));
        g.add_edge(edge(2, 3));
        finish_all(&mut g, 3);
        assert!(matches!(g.scc_probe(TxId(1)), SccProbe::Skipped), "no in");
        assert!(matches!(g.scc_probe(TxId(3)), SccProbe::Skipped), "no out");
        assert!(
            matches!(g.scc_probe(TxId(2)), SccProbe::NoCycle),
            "both ends present: Tarjan runs and finds nothing"
        );
        // Unknown / unfinished roots are also skips.
        assert!(matches!(g.scc_probe(TxId(9)), SccProbe::Skipped));
    }

    #[test]
    fn slab_slots_are_reused_after_collect_without_stale_state() {
        let mut g = graph_with(2);
        g.add_edge(edge(1, 2));
        g.add_edge(edge(2, 1));
        finish_all(&mut g, 2);
        let scc = g.scc_from(TxId(2)).expect("cycle");
        assert_eq!(scc.len(), 2);
        let slab_before = g.slab_len();
        // Neither tx is a root: both are collected, freeing both slots.
        assert_eq!(g.collect([]), 2);
        assert_eq!(g.free_slots(), 2);
        assert_eq!(g.len(), 0);
        // Reinsert into the freed slots: ids differ, slots recycle.
        g.insert(TxId(10), ThreadId(0), TxKind::Unary, 1);
        g.insert(TxId(11), ThreadId(1), TxKind::Unary, 1);
        assert_eq!(g.slab_len(), slab_before, "slots reused, slab not grown");
        assert_eq!(g.free_slots(), 0);
        // The recycled nodes carry no resurrected edges or logs…
        assert_eq!(g.node(TxId(10)).unwrap().out.len(), 0);
        assert_eq!(g.node(TxId(10)).unwrap().in_cross.len(), 0);
        assert_eq!(g.node(TxId(10)).unwrap().log.len(), 0);
        // …no stale Tarjan stamps (a fresh chain is not mistaken for the
        // old cycle)…
        g.add_edge(edge(10, 11));
        g.finish(TxId(10), vec![]).unwrap();
        g.finish(TxId(11), vec![]).unwrap();
        assert!(g.scc_from(TxId(11)).is_none(), "no cycle among new txs");
        // …and a fresh cycle in recycled slots is still detected.
        g.add_edge(edge(11, 10));
        let scc = g.scc_from(TxId(11)).expect("new cycle in reused slots");
        assert_eq!(scc.len(), 2);
        let ids: Vec<TxId> = scc.tx_ids().collect();
        assert!(ids.contains(&TxId(10)) && ids.contains(&TxId(11)));
    }

    #[test]
    fn malformed_finishes_are_checked_errors() {
        let mut g = graph_with(1);
        assert_eq!(
            g.finish(TxId(9), vec![]),
            Err(FinishError::UnknownTx(TxId(9)))
        );
        g.finish(TxId(1), vec![]).unwrap();
        assert_eq!(
            g.finish(TxId(1), vec![]),
            Err(FinishError::AlreadyFinished(TxId(1)))
        );
    }

    #[test]
    fn scratch_epoch_wrap_resets_stamps() {
        let mut g = graph_with(2);
        g.add_edge(edge(1, 2));
        g.add_edge(edge(2, 1));
        finish_all(&mut g, 2);
        // Force both scratch epochs to the wrap point; the next pass must
        // clear stamps rather than alias epoch 0.
        g.tarjan.epoch = u32::MAX;
        g.mark.epoch = u32::MAX;
        assert_eq!(g.scc_from(TxId(2)).expect("cycle").len(), 2);
        assert_eq!(g.tarjan.epoch, 1, "tarjan epoch restarted after wrap");
        assert!(g.scc_from(TxId(2)).is_some(), "stamps stay coherent");
        assert_eq!(g.collect([TxId(1)]), 0, "cycle reachable from root");
        // Mark epoch: wrap→1 (first snapshot), 2 (second snapshot), 3
        // (collect pass).
        assert_eq!(g.mark.epoch, 3, "mark epoch advanced past the wrap");
    }

    #[test]
    fn pacer_with_collection_disabled_never_counts_or_wraps() {
        let mut p = Collector::new(0);
        // Regression for an unconditional `ends += 1`: force the counter to
        // the wrap boundary and drive more ends through it.
        p.ends = u32::MAX - 1;
        for _ in 0..8 {
            p.on_finish(); // old code: debug overflow panic on the 2nd call
            assert!(!p.due());
        }
        assert_eq!(p.ends, u32::MAX - 1, "disabled pacer must not count");
    }

    #[test]
    fn pacer_saturates_at_a_maximal_threshold_instead_of_wrapping() {
        let mut p = Collector::new(1);
        p.threshold = u32::MAX;
        p.ends = u32::MAX - 1;
        assert!(!p.due());
        p.on_finish();
        assert!(p.due());
        p.on_finish(); // would wrap (and panic in debug) without saturation
        assert_eq!(p.ends, u32::MAX);
        assert!(p.due());
    }

    #[test]
    fn pacer_threshold_adapts_to_survivors() {
        let mut p = Collector::new(4);
        for _ in 0..4 {
            p.on_finish();
        }
        assert!(p.due());
        p.after_collect(100);
        assert_eq!(p.threshold, 50);
        assert!(!p.due());
        p.after_collect(0);
        assert_eq!(p.threshold, 4);
    }
}
