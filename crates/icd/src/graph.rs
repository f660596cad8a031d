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
//! Nodes, edges, the `TxId → slot` map and the collector are the shared
//! [`TxGraph`] core's (its docs describe the slab, the edge arena and the
//! mark-and-sweep pass); the IDG reads it through `Deref`. An edge record
//! carries the [`Edge`] plus the source's thread and sequence number, what
//! a [`ReplayConstraint`] needs once the source is gone, so
//! [`SccReport::constraints`] sees a node's in-edges in insertion order.
//! Intra-thread edges sit in the in-list too (constraints are its `Cross`
//! records). ICD consults the map once per node, at
//! [`Graph::insert`]: the slot it returns is published in the thread's
//! registers beside the transaction's id, and every later reference — the
//! boundary that finishes the node, an edge procedure naming it as an
//! endpoint, `gLastRdSh` — passes it back as a hint, validated against the
//! slot's occupant ([`TxGraph::resolve`]). A stale hint costs one map
//! lookup and is never wrong. Otherwise the map serves the collector's
//! roots and the by-id API tests and diagnostics use.
//!
//! # Repeated edges
//!
//! The edge procedures derive many edges the graph already implies: a
//! thread pair that keeps conflicting on one object derives the same edge,
//! from the same source position, over and over. A cross edge whose
//! source's *last* out-record is a cross edge to the same destination from
//! the same `src_pos`, entering it at the same or an earlier `dst_pos`, is
//! counted but not linked ([`Graph::add_cross`]). The replay constraint
//! (s, d) implies (s, d′) for every d′ ≥ d — the destination replays its
//! log in order — so PCD's enabled set is the same at every step, and the
//! graph's reachability, hence every SCC, is unchanged. [`Graph::add_edge`],
//! the by-id API, links every edge it is given.
//!
//! Finished transactions' read/write logs live in **one log arena owned by
//! the graph** (`Vec<LogEntry>`): a finish appends the log — copied from the
//! ending thread's buffer under the graph lock — and the node keeps its
//! `log_start` and `final_len`. After a sweep that freed log entries, the
//! collector slides the survivors' logs down over them, in arena order, so
//! the arena holds exactly the live logs. Moving them is safe because no
//! position into the arena outlives the lock: an [`SccReport`] copies its
//! members' logs out ([`TxSnapshot`] holds a range of the report's own
//! buffer), and everything else reads a log by id under the lock
//! ([`Graph::log`]). Neither a warm nor a *cold* graph allocates per node,
//! per edge or per log (`tests/alloc_free.rs` pins ≤ 64 calls for 1 000
//! logged nodes and 5 000 edges).
//!
//! A graph's buffers outlive it: an [`crate::Icd`] takes this thread's
//! spare graph ([`Graph::spare`]) and hands its own back when dropped
//! ([`Graph::recycle`]), so a thread that checks one short run after
//! another grows the slab, the arenas, the map and the scratch once, not
//! once per run. A thread keeps its last graph's capacity.
//!
//! The graph's own statistics — cross edges, SCCs, skipped probes — are
//! plain integers: the graph lock that serializes every update also
//! serializes their increments.
//!
//! Tarjan's per-node state (visit index, lowlink, on-stack bit) is one
//! record per slot, grown with the slab; a record is valid while its slot is
//! in the core's mark set, which says "visited". The DFS stack, frame, and
//! component buffers are retained across calls. A probe that cannot
//! descend — its root has no finished successor — returns before touching
//! any of it.

use crate::icd::ThreadRegs;
#[cfg(doc)]
use crate::types::TxSnapshot;
use crate::types::{Edge, EdgeKind, LogEntry, ReplayConstraint, SccReport, TxId, TxKind};
use dc_obs::{EventKind, PipelineObs};
use dc_runtime::ids::ThreadId;
use dc_runtime::txgraph::{EdgeRec, TxGraph, NIL};
use std::cell::Cell;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// An IDG edge's record payload: the edge, plus its source's thread and
/// sequence number so the record is a self-contained [`ReplayConstraint`]
/// after the source is collected.
#[derive(Clone, Copy, Debug)]
pub struct IdgEdge {
    edge: Edge,
    src_thread: ThreadId,
    src_seq: u64,
}

// One record per edge, within a cache line.
const _: () = assert!(std::mem::size_of::<EdgeRec<IdgEdge>>() <= 64);

impl IdgEdge {
    fn constraint(&self) -> ReplayConstraint {
        ReplayConstraint {
            dst: self.edge.dst,
            dst_pos: self.edge.dst_pos,
            src: self.edge.src,
            src_thread: self.src_thread,
            src_seq: self.src_seq,
            src_pos: self.edge.src_pos,
        }
    }
}

/// An IDG node's payload.
#[derive(Debug)]
pub struct TxData {
    /// Executing thread.
    pub thread: ThreadId,
    /// Regular or unary.
    pub kind: TxKind,
    /// Per-thread transaction sequence number.
    pub seq: u64,
    /// Where the final read/write log starts in the graph's log arena
    /// (0 while the log is empty).
    log_start: u32,
    /// Final log length (valid once finished).
    pub final_len: u32,
}

/// The shared core the IDG is built on.
pub type IdgCore = TxGraph<TxId, TxData, IdgEdge>;

/// The first record of an out-list, from `cursor` on, whose destination
/// has finished ([`NIL`] if none): the only successors Tarjan descends
/// into.
fn first_finished(core: &IdgCore, mut cursor: u32) -> u32 {
    while let Some(rec) = core.record(cursor) {
        if core.at(rec.dst_slot).finished {
            return cursor;
        }
        cursor = rec.next_out;
    }
    NIL
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
/// (Inside the graph, a probe that writes its report into a caller's
/// buffer is an `SccProbe<()>`.)
#[derive(Debug)]
pub enum SccProbe<R = SccReport> {
    /// Tarjan was skipped: the root is missing, unfinished, has no incoming
    /// edge (it cannot be on a cycle) or no finished successor (Tarjan
    /// descends only into finished nodes, so it would find the root
    /// alone). Exactly the cases where a full traversal would report
    /// nothing; a transaction end counts it in [`Graph::skipped_probes`].
    Skipped,
    /// Tarjan ran; the root's SCC has fewer than two members.
    NoCycle,
    /// Tarjan ran and found the root's SCC (≥ 2 members).
    Cycle(R),
}

/// Tarjan's state for one slab slot, valid while the slot is in the core's
/// mark set.
#[derive(Clone, Copy, Debug, Default)]
struct Visit {
    index: u32,
    lowlink: u32,
    on_stack: bool,
}

/// Tarjan's retained buffers: one [`Visit`] per slab slot (grown with the
/// slab when a probe runs), the DFS stack, frames and component.
#[derive(Debug, Default)]
struct Tarjan {
    visits: Vec<Visit>,
    /// Tarjan's component stack (slot indices).
    stack: Vec<u32>,
    /// DFS frames: (slot, next record of its out-list to follow).
    frames: Vec<(u32, u32)>,
    /// The root's component, reused across calls.
    component: Vec<u32>,
}

/// The IDG plus the `gLastRdSh` register (§3.2.2).
#[derive(Debug, Default)]
pub struct Graph {
    core: IdgCore,
    /// Every finished transaction's log, back to back (see "Storage").
    logs: Vec<LogEntry>,
    /// Live slots in log-arena order, the compaction's scratch.
    order: Vec<u32>,
    /// Last transaction (across all threads) to move an object to RdSh, as
    /// (slot hint, id).
    pub(crate) g_last_rd_sh: (u32, TxId),
    /// Cross-thread edges derived, linked or not ([`Graph::cross_edges`]).
    cross_edges: u64,
    /// SCCs with ≥ 2 transactions detected.
    sccs: u64,
    /// Transaction-end probes the pre-filter skipped.
    skipped_probes: u64,
    tarjan: Tarjan,
}

/// Read access to the core: `len`, `node`, the slab and arena sizes.
impl std::ops::Deref for Graph {
    type Target = IdgCore;

    fn deref(&self) -> &IdgCore {
        &self.core
    }
}

thread_local! {
    /// The buffers of the last graph recycled on this thread, empty
    /// ([`Graph::recycle`]).
    static SPARE: Cell<Graph> = Cell::default();
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty graph on this thread's spare buffers, or a new one.
    pub(crate) fn spare() -> Self {
        SPARE.try_with(Cell::take).unwrap_or_default()
    }

    /// Empties the graph — nodes, edges, logs, `gLastRdSh` and statistics —
    /// and keeps its buffers for the next [`Graph::spare`] on this thread.
    /// During thread teardown, when the spare is gone, it is dropped.
    pub(crate) fn recycle(self) {
        let Graph {
            mut core,
            mut logs,
            mut order,
            tarjan,
            ..
        } = self;
        core.clear();
        logs.clear();
        order.clear();
        let empty = Graph {
            core,
            logs,
            order,
            tarjan,
            ..Graph::default()
        };
        let _ = SPARE.try_with(|spare| spare.set(empty));
    }

    /// Cross-thread edges the edge procedures derived (Table 3 column),
    /// counting a repeat that was not linked (see "Repeated edges").
    pub fn cross_edges(&self) -> u64 {
        self.cross_edges
    }

    /// SCCs with ≥ 2 transactions detected (Table 3 column).
    pub fn scc_count(&self) -> u64 {
        self.sccs
    }

    /// Transaction ends whose SCC probe the trivial pre-filter skipped
    /// ([`SccProbe::Skipped`]).
    pub fn skipped_probes(&self) -> u64 {
        self.skipped_probes
    }

    /// Entries in the log arena (tests/diagnostics: always exactly the live
    /// finished transactions' logs).
    pub fn log_arena_len(&self) -> usize {
        self.logs.len()
    }

    /// `id`'s final read/write log — empty until it finishes; `None` for an
    /// unknown id.
    pub fn log(&self, id: TxId) -> Option<&[LogEntry]> {
        self.core.slot(id).map(|s| self.log_of(s))
    }

    fn log_of(&self, slot: u32) -> &[LogEntry] {
        let node = &self.core.at(slot).data;
        &self.logs[node.log_start as usize..][..node.final_len as usize]
    }

    /// `id`'s outgoing edges in insertion order; empty for an unknown id.
    pub fn out_edges(&self, id: TxId) -> impl Iterator<Item = Edge> + '_ {
        let slot = self.core.slot(id);
        slot.into_iter()
            .flat_map(|s| self.core.out_list(s))
            .map(|r| r.data.edge)
    }

    /// `id`'s incoming cross-thread edges in insertion order, as the replay
    /// constraints an [`SccReport`] would carry; empty for an unknown id.
    pub fn in_constraints(&self, id: TxId) -> impl Iterator<Item = ReplayConstraint> + '_ {
        let slot = self.core.slot(id);
        slot.into_iter()
            .flat_map(|s| self.core.in_list(s))
            .filter(|r| r.data.edge.kind == EdgeKind::Cross)
            .map(|r| r.data.constraint())
    }

    /// Inserts a new, unfinished transaction node, reusing a free slot when
    /// one exists, and returns its slot.
    pub fn insert(&mut self, id: TxId, thread: ThreadId, kind: TxKind, seq: u64) -> u32 {
        let data = TxData {
            thread,
            kind,
            seq,
            log_start: 0,
            final_len: 0,
        };
        self.core.insert(id, data)
    }

    /// Adds an edge. Self-edges are dropped (a transaction trivially
    /// depends on itself). Missing endpoints (already collected) are
    /// ignored — a collected source cannot be part of a future cycle.
    pub fn add_edge(&mut self, edge: Edge) {
        if edge.src == edge.dst {
            return;
        }
        if let (Some(src_slot), Some(dst_slot)) =
            (self.core.slot(edge.src), self.core.slot(edge.dst))
        {
            self.link(src_slot, dst_slot, edge);
        }
    }

    /// Adds the cross edge an edge procedure derived, its endpoints named by
    /// the slots their threads last saw them in (`hints`: source,
    /// destination), like [`Graph::add_edge`] otherwise — except that a
    /// repeat the source's last out-record already implies is counted but
    /// not linked (see "Repeated edges").
    pub(crate) fn add_cross(&mut self, edge: Edge, (src_hint, dst_hint): (u32, u32)) {
        debug_assert_eq!(edge.kind, EdgeKind::Cross);
        if edge.src == edge.dst {
            return;
        }
        let src_slot = self.core.resolve(src_hint, edge.src);
        let dst_slot = self.core.resolve(dst_hint, edge.dst);
        let (Some(src_slot), Some(dst_slot)) = (src_slot, dst_slot) else {
            return;
        };
        let implied = self.core.last_out(src_slot).is_some_and(|last| {
            let e = &last.data.edge;
            last.dst_slot == dst_slot
                && e.kind == EdgeKind::Cross
                && e.src_pos == edge.src_pos
                && e.dst_pos <= edge.dst_pos
        });
        if implied {
            self.cross_edges += 1;
        } else {
            self.link(src_slot, dst_slot, edge);
        }
    }

    /// Links `edge` from `src_slot` to `dst_slot`, counting it if it is a
    /// cross edge.
    fn link(&mut self, src_slot: u32, dst_slot: u32, edge: Edge) {
        let src = &self.core.at(src_slot).data;
        let data = IdgEdge {
            edge,
            src_thread: src.thread,
            src_seq: src.seq,
        };
        self.core.link(src_slot, dst_slot, data);
        if edge.kind == EdgeKind::Cross {
            self.cross_edges += 1;
        }
    }

    /// Inserts `id` as `thread`'s next transaction: the node plus the
    /// program-order edge from the thread's previous transaction `prev`
    /// (finished by then; [`TxId::NONE`] for a thread's first), which the
    /// thread last saw in `prev_slot`. Returns the new node's slot.
    pub(crate) fn insert_after(
        &mut self,
        id: TxId,
        thread: ThreadId,
        kind: TxKind,
        seq: u64,
        (prev_slot, prev): (u32, TxId),
    ) -> u32 {
        let slot = self.insert(id, thread, kind, seq);
        if let Some(prev_slot) = self.core.resolve(prev_slot, prev) {
            let edge = Edge {
                src: prev,
                src_pos: self.core.at(prev_slot).data.final_len,
                dst: id,
                dst_pos: 0,
                kind: EdgeKind::Intra,
            };
            self.link(prev_slot, slot, edge);
        }
        slot
    }

    /// Marks `id` finished and appends its final log to the log arena. A
    /// finish naming an unknown or already-finished transaction is a
    /// checked error.
    pub fn finish(&mut self, id: TxId, log: Vec<LogEntry>) -> Result<(), FinishError> {
        self.finish_slot((NIL, id), &log).map(drop)
    }

    /// [`Graph::finish`] with a borrowed log and the slot the caller last
    /// saw `id` in. Returns the slot.
    fn finish_slot(
        &mut self,
        (hint, id): (u32, TxId),
        log: &[LogEntry],
    ) -> Result<u32, FinishError> {
        let Some(slot) = self.core.resolve(hint, id) else {
            return Err(FinishError::UnknownTx(id));
        };
        if self.core.at(slot).finished {
            return Err(FinishError::AlreadyFinished(id));
        }
        self.core.finish(slot);
        let node = self.core.data_mut(slot);
        node.final_len = u32::try_from(log.len()).expect("log too long");
        if !log.is_empty() {
            let end = self.logs.len() + log.len();
            assert!(u32::try_from(end).is_ok(), "log arena overflow");
            node.log_start = self.logs.len() as u32;
            self.logs.extend_from_slice(log);
        }
        Ok(slot)
    }

    /// [`Graph::finish_slot`] followed, when `detect_sccs`, by the cycle
    /// probe from the finished transaction (§3.2.3), counting a skipped
    /// probe and, with a registry, timing and tracing it: what a
    /// transaction end does to the graph. Returns whether it found a cycle,
    /// whose report it wrote into `out`.
    pub(crate) fn finish_and_probe(
        &mut self,
        tx: (u32, TxId),
        log: &[LogEntry],
        detect_sccs: bool,
        obs: Option<&PipelineObs>,
        out: &mut SccReport,
    ) -> Result<bool, FinishError> {
        let slot = self.finish_slot(tx, log)?;
        if !detect_sccs {
            return Ok(false);
        }
        let t0 = obs.map(|_| Instant::now());
        let probe = self.probe_slot(slot, out);
        if let (Some(obs), Some(t0)) = (obs, t0) {
            obs.scc_latency.record_elapsed(t0);
            if let SccProbe::Cycle(()) = probe {
                obs.trace(EventKind::SccDetected, out.len() as u64);
            }
        }
        Ok(match probe {
            SccProbe::Cycle(()) => true,
            SccProbe::Skipped => {
                self.skipped_probes += 1;
                false
            }
            SccProbe::NoCycle => false,
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
    /// The pre-filter is exact: a finished transaction with no incoming
    /// edge cannot be on a cycle, and one with no finished successor gives
    /// Tarjan nothing to descend into, so the skipped traversal would have
    /// returned the root alone. (The in-list count may overcount after a
    /// collection, which only makes the filter more conservative.)
    pub fn scc_probe(&mut self, root: TxId) -> SccProbe {
        let Some(root_slot) = self.core.slot(root) else {
            return SccProbe::Skipped;
        };
        let mut report = SccReport::default();
        match self.probe_slot(root_slot, &mut report) {
            SccProbe::Cycle(()) => SccProbe::Cycle(report),
            SccProbe::NoCycle => SccProbe::NoCycle,
            SccProbe::Skipped => SccProbe::Skipped,
        }
    }

    /// [`Graph::scc_probe`] from the live node in `root_slot`, writing a
    /// found SCC's report into `out`.
    fn probe_slot(&mut self, root_slot: u32, out: &mut SccReport) -> SccProbe<()> {
        // Core and scratch are borrowed as disjoint fields.
        let Graph { core, tarjan, .. } = self;
        let root = core.at(root_slot);
        if !root.finished || root.in_count == 0 {
            return SccProbe::Skipped;
        }
        let cursor = first_finished(core, root.out_head);
        if cursor == NIL {
            return SccProbe::Skipped;
        }
        // Iterative Tarjan restricted to finished nodes reachable from
        // root, on the core's mark set.
        let Tarjan {
            visits,
            stack,
            frames,
            component,
        } = tarjan;
        visits.resize(core.slab_len(), Visit::default());
        core.begin_marks();
        debug_assert!(stack.is_empty() && frames.is_empty());
        component.clear();
        let mut next_index = 1u32;
        core.mark(root_slot);
        visits[root_slot as usize] = Visit {
            index: 0,
            lowlink: 0,
            on_stack: true,
        };
        stack.push(root_slot);
        frames.push((root_slot, cursor));

        while let Some(&(v, cursor)) = frames.last() {
            let vi = v as usize;
            let cursor = first_finished(core, cursor);
            match core.record(cursor) {
                Some(rec) => {
                    frames.last_mut().expect("frame exists").1 = rec.next_out;
                    let w = rec.dst_slot;
                    if !core.mark(w) {
                        let seen = visits[w as usize];
                        if seen.on_stack {
                            visits[vi].lowlink = visits[vi].lowlink.min(seen.index);
                        }
                    } else {
                        visits[w as usize] = Visit {
                            index: next_index,
                            lowlink: next_index,
                            on_stack: true,
                        };
                        next_index += 1;
                        stack.push(w);
                        frames.push((w, core.at(w).out_head));
                    }
                }
                None => {
                    frames.pop();
                    let Visit { index, lowlink, .. } = visits[vi];
                    if let Some(&(parent, _)) = frames.last() {
                        let p = &mut visits[parent as usize];
                        p.lowlink = p.lowlink.min(lowlink);
                    }
                    if lowlink == index {
                        // Pop one SCC off the Tarjan stack. The root has
                        // visit index 0, so its SCC is headed by the root
                        // itself and popped exactly at `v == root_slot`;
                        // other components are discarded as they pop.
                        loop {
                            let w = stack.pop().expect("tarjan stack underflow");
                            visits[w as usize].on_stack = false;
                            if v == root_slot {
                                component.push(w);
                            }
                            if w == v {
                                break;
                            }
                        }
                    }
                }
            }
        }
        debug_assert!(stack.is_empty(), "tarjan stack drained");

        if component.len() < 2 {
            return SccProbe::NoCycle;
        }
        self.sccs += 1;
        let mut component = std::mem::take(&mut self.tarjan.component);
        self.snapshot_component(&mut component, out);
        self.tarjan.component = component;
        SccProbe::Cycle(())
    }

    /// Snapshots *every* finished transaction and the constraints into
    /// them — the "PCD-only" variant of §5.4, where PCD processes every
    /// executed transaction rather than just ICD's SCCs.
    pub fn snapshot_all_finished(&mut self) -> SccReport {
        let mut component: Vec<u32> = (0..self.core.slab_len() as u32)
            .filter(|&i| {
                let n = self.core.at(i);
                n.id.is_some() && n.finished
            })
            .collect();
        let mut report = SccReport::default();
        self.snapshot_component(&mut component, &mut report);
        report
    }

    /// Sorts `component`'s slots by (thread, seq, id) and writes, in that
    /// order, each member with a copy of its log and the constraints of its
    /// incoming cross edges into `out`, reusing its buffers. (Thread and seq
    /// name one transaction; the id only makes the key total.)
    fn snapshot_component(&self, component: &mut [u32], out: &mut SccReport) {
        let core = &self.core;
        component.sort_unstable_by_key(|&i| {
            let n = core.at(i);
            (n.data.thread, n.data.seq, n.id)
        });
        out.clear();
        let cross = |r: &&EdgeRec<IdgEdge>| r.data.edge.kind == EdgeKind::Cross;
        for &i in component.iter() {
            let n = core.at(i);
            let d = &n.data;
            out.push_tx(n.id, d.thread, d.kind, d.seq, self.log_of(i));
            out.constraints
                .extend(core.in_list(i).filter(cross).map(|r| r.data.constraint()));
        }
    }

    /// Drops finished transactions unreachable from the roots (and the
    /// unfinished transactions, each some thread's current one) via
    /// outgoing edges, with their logs. Returns the number collected.
    pub fn collect(&mut self, roots: impl IntoIterator<Item = TxId>) -> usize {
        let mut freed_entries = 0;
        let collected = self.core.collect(roots, |node| {
            freed_entries += node.final_len;
            (node.log_start, node.final_len) = (0, 0);
        });
        if freed_entries > 0 {
            self.compact_logs();
        }
        collected
    }

    /// Slides the live logs down over the freed ones, in arena order, so the
    /// arena holds exactly the live logs. A log only ever moves toward the
    /// arena's start, so `copy_within` never overwrites one not yet moved.
    fn compact_logs(&mut self) {
        let Graph {
            core, logs, order, ..
        } = self;
        // Only live finished nodes have a non-empty log.
        order.clear();
        order.extend((0..core.slab_len() as u32).filter(|&i| core.at(i).data.final_len > 0));
        order.sort_unstable_by_key(|&i| core.at(i).data.log_start);
        let mut end = 0;
        for &i in order.iter() {
            let node = core.data_mut(i);
            let start = node.log_start as usize;
            logs.copy_within(start..start + node.final_len as usize, end);
            node.log_start = end as u32;
            end += node.final_len as usize;
        }
        logs.truncate(end);
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
    /// Transactions reclaimed so far.
    pub(crate) collected: u64,
}

impl Collector {
    pub(crate) fn new(every: u32) -> Self {
        Collector {
            every,
            ends: 0,
            threshold: every.max(1),
            collected: 0,
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

    /// One pass: roots are every thread's `currTX` and `lastRdEx` (read
    /// from the registers of each of `threads`) and the graph's
    /// `gLastRdSh`; [`Graph::collect`] adds the unfinished transactions.
    pub(crate) fn collect<'a>(
        &mut self,
        graph: &mut Graph,
        threads: impl Iterator<Item = &'a ThreadRegs>,
        obs: Option<&PipelineObs>,
    ) {
        let t0 = obs.map(|_| Instant::now());
        let registers = threads.flat_map(|tr| [&tr.current_tx, &tr.last_rd_ex]);
        let roots = registers.map(|r| TxId(r.load(Ordering::Acquire)));
        let (_, g_last_rd_sh) = graph.g_last_rd_sh;
        let collected = graph.collect(roots.chain([g_last_rd_sh]));
        self.after_collect(graph.len());
        self.collected += collected as u64;
        if let (Some(obs), Some(t0)) = (obs, t0) {
            obs.collect_latency.record_elapsed(t0);
            obs.trace(EventKind::CollectRun, collected as u64);
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
        assert_eq!(scc.tx_ids().collect::<Vec<_>>(), [TxId(1), TxId(2)]);
        let pairs: Vec<_> = scc.constraints.iter().map(|c| (c.src, c.dst)).collect();
        assert_eq!(pairs, [(TxId(2), TxId(1)), (TxId(1), TxId(2))]);
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
    fn snapshot_carries_logs_and_member_constraints_only() {
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
        assert!(
            scc.constraints.iter().all(|c| c.dst != TxId(3)),
            "edge 2→3 leaves the SCC: {:?}",
            scc.constraints
        );
        assert_eq!(scc.constraints.len(), 2);
        let t1 = scc.txs.iter().find(|t| t.id == TxId(1)).unwrap();
        assert_eq!(scc.log(t1).len(), 1);
    }

    /// Members come out in (thread, seq, id) order, whatever order Tarjan
    /// popped them in, with their logs back to back in that order; each
    /// member's constraints follow its in-list.
    #[test]
    fn snapshot_orders_members_by_thread_then_seq() {
        use dc_runtime::ids::ObjId;
        let mut g = Graph::new();
        // (id, thread, seq): ids run against the member order.
        for (id, thread, seq) in [(1, 2, 7), (2, 0, 9), (3, 2, 3), (4, 0, 1)] {
            g.insert(TxId(id), ThreadId(thread), TxKind::Unary, seq);
        }
        for (src, dst) in [(1, 2), (2, 3), (3, 4), (4, 1), (2, 1)] {
            g.add_edge(edge(src, dst));
        }
        for id in 1..=4 {
            let log = vec![LogEntry::new(ObjId(id as u32), 0, true, false); id as usize];
            g.finish(TxId(id), log).unwrap();
        }
        let scc = g.scc_from(TxId(1)).expect("one four-member cycle");
        assert_eq!(
            scc.tx_ids().collect::<Vec<_>>(),
            [TxId(4), TxId(2), TxId(3), TxId(1)]
        );
        let mut end = 0;
        for tx in &scc.txs {
            assert_eq!(tx.log.start, end, "{:?}'s log follows the last", tx.id);
            assert_eq!(tx.log.len(), tx.id.0 as usize);
            assert!(scc.log(tx).iter().all(|e| e.obj() == ObjId(tx.id.0 as u32)));
            end = tx.log.end;
        }
        assert_eq!(end as usize, scc.entries.len());
        let pairs: Vec<_> = scc.constraints.iter().map(|c| (c.src.0, c.dst.0)).collect();
        assert_eq!(pairs, [(3, 4), (1, 2), (2, 3), (4, 1), (2, 1)]);
    }

    /// A thread's next transaction follows its last one by a program-order
    /// edge that leaves the last one at its final log length and enters the
    /// new one at its start.
    #[test]
    fn insert_after_links_program_order_from_the_final_log_length() {
        let mut g = Graph::new();
        let t = ThreadId(0);
        let first = g.insert(TxId(1), t, TxKind::Regular(dc_runtime::ids::MethodId(0)), 1);
        let entry = LogEntry::new(dc_runtime::ids::ObjId(0), 0, true, false);
        g.finish(TxId(1), vec![entry, entry]).unwrap();
        let next = g.insert_after(TxId(2), t, TxKind::Unary, 2, (first, TxId(1)));
        assert_eq!(
            g.out_edges(TxId(1)).collect::<Vec<_>>(),
            [Edge {
                src: TxId(1),
                src_pos: 2,
                dst: TxId(2),
                dst_pos: 0,
                kind: EdgeKind::Intra,
            }]
        );
        assert_eq!(g.in_constraints(TxId(2)).count(), 0, "no replay constraint");
        // A thread's first transaction has no predecessor.
        g.insert_after(TxId(3), ThreadId(1), TxKind::Unary, 1, (NIL, TxId::NONE));
        assert_eq!(g.edge_arena_len(), 1);
        assert_ne!(first, next);
    }

    /// A pass that frees a log slides the survivors' logs down in arena
    /// order; one that frees only empty logs moves nothing.
    #[test]
    fn collect_compacts_the_surviving_logs() {
        let entry = |o: u32| LogEntry::new(dc_runtime::ids::ObjId(o), 0, true, false);
        let mut g = graph_with(4);
        g.add_edge(edge(4, 3)); // 4 (root) keeps 3 alive
        for (tx, log) in [(3, vec![entry(3)]), (1, vec![entry(1); 2]), (2, vec![])] {
            g.finish(TxId(tx), log).unwrap();
        }
        g.finish(TxId(4), vec![entry(4), entry(5)]).unwrap();
        assert_eq!(g.collect([TxId(4), TxId(1)]), 1, "only the empty Tx2 goes");
        assert_eq!(g.log_arena_len(), 5, "nothing to compact");
        assert_eq!(g.collect([TxId(4)]), 1, "Tx1 goes, its log with it");
        assert_eq!(g.log_arena_len(), 3);
        assert_eq!(g.log(TxId(3)), Some(&[entry(3)][..]));
        assert_eq!(g.log(TxId(4)), Some(&[entry(4), entry(5)][..]));
        assert_eq!(g.log(TxId(1)), None);
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
        assert_eq!(g.out_edges(TxId(2)).count(), 0);
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

        // Tx1 → Tx2 → Tx3 → Tx1 with Tx3 unfinished: Tx2's only successor
        // is unfinished, so Tarjan could not descend — a skip, leaving the
        // scratch untouched — although Tx2 has both an in- and an out-edge.
        let mut g = graph_with(3);
        for (s, d) in [(1, 2), (2, 3), (3, 1)] {
            g.add_edge(edge(s, d));
        }
        g.finish(TxId(1), vec![]).unwrap();
        g.finish(TxId(2), vec![]).unwrap();
        assert!(
            matches!(g.scc_probe(TxId(2)), SccProbe::Skipped),
            "no finished successor"
        );
        assert!(g.tarjan.visits.is_empty(), "a skip touches no scratch");
        // An unfinished successor ahead of a finished one does not hide it.
        g.add_edge(edge(2, 1));
        assert!(matches!(g.scc_probe(TxId(2)), SccProbe::Cycle(r) if r.len() == 2));
        // Once the successor finishes, Tarjan descends into it too.
        g.finish(TxId(3), vec![]).unwrap();
        assert!(matches!(g.scc_probe(TxId(3)), SccProbe::Cycle(r) if r.len() == 3));
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
        assert_eq!(g.out_edges(TxId(10)).count(), 0);
        assert_eq!(g.in_constraints(TxId(10)).count(), 0);
        assert_eq!(g.log(TxId(10)), Some(&[][..]));
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
    fn a_stale_slot_hint_falls_back_to_the_id_map() {
        let mut g = graph_with(2); // Tx1 in slot 0, Tx2 in slot 1
        let report = &mut SccReport::default();
        g.finish_and_probe((1, TxId(1)), &[], true, None, report)
            .unwrap();
        assert!(g.node(TxId(1)).unwrap().finished && !g.node(TxId(2)).unwrap().finished);
        // The program-order edge is not dropped either.
        let slot = g.insert_after(TxId(3), ThreadId(1), TxKind::Unary, 2, (7, TxId(1)));
        assert_eq!(slot, 2);
        let out: Vec<_> = g.out_edges(TxId(1)).map(|e| (e.dst, e.kind)).collect();
        assert_eq!(out, [(TxId(3), EdgeKind::Intra)]);
        assert!(matches!(
            g.finish_and_probe((0, TxId(9)), &[], true, None, report),
            Err(FinishError::UnknownTx(TxId(9)))
        ));
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
        // Tx1 → Tx2 → Tx3: a probe from Tx2 runs Tarjan, finds nothing and
        // leaves Tx2 and Tx3 marked with the core's first mark epoch.
        let mut g = graph_with(3);
        g.add_edge(edge(1, 2));
        g.add_edge(edge(2, 3));
        finish_all(&mut g, 3);
        assert!(matches!(g.scc_probe(TxId(2)), SccProbe::NoCycle));
        assert_eq!(g.tarjan.visits.len(), g.slab_len(), "one record per slot");
        // Tx3 → Tx2 closes a cycle. With the mark epoch forced to the wrap
        // point, the next probe marks on the first epoch again: the wrap
        // must clear the stale marks rather than take Tx3 as visited.
        g.add_edge(edge(3, 2));
        g.core.force_mark_epoch(u32::MAX);
        assert_eq!(g.scc_from(TxId(2)).expect("cycle").len(), 2);
        assert!(g.scc_from(TxId(2)).is_some(), "stamps stay coherent");
        assert_eq!(g.collect([TxId(1)]), 0, "cycle reachable from root");
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

    /// Adds the cross edge `src@src_pos → dst@dst_pos` the way an edge
    /// procedure does, with hints that name no slot (the map resolves).
    fn derive(g: &mut Graph, (src, src_pos): (u64, u32), (dst, dst_pos): (u64, u32)) {
        let edge = Edge {
            src: TxId(src),
            src_pos,
            dst: TxId(dst),
            dst_pos,
            kind: EdgeKind::Cross,
        };
        g.add_cross(edge, (NIL, NIL));
    }

    #[test]
    fn a_repeated_edge_is_counted_but_not_linked() {
        let mut g = graph_with(2);
        derive(&mut g, (1, 3), (2, 0));
        derive(&mut g, (1, 3), (2, 0));
        derive(&mut g, (1, 3), (2, 5));
        assert_eq!(g.cross_edges(), 3, "every derived edge is counted");
        assert_eq!(g.edge_arena_len(), 1, "the repeats are not linked");
        let out: Vec<_> = g.out_edges(TxId(1)).map(|e| e.dst_pos).collect();
        assert_eq!(out, [0], "the earliest entry point is kept");
    }

    #[test]
    fn an_edge_its_source_last_out_record_does_not_imply_is_linked() {
        let mut g = graph_with(3);
        derive(&mut g, (1, 0), (2, 4));
        // The source logged more since: a later source position.
        derive(&mut g, (1, 1), (2, 4));
        assert_eq!(g.edge_arena_len(), 2, "src_pos grew");
        // Another destination, then the first one again.
        derive(&mut g, (1, 1), (3, 4));
        derive(&mut g, (1, 1), (2, 4));
        assert_eq!(g.edge_arena_len(), 4, "the last out-record goes elsewhere");
        // An earlier destination position than the last record's.
        derive(&mut g, (1, 1), (2, 2));
        assert_eq!(g.edge_arena_len(), 5, "the last record enters later");
        // A program-order edge is no cross edge's witness.
        g.add_edge(Edge {
            kind: EdgeKind::Intra,
            ..edge(2, 3)
        });
        derive(&mut g, (2, 0), (3, 0));
        assert_eq!(g.edge_arena_len(), 7, "the last out-record is intra");
        assert_eq!(g.cross_edges(), 6);
    }

    #[test]
    fn a_cycle_built_with_repeats_carries_one_constraint_per_distinct_edge() {
        let mut g = graph_with(2);
        let derived = [
            ((1, 0), (2, 0)),
            ((1, 0), (2, 1)),
            ((1, 0), (2, 1)),
            ((2, 0), (1, 0)),
            ((2, 0), (1, 2)),
            ((1, 2), (2, 3)),
            ((1, 2), (2, 3)),
        ];
        for (src, dst) in derived {
            derive(&mut g, src, dst);
        }
        finish_all(&mut g, 2);
        let scc = g.scc_from(TxId(2)).expect("a two-transaction cycle");
        let mut distinct: Vec<_> = scc
            .constraints
            .iter()
            .map(|c| (c.src, c.src_pos, c.dst))
            .collect();
        assert_eq!(distinct.len(), 3, "{:?}", scc.constraints);
        distinct.sort();
        distinct.dedup();
        assert_eq!(
            distinct,
            [
                (TxId(1), 0, TxId(2)),
                (TxId(1), 2, TxId(2)),
                (TxId(2), 0, TxId(1))
            ]
        );
        assert_eq!(g.cross_edges(), 7);
    }
}
