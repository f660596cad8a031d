//! The transaction graph every checker builds on: transactions as nodes,
//! dependences as edges, and a collector that reclaims the transactions no
//! current transaction can reach.
//!
//! DoubleChecker's imprecise dependence graph (`dc-icd`) and the online
//! checkers' dependence graph (`dc-velodrome`, which `dc-aerodrome` shares)
//! differ only in *when* they look for a cycle — an SCC probe when a
//! transaction finishes, or a path search at each new edge. Both keep their
//! nodes and edges in one [`TxGraph`], generic over the id `K`, the node
//! payload `N` and the edge payload `E`, so each caller gets its own
//! monomorphized copy and the hot boundary calls inline across crates.
//!
//! # Storage
//!
//! Nodes live in a slab addressed by a dense `u32` slot index; a free list,
//! refilled by [`TxGraph::collect`], recycles slots. A free slot holds
//! `K::default()`, the id that names no transaction.
//!
//! Edges live in **one arena owned by the graph**, not in per-node vectors:
//! a record holds the caller's payload, the destination's slot and two
//! `u32` links threading it into its source's *out-list* and its
//! destination's *in-list*. A node holds the four list ends. Both lists are
//! appended at the tail, so every traversal sees a node's edges in
//! insertion order.
//!
//! **An edge record lives exactly as long as its destination**: the
//! collector returns a freed node's in-list to the edge free list in one
//! splice (the argument that no out-list can still reach such a record is
//! written next to the sweep in [`TxGraph::collect`]). Freed records and
//! slots are reused before the arena or the slab grows, so a graph does not
//! allocate per node or per edge: the only allocator calls are the
//! amortized doublings of the slab, the arena, the map and the scratch.
//!
//! Traversals follow slots and links and never hash. The `K → slot` map
//! (on the multiplicative [`IdHasher`]) serves the by-id API; a caller that
//! kept the slot [`TxGraph::insert`] returned passes it back as a hint,
//! validated against the slot's occupant ([`TxGraph::resolve`]).
//!
//! The mark set — shared by the collector's mark phase, [`TxGraph::path`]
//! and the callers' own marking — is one stamp per slot, epoch-stamped: a
//! slot is marked only while its stamp equals the current epoch, so
//! clearing it between passes is one counter bump. The depth-first work
//! stack, the path search's predecessor per slot and the path it found are
//! retained across calls.
//!
//! PCD's precise dependence graph (`dc-pcd`) uses the same storage with
//! dense slots: it never collects, and [`TxGraph::clear`] empties the graph
//! for the next SCC, keeping every buffer, so slots restart at 0 in insert
//! order.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Multiplicative (Fx-style) hasher for maps keyed by the analyses' own
/// dense ids — transaction ids, `(ObjId, CellId)`. One rotate, xor and
/// multiply per word instead of SipHash's rounds. It offers no resistance
/// to crafted collisions, which these keys do not need: the checkers number
/// transactions, objects and cells themselves (imported histories are
/// lowered to dense ids before any checker sees them).
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher(u64);

impl IdHasher {
    /// 2⁶⁴ / φ, odd: the Fibonacci-hashing multiplier.
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(Self::K);
    }

    /// The product's high bits are the well-mixed ones; the map takes its
    /// bucket index from the low bits, so hand them over rotated down.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A `HashMap` on [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// "No record" / "no slot": the end of an edge list, or an empty one. The
/// arena never grows to this index.
pub const NIL: u32 = u32::MAX;

/// One edge in the graph's arena, a member of two intrusive lists: its
/// source's out-list and its destination's in-list.
#[derive(Clone, Copy, Debug)]
pub struct EdgeRec<E> {
    /// The caller's payload.
    pub data: E,
    /// Slab slot of the destination, so traversals never hash.
    pub dst_slot: u32,
    /// Next record in the source's out-list ([`NIL`] at its end): a cursor
    /// for [`TxGraph::record`].
    pub next_out: u32,
    /// Next record in the destination's in-list; the free-list link once
    /// the record is freed.
    next_in: u32,
}

/// One node, stored in a slab slot. Its edges are records in the graph's
/// arena; the node holds only the ends of its two lists. (Callers only ever
/// see a node or a record through a shared reference, so the public fields
/// are read-only to them.)
#[derive(Debug)]
pub struct Node<K, N> {
    /// The transaction occupying this slot (`K::default()` when free).
    pub id: K,
    /// True once the transaction has ended ([`TxGraph::finish`]).
    pub finished: bool,
    /// First and last record of the outgoing-edge list ([`NIL`] if empty);
    /// the head is a cursor for [`TxGraph::record`].
    pub out_head: u32,
    out_tail: u32,
    /// First and last record of the incoming-edge list.
    in_head: u32,
    in_tail: u32,
    /// Length of the in-list. An in-edge outlives its source, so the count
    /// may include edges from collected transactions: good for skipping
    /// cycle detection when zero and for sizing the free-list splice, not
    /// as a count of live predecessors.
    pub in_count: u32,
    /// The caller's payload.
    pub data: N,
}

/// The slab, the edge arena, the id map and the mark scratch (see the
/// module docs).
#[derive(Debug)]
pub struct TxGraph<K, N, E> {
    slab: Vec<Node<K, N>>,
    /// Slots holding no live transaction, refilled by [`TxGraph::collect`].
    free: Vec<u32>,
    /// Every live edge, plus freed records chained from `free_edge`.
    edges: Vec<EdgeRec<E>>,
    /// Head of the edge free list (meaningful while `free_edges > 0`) and
    /// its length.
    free_edge: u32,
    free_edges: u32,
    index: IdMap<K, u32>,
    /// Slot is marked iff `stamp[slot] == epoch`.
    stamp: Vec<u32>,
    epoch: u32,
    /// The depth-first work stack.
    work: Vec<u32>,
    /// [`TxGraph::path`]'s predecessor of each slot it reached (valid for
    /// the marked slots) and the path it found.
    pred: Vec<u32>,
    path: Vec<u32>,
}

impl<K, N, E> Default for TxGraph<K, N, E> {
    fn default() -> Self {
        TxGraph {
            slab: Vec::new(),
            free: Vec::new(),
            edges: Vec::new(),
            free_edge: NIL,
            free_edges: 0,
            index: IdMap::default(),
            stamp: Vec::new(),
            epoch: 0,
            work: Vec::new(),
            pred: Vec::new(),
            path: Vec::new(),
        }
    }
}

impl<K: Copy + Eq + Hash + Default, N, E> TxGraph<K, N, E> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the graph, keeping every buffer: the next insert takes slot
    /// 0, and slots are handed out in insert order again.
    pub fn clear(&mut self) {
        self.slab.clear();
        self.free.clear();
        self.edges.clear();
        (self.free_edge, self.free_edges) = (NIL, 0);
        self.index.clear();
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

    /// Total edge records, live or free (tests/diagnostics: a stable arena
    /// across edge/collect churn proves record reuse).
    pub fn edge_arena_len(&self) -> usize {
        self.edges.len()
    }

    /// Edge free-list length (tests/diagnostics).
    pub fn free_edges(&self) -> usize {
        self.free_edges as usize
    }

    /// The slot of live transaction `id`.
    #[inline]
    pub fn slot(&self, id: K) -> Option<u32> {
        self.index.get(&id).copied()
    }

    /// The node of live transaction `id`.
    pub fn node(&self, id: K) -> Option<&Node<K, N>> {
        self.slot(id).map(|s| self.at(s))
    }

    /// The node in `slot`, live or free.
    #[inline]
    pub fn at(&self, slot: u32) -> &Node<K, N> {
        &self.slab[slot as usize]
    }

    /// The payload of the node in `slot`.
    #[inline]
    pub fn data_mut(&mut self, slot: u32) -> &mut N {
        &mut self.slab[slot as usize].data
    }

    /// `id`'s slot: `hint` when that slot still holds `id` (the caller kept
    /// what [`TxGraph::insert`] returned), else by the map.
    /// `K::default()` — what a free slot holds — names no node.
    #[inline]
    pub fn resolve(&self, hint: u32, id: K) -> Option<u32> {
        match self.slab.get(hint as usize) {
            Some(node) if node.id == id && id != K::default() => Some(hint),
            _ => self.slot(id),
        }
    }

    /// The edge record at `cursor` ([`Node::out_head`],
    /// [`EdgeRec::next_out`]); `None` at [`NIL`], which is past the
    /// arena's end.
    #[inline]
    pub fn record(&self, cursor: u32) -> Option<&EdgeRec<E>> {
        self.edges.get(cursor as usize)
    }

    /// The records of `slot`'s out-list, in insertion order.
    pub fn out_list(&self, slot: u32) -> impl Iterator<Item = &EdgeRec<E>> {
        let head = self.record(self.at(slot).out_head);
        std::iter::successors(head, |r| self.record(r.next_out))
    }

    /// The records of `slot`'s in-list, in insertion order.
    pub fn in_list(&self, slot: u32) -> impl Iterator<Item = &EdgeRec<E>> {
        let head = self.record(self.at(slot).in_head);
        std::iter::successors(head, |r| self.record(r.next_in))
    }

    /// True if `src_slot`'s out-list already holds an edge to `dst_slot`.
    pub fn has_edge(&self, src_slot: u32, dst_slot: u32) -> bool {
        self.out_list(src_slot).any(|r| r.dst_slot == dst_slot)
    }

    /// Inserts a new, unfinished transaction node, reusing a free slot when
    /// one exists, and returns its slot.
    #[inline]
    pub fn insert(&mut self, id: K, data: N) -> u32 {
        debug_assert!(id != K::default(), "the none id names no transaction");
        let slot = match self.free.pop() {
            Some(slot) => {
                let node = &mut self.slab[slot as usize];
                debug_assert!(node.id == K::default(), "free slot still occupied");
                debug_assert!(node.out_head == NIL && node.in_head == NIL);
                node.id = id;
                node.finished = false;
                node.in_count = 0;
                node.data = data;
                slot
            }
            None => {
                let slot = u32::try_from(self.slab.len()).expect("slab overflow");
                self.slab.push(Node {
                    id,
                    finished: false,
                    out_head: NIL,
                    out_tail: NIL,
                    in_head: NIL,
                    in_tail: NIL,
                    in_count: 0,
                    data,
                });
                slot
            }
        };
        let prev = self.index.insert(id, slot);
        debug_assert!(prev.is_none(), "duplicate transaction id");
        slot
    }

    /// Marks the node in `slot` finished: from now on it gains no incoming
    /// edge, and the collector no longer treats it as a root.
    #[inline]
    pub fn finish(&mut self, slot: u32) {
        self.slab[slot as usize].finished = true;
    }

    /// Stores an edge `src_slot → dst_slot` in the arena — a freed record if
    /// there is one — and appends it to the tails of `src_slot`'s out-list
    /// and `dst_slot`'s in-list.
    #[inline]
    pub fn link(&mut self, src_slot: u32, dst_slot: u32, data: E) {
        let rec = EdgeRec {
            data,
            dst_slot,
            next_out: NIL,
            next_in: NIL,
        };
        let e = if self.free_edges > 0 {
            let e = self.free_edge;
            self.free_edge = self.edges[e as usize].next_in;
            self.free_edges -= 1;
            self.edges[e as usize] = rec;
            e
        } else {
            assert!(self.edges.len() < NIL as usize, "edge arena overflow");
            self.edges.push(rec);
            (self.edges.len() - 1) as u32
        };
        let src = &mut self.slab[src_slot as usize];
        match src.out_tail {
            NIL => src.out_head = e,
            tail => self.edges[tail as usize].next_out = e,
        }
        src.out_tail = e;
        let dst = &mut self.slab[dst_slot as usize];
        match dst.in_tail {
            NIL => dst.in_head = e,
            tail => self.edges[tail as usize].next_in = e,
        }
        dst.in_tail = e;
        dst.in_count += 1;
    }

    /// Starts a fresh mark set over every slot. Allocation-free once the
    /// stamps cover the slab.
    pub fn begin_marks(&mut self) {
        self.stamp.resize(self.slab.len(), 0);
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Epoch wrapped: stale stamps from the previous cycle could
            // alias the new epoch values. Reset and skip 0 (the stamps'
            // initial value).
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
    }

    /// Marks `slot`; true if it was not marked yet.
    #[inline]
    pub fn mark(&mut self, slot: u32) -> bool {
        let stamp = &mut self.stamp[slot as usize];
        let fresh = *stamp != self.epoch;
        *stamp = self.epoch;
        fresh
    }

    /// True if `slot` is in the current mark set.
    #[inline]
    pub fn is_marked(&self, slot: u32) -> bool {
        self.stamp[slot as usize] == self.epoch
    }

    /// Restarts the mark epoch at `epoch`, so tests can run a pass across
    /// its wrap.
    #[doc(hidden)]
    pub fn force_mark_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }

    /// A path from `from` to `to` over out-lists, as the slots `from ..= to`
    /// in a buffer the next call reuses. Depth first on a fresh mark set:
    /// pops a slot, stops if it is `to`, else marks and pushes each
    /// unmarked successor in out-list order, recording the slot it was
    /// reached from.
    pub fn path(&mut self, from: u32, to: u32) -> Option<&[u32]> {
        self.pred.resize(self.slab.len(), NIL);
        self.begin_marks();
        self.work.clear();
        self.mark(from);
        self.work.push(from);
        if !self.walk::<true>(to) {
            return None;
        }
        self.path.clear();
        self.path.push(to);
        let mut cur = to;
        while cur != from {
            cur = self.pred[cur as usize];
            self.path.push(cur);
        }
        self.path.reverse();
        Some(&self.path)
    }

    /// The depth-first loop of [`TxGraph::path`] (which records each
    /// reached slot's predecessor: `RECORD`) and the collector's mark phase,
    /// from the marked slots on the work stack. Returns whether it reached
    /// `to`.
    fn walk<const RECORD: bool>(&mut self, to: u32) -> bool {
        while let Some(v) = self.work.pop() {
            if v == to {
                return true;
            }
            let mut cursor = self.at(v).out_head;
            while let Some(rec) = self.record(cursor) {
                let w = rec.dst_slot;
                cursor = rec.next_out;
                if self.mark(w) {
                    if RECORD {
                        self.pred[w as usize] = v;
                    }
                    self.work.push(w);
                }
            }
        }
        false
    }

    /// Drops finished transactions unreachable via out-edges from `roots`
    /// and from every unfinished transaction (the JVM-reachability
    /// semantics the paper relies on), handing each one's payload to
    /// `freed` and pushing its slot onto the free list. Returns the number
    /// collected.
    pub fn collect(
        &mut self,
        roots: impl IntoIterator<Item = K>,
        mut freed: impl FnMut(&mut N),
    ) -> usize {
        self.begin_marks();
        self.work.clear();
        for r in roots {
            if let Some(slot) = self.slot(r) {
                if self.mark(slot) {
                    self.work.push(slot);
                }
            }
        }
        for slot in 0..self.slab.len() as u32 {
            let node = self.at(slot);
            if node.id != K::default() && !node.finished && self.mark(slot) {
                self.work.push(slot);
            }
        }
        self.walk::<false>(NIL);
        // Sweep. A freed node takes its in-list — every record whose
        // destination it is — to the edge free list in one splice; its
        // out-list is simply forgotten (those records belong to their
        // destinations). No surviving out-list can still reach a freed
        // record: the marked set is closed under out-edges, so a source
        // with an edge into a freed (unmarked) node is itself unmarked, and
        // it is finished because every unfinished node was marked as a root
        // above — it is freed in this very pass, or was in an earlier one.
        let mut collected = 0;
        for i in 0..self.slab.len() {
            let node = &mut self.slab[i];
            if node.id != K::default() && node.finished && self.stamp[i] != self.epoch {
                self.index.remove(&node.id);
                if node.in_head != NIL {
                    self.edges[node.in_tail as usize].next_in = self.free_edge;
                    self.free_edge = node.in_head;
                    self.free_edges += node.in_count;
                }
                (node.in_head, node.in_tail) = (NIL, NIL);
                (node.out_head, node.out_tail) = (NIL, NIL);
                node.id = K::default();
                node.finished = false;
                node.in_count = 0;
                freed(&mut node.data);
                self.free.push(i as u32);
                collected += 1;
            }
        }
        collected
    }
}

#[cfg(test)]
#[path = "../../../tests/common/counting_alloc.rs"]
mod counting_alloc;

#[cfg(test)]
mod tests {
    use super::counting_alloc::allocations;
    use super::*;

    type G = TxGraph<u64, (), u64>;

    fn graph_with(n: u64) -> G {
        let mut g = G::new();
        for id in 1..=n {
            g.insert(id, ());
        }
        g
    }

    fn link(g: &mut G, src: u64, dst: u64) {
        let (s, d) = (g.slot(src).unwrap(), g.slot(dst).unwrap());
        g.link(s, d, src * 100 + dst);
    }

    fn out(g: &G, id: u64) -> Vec<u64> {
        g.out_list(g.slot(id).unwrap()).map(|r| r.data).collect()
    }

    fn ins(g: &G, id: u64) -> Vec<u64> {
        g.in_list(g.slot(id).unwrap()).map(|r| r.data).collect()
    }

    /// A slot the collector frees comes back with empty lists: the next
    /// occupant neither inherits its predecessor's edges nor links new ones
    /// behind them.
    #[test]
    fn a_recycled_slot_starts_with_empty_lists() {
        let mut g = graph_with(3);
        for (s, d) in [(1, 2), (2, 1), (3, 1), (1, 3)] {
            link(&mut g, s, d);
        }
        for id in 1..=2 {
            g.finish(g.slot(id).unwrap());
        }
        // 3 is unfinished, a root; 3 → 1 → 2 keeps everything.
        assert_eq!(g.collect([], |_| {}), 0);
        g.finish(g.slot(3).unwrap());
        assert_eq!(g.collect([], |_| {}), 3);
        assert_eq!(g.free_edges(), 4);
        for id in 4..=6 {
            g.insert(id, ());
        }
        assert_eq!(g.slab_len(), 3, "slots reused");
        for id in 4..=6 {
            assert!(out(&g, id).is_empty() && ins(&g, id).is_empty());
            assert_eq!(g.node(id).unwrap().in_count, 0);
            assert!(!g.node(id).unwrap().finished);
        }
        link(&mut g, 4, 5);
        assert_eq!((out(&g, 4), ins(&g, 5)), (vec![405], vec![405]));
        assert!(ins(&g, 4).is_empty() && out(&g, 5).is_empty());
        assert_eq!(g.edge_arena_len(), 4, "a freed record is reused");
    }

    #[test]
    fn path_follows_each_reached_slot_back_to_its_parent() {
        let mut g = graph_with(4);
        for (s, d) in [(1, 2), (2, 3), (1, 4), (4, 3)] {
            link(&mut g, s, d);
        }
        let [s1, s3, s4] = [1, 3, 4].map(|id| g.slot(id).unwrap());
        // Depth first, last successor first: 4 is popped before 2, so 3 is
        // reached from 4.
        assert_eq!(g.path(s1, s3), Some(&[s1, s4, s3][..]));
        assert_eq!(g.path(s1, s1), Some(&[s1][..]));
        assert!(g.path(s3, s1).is_none(), "no path back");
    }

    /// A cleared graph hands out slots from 0 in insert order again, with
    /// no edge or id of the previous fill; once warm, a clear and a
    /// refill of the same size make no allocator call.
    #[test]
    fn clear_restarts_slots_at_zero_and_keeps_every_buffer() {
        let fill = |g: &mut G, ids: [u64; 3]| {
            g.clear();
            let slots = ids.map(|id| g.insert(id, ()));
            g.link(slots[0], slots[1], 1);
            g.link(slots[1], slots[2], 2);
            let found = g.path(slots[0], slots[2]).map(<[u32]>::len);
            (slots, found)
        };
        let mut g = G::new();
        assert_eq!(fill(&mut g, [7, 8, 9]), ([0, 1, 2], Some(3)));
        let before = allocations();
        assert_eq!(fill(&mut g, [9, 5, 6]), ([0, 1, 2], Some(3)));
        assert_eq!(allocations() - before, 0, "a warm clear and refill");
        assert_eq!((g.slot(7), g.slot(9)), (None, Some(0)));
        assert_eq!((g.len(), g.slab_len(), g.edge_arena_len()), (3, 3, 2));
        assert!(g.has_edge(0, 1) && !g.has_edge(0, 2) && !g.has_edge(1, 0));
    }

    #[test]
    fn mark_epoch_wrap_resets_stamps() {
        let mut g = graph_with(2);
        g.begin_marks();
        g.mark(0);
        g.stamp[1] = 1;
        g.epoch = u32::MAX;
        g.begin_marks();
        assert_eq!(g.epoch, 1, "epoch restarted after the wrap");
        assert!(!g.is_marked(0) && !g.is_marked(1), "no stale stamp aliases");
        assert!(g.mark(1) && !g.mark(1));
    }
}
