//! The precise dependence graph (PDG) and the Figure-5 last-access rules.
//!
//! PCD tracks, per field, the last transaction to write it (`W(f)`) and each
//! thread's last transaction to read it since that write (`R(T,f)`). Each
//! replayed access adds precise cross-thread PDG edges and updates the
//! tables; a PDG cycle is a precise conflict-serializability violation.
//!
//! Members and edges live in the shared transaction graph core
//! ([`TxGraph`]), the IDG's and the online checkers' storage: it owns the
//! successor lists, the duplicate-edge test, the mark set and the
//! predecessor-recording path search. The PDG never collects, so members
//! are the core's slots, numbered densely in the order they are added
//! ([`Pdg::add_tx`]); the core's id map names a transaction's member
//! ([`Pdg::member`]). Everything else is indexed by member or keyed by field
//! in an open-addressing [`FieldTable`], and [`Pdg::clear`] keeps every
//! buffer, so a PDG rebuilt for the next SCC allocates nothing once warm.

use crate::violation::{CycleMember, Violation};
use dc_icd::{IdHasher, TxId, TxKind};
use dc_runtime::ids::{CellId, ObjId, ThreadId};
use dc_runtime::txgraph::{TxGraph, NIL};
use std::hash::Hasher;

/// A field identity: object plus cell (arrays are conflated by the caller).
pub type Field = (ObjId, CellId);

/// One precise dependence edge between two members, with its creation order
/// (for blame assignment).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PdgEdge {
    /// Source member.
    pub src: u32,
    /// Sink member.
    pub dst: u32,
    /// Creation sequence number within this PCD invocation.
    pub order: u32,
}

/// An open-addressing map from fields to `V`: linear probing on
/// [`IdHasher`], at most half full. [`FieldTable::reset`] empties it and
/// keeps its buffer.
#[derive(Debug, Default)]
pub(crate) struct FieldTable<V> {
    slots: Vec<(u64, V)>,
    len: usize,
}

impl<V: Copy + Default> FieldTable<V> {
    /// Key of an unused slot; no field has it (object ids are 31 bits).
    const FREE: u64 = u64::MAX;

    /// Empties the table, sized for `fields` fields without growing.
    pub(crate) fn reset(&mut self, fields: usize) {
        let size = (fields * 2).next_power_of_two().max(8);
        self.slots.clear();
        self.slots.resize(size, (Self::FREE, V::default()));
        self.len = 0;
    }

    /// `f`'s value, inserted as `V::default()` when absent.
    pub(crate) fn entry(&mut self, f: Field) -> &mut V {
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let key = (u64::from(f.0 .0) << 32) | u64::from(f.1);
        let mut hasher = IdHasher::default();
        hasher.write_u64(key);
        let mask = self.slots.len() - 1;
        let mut i = hasher.finish() as usize & mask;
        while self.slots[i].0 != key && self.slots[i].0 != Self::FREE {
            i = (i + 1) & mask;
        }
        let slot = &mut self.slots[i];
        if slot.0 == Self::FREE {
            slot.0 = key;
            self.len += 1;
        }
        &mut slot.1
    }

    /// Doubles the table, reinserting every field.
    #[cold]
    fn grow(&mut self) {
        let old = std::mem::take(&mut self.slots);
        self.reset(old.len().max(4));
        for (key, value) in old.into_iter().filter(|s| s.0 != Self::FREE) {
            let field = (ObjId((key >> 32) as u32), key as u32);
            *self.entry(field) = value;
        }
    }
}

/// A member's payload in the core.
#[derive(Clone, Copy, Debug)]
struct Member {
    thread: ThreadId,
    kind: TxKind,
    /// Its position in the cycle being blamed (valid while marked).
    pos: u32,
}

/// Per field: `W(f)` and the list of `R(·, f)` in [`Pdg::readers`].
#[derive(Clone, Copy, Debug)]
struct Access {
    writer: u32,
    first_reader: u32,
    last_reader: u32,
}

impl Default for Access {
    fn default() -> Self {
        Access {
            writer: NIL,
            first_reader: NIL,
            last_reader: NIL,
        }
    }
}

/// One `R(T, f)` entry: thread `T`'s last reading member, and the next
/// entry of the field's list (threads in the order they first read).
#[derive(Clone, Copy, Debug)]
struct Reader {
    thread: ThreadId,
    member: u32,
    next: u32,
}

/// The PDG under construction plus the last-access tables.
#[derive(Debug, Default)]
pub struct Pdg {
    core: TxGraph<TxId, Member, ()>,
    /// Cross-thread edges in creation order.
    edges: Vec<PdgEdge>,
    fields: FieldTable<Access>,
    readers: Vec<Reader>,
    /// The cycle [`Pdg::cycle_through`] found.
    cycle: Vec<u32>,
    /// Per cycle position: the order of its first outgoing and first
    /// incoming cycle edge ([`NIL`] for none), for blame.
    first: Vec<(u32, u32)>,
}

impl Pdg {
    /// Creates a PDG over the given transactions, members `0..` in order.
    pub fn new(txs: impl IntoIterator<Item = (TxId, ThreadId, TxKind)>) -> Self {
        let mut pdg = Pdg::default();
        for (id, thread, kind) in txs {
            pdg.add_tx(id, thread, kind);
        }
        pdg
    }

    /// Empties the PDG and its tables, keeping every buffer; the field
    /// table is sized for `fields` fields without growing.
    pub fn clear(&mut self, fields: usize) {
        self.core.clear();
        self.edges.clear();
        self.readers.clear();
        self.fields.reset(fields);
    }

    /// Adds a transaction and returns its member index.
    pub fn add_tx(&mut self, id: TxId, thread: ThreadId, kind: TxKind) -> u32 {
        self.core.insert(
            id,
            Member {
                thread,
                kind,
                pos: NIL,
            },
        )
    }

    /// The member index of transaction `id`.
    pub fn member(&self, id: TxId) -> Option<u32> {
        self.core.slot(id)
    }

    /// Member `m`'s transaction.
    pub fn id(&self, m: u32) -> TxId {
        self.core.at(m).id
    }

    /// Member `m`'s executing thread.
    pub fn thread(&self, m: u32) -> ThreadId {
        self.core.at(m).data.thread
    }

    /// Member `m`'s kind.
    pub fn kind(&self, m: u32) -> TxKind {
        self.core.at(m).data.kind
    }

    /// All cross-thread PDG edges in creation order.
    pub fn edges(&self) -> &[PdgEdge] {
        &self.edges
    }

    /// Replays a read of `f` by member `m` (Figure 5, `READ`). Returns the
    /// new cross-thread edge, if one was added.
    pub fn read(&mut self, f: Field, m: u32) -> Option<PdgEdge> {
        let t = self.thread(m);
        let access = self.fields.entry(f);
        let writer = access.writer;
        // R(t, f) := m
        let mut r = access.first_reader;
        while r != NIL {
            let reader = &mut self.readers[r as usize];
            if reader.thread == t {
                reader.member = m;
                break;
            }
            r = reader.next;
        }
        if r == NIL {
            let new = self.readers.len() as u32;
            self.readers.push(Reader {
                thread: t,
                member: m,
                next: NIL,
            });
            match access.last_reader {
                NIL => access.first_reader = new,
                last => self.readers[last as usize].next = new,
            }
            access.last_reader = new;
        }
        if writer != NIL && self.thread(writer) != t {
            self.add_edge(writer, m)
        } else {
            None
        }
    }

    /// Replays a write of `f` by member `m` (Figure 5, `WRITE`), appending
    /// the new cross-thread edges to `added` (the caller's buffer, so a
    /// replay loop allocates none per write).
    pub fn write(&mut self, f: Field, m: u32, added: &mut Vec<PdgEdge>) {
        let t = self.thread(m);
        // W(f) := m; ∀T, R(T,f) := null — after the edges out of them, in
        // list order.
        let new = Access {
            writer: m,
            ..Access::default()
        };
        let old = std::mem::replace(self.fields.entry(f), new);
        if old.writer != NIL && self.thread(old.writer) != t {
            added.extend(self.add_edge(old.writer, m));
        }
        let mut r = old.first_reader;
        while r != NIL {
            let Reader {
                thread,
                member,
                next,
            } = self.readers[r as usize];
            if thread != t {
                added.extend(self.add_edge(member, m));
            }
            r = next;
        }
    }

    /// Adds an intra-thread program-order edge: it participates in cycle
    /// detection (Velodrome's graph chains consecutive transactions of a
    /// thread, §2) but not in blame ordering.
    pub fn add_intra_edge(&mut self, src: u32, dst: u32) {
        self.link(src, dst);
    }

    /// Links `src → dst` unless it is a self-edge or already present.
    /// Returns whether it did.
    fn link(&mut self, src: u32, dst: u32) -> bool {
        let new = src != dst && !self.core.has_edge(src, dst);
        if new {
            self.core.link(src, dst, ());
        }
        new
    }

    /// Adds the cross-thread edge `src → dst`, deduplicating; self-edges
    /// are ignored.
    fn add_edge(&mut self, src: u32, dst: u32) -> Option<PdgEdge> {
        if !self.link(src, dst) {
            return None;
        }
        let edge = PdgEdge {
            src,
            dst,
            order: u32::try_from(self.edges.len()).expect("too many PDG edges"),
        };
        self.edges.push(edge);
        Some(edge)
    }

    /// Finds a cycle through the just-added edge `src → dst`: a path from
    /// `dst` back to `src`. Returns the cycle as a member list
    /// `[src, dst, …, src-predecessor]` if found, in a buffer the next call
    /// reuses.
    pub fn cycle_through(&mut self, edge: PdgEdge) -> Option<&[u32]> {
        // The path dst … src; the edge closes it as src → dst.
        let path = self.core.path(edge.dst, edge.src)?;
        self.cycle.clear();
        self.cycle.push(edge.src);
        self.cycle.extend_from_slice(&path[..path.len() - 1]);
        Some(&self.cycle)
    }

    /// The precise violation closed by the just-added edge, if it closes a
    /// cycle: the cycle's members with blame. Allocates only what the
    /// violation owns.
    pub fn violation_through(&mut self, edge: PdgEdge) -> Option<Violation> {
        self.cycle_through(edge)?;
        let blamed = self.blame();
        let cycle = self
            .cycle
            .iter()
            .map(|&m| CycleMember {
                tx: self.id(m),
                thread: self.thread(m),
                kind: self.kind(m),
            })
            .collect();
        Some(Violation { cycle, blamed })
    }

    /// Blame assignment (paper §3.3) for the cycle [`Pdg::cycle_through`]
    /// found: blame each member whose first outgoing cycle edge was created
    /// before its first incoming cycle edge — it "completed" the cycle.
    /// Falls back to the sink of the newest cycle edge if the heuristic
    /// selects nobody.
    fn blame(&mut self) -> Vec<TxId> {
        let Pdg {
            core,
            edges,
            cycle,
            first,
            ..
        } = self;
        core.begin_marks();
        for (i, &m) in cycle.iter().enumerate() {
            core.mark(m);
            core.data_mut(m).pos = i as u32;
        }
        // Both ends' cycle positions, for an edge between cycle members.
        let core = &*core;
        let ends = |e: &PdgEdge| {
            let pos = |m: u32| core.is_marked(m).then(|| core.at(m).data.pos);
            pos(e.src).zip(pos(e.dst))
        };
        first.clear();
        first.resize(cycle.len(), (NIL, NIL));
        for e in edges.iter() {
            if let Some((src, dst)) = ends(e) {
                if first[src as usize].0 == NIL {
                    first[src as usize].0 = e.order;
                }
                if first[dst as usize].1 == NIL {
                    first[dst as usize].1 = e.order;
                }
            }
        }
        let mut blamed: Vec<TxId> = cycle
            .iter()
            .zip(first.iter())
            .filter(|(_, &(out, into))| out != NIL && into != NIL && out < into)
            .map(|(&m, _)| core.at(m).id)
            .collect();
        if blamed.is_empty() {
            if let Some(last) = edges.iter().rev().find(|e| ends(e).is_some()) {
                blamed.push(core.at(last.dst).id);
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
    /// Members: Tx1 on T0, Tx2 on T1, Tx3 on T0.
    const TX1: u32 = 0;
    const TX2: u32 = 1;
    const TX3: u32 = 2;

    /// One write's new edges.
    fn write(pdg: &mut Pdg, f: Field, m: u32) -> Vec<PdgEdge> {
        let mut added = Vec::new();
        pdg.write(f, m, &mut added);
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
        assert!(write(&mut pdg, F, TX1).is_empty());
        let e = pdg.read(F, TX2).expect("W→R edge");
        assert_eq!((e.src, e.dst), (TX1, TX2));
    }

    #[test]
    fn read_write_dependence() {
        let mut pdg = pdg2();
        pdg.read(F, TX1);
        let es = write(&mut pdg, F, TX2);
        assert_eq!(es.len(), 1);
        assert_eq!((es[0].src, es[0].dst), (TX1, TX2));
    }

    #[test]
    fn write_write_dependence() {
        let mut pdg = pdg2();
        write(&mut pdg, F, TX1);
        let es = write(&mut pdg, F, TX2);
        assert_eq!(es.len(), 1);
        assert_eq!((es[0].src, es[0].dst), (TX1, TX2));
    }

    #[test]
    fn same_thread_accesses_add_no_edges() {
        let mut pdg = pdg2();
        write(&mut pdg, F, TX1);
        assert!(pdg.read(F, TX3).is_none(), "same thread: intra");
        assert!(write(&mut pdg, F, TX3).is_empty());
    }

    #[test]
    fn write_clears_reader_table() {
        let mut pdg = pdg2();
        pdg.read(F, TX1);
        write(&mut pdg, F, TX2); // clears R(·, F)
                                 // A later write by T1's tx again: no stale read→write edge to Tx1.
        let es = write(&mut pdg, F, TX2);
        assert!(es.is_empty(), "duplicate edge and cleared readers");
    }

    #[test]
    fn distinct_fields_are_independent() {
        let mut pdg = pdg2();
        write(&mut pdg, F, TX1);
        assert!(pdg.read(G, TX2).is_none(), "no dependence across fields");
    }

    #[test]
    fn edges_are_deduplicated_but_ordered() {
        let mut pdg = pdg2();
        write(&mut pdg, F, TX1);
        pdg.read(F, TX2);
        pdg.read(F, TX2); // duplicate read: no new edge
        write(&mut pdg, G, TX2);
        pdg.read(G, TX1); // second distinct edge
        assert_eq!(pdg.edges().len(), 2);
        assert!(pdg.edges()[0].order < pdg.edges()[1].order);
    }

    #[test]
    fn cycle_detection_finds_two_cycle() {
        let mut pdg = pdg2();
        write(&mut pdg, F, TX1);
        pdg.read(F, TX2); // 1→2
        write(&mut pdg, G, TX2);
        let e = pdg.read(G, TX1).unwrap(); // 2→1 closes the cycle
        let cycle = pdg.cycle_through(e).expect("cycle");
        assert_eq!(cycle, [TX2, TX1], "[src, dst, …]");
    }

    #[test]
    fn no_cycle_on_dag() {
        let mut pdg = pdg2();
        write(&mut pdg, F, TX1);
        let e = pdg.read(F, TX2).unwrap();
        assert!(pdg.cycle_through(e).is_none());
    }

    #[test]
    fn blame_prefers_early_outgoing_edge() {
        let mut pdg = pdg2();
        // Tx1's outgoing edge (order 0) precedes its incoming (order 1):
        // Tx1 completes the cycle and is blamed — the Figure 3 situation.
        write(&mut pdg, F, TX1);
        pdg.read(F, TX2); // edge 1→2, order 0
        write(&mut pdg, G, TX2);
        let e = pdg.read(G, TX1).unwrap(); // edge 2→1, order 1
        let v = pdg.violation_through(e).unwrap();
        let members: Vec<TxId> = v.cycle.iter().map(|m| m.tx).collect();
        assert_eq!(members, [TxId(2), TxId(1)]);
        assert_eq!(v.blamed, [TxId(1)]);
    }

    /// A three-member cycle through a program-order edge comes back in
    /// edge order, and a cleared PDG reused for it finds the same one.
    #[test]
    fn cycles_through_intra_edges_survive_clear_and_reuse() {
        let mut pdg = Pdg::default();
        for _ in 0..2 {
            pdg.clear(4);
            for (id, t) in [(1, T0), (2, T1), (3, T0)] {
                pdg.add_tx(TxId(id), t, TxKind::Unary);
            }
            pdg.add_intra_edge(TX1, TX3);
            write(&mut pdg, F, TX3);
            pdg.read(F, TX2); // 3→2
            write(&mut pdg, G, TX2);
            let e = pdg.read(G, TX1).unwrap(); // 2→1, then 1→3 (intra)
            assert_eq!(pdg.cycle_through(e), Some(&[TX2, TX1, TX3][..]));
            assert_eq!(pdg.edges().len(), 2);
        }
    }

    #[test]
    fn field_table_grows_past_its_initial_size() {
        let mut table = FieldTable::<u32>::default();
        for cell in 0..100 {
            *table.entry((ObjId(cell % 7), cell)) += cell + 1;
        }
        for cell in 0..100 {
            assert_eq!(*table.entry((ObjId(cell % 7), cell)), cell + 1);
        }
        assert_eq!(table.len, 100);
        table.reset(4);
        assert_eq!((table.len, *table.entry(F)), (0, 0), "reset empties it");
    }
}
