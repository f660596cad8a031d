//! Transaction, log, and graph edge types shared with PCD.

use dc_runtime::ids::{CellId, ObjId, ThreadId, SYNC_CELL};
use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;

/// Multiplicative (Fx-style) hasher for maps keyed by the analyses' own
/// dense ids — [`TxId`], `(ObjId, CellId)`. One rotate, xor and multiply
/// per word instead of SipHash's rounds. It offers no resistance to
/// crafted collisions, which these keys do not need: the checker numbers
/// transactions, objects and cells itself (imported histories are lowered
/// to dense ids before any checker sees them).
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

/// A dynamic transaction id, unique within a run. `TxId(0)` is reserved as
/// "none".
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxId(pub u64);

impl TxId {
    /// The reserved "no transaction" value.
    pub const NONE: TxId = TxId(0);

    /// True unless this is [`TxId::NONE`].
    #[inline]
    pub fn is_some(self) -> bool {
        self.0 != 0
    }
}

impl fmt::Debug for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tx{}", self.0)
    }
}

pub use dc_runtime::spec::TxKind;

/// One read/write log entry (paper §3.2.4): the exact memory access a
/// transaction performed, packed into one `u64` — object id in bits
/// 33..64, cell in bits 2..33, flags in bits 0..2 — so per-access log
/// traffic and retained-log footprint (the paper's GC-analog column) are
/// a single word. Synchronization operations are recorded as reads/writes
/// of the object synchronized on.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct LogEntry(u64);

// The whole point of the packing: one entry is exactly one word.
const _: () = assert!(std::mem::size_of::<LogEntry>() == 8);

impl LogEntry {
    const WRITE: u64 = 1;
    const SYNC: u64 = 2;
    const CELL_SHIFT: u32 = 2;
    const OBJ_SHIFT: u32 = 33;
    /// 31-bit mask for the obj and cell fields.
    const FIELD: u64 = (1 << 31) - 1;
    /// In-word sentinel for [`SYNC_CELL`] (`u32::MAX` does not fit 31
    /// bits); the all-ones cell field round-trips back to `SYNC_CELL`.
    const SYNC_CELL_BITS: u64 = Self::FIELD;

    /// Creates an entry. Object and cell ids must fit their 31-bit
    /// fields (`SYNC_CELL` is mapped to a reserved sentinel).
    pub fn new(obj: ObjId, cell: CellId, is_write: bool, is_sync: bool) -> Self {
        debug_assert!(u64::from(obj.0) <= Self::FIELD, "obj id overflows 31 bits");
        debug_assert!(
            cell == SYNC_CELL || u64::from(cell) < Self::SYNC_CELL_BITS,
            "cell id overflows 31 bits"
        );
        let cell_bits = if cell == SYNC_CELL {
            Self::SYNC_CELL_BITS
        } else {
            u64::from(cell) & Self::FIELD
        };
        LogEntry(
            ((u64::from(obj.0) & Self::FIELD) << Self::OBJ_SHIFT)
                | (cell_bits << Self::CELL_SHIFT)
                | (u64::from(is_write) * Self::WRITE)
                | (u64::from(is_sync) * Self::SYNC),
        )
    }

    /// The accessed object.
    #[inline]
    pub fn obj(self) -> ObjId {
        ObjId(((self.0 >> Self::OBJ_SHIFT) & Self::FIELD) as u32)
    }

    /// The accessed cell ([`SYNC_CELL`] for sync ops; conflated to 0 for
    /// arrays).
    #[inline]
    pub fn cell(self) -> CellId {
        let bits = (self.0 >> Self::CELL_SHIFT) & Self::FIELD;
        if bits == Self::SYNC_CELL_BITS {
            SYNC_CELL
        } else {
            bits as CellId
        }
    }

    /// True for stores and release-like synchronization.
    #[inline]
    pub fn is_write(self) -> bool {
        self.0 & Self::WRITE != 0
    }

    /// True for synchronization accesses.
    #[inline]
    pub fn is_sync(self) -> bool {
        self.0 & Self::SYNC != 0
    }
}

impl fmt::Debug for LogEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}({:?}.{})",
            if self.is_write() { "wr" } else { "rd" },
            if self.is_sync() { "s" } else { "" },
            self.obj(),
            self.cell()
        )
    }
}

/// Whether an IDG edge is an intra-thread program-order edge or a detected
/// cross-thread dependence.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Consecutive transactions of one thread.
    Intra,
    /// Cross-thread dependence detected via an Octet transition.
    Cross,
}

/// A directed IDG edge with read/write-log positions at creation time,
/// giving PCD the cross-thread ordering of accesses (paper §3.2.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Source transaction.
    pub src: TxId,
    /// Length of the source's log when the edge was created: everything the
    /// source logged before the edge happens-before everything the sink
    /// logs after `dst_pos`.
    pub src_pos: u32,
    /// Sink transaction.
    pub dst: TxId,
    /// Length of the sink's log when the edge was created.
    pub dst_pos: u32,
    /// Intra-thread or cross-thread.
    pub kind: EdgeKind,
}

/// Immutable snapshot of one finished transaction handed to PCD. Its log is
/// a range of the owning [`SccReport`]'s entries buffer, read through
/// [`SccReport::log`]: a report is one copy out of the graph's log arena,
/// not a reference into it, so it stays valid after the graph lock is
/// released and the collector compacts the arena.
#[derive(Clone, Debug)]
pub struct TxSnapshot {
    /// The transaction.
    pub id: TxId,
    /// Executing thread.
    pub thread: ThreadId,
    /// Regular or unary.
    pub kind: TxKind,
    /// Per-thread sequence number (program order of transactions).
    pub seq: u64,
    /// Where the read/write log lies in [`SccReport::entries`]; empty when
    /// logging is off.
    pub log: Range<u32>,
}

/// A replay-ordering constraint derived from one cross-thread IDG edge into
/// an SCC member: everything the edge's source logged before `src_pos` —
/// and, transitively, everything the source's same-thread predecessors
/// logged — happens before the sink's entries at or past `dst_pos`. The
/// source may be outside the SCC; its identity is recorded so its
/// *predecessors inside* the SCC are still ordered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplayConstraint {
    /// Sink transaction (an SCC member).
    pub dst: TxId,
    /// First sink log position the constraint gates.
    pub dst_pos: u32,
    /// Source transaction (member or not).
    pub src: TxId,
    /// The source's executing thread.
    pub src_thread: ThreadId,
    /// The source's per-thread sequence number.
    pub src_seq: u64,
    /// Source log length when the edge was created.
    pub src_pos: u32,
}

thread_local! {
    /// The buffers the next SCC a transaction end on this thread finds is
    /// written into ([`SccReport::recycle`]).
    static SPARE: Cell<SccReport> = Cell::default();
}

/// An SCC of the imprecise dependence graph, detected when its last member
/// transaction finished — the unit of work handed to PCD. Its buffers are
/// reusable: [`SccReport::clear`] keeps their capacity, and a consumer that
/// hands a report back ([`SccReport::recycle`]) makes the next one a
/// transaction end on its thread reports allocation-free.
#[derive(Clone, Debug, Default)]
pub struct SccReport {
    /// The member transactions.
    pub txs: Vec<TxSnapshot>,
    /// Every member's log, each one contiguous ([`TxSnapshot::log`]).
    pub entries: Vec<LogEntry>,
    /// All IDG edges whose endpoints are both members.
    pub edges: Vec<Edge>,
    /// Replay-ordering constraints from every cross-thread edge whose sink
    /// is a member (sources may be outside the SCC).
    pub constraints: Vec<ReplayConstraint>,
}

impl SccReport {
    /// Hands this report's buffers back: the next SCC a transaction end on
    /// this thread finds is written into them. Kept per thread rather than
    /// per checker, so a checker that finds one SCC — one per imported
    /// history, say — reuses the buffers of the checker before it.
    pub fn recycle(self) {
        SPARE.set(self);
    }

    /// This thread's recycled buffers, or empty ones.
    pub(crate) fn spare() -> SccReport {
        SPARE.take()
    }

    /// Empties the report, keeping its buffers' capacity.
    pub fn clear(&mut self) {
        self.txs.clear();
        self.entries.clear();
        self.edges.clear();
        self.constraints.clear();
    }

    /// Appends a member with a copy of its log.
    ///
    /// # Panics
    ///
    /// Panics if the entries buffer outgrows `u32` positions.
    pub fn push_tx(
        &mut self,
        id: TxId,
        thread: ThreadId,
        kind: TxKind,
        seq: u64,
        log: &[LogEntry],
    ) {
        let pos = |n: usize| u32::try_from(n).expect("SCC log buffer overflow");
        let start = pos(self.entries.len());
        self.entries.extend_from_slice(log);
        let log = start..pos(self.entries.len());
        self.txs.push(TxSnapshot {
            id,
            thread,
            kind,
            seq,
            log,
        });
    }

    /// Member `tx`'s read/write log.
    pub fn log(&self, tx: &TxSnapshot) -> &[LogEntry] {
        &self.entries[tx.log.start as usize..tx.log.end as usize]
    }

    /// Ids of the member transactions.
    pub fn tx_ids(&self) -> impl Iterator<Item = TxId> + '_ {
        self.txs.iter().map(|t| t.id)
    }

    /// Number of member transactions.
    pub fn len(&self) -> usize {
        self.txs.len()
    }

    /// True if the report has no transactions (never produced by ICD).
    pub fn is_empty(&self) -> bool {
        self.txs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_runtime::ids::MethodId;

    #[test]
    fn txid_none_is_not_some() {
        assert!(!TxId::NONE.is_some());
        assert!(TxId(1).is_some());
        assert_eq!(format!("{:?}", TxId(7)), "Tx7");
    }

    #[test]
    fn log_entry_flags() {
        let r = LogEntry::new(ObjId(1), 2, false, false);
        assert!(!r.is_write());
        assert!(!r.is_sync());
        let w = LogEntry::new(ObjId(1), 2, true, false);
        assert!(w.is_write());
        let s = LogEntry::new(ObjId(1), 2, true, true);
        assert!(s.is_write() && s.is_sync());
        assert_eq!(format!("{s:?}"), "wrs(ObjId(1).2)");
    }

    #[test]
    fn log_entry_round_trips_through_the_packed_word() {
        use dc_runtime::ids::SYNC_CELL;
        let max_field = (1u32 << 31) - 1;
        let cases = [
            (ObjId(0), 0, false, false),
            (ObjId(1), 2, true, false),
            (ObjId(max_field), max_field - 1, true, true),
            // SYNC_CELL maps through the reserved sentinel and back.
            (ObjId(7), SYNC_CELL, true, true),
            (ObjId(7), SYNC_CELL, false, false),
        ];
        for (obj, cell, is_write, is_sync) in cases {
            let e = LogEntry::new(obj, cell, is_write, is_sync);
            assert_eq!(e.obj(), obj, "obj round-trip {obj:?}.{cell}");
            assert_eq!(e.cell(), cell, "cell round-trip {obj:?}.{cell}");
            assert_eq!(e.is_write(), is_write);
            assert_eq!(e.is_sync(), is_sync);
        }
    }

    /// Dense sequential ids — the only keys these maps see — must not pile
    /// into a few buckets or share one control tag: over a window of 4096
    /// consecutive ids the low 12 bits (bucket index) never collide more
    /// than a handful of times and the top 7 bits (hashbrown's tag) take
    /// every value.
    #[test]
    fn id_hasher_spreads_sequential_ids() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        let build = BuildHasherDefault::<IdHasher>::default();
        let mut buckets = vec![0u32; 4096];
        let mut tags = [false; 128];
        for id in 1_000_000u64..1_004_096 {
            let h = build.hash_one(TxId(id));
            buckets[(h & 4095) as usize] += 1;
            tags[(h >> 57) as usize] = true;
        }
        assert!(
            buckets.iter().all(|&n| n <= 4),
            "{:?}",
            buckets.iter().max()
        );
        assert!(tags.iter().all(|&t| t));
        // Tuple keys hash both halves.
        let f = |o: u32, c: u32| build.hash_one((ObjId(o), c));
        assert_ne!(f(1, 2), f(2, 1));
        assert_ne!(f(1, 2), f(1, 3));
    }

    #[test]
    fn tx_kind_accessors() {
        assert!(TxKind::Regular(MethodId(3)).is_regular());
        assert!(!TxKind::Unary.is_regular());
        assert_eq!(TxKind::Regular(MethodId(3)).method(), Some(MethodId(3)));
        assert_eq!(TxKind::Unary.method(), None);
    }

    #[test]
    fn scc_report_accessors() {
        let entry = |cell| LogEntry::new(ObjId(1), cell, true, false);
        let mut report = SccReport::default();
        report.push_tx(
            TxId(1),
            ThreadId(0),
            TxKind::Unary,
            0,
            &[entry(0), entry(1)],
        );
        report.push_tx(TxId(2), ThreadId(1), TxKind::Unary, 0, &[]);
        report.push_tx(TxId(3), ThreadId(1), TxKind::Unary, 1, &[entry(2)]);
        assert_eq!(report.len(), 3);
        assert!(!report.is_empty());
        assert_eq!(
            report.tx_ids().collect::<Vec<_>>(),
            [TxId(1), TxId(2), TxId(3)]
        );
        let logs: Vec<&[LogEntry]> = report.txs.iter().map(|t| report.log(t)).collect();
        assert_eq!(logs, [&[entry(0), entry(1)][..], &[], &[entry(2)]]);
        let capacity = report.entries.capacity();
        report.clear();
        assert!(report.is_empty() && report.entries.is_empty());
        assert_eq!(
            report.entries.capacity(),
            capacity,
            "clear keeps the buffers"
        );
    }
}
