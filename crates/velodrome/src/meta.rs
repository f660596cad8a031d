//! Per-field analysis metadata with a per-field lock word.
//!
//! Velodrome (paper §4, "Velodrome implementation") adds two words per
//! field — the last transaction to write it and the last transaction(s), up
//! to one per thread, to read it since — plus one word per object for the
//! last lock-releasing transaction. To keep the analysis and the program
//! access atomic, each access "locks a word of the field's metadata using an
//! atomic operation"; that per-access CAS (and the remote cache misses it
//! causes) is the dominant cost DoubleChecker avoids.

use crate::graph::VTxId;
use dc_runtime::heap::{CellLayout, Heap};
use dc_runtime::ids::{CellId, ObjId};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Dense metadata tables for one run, one slot per [`CellLayout`] slot:
/// a slot per cell (arrays and the other conflated kinds get one, paper
/// §5.4) plus a sync slot per object for release–acquire dependences.
pub struct MetaTable {
    layout: CellLayout,
    /// Per-slot lock word (0 free, 1 held).
    locks: Vec<AtomicU32>,
    /// Per-slot last writer.
    writers: Vec<AtomicU64>,
    /// Per-slot, per-thread last readers (`readers[slot * n_threads + t]`).
    readers: Vec<AtomicU64>,
    n_threads: usize,
}

impl MetaTable {
    /// Builds metadata for every object in `heap`.
    pub fn new(heap: &Heap) -> Self {
        let layout = CellLayout::new(heap);
        let total = layout.total() as usize;
        let n_threads = usize::from(heap.n_threads());
        MetaTable {
            layout,
            locks: (0..total).map(|_| AtomicU32::new(0)).collect(),
            writers: (0..total).map(|_| AtomicU64::new(0)).collect(),
            readers: (0..total * n_threads).map(|_| AtomicU64::new(0)).collect(),
            n_threads,
        }
    }

    /// Number of threads the reader table is sized for.
    pub fn n_threads(&self) -> usize {
        self.n_threads
    }

    /// Flat slot index for `(obj, cell)`; [`dc_runtime::ids::SYNC_CELL`]
    /// maps to the object's sync slot, out-of-range cells conflate to slot
    /// 0 ([`CellLayout::slot`]).
    #[inline]
    pub fn slot(&self, obj: ObjId, cell: CellId) -> usize {
        self.layout.slot(obj, cell) as usize
    }

    /// Spin-acquires the slot's metadata lock (yielding after a bound so
    /// single-core machines make progress).
    #[inline]
    pub fn lock(&self, slot: usize) {
        let mut spins = 0u32;
        while self.locks[slot]
            .compare_exchange_weak(0, 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            spins += 1;
            if spins > 64 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// Releases the slot's metadata lock.
    #[inline]
    pub fn unlock(&self, slot: usize) {
        self.locks[slot].store(0, Ordering::Release);
    }

    /// Last writer of the slot (valid under the slot lock; racy otherwise,
    /// which is exactly what the unsound variant exploits).
    #[inline]
    pub fn writer(&self, slot: usize) -> VTxId {
        VTxId(self.writers[slot].load(Ordering::Acquire))
    }

    /// Sets the last writer (under the slot lock).
    #[inline]
    pub fn set_writer(&self, slot: usize, tx: VTxId) {
        self.writers[slot].store(tx.0, Ordering::Release);
    }

    /// Thread `t`'s last reader transaction of the slot.
    #[inline]
    pub fn reader(&self, slot: usize, t: usize) -> VTxId {
        VTxId(self.readers[slot * self.n_threads + t].load(Ordering::Acquire))
    }

    /// Sets thread `t`'s last reader.
    #[inline]
    pub fn set_reader(&self, slot: usize, t: usize, tx: VTxId) {
        self.readers[slot * self.n_threads + t].store(tx.0, Ordering::Release);
    }

    /// Clears every thread's last reader (`∀T, R(T,f) := null`).
    #[inline]
    pub fn clear_readers(&self, slot: usize) {
        for t in 0..self.n_threads {
            self.readers[slot * self.n_threads + t].store(0, Ordering::Release);
        }
    }
}

impl std::fmt::Debug for MetaTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetaTable")
            .field("slots", &self.locks.len())
            .field("n_threads", &self.n_threads)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_runtime::heap::ObjKind;
    use dc_runtime::ids::SYNC_CELL;

    fn heap() -> Heap {
        Heap::new(
            &[
                ObjKind::Plain { fields: 3 },
                ObjKind::Array { len: 100 },
                ObjKind::Monitor,
            ],
            2,
        )
    }

    #[test]
    fn slots_are_distinct_per_field_plus_sync() {
        let m = MetaTable::new(&heap());
        let o = ObjId(0);
        let s0 = m.slot(o, 0);
        let s1 = m.slot(o, 1);
        let s2 = m.slot(o, 2);
        let sync = m.slot(o, SYNC_CELL);
        let all = [s0, s1, s2, sync];
        for i in 0..all.len() {
            for j in (i + 1)..all.len() {
                assert_ne!(all[i], all[j]);
            }
        }
    }

    #[test]
    fn arrays_conflate_to_one_slot() {
        let m = MetaTable::new(&heap());
        let a = ObjId(1);
        assert_eq!(m.slot(a, 0), m.slot(a, 57));
        assert_ne!(m.slot(a, 0), m.slot(a, SYNC_CELL));
    }

    #[test]
    fn objects_do_not_share_slots() {
        let m = MetaTable::new(&heap());
        assert_ne!(m.slot(ObjId(0), SYNC_CELL), m.slot(ObjId(1), 0));
        assert_ne!(m.slot(ObjId(1), SYNC_CELL), m.slot(ObjId(2), 0));
    }

    #[test]
    fn lock_round_trip_and_metadata_updates() {
        let m = MetaTable::new(&heap());
        let s = m.slot(ObjId(0), 0);
        m.lock(s);
        assert_eq!(m.writer(s), VTxId(0));
        m.set_writer(s, VTxId(77));
        m.set_reader(s, 1, VTxId(88));
        m.unlock(s);
        assert_eq!(m.writer(s), VTxId(77));
        assert_eq!(m.reader(s, 1), VTxId(88));
        assert_eq!(m.reader(s, 0), VTxId(0));
        m.clear_readers(s);
        assert_eq!(m.reader(s, 1), VTxId(0));
    }

    #[test]
    fn contended_lock_excludes() {
        let m = std::sync::Arc::new(MetaTable::new(&heap()));
        let s = m.slot(ObjId(0), 0);
        m.lock(s);
        let m2 = std::sync::Arc::clone(&m);
        let h = std::thread::spawn(move || {
            m2.lock(s);
            m2.set_writer(s, VTxId(2));
            m2.unlock(s);
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        m.set_writer(s, VTxId(1));
        m.unlock(s);
        h.join().unwrap();
        assert_eq!(m.writer(s), VTxId(2), "second locker ran after first");
    }
}
