//! The shared-object heap of the runtime substrate.
//!
//! Objects are declared up front by the workload program and materialized
//! into a dense table when a run starts. Each object carries real data cells
//! (`AtomicU64`, accessed with relaxed ordering to model racy program
//! accesses) so that "unmodified" runs perform genuine memory traffic and the
//! analyses' relative overheads are measured against real work, as in the
//! paper's Figure 7.
//!
//! The engine also appends one *thread object* per program thread; fork,
//! join, and thread start/exit are modeled as synchronization accesses to
//! that object (paper §3.2.2).

use crate::ids::{CellId, ObjId, ThreadId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The shape of a heap object.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ObjKind {
    /// A plain object with `fields` scalar fields.
    Plain {
        /// Number of fields; cell ids `0..fields` are valid.
        fields: u16,
    },
    /// An array of `len` elements. The paper's implementations conflate all
    /// elements of an array by using array-level metadata (§5.4); analyses
    /// honor that by collapsing the element index.
    Array {
        /// Number of elements; cell ids `0..len` are valid.
        len: u32,
    },
    /// An object used purely as a monitor (lock / wait-notify target).
    Monitor,
    /// A rendezvous barrier for `parties` threads.
    Barrier {
        /// Number of threads that must arrive before any is released.
        parties: u32,
    },
    /// The per-thread object the engine appends for fork/join edges.
    ThreadObj,
}

impl ObjKind {
    /// Number of data cells backing this object.
    fn cell_count(self) -> usize {
        match self {
            ObjKind::Plain { fields } => usize::from(fields).max(1),
            ObjKind::Array { len } => (len as usize).max(1),
            ObjKind::Monitor | ObjKind::Barrier { .. } | ObjKind::ThreadObj => 1,
        }
    }

    /// True if accesses to this object should be conflated to one metadata
    /// slot (arrays, monitors, thread objects).
    #[inline]
    pub fn conflates_cells(self) -> bool {
        !matches!(self, ObjKind::Plain { .. })
    }
}

struct ObjectData {
    kind: ObjKind,
    cells: Box<[AtomicU64]>,
}

/// The dense object table for one run.
pub struct Heap {
    objects: Vec<ObjectData>,
    /// Id of the first thread object; thread `t`'s object is
    /// `first_thread_obj + t`.
    first_thread_obj: u32,
    n_threads: u16,
}

impl Heap {
    /// Materializes a heap from the program's object declarations, appending
    /// one thread object per program thread.
    pub fn new(declared: &[ObjKind], n_threads: u16) -> Self {
        let mut objects: Vec<ObjectData> = declared
            .iter()
            .map(|&kind| ObjectData {
                kind,
                cells: (0..kind.cell_count()).map(|_| AtomicU64::new(0)).collect(),
            })
            .collect();
        let first_thread_obj = u32::try_from(objects.len()).expect("heap too large");
        for _ in 0..n_threads {
            objects.push(ObjectData {
                kind: ObjKind::ThreadObj,
                cells: Box::new([AtomicU64::new(0)]),
            });
        }
        Heap {
            objects,
            first_thread_obj,
            n_threads,
        }
    }

    /// Total number of objects, including appended thread objects.
    #[inline]
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True if the heap has no objects (possible only for a program with no
    /// declared objects and no threads).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Number of program threads this heap was built for.
    #[inline]
    pub fn n_threads(&self) -> u16 {
        self.n_threads
    }

    /// The kind of object `obj`.
    ///
    /// # Panics
    ///
    /// Panics if `obj` is out of range.
    #[inline]
    pub fn kind(&self, obj: ObjId) -> ObjKind {
        self.objects[obj.index()].kind
    }

    /// The per-thread object used for fork/join dependence edges.
    #[inline]
    pub fn thread_obj(&self, t: ThreadId) -> ObjId {
        ObjId(self.first_thread_obj + u32::from(t.0))
    }

    /// Performs the actual program load of `(obj, cell)`.
    ///
    /// Relaxed ordering models an unsynchronized program access; the checker
    /// barrier preceding this load is what establishes any ordering.
    #[inline]
    pub fn load(&self, obj: ObjId, cell: CellId) -> u64 {
        let data = &self.objects[obj.index()];
        let idx = (cell as usize) % data.cells.len();
        data.cells[idx].load(Ordering::Relaxed)
    }

    /// Performs the actual program store of `value` to `(obj, cell)`.
    #[inline]
    pub fn store(&self, obj: ObjId, cell: CellId, value: u64) {
        let data = &self.objects[obj.index()];
        let idx = (cell as usize) % data.cells.len();
        data.cells[idx].store(value, Ordering::Relaxed);
    }
}

/// One object's entry in a [`CellLayout`]: its first slot and its cell
/// count, with the kind's conflation flag packed into the count's top bit so
/// the elision slot and the flag come from one load.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObjLayout {
    base: u32,
    /// `cells | CONFLATED`; a cell count never exceeds `u16::MAX`.
    cells: u32,
}

impl ObjLayout {
    const CONFLATED: u32 = 1 << 31;

    /// Flat slot for `cell`; [`crate::ids::SYNC_CELL`] maps to the object's
    /// sync slot, out-of-range cells conflate to slot 0.
    #[inline]
    pub fn slot(self, cell: CellId) -> u32 {
        let cells = self.cells & !Self::CONFLATED;
        let offset = if cell == crate::ids::SYNC_CELL {
            cells
        } else if cell < cells {
            cell
        } else {
            0
        };
        self.base + offset
    }

    /// [`ObjKind::conflates_cells`] of the object's kind.
    #[inline]
    pub fn conflated(self) -> bool {
        self.cells & Self::CONFLATED != 0
    }
}

/// Dense per-cell slot numbering for analysis side tables: every object gets
/// one slot per cell (conflated kinds get one) plus a synchronization slot.
/// ICD's duplicate-elision tables index with this layout. Clones share the
/// entry table.
#[derive(Clone, Debug, Default)]
pub struct CellLayout {
    entries: Arc<[ObjLayout]>,
    total: u32,
}

impl CellLayout {
    /// Builds the layout for every object in `heap`.
    pub fn new(heap: &Heap) -> Self {
        let mut total = 0u32;
        let entries = (0..heap.len())
            .map(|i| {
                let kind = heap.kind(ObjId::from_index(i));
                let cells: u32 = match kind {
                    ObjKind::Plain { fields } => u32::from(fields).max(1),
                    ObjKind::Array { .. }
                    | ObjKind::Monitor
                    | ObjKind::Barrier { .. }
                    | ObjKind::ThreadObj => 1,
                };
                let base = total;
                total = total.checked_add(cells + 1).expect("cell layout too large");
                let flag = if kind.conflates_cells() {
                    ObjLayout::CONFLATED
                } else {
                    0
                };
                ObjLayout {
                    base,
                    cells: cells | flag,
                }
            })
            .collect();
        CellLayout { entries, total }
    }

    /// Total number of slots.
    pub fn total(&self) -> u32 {
        self.total
    }

    /// The entry of `obj`.
    ///
    /// # Panics
    ///
    /// Panics if `obj` is out of range.
    #[inline]
    pub fn entry(&self, obj: ObjId) -> ObjLayout {
        self.entries[obj.index()]
    }

    /// Flat slot for `(obj, cell)`; see [`ObjLayout::slot`].
    #[inline]
    pub fn slot(&self, obj: ObjId, cell: CellId) -> u32 {
        self.entry(obj).slot(cell)
    }
}

impl std::fmt::Debug for Heap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Heap")
            .field("objects", &self.objects.len())
            .field("n_threads", &self.n_threads)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_declared_objects_and_thread_objects() {
        let heap = Heap::new(
            &[ObjKind::Plain { fields: 3 }, ObjKind::Array { len: 8 }],
            2,
        );
        assert_eq!(heap.len(), 4);
        assert_eq!(heap.kind(ObjId(0)), ObjKind::Plain { fields: 3 });
        assert_eq!(heap.kind(ObjId(1)), ObjKind::Array { len: 8 });
        assert_eq!(heap.kind(heap.thread_obj(ThreadId(0))), ObjKind::ThreadObj);
        assert_eq!(heap.thread_obj(ThreadId(1)), ObjId(3));
        assert_eq!(heap.n_threads(), 2);
        assert!(!heap.is_empty());
    }

    #[test]
    fn loads_and_stores_round_trip() {
        let heap = Heap::new(&[ObjKind::Plain { fields: 2 }], 0);
        assert_eq!(heap.load(ObjId(0), 1), 0);
        heap.store(ObjId(0), 1, 42);
        assert_eq!(heap.load(ObjId(0), 1), 42);
        assert_eq!(heap.load(ObjId(0), 0), 0);
    }

    #[test]
    fn out_of_range_cells_wrap_instead_of_faulting() {
        // SYNC_CELL accesses hit the object's backing store modulo its size.
        let heap = Heap::new(&[ObjKind::Monitor], 0);
        heap.store(ObjId(0), crate::ids::SYNC_CELL, 7);
        assert_eq!(heap.load(ObjId(0), crate::ids::SYNC_CELL), 7);
    }

    #[test]
    fn conflation_matches_object_kind() {
        assert!(!ObjKind::Plain { fields: 4 }.conflates_cells());
        assert!(ObjKind::Array { len: 4 }.conflates_cells());
        assert!(ObjKind::Monitor.conflates_cells());
        assert!(ObjKind::Barrier { parties: 2 }.conflates_cells());
        assert!(ObjKind::ThreadObj.conflates_cells());
    }

    /// The packed one-entry-per-object layout numbers slots exactly as the
    /// two-vector (`base[]`, `cells[]`) layout it replaced, and its flag is
    /// the kind's conflation rule.
    #[test]
    fn packed_layout_matches_the_two_vector_formula() {
        use crate::ids::SYNC_CELL;
        let kinds = [
            ObjKind::Plain { fields: 0 },
            ObjKind::Plain { fields: 1 },
            ObjKind::Plain { fields: 5 },
            ObjKind::Plain { fields: u16::MAX },
            ObjKind::Array { len: 7 },
            ObjKind::Monitor,
            ObjKind::Barrier { parties: 2 },
        ];
        let heap = Heap::new(&kinds, 1); // + one ThreadObj
        let layout = CellLayout::new(&heap);
        let (mut base, mut cells) = (Vec::new(), Vec::new());
        let mut total = 0u32;
        for i in 0..heap.len() {
            let n = match heap.kind(ObjId::from_index(i)) {
                ObjKind::Plain { fields } => u32::from(fields).max(1),
                _ => 1,
            };
            base.push(total);
            cells.push(n);
            total += n + 1;
        }
        assert_eq!(layout.total(), total);
        for i in 0..heap.len() {
            let obj = ObjId::from_index(i);
            let last = cells[i] - 1;
            for cell in [0, last, cells[i], cells[i] + 9, SYNC_CELL] {
                let offset = if cell == SYNC_CELL {
                    cells[i]
                } else if cell < cells[i] {
                    cell
                } else {
                    0
                };
                assert_eq!(layout.slot(obj, cell), base[i] + offset, "{obj:?} {cell}");
                assert_eq!(layout.entry(obj).slot(cell), base[i] + offset);
            }
            assert_eq!(
                layout.entry(obj).conflated(),
                heap.kind(obj).conflates_cells(),
                "{obj:?}"
            );
        }
    }

    #[test]
    fn zero_field_plain_object_still_has_one_cell() {
        let heap = Heap::new(&[ObjKind::Plain { fields: 0 }], 0);
        heap.store(ObjId(0), 0, 9);
        assert_eq!(heap.load(ObjId(0), 0), 9);
    }
}
