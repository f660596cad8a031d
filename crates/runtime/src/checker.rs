//! The analysis hook interface.
//!
//! Execution engines drive a [`Checker`] at every instrumentation point the
//! paper's Jikes RVM implementation compiles barriers into: before each
//! program read and write, at synchronization operations, at method entry and
//! exit (transaction demarcation), at safe points, and around blocking. Each
//! experimental configuration of the paper's Figure 7 is a different
//! `Checker` implementation:
//!
//! * unmodified JVM → [`NopChecker`],
//! * Velodrome → `dc-velodrome` (`Velodrome`, sound and unsound),
//! * AeroDrome, the same online checker with a vector-clock cycle test (the
//!   differential oracle's third leg; not in the paper) → `dc-aerodrome`,
//! * DoubleChecker single-run / first-run / second-run → `dc-core`.

use crate::heap::Heap;
use crate::ids::{CellId, MethodId, ObjId, ThreadId};
use std::collections::HashSet;

/// Hooks invoked by the execution engines. All methods have empty default
/// bodies so a checker only implements the events it cares about.
///
/// Implementations must be `Sync`: one checker instance is shared by all
/// program threads, exactly like analysis state in a JVM. Per-thread state
/// should be kept in dense per-thread slots.
pub trait Checker: Sync {
    /// Called once before any thread runs, with the materialized heap.
    fn run_begin(&self, heap: &Heap) {
        let _ = heap;
    }

    /// Called once after every thread has finished. Analyses flush
    /// end-of-run work (e.g. final cycle detection) here.
    fn run_end(&self) {}

    /// Thread `t` is about to execute its first operation.
    fn thread_begin(&self, t: ThreadId) {
        let _ = t;
    }

    /// Thread `t` has executed its last operation.
    fn thread_end(&self, t: ThreadId) {
        let _ = t;
    }

    /// Thread `t` entered method `m`.
    fn enter_method(&self, t: ThreadId, m: MethodId) {
        let _ = (t, m);
    }

    /// Thread `t` is exiting method `m`.
    fn exit_method(&self, t: ThreadId, m: MethodId) {
        let _ = (t, m);
    }

    /// Read barrier: `t` is about to load `(obj, cell)` from a plain object.
    fn read(&self, t: ThreadId, obj: ObjId, cell: CellId) {
        let _ = (t, obj, cell);
    }

    /// Write barrier: `t` is about to store to `(obj, cell)`.
    fn write(&self, t: ThreadId, obj: ObjId, cell: CellId) {
        let _ = (t, obj, cell);
    }

    /// Read barrier for an array element. Default forwards to [`Checker::read`];
    /// checkers honoring the paper's default configuration (arrays not
    /// instrumented, §4) override this with a no-op or a config switch.
    fn array_read(&self, t: ThreadId, obj: ObjId, index: CellId) {
        self.read(t, obj, index);
    }

    /// Write barrier for an array element; see [`Checker::array_read`].
    fn array_write(&self, t: ThreadId, obj: ObjId, index: CellId) {
        self.write(t, obj, index);
    }

    /// Acquire-like synchronization on `obj` (monitor enter, barrier exit,
    /// wait return, join, thread start). Treated as a read (paper §3.2.2).
    fn sync_acquire(&self, t: ThreadId, obj: ObjId) {
        let _ = (t, obj);
    }

    /// Release-like synchronization on `obj` (monitor exit, barrier entry,
    /// wait start, fork, thread exit). Treated as a write.
    fn sync_release(&self, t: ThreadId, obj: ObjId) {
        let _ = (t, obj);
    }

    /// A safe point: `t` is definitely not between a barrier and its program
    /// access. Octet responds to pending state-change requests here.
    ///
    /// The engines call it where a JVM has yieldpoints, not after every
    /// action: after each non-access action (method entry and exit, compute,
    /// synchronization, blocking, fork, join) and after the first action past
    /// each loop back edge ([`crate::interp::Step::safe_point`]). A thread
    /// therefore answers a request within one loop iteration or one
    /// call-free straight-line run of accesses.
    fn safe_point(&self, t: ThreadId) {
        let _ = t;
    }

    /// `t` is about to block (lock wait, join, condition wait, barrier).
    /// Octet switches other threads to the implicit protocol for `t`.
    fn before_block(&self, t: ThreadId) {
        let _ = t;
    }

    /// `t` has resumed after blocking.
    fn after_unblock(&self, t: ThreadId) {
        let _ = t;
    }
}

/// The "unmodified JVM" configuration: every hook is a no-op.
#[derive(Clone, Copy, Debug, Default)]
pub struct NopChecker;

impl Checker for NopChecker {}

impl NopChecker {
    /// Creates a new no-op checker.
    pub fn new() -> Self {
        NopChecker
    }
}

/// A violation's static identity: the sorted multiset of its cycle's
/// methods, unary members as `None`.
pub type StaticKey = Vec<Option<MethodId>>;

/// A checker's violations, one per static key, each the first found with
/// that key, in the order found. Memory grows with the distinct keys, not
/// with the cycles found.
#[derive(Debug)]
pub struct Distinct<V> {
    kept: Vec<V>,
    keys: HashSet<StaticKey>,
}

impl<V> Default for Distinct<V> {
    fn default() -> Self {
        Distinct {
            kept: Vec::new(),
            keys: HashSet::new(),
        }
    }
}

impl<V> Distinct<V> {
    /// Keeps each violation of `found`, in order, whose static key (`key`)
    /// no kept violation has.
    pub fn extend(&mut self, found: impl IntoIterator<Item = V>, key: impl Fn(&V) -> StaticKey) {
        for v in found {
            if self.keys.insert(key(&v)) {
                self.kept.push(v);
            }
        }
    }

    /// The kept violations, first found first.
    pub fn as_slice(&self) -> &[V] {
        &self.kept
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_keeps_the_first_violation_per_key_in_order() {
        // A violation stands in as (name, key).
        let key = |&(_, k): &(&str, u32)| vec![Some(MethodId(k))];
        let mut d = Distinct::default();
        d.extend([("a1", 1), ("b1", 2), ("a2", 1)], key);
        d.extend([("b2", 2), ("c1", 3), ("c2", 3)], key);
        let names: Vec<_> = d.as_slice().iter().map(|&(n, _)| n).collect();
        assert_eq!(names, ["a1", "b1", "c1"]);
    }

    #[test]
    fn nop_checker_accepts_all_events() {
        let c = NopChecker::new();
        let heap = Heap::new(&[], 1);
        c.run_begin(&heap);
        c.thread_begin(ThreadId(0));
        c.enter_method(ThreadId(0), MethodId(0));
        c.read(ThreadId(0), ObjId(0), 0);
        c.write(ThreadId(0), ObjId(0), 0);
        c.array_read(ThreadId(0), ObjId(0), 3);
        c.array_write(ThreadId(0), ObjId(0), 3);
        c.sync_acquire(ThreadId(0), ObjId(0));
        c.sync_release(ThreadId(0), ObjId(0));
        c.safe_point(ThreadId(0));
        c.before_block(ThreadId(0));
        c.after_unblock(ThreadId(0));
        c.exit_method(ThreadId(0), MethodId(0));
        c.thread_end(ThreadId(0));
        c.run_end();
    }

    #[test]
    fn checker_is_object_safe() {
        fn takes_dyn(_c: &dyn Checker) {}
        takes_dyn(&NopChecker);
    }

    #[test]
    fn default_array_hooks_forward_to_plain_hooks() {
        use std::sync::atomic::{AtomicU32, Ordering};
        #[derive(Default)]
        struct Counting {
            reads: AtomicU32,
            writes: AtomicU32,
        }
        impl Checker for Counting {
            fn read(&self, _: ThreadId, _: ObjId, _: CellId) {
                self.reads.fetch_add(1, Ordering::Relaxed);
            }
            fn write(&self, _: ThreadId, _: ObjId, _: CellId) {
                self.writes.fetch_add(1, Ordering::Relaxed);
            }
        }
        let c = Counting::default();
        c.array_read(ThreadId(0), ObjId(0), 1);
        c.array_write(ThreadId(0), ObjId(0), 2);
        assert_eq!(c.reads.load(Ordering::Relaxed), 1);
        assert_eq!(c.writes.load(Ordering::Relaxed), 1);
    }
}
