//! Execution tracing and checker composition.
//!
//! [`TraceChecker`] records the full event stream of a run — the input of
//! the trace oracle ([`crate::oracle`]), an after-the-run serializability
//! check (the related-work alternative to online checking, paper §6).
//! [`Tee`] drives two checkers from one execution, which is how the
//! differential tests compare Velodrome, DoubleChecker, and the trace oracle
//! on literally the same event stream.

use crate::checker::Checker;
use crate::heap::Heap;
use crate::ids::{CellId, MethodId, ObjId, ThreadId};
use parking_lot::Mutex;

/// One recorded event. Synchronization operations appear as
/// [`TraceEvent::SyncAcquire`]/[`TraceEvent::SyncRelease`] exactly as the
/// analyses see them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// Thread started.
    ThreadBegin(ThreadId),
    /// Thread finished.
    ThreadEnd(ThreadId),
    /// Method entry.
    Enter(ThreadId, MethodId),
    /// Method exit.
    Exit(ThreadId, MethodId),
    /// Plain read.
    Read(ThreadId, ObjId, CellId),
    /// Plain write.
    Write(ThreadId, ObjId, CellId),
    /// Array read.
    ArrayRead(ThreadId, ObjId, CellId),
    /// Array write.
    ArrayWrite(ThreadId, ObjId, CellId),
    /// Acquire-like synchronization.
    SyncAcquire(ThreadId, ObjId),
    /// Release-like synchronization.
    SyncRelease(ThreadId, ObjId),
}

impl TraceEvent {
    /// The thread that performed the event.
    pub fn thread(&self) -> ThreadId {
        match *self {
            TraceEvent::ThreadBegin(t)
            | TraceEvent::ThreadEnd(t)
            | TraceEvent::Enter(t, _)
            | TraceEvent::Exit(t, _)
            | TraceEvent::Read(t, _, _)
            | TraceEvent::Write(t, _, _)
            | TraceEvent::ArrayRead(t, _, _)
            | TraceEvent::ArrayWrite(t, _, _)
            | TraceEvent::SyncAcquire(t, _)
            | TraceEvent::SyncRelease(t, _) => t,
        }
    }
}

/// Records every event of a run in one globally ordered trace.
///
/// Ordering caveat: under the real-thread engine the global order is the
/// order events won the trace lock, which is *a* linearization of the
/// execution (each event is recorded inside its barrier, before the
/// access). Under the deterministic engine it is exact.
#[derive(Debug, Default)]
pub struct TraceChecker {
    events: Mutex<Vec<TraceEvent>>,
}

impl TraceChecker {
    /// Creates an empty trace recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the recorder, returning the trace.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events.into_inner()
    }

    /// Copies the trace out.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().clone()
    }

    fn push(&self, e: TraceEvent) {
        self.events.lock().push(e);
    }
}

impl Checker for TraceChecker {
    fn thread_begin(&self, t: ThreadId) {
        self.push(TraceEvent::ThreadBegin(t));
    }
    fn thread_end(&self, t: ThreadId) {
        self.push(TraceEvent::ThreadEnd(t));
    }
    fn enter_method(&self, t: ThreadId, m: MethodId) {
        self.push(TraceEvent::Enter(t, m));
    }
    fn exit_method(&self, t: ThreadId, m: MethodId) {
        self.push(TraceEvent::Exit(t, m));
    }
    fn read(&self, t: ThreadId, obj: ObjId, cell: CellId) {
        self.push(TraceEvent::Read(t, obj, cell));
    }
    fn write(&self, t: ThreadId, obj: ObjId, cell: CellId) {
        self.push(TraceEvent::Write(t, obj, cell));
    }
    fn array_read(&self, t: ThreadId, obj: ObjId, index: CellId) {
        self.push(TraceEvent::ArrayRead(t, obj, index));
    }
    fn array_write(&self, t: ThreadId, obj: ObjId, index: CellId) {
        self.push(TraceEvent::ArrayWrite(t, obj, index));
    }
    fn sync_acquire(&self, t: ThreadId, obj: ObjId) {
        self.push(TraceEvent::SyncAcquire(t, obj));
    }
    fn sync_release(&self, t: ThreadId, obj: ObjId) {
        self.push(TraceEvent::SyncRelease(t, obj));
    }
}

/// Drives two checkers from one execution, `A` first.
///
/// The engines' ordering guarantees apply to each component separately; in
/// particular both components observe identical event streams, which is
/// what differential testing needs.
#[derive(Debug)]
pub struct Tee<A, B> {
    /// First checker.
    pub a: A,
    /// Second checker.
    pub b: B,
}

impl<A: Checker, B: Checker> Tee<A, B> {
    /// Composes two checkers.
    pub fn new(a: A, b: B) -> Self {
        Tee { a, b }
    }
}

macro_rules! tee_forward {
    ($(fn $name:ident(&self $(, $arg:ident : $ty:ty)*);)*) => {
        $(fn $name(&self $(, $arg: $ty)*) {
            self.a.$name($($arg),*);
            self.b.$name($($arg),*);
        })*
    };
}

impl<A: Checker, B: Checker> Checker for Tee<A, B> {
    fn run_begin(&self, heap: &Heap) {
        self.a.run_begin(heap);
        self.b.run_begin(heap);
    }
    tee_forward! {
        fn run_end(&self);
        fn thread_begin(&self, t: ThreadId);
        fn thread_end(&self, t: ThreadId);
        fn enter_method(&self, t: ThreadId, m: MethodId);
        fn exit_method(&self, t: ThreadId, m: MethodId);
        fn read(&self, t: ThreadId, obj: ObjId, cell: CellId);
        fn write(&self, t: ThreadId, obj: ObjId, cell: CellId);
        fn array_read(&self, t: ThreadId, obj: ObjId, index: CellId);
        fn array_write(&self, t: ThreadId, obj: ObjId, index: CellId);
        fn sync_acquire(&self, t: ThreadId, obj: ObjId);
        fn sync_release(&self, t: ThreadId, obj: ObjId);
        fn safe_point(&self, t: ThreadId);
        fn before_block(&self, t: ThreadId);
        fn after_unblock(&self, t: ThreadId);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::det::{run_det, Schedule};
    use crate::heap::ObjKind;
    use crate::program::{Op, ProgramBuilder};

    fn tiny_program() -> crate::program::Program {
        let mut b = ProgramBuilder::new();
        let o = b.object(ObjKind::Plain { fields: 1 });
        let m = b.method("m", vec![Op::Write(o, 0), Op::Read(o, 0)]);
        b.thread(m);
        b.thread(m);
        b.build().unwrap()
    }

    #[test]
    fn trace_records_every_event_in_order() {
        let p = tiny_program();
        let trace = TraceChecker::new();
        run_det(&p, &trace, &Schedule::RoundRobin { quantum: 100 }).unwrap();
        let events = trace.into_events();
        // 2 threads × (begin + enter + write + read + exit + end + sync-release)
        assert_eq!(events.len(), 14);
        assert!(matches!(events[0], TraceEvent::ThreadBegin(_)));
        let first = events[0].thread();
        assert!(matches!(events[2], TraceEvent::Write(t, _, 0) if t == first));
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::SyncRelease(..))));
    }

    #[test]
    fn trace_event_thread_accessor() {
        assert_eq!(
            TraceEvent::Read(ThreadId(3), ObjId(0), 1).thread(),
            ThreadId(3)
        );
        assert_eq!(TraceEvent::ThreadEnd(ThreadId(2)).thread(), ThreadId(2));
    }

    #[test]
    fn tee_drives_both_checkers_identically() {
        let p = tiny_program();
        let tee = Tee::new(TraceChecker::new(), TraceChecker::new());
        run_det(&p, &tee, &Schedule::random(5)).unwrap();
        assert_eq!(tee.a.events(), tee.b.events());
        assert!(!tee.a.events().is_empty());
    }
}
