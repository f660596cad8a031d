//! Spans recorded from outside the program, around the calls into each layer.
//!
//! A [`SpanRecorder`] keeps spans in memory; [`Spanned`] wraps any
//! [`Checker`] and records `checker.run_begin`, one `checker.thread` per
//! program thread and `checker.run_end`, and inside a thread span brackets
//! every 1024th access hook as `checker.access` and every 16th `exit_method`
//! as `checker.tx_end`. The counters are per thread and written by their
//! owner only, so the wrapper adds no shared writes between samples. A
//! layer's busy time is its sampled sum times its sampling rate.

use dc_runtime::checker::Checker;
use dc_runtime::heap::Heap;
use dc_runtime::ids::{CellId, MethodId, ObjId, ThreadId};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Every `ACCESS_EVERY`-th access hook of a thread is bracketed.
pub const ACCESS_EVERY: u32 = 1024;
/// Every `TX_END_EVERY`-th `exit_method` of a thread is bracketed.
pub const TX_END_EVERY: u32 = 16;

/// One recorded span. `parent` is 0 for a root.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Identifier, unique within the recorder.
    pub id: u64,
    /// The span that caused this one (0: none).
    pub parent: u64,
    /// `layer.operation`.
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// `end − start`.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span store.
#[derive(Debug)]
pub struct SpanRecorder {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for SpanRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanRecorder {
    /// An empty recorder; its clock starts now.
    pub fn new() -> Self {
        SpanRecorder {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// A fresh span identifier.
    pub fn fresh_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Stores finished spans.
    pub fn extend(&self, spans: impl IntoIterator<Item = Span>) {
        self.spans
            .lock()
            .expect("no span writer panics while holding the lock")
            .extend(spans);
    }

    /// Runs `f` inside a span `name` under `parent`; `f` receives the new
    /// span's id to parent its own children on.
    pub fn scope<R>(&self, name: &'static str, parent: u64, f: impl FnOnce(u64) -> R) -> R {
        let id = self.fresh_id();
        let start_ns = self.now();
        let result = f(id);
        let end_ns = self.now();
        self.extend([Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        }]);
        result
    }

    /// Everything recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("no span writer panics while holding the lock")
            .clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Self time per span name: each span's duration minus the part of its
/// interval that its child spans cover (children may overlap each other —
/// two thread spans under one run — so the covered part is the union of the
/// child intervals, clipped to the parent).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut totals = BTreeMap::new();
    for s in spans {
        let mut covered = 0;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
        }
        *totals.entry(s.name).or_insert(0) += s.duration_ns().saturating_sub(covered);
    }
    totals
}

/// Per-thread sampling state, written by its owner only.
#[repr(align(128))]
#[derive(Debug, Default)]
struct ThreadSlot {
    accesses: AtomicU32,
    exits: AtomicU32,
    span_id: AtomicU64,
    start_ns: AtomicU64,
    samples: Mutex<Vec<Span>>,
}

/// A [`Checker`] that records spans around another checker's hooks.
#[derive(Debug)]
pub struct Spanned<'a, C> {
    inner: &'a C,
    recorder: &'a SpanRecorder,
    parent: u64,
    slots: Box<[ThreadSlot]>,
}

impl<'a, C: Checker> Spanned<'a, C> {
    /// Wraps `inner` for a program of `n_threads` threads; the spans hang
    /// under `parent` (the `runtime.run_*` span).
    pub fn new(inner: &'a C, recorder: &'a SpanRecorder, parent: u64, n_threads: usize) -> Self {
        Spanned {
            inner,
            recorder,
            parent,
            slots: (0..n_threads).map(|_| ThreadSlot::default()).collect(),
        }
    }

    #[inline]
    fn sampled(
        &self,
        t: ThreadId,
        every: u32,
        pick: impl Fn(&ThreadSlot) -> &AtomicU32,
        name: &'static str,
        hook: impl FnOnce(),
    ) {
        let slot = &self.slots[t.index()];
        let counter = pick(slot);
        // Owner-only counter: a relaxed load and store, no read-modify-write.
        let n = counter.load(Ordering::Relaxed).wrapping_add(1);
        counter.store(n, Ordering::Relaxed);
        if !n.is_multiple_of(every) {
            return hook();
        }
        let start_ns = self.recorder.now();
        hook();
        let end_ns = self.recorder.now();
        slot.samples
            .lock()
            .expect("only the owning thread locks its samples")
            .push(Span {
                id: self.recorder.fresh_id(),
                parent: slot.span_id.load(Ordering::Relaxed),
                name,
                start_ns,
                end_ns,
            });
    }

    #[inline]
    fn access(&self, t: ThreadId, hook: impl FnOnce()) {
        self.sampled(t, ACCESS_EVERY, |s| &s.accesses, "checker.access", hook);
    }
}

impl<C: Checker> Checker for Spanned<'_, C> {
    fn run_begin(&self, heap: &Heap) {
        self.recorder.scope("checker.run_begin", self.parent, |_| {
            self.inner.run_begin(heap)
        });
    }
    fn run_end(&self) {
        self.recorder
            .scope("checker.run_end", self.parent, |_| self.inner.run_end());
    }
    fn thread_begin(&self, t: ThreadId) {
        let slot = &self.slots[t.index()];
        slot.span_id
            .store(self.recorder.fresh_id(), Ordering::Relaxed);
        slot.start_ns.store(self.recorder.now(), Ordering::Relaxed);
        self.inner.thread_begin(t);
    }
    fn thread_end(&self, t: ThreadId) {
        self.inner.thread_end(t);
        let slot = &self.slots[t.index()];
        let mut spans = std::mem::take(
            &mut *slot
                .samples
                .lock()
                .expect("only the owning thread locks its samples"),
        );
        spans.push(Span {
            id: slot.span_id.load(Ordering::Relaxed),
            parent: self.parent,
            name: "checker.thread",
            start_ns: slot.start_ns.load(Ordering::Relaxed),
            end_ns: self.recorder.now(),
        });
        self.recorder.extend(spans);
    }
    fn enter_method(&self, t: ThreadId, m: MethodId) {
        self.inner.enter_method(t, m);
    }
    fn exit_method(&self, t: ThreadId, m: MethodId) {
        self.sampled(
            t,
            TX_END_EVERY,
            |s| &s.exits,
            "checker.tx_end",
            || self.inner.exit_method(t, m),
        );
    }
    #[inline]
    fn read(&self, t: ThreadId, obj: ObjId, cell: CellId) {
        self.access(t, || self.inner.read(t, obj, cell));
    }
    #[inline]
    fn write(&self, t: ThreadId, obj: ObjId, cell: CellId) {
        self.access(t, || self.inner.write(t, obj, cell));
    }
    fn array_read(&self, t: ThreadId, obj: ObjId, index: CellId) {
        self.access(t, || self.inner.array_read(t, obj, index));
    }
    fn array_write(&self, t: ThreadId, obj: ObjId, index: CellId) {
        self.access(t, || self.inner.array_write(t, obj, index));
    }
    fn sync_acquire(&self, t: ThreadId, obj: ObjId) {
        self.access(t, || self.inner.sync_acquire(t, obj));
    }
    fn sync_release(&self, t: ThreadId, obj: ObjId) {
        self.access(t, || self.inner.sync_release(t, obj));
    }
    #[inline]
    fn safe_point(&self, t: ThreadId) {
        self.inner.safe_point(t);
    }
    fn before_block(&self, t: ThreadId) {
        self.inner.before_block(t);
    }
    fn after_unblock(&self, t: ThreadId) {
        self.inner.after_unblock(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_runtime::checker::NopChecker;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_the_union_of_children() {
        let spans = [
            span(1, 0, "root", 0, 100),
            // Two overlapping children cover [10, 60); one sticks out past
            // the parent and is clipped to [90, 100).
            span(2, 1, "kid", 10, 50),
            span(3, 1, "kid", 30, 60),
            span(4, 1, "kid", 90, 120),
            span(5, 2, "leaf", 20, 25),
        ];
        let t = self_times(&spans);
        assert_eq!(t["root"], 100 - 50 - 10);
        assert_eq!(t["kid"], (40 - 5) + 30 + 30);
        assert_eq!(t["leaf"], 5);
    }

    #[test]
    fn spanned_samples_hooks_at_their_rates() {
        let recorder = SpanRecorder::new();
        let spanned = Spanned::new(&NopChecker, &recorder, 7, 1);
        let t = ThreadId(0);
        spanned.thread_begin(t);
        for _ in 0..3 * ACCESS_EVERY {
            spanned.read(t, ObjId(0), 0);
        }
        for _ in 0..2 * TX_END_EVERY {
            spanned.exit_method(t, MethodId(0));
        }
        spanned.thread_end(t);
        let spans = recorder.spans();
        let count = |name| spans.iter().filter(|s| s.name == name).count();
        assert_eq!(count("checker.access"), 3);
        assert_eq!(count("checker.tx_end"), 2);
        let thread = spans.iter().find(|s| s.name == "checker.thread").unwrap();
        assert_eq!(thread.parent, 7);
        assert!(spans
            .iter()
            .filter(|s| s.name != "checker.thread")
            .all(|s| s.parent == thread.id));
    }
}
