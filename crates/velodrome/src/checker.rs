//! The online checker: a [`Checker`] implementation performing sound and
//! precise online conflict-serializability checking.
//!
//! At each access, the instrumentation locks the field's metadata word,
//! detects cross-thread dependences against the last writer / last readers,
//! adds them to the dependence graph, detects cycles, and updates the
//! metadata — all while the metadata lock "provides analysis–access
//! atomicity" (paper §4). The paper measures 82% of Velodrome's overhead
//! coming from exactly this synchronization.
//!
//! [`Online`] is generic over the graph's [`CycleFilter`] only: Velodrome
//! and AeroDrome (`dc-aerodrome`) share every hook, so on one interleaving
//! they see the identical edge stream and the differential oracle compares
//! their cycle detectors and nothing else.

use crate::graph::{CycleFilter, VGraph, VTxId, VViolation};
use crate::meta::MetaTable;
use dc_runtime::checker::{Checker, Distinct};
use dc_runtime::heap::Heap;
use dc_runtime::ids::{CellId, MethodId, ObjId, ThreadId, SYNC_CELL};
use dc_runtime::spec::TxKind;
use dc_runtime::spec::{AtomicitySpec, TxFilter, TxTracker};
use dc_runtime::spec::{EnterOutcome, ExitOutcome};
use dc_runtime::OwnerCell;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::OnceLock;

/// Sound (default) or deliberately unsound synchronization variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Variant {
    /// Analysis–access atomicity via the per-field metadata lock.
    #[default]
    Sound,
    /// Skip synchronization (and metadata updates) when the current
    /// transaction is already the last writer/reader. Can miss dependences
    /// under races — the variant the Velodrome authors described
    /// (paper §5.3, "personal communication").
    Unsound,
}

/// Online-checker configuration.
#[derive(Clone, Debug)]
pub struct OnlineConfig {
    /// Sound or unsound synchronization.
    pub variant: Variant,
    /// Instrument array accesses (off by default, matching the paper).
    pub instrument_arrays: bool,
    /// Which transactions to instrument (all in normal operation; a method
    /// subset when used as the second run of multi-run mode).
    pub filter: TxFilter,
}

/// Velodrome's configuration (the name the benchmark and the CLI use).
pub type VelodromeConfig = OnlineConfig;

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            variant: Variant::Sound,
            instrument_arrays: false,
            filter: TxFilter::all(),
        }
    }
}

/// Run statistics.
#[derive(Debug, Default)]
pub struct OnlineStats {
    /// Transactions started (regular + unary).
    pub transactions: AtomicU64,
    /// Accesses that ran the full (locked) instrumentation.
    pub instrumented: AtomicU64,
    /// Accesses skipped by the unsound fast path.
    pub skipped_unsound: AtomicU64,
    /// Transactions reclaimed.
    pub collected_txs: AtomicU64,
}

struct Local {
    tracker: TxTracker,
    seq: u64,
    kind: TxKind,
    instrumented: u64,
    skipped_unsound: u64,
    /// False while inside an unselected regular transaction (second-run
    /// filtering): accesses are not instrumented.
    instrumenting: bool,
    seen_edge_events: u32,
}

/// One thread's state: the words other threads read or write, then the
/// owner block, which starts a 128-byte block of its own (`#[repr(C)]`
/// keeps the head first). Every access to `local` runs on the owner.
#[repr(C)]
struct Slot {
    current_tx: AtomicU64,
    edge_events: AtomicU32,
    local: OwnerCell<Local>,
}

/// The online atomicity checker, its cycle test chosen by `C`.
pub struct Online<C> {
    config: OnlineConfig,
    spec: AtomicitySpec,
    slots: Box<[Slot]>,
    meta: OnceLock<MetaTable>,
    graph: Mutex<VGraph<C>>,
    /// One violation per static key, the first found.
    violations: Mutex<Distinct<VViolation>>,
    stats: OnlineStats,
}

/// The Velodrome atomicity checker: every cross edge runs the DFS.
pub type Velodrome = Online<()>;

/// Join counters of a clock-based [`CycleFilter`], for
/// [`Online::clock_joins`] / [`Online::propagated_joins`]. Those two
/// accessors live here, not in `dc-aerodrome`, only because the frozen
/// benchmark calls them as inherent methods of `AeroDrome` and an inherent
/// impl of a foreign type is not allowed; ROADMAP 1(b) moves the benchmark
/// off them.
pub trait JoinCounts {
    /// Clock joins performed (direct edge joins + transitive propagation).
    fn joins(&self) -> u64;
    /// Joins that were transitive propagation rather than direct edges.
    fn propagated(&self) -> u64;
}

impl<C: CycleFilter> std::fmt::Debug for Online<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct(C::NAME)
            .field("threads", &self.slots.len())
            .field("config", &self.config)
            .finish()
    }
}

impl<C: CycleFilter + JoinCounts> Online<C> {
    /// Clock joins performed (direct edge joins + transitive propagation).
    pub fn clock_joins(&self) -> u64 {
        self.graph.lock().filter().joins()
    }

    /// Joins that were transitive propagation rather than direct edges.
    pub fn propagated_joins(&self) -> u64 {
        self.graph.lock().filter().propagated()
    }
}

impl<C: CycleFilter> Online<C> {
    /// Creates a checker for `n_threads` threads under `spec`.
    pub fn new(n_threads: usize, spec: AtomicitySpec, config: OnlineConfig) -> Self {
        Online {
            config,
            spec,
            slots: (0..n_threads)
                .map(|_| Slot {
                    current_tx: AtomicU64::new(0),
                    edge_events: AtomicU32::new(0),
                    local: OwnerCell::new(Local {
                        tracker: TxTracker::new(),
                        seq: 0,
                        kind: TxKind::Unary,
                        instrumented: 0,
                        skipped_unsound: 0,
                        instrumenting: true,
                        seen_edge_events: 0,
                    }),
                })
                .collect(),
            meta: OnceLock::new(),
            graph: Mutex::new(VGraph::new(n_threads)),
            violations: Mutex::default(),
            stats: OnlineStats::default(),
        }
    }

    /// The violations found, the first of each static identity.
    pub fn violations(&self) -> Vec<VViolation> {
        self.violations.lock().as_slice().to_vec()
    }

    /// Run statistics.
    pub fn stats(&self) -> &OnlineStats {
        &self.stats
    }

    /// Cross-thread dependence edges added.
    pub fn cross_edges(&self) -> u64 {
        self.graph.lock().cross_edges
    }

    /// Cycles found, each repeat of a static key included.
    pub fn cycles(&self) -> u64 {
        self.graph.lock().cycles
    }

    fn begin_tx(&self, t: ThreadId, kind: TxKind) {
        let slot = &self.slots[t.index()];
        // SAFETY: called on thread t.
        let local = unsafe { slot.local.get() };
        local.seq += 1;
        local.kind = kind;
        local.instrumenting = match kind {
            TxKind::Regular(m) => self.config.filter.covers_method(m),
            TxKind::Unary => self.config.filter.instrument_unary,
        };
        local.seen_edge_events = slot.edge_events.load(Ordering::Acquire);
        let id = VTxId::new(t, local.seq);
        let prev = VTxId(slot.current_tx.load(Ordering::Acquire));
        let collected = self.graph.lock().begin(id, kind, prev);
        slot.current_tx.store(id.0, Ordering::Release);
        self.stats.transactions.fetch_add(1, Ordering::Relaxed);
        if collected > 0 {
            self.stats
                .collected_txs
                .fetch_add(collected as u64, Ordering::Relaxed);
        }
    }

    /// Unary-transaction merging: cut the current unary transaction if a
    /// cross-thread edge touched it since the last access (paper §4).
    fn before_access(&self, t: ThreadId) {
        let slot = &self.slots[t.index()];
        let events = slot.edge_events.load(Ordering::Acquire);
        // SAFETY: called on thread t; the borrow ends before `begin_tx`.
        let local = unsafe { slot.local.get() };
        if events != local.seen_edge_events {
            local.seen_edge_events = events;
            if local.kind == TxKind::Unary {
                self.begin_tx(t, TxKind::Unary);
            }
        }
    }

    fn note_edge_event(&self, src: VTxId) {
        let slot = &self.slots[src.thread().index()];
        if slot.current_tx.load(Ordering::Acquire) == src.0 {
            slot.edge_events.fetch_add(1, Ordering::AcqRel);
        }
    }

    /// The instrumented access body.
    fn access(&self, t: ThreadId, obj: ObjId, cell: CellId, is_write: bool) {
        self.before_access(t);
        let own = &self.slots[t.index()];
        // SAFETY: called on thread t.
        let local = unsafe { own.local.get() };
        if !local.instrumenting {
            return;
        }
        let meta = self.meta.get().expect("run_begin builds metadata");
        let slot = meta.slot(obj, cell);
        let cur = VTxId(own.current_tx.load(Ordering::Relaxed));
        if self.config.variant == Variant::Unsound {
            // Skip synchronization when metadata would not change.
            if is_write {
                if meta.writer(slot) == cur
                    && (0..meta.n_threads()).all(|i| {
                        let r = meta.reader(slot, i);
                        !r.is_some() || r == cur
                    })
                {
                    local.skipped_unsound += 1;
                    return;
                }
            } else if meta.reader(slot, t.index()) == cur || meta.writer(slot) == cur {
                local.skipped_unsound += 1;
                return;
            }
        }
        meta.lock(slot);
        let mut new_violations: Vec<VViolation> = Vec::new();
        let last_w = meta.writer(slot);
        if is_write {
            // WRITE rule: edges from last writer and every other thread's
            // last reader; then become the writer and clear readers.
            if last_w.is_some() && last_w.thread() != t {
                new_violations.extend(self.edge(last_w, cur));
            }
            for i in 0..meta.n_threads() {
                if i != t.index() {
                    let r = meta.reader(slot, i);
                    if r.is_some() {
                        new_violations.extend(self.edge(r, cur));
                    }
                }
            }
            meta.set_writer(slot, cur);
            meta.clear_readers(slot);
        } else {
            // READ rule: edge from the last writer; record as last reader.
            if last_w.is_some() && last_w.thread() != t {
                new_violations.extend(self.edge(last_w, cur));
            }
            meta.set_reader(slot, t.index(), cur);
        }
        meta.unlock(slot);
        local.instrumented += 1;
        if !new_violations.is_empty() {
            let key = VViolation::static_key;
            self.violations.lock().extend(new_violations, key);
        }
    }

    fn edge(&self, src: VTxId, dst: VTxId) -> Option<VViolation> {
        let v = self.graph.lock().add_cross_edge(src, dst);
        self.note_edge_event(src);
        self.note_edge_event(dst);
        v
    }
}

impl<C: CycleFilter> Checker for Online<C> {
    fn run_begin(&self, heap: &Heap) {
        assert!(
            self.meta.set(MetaTable::new(heap)).is_ok(),
            "{} is single-run: run_begin called twice",
            C::NAME
        );
    }

    fn thread_begin(&self, t: ThreadId) {
        self.begin_tx(t, TxKind::Unary);
    }

    fn thread_end(&self, t: ThreadId) {
        // SAFETY: called on thread t.
        let local = unsafe { self.slots[t.index()].local.get() };
        self.stats
            .instrumented
            .fetch_add(local.instrumented, Ordering::Relaxed);
        self.stats
            .skipped_unsound
            .fetch_add(local.skipped_unsound, Ordering::Relaxed);
        local.instrumented = 0;
        local.skipped_unsound = 0;
    }

    fn enter_method(&self, t: ThreadId, m: MethodId) {
        // SAFETY: called on thread t; the borrow ends before `begin_tx`.
        let local = unsafe { self.slots[t.index()].local.get() };
        if let EnterOutcome::BeginTransaction(method) = local.tracker.enter(m, &self.spec) {
            self.begin_tx(t, TxKind::Regular(method));
        }
    }

    fn exit_method(&self, t: ThreadId, m: MethodId) {
        // SAFETY: called on thread t; the borrow ends before `begin_tx`.
        let local = unsafe { self.slots[t.index()].local.get() };
        if let ExitOutcome::EndTransaction(_) = local.tracker.exit(m) {
            self.begin_tx(t, TxKind::Unary);
        }
    }

    fn read(&self, t: ThreadId, obj: ObjId, cell: CellId) {
        self.access(t, obj, cell, false);
    }

    fn write(&self, t: ThreadId, obj: ObjId, cell: CellId) {
        self.access(t, obj, cell, true);
    }

    fn array_read(&self, t: ThreadId, obj: ObjId, index: CellId) {
        if self.config.instrument_arrays {
            self.access(t, obj, index, false);
        }
    }

    fn array_write(&self, t: ThreadId, obj: ObjId, index: CellId) {
        if self.config.instrument_arrays {
            self.access(t, obj, index, true);
        }
    }

    fn sync_acquire(&self, t: ThreadId, obj: ObjId) {
        // Acquire-like operations are reads of the object's sync word.
        self.access(t, obj, SYNC_CELL, false);
    }

    fn sync_release(&self, t: ThreadId, obj: ObjId) {
        self.access(t, obj, SYNC_CELL, true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_runtime::engine::det::{run_det, Schedule};
    use dc_runtime::heap::ObjKind;
    use dc_runtime::program::{Op, Program, ProgramBuilder};

    /// Two threads each run an atomic method that writes then reads a
    /// shared field; interleavings where the accesses interleave produce a
    /// cycle.
    fn racy_program() -> Program {
        let mut b = ProgramBuilder::new();
        let o = b.object(ObjKind::Plain { fields: 2 });
        let m0 = b.method("alpha", vec![Op::Write(o, 0), Op::Read(o, 1)]);
        let m1 = b.method("beta", vec![Op::Write(o, 1), Op::Read(o, 0)]);
        let t0 = b.method("t0", vec![Op::Call(m0)]);
        let t1 = b.method("t1", vec![Op::Call(m1)]);
        b.thread(t0);
        b.thread(t1);
        b.build().unwrap()
    }

    fn spec_for(p: &Program) -> AtomicitySpec {
        AtomicitySpec::excluding([
            p.method_by_name("t0").unwrap(),
            p.method_by_name("t1").unwrap(),
        ])
    }

    #[test]
    fn detects_interleaved_atomicity_violation() {
        let p = racy_program();
        let v = Velodrome::new(2, spec_for(&p), VelodromeConfig::default());
        // Interleave: t0 enters+writes, t1 enters+writes+reads, t0 reads.
        let script = vec![
            dc_runtime::ids::ThreadId(0), // Enter t0
            dc_runtime::ids::ThreadId(0), // Enter alpha
            dc_runtime::ids::ThreadId(0), // Write o.0
            dc_runtime::ids::ThreadId(1), // Enter t1
            dc_runtime::ids::ThreadId(1), // Enter beta
            dc_runtime::ids::ThreadId(1), // Write o.1
            dc_runtime::ids::ThreadId(1), // Read o.0  (alpha → beta)
            dc_runtime::ids::ThreadId(0), // Read o.1  (beta → alpha: cycle)
        ];
        run_det(&p, &v, &Schedule::Scripted(script)).unwrap();
        let violations = v.violations();
        assert_eq!(violations.len(), 1, "one deduplicated violation");
        assert_eq!(violations[0].cycle.len(), 2);
    }

    /// `alpha` and `beta` called `k` times each on two threads, one action
    /// at a time: every round closes a cycle of the same two methods.
    fn repeated_race(k: u32) -> (Program, AtomicitySpec) {
        let mut b = ProgramBuilder::new();
        let o = b.object(ObjKind::Plain { fields: 2 });
        let m0 = b.method("alpha", vec![Op::Write(o, 0), Op::Read(o, 1)]);
        let m1 = b.method("beta", vec![Op::Write(o, 1), Op::Read(o, 0)]);
        let loop_of = |m| {
            vec![Op::Loop {
                count: k,
                body: vec![Op::Call(m)],
            }]
        };
        let t0 = b.method("t0", loop_of(m0));
        let t1 = b.method("t1", loop_of(m1));
        b.thread(t0);
        b.thread(t1);
        let p = b.build().unwrap();
        let spec = spec_for(&p);
        (p, spec)
    }

    #[test]
    fn a_violation_repeated_k_times_is_stored_once() {
        let (p, spec) = repeated_race(5);
        let v = Velodrome::new(2, spec, VelodromeConfig::default());
        run_det(&p, &v, &Schedule::RoundRobin { quantum: 1 }).unwrap();
        assert_eq!(v.cycles(), 5, "one cycle per round");
        assert_eq!(v.violations.lock().as_slice().len(), 1, "stored once");
        let violations = v.violations();
        assert_eq!(violations.len(), 1);
        let first = &violations[0];
        let (alpha, beta) = (MethodId(0), MethodId(1));
        assert_eq!(first.static_key(), [Some(alpha), Some(beta)]);
        assert!(
            first.cycle.iter().all(|(tx, _)| tx.0 >> 16 <= 2),
            "the first round's cycle is kept: {first:?}"
        );
    }

    #[test]
    fn serial_execution_is_clean() {
        let p = racy_program();
        let v = Velodrome::new(2, spec_for(&p), VelodromeConfig::default());
        run_det(&p, &v, &Schedule::RoundRobin { quantum: 1000 }).unwrap();
        assert!(v.violations().is_empty());
        assert!(v.stats().instrumented.load(Ordering::Relaxed) >= 4);
    }

    #[test]
    fn lock_discipline_suppresses_false_positives() {
        // The same access pattern under a common lock is serializable; the
        // release–acquire sync edges order the transactions one way.
        let mut b = ProgramBuilder::new();
        let o = b.object(ObjKind::Plain { fields: 2 });
        let lock = b.object(ObjKind::Monitor);
        let m0 = b.method(
            "alpha",
            vec![
                Op::Acquire(lock),
                Op::Write(o, 0),
                Op::Read(o, 1),
                Op::Release(lock),
            ],
        );
        let m1 = b.method(
            "beta",
            vec![
                Op::Acquire(lock),
                Op::Write(o, 1),
                Op::Read(o, 0),
                Op::Release(lock),
            ],
        );
        let t0 = b.method(
            "t0",
            vec![Op::Loop {
                count: 20,
                body: vec![Op::Call(m0)],
            }],
        );
        let t1 = b.method(
            "t1",
            vec![Op::Loop {
                count: 20,
                body: vec![Op::Call(m1)],
            }],
        );
        b.thread(t0);
        b.thread(t1);
        let p = b.build().unwrap();
        let spec = AtomicitySpec::excluding([
            p.method_by_name("t0").unwrap(),
            p.method_by_name("t1").unwrap(),
        ]);
        for seed in 0..10 {
            let v = Velodrome::new(2, spec.clone(), VelodromeConfig::default());
            run_det(&p, &v, &Schedule::random(seed)).unwrap();
            assert!(
                v.violations().is_empty(),
                "lock-protected atomic regions are serializable (seed {seed})"
            );
        }
    }

    #[test]
    fn second_run_filter_skips_unselected_transactions() {
        let p = racy_program();
        let filter = TxFilter {
            methods: Some(std::collections::BTreeSet::new()),
            instrument_unary: false,
        };
        let v = Velodrome::new(
            2,
            spec_for(&p),
            VelodromeConfig {
                filter,
                ..VelodromeConfig::default()
            },
        );
        run_det(&p, &v, &Schedule::random(1)).unwrap();
        assert_eq!(v.stats().instrumented.load(Ordering::Relaxed), 0);
        assert!(v.violations().is_empty());
    }

    #[test]
    fn arrays_not_instrumented_by_default() {
        let mut b = ProgramBuilder::new();
        let a = b.object(ObjKind::Array { len: 16 });
        let m = b.method("arr", vec![Op::ArrayWrite(a, 3), Op::ArrayRead(a, 3)]);
        b.thread(m);
        let p = b.build().unwrap();
        let v = Velodrome::new(1, AtomicitySpec::all_atomic(), VelodromeConfig::default());
        run_det(&p, &v, &Schedule::random(0)).unwrap();
        // Only the thread-exit sync access is instrumented.
        assert_eq!(v.stats().instrumented.load(Ordering::Relaxed), 1);

        let v2 = Velodrome::new(
            1,
            AtomicitySpec::all_atomic(),
            VelodromeConfig {
                instrument_arrays: true,
                ..VelodromeConfig::default()
            },
        );
        run_det(&p, &v2, &Schedule::random(0)).unwrap();
        // Two array accesses + the thread-exit sync access.
        assert_eq!(v2.stats().instrumented.load(Ordering::Relaxed), 3);
    }

    /// The `MetaTable` is laid out for one heap: a second `run_begin` must
    /// not silently keep the first run's table, graph and violations.
    #[test]
    #[should_panic(expected = "Velodrome is single-run: run_begin called twice")]
    fn second_run_begin_panics_instead_of_keeping_the_first_runs_tables() {
        let v = Velodrome::new(1, AtomicitySpec::all_atomic(), VelodromeConfig::default());
        let heap = Heap::new(&[ObjKind::Plain { fields: 2 }], 1);
        v.run_begin(&heap);
        v.run_begin(&heap);
    }

    #[test]
    fn unsound_variant_skips_redundant_updates() {
        let mut b = ProgramBuilder::new();
        let o = b.object(ObjKind::Plain { fields: 1 });
        let m = b.method(
            "loopy",
            vec![Op::Loop {
                count: 50,
                body: vec![Op::Write(o, 0), Op::Read(o, 0)],
            }],
        );
        b.thread(m);
        let p = b.build().unwrap();
        let v = Velodrome::new(
            1,
            AtomicitySpec::all_atomic(),
            VelodromeConfig {
                variant: Variant::Unsound,
                ..VelodromeConfig::default()
            },
        );
        run_det(&p, &v, &Schedule::random(0)).unwrap();
        assert!(
            v.stats().skipped_unsound.load(Ordering::Relaxed) > 50,
            "repeated same-tx accesses skip the lock"
        );
    }

    #[test]
    fn real_engine_concurrent_run_is_safe() {
        let mut b = ProgramBuilder::new();
        let o = b.object(ObjKind::Plain { fields: 4 });
        let lock = b.object(ObjKind::Monitor);
        let m = b.method(
            "work",
            vec![Op::Loop {
                count: 300,
                body: vec![
                    Op::Acquire(lock),
                    Op::Write(o, 0),
                    Op::Read(o, 1),
                    Op::Release(lock),
                    Op::Read(o, 2),
                ],
            }],
        );
        let t = b.method("t", vec![Op::Call(m)]);
        b.thread(t);
        b.thread(t);
        b.thread(t);
        let p = b.build().unwrap();
        let spec = AtomicitySpec::excluding([p.method_by_name("t").unwrap()]);
        let v = Velodrome::new(3, spec, VelodromeConfig::default());
        dc_runtime::engine::real::run_real(&p, &v);
        // Sanity: instrumentation ran and the graph stayed consistent.
        assert!(v.stats().instrumented.load(Ordering::Relaxed) >= 3 * 300 * 3);
        let _ = v.violations();
    }
}
