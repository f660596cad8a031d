//! The DoubleChecker [`Checker`]: Octet + ICD (+ logging) + PCD composed
//! into one analysis, configurable into every mode the paper evaluates.
//!
//! * **Single-run mode** — ICD with read/write logging; every ICD SCC is
//!   handed to PCD in the same run. Fully sound and precise (§3.1).
//! * **First run of multi-run mode** — ICD without logging or PCD; collects
//!   the *static transaction information* (methods of regular transactions
//!   in imprecise cycles + whether any unary transaction was in a cycle).
//! * **Second run of multi-run mode** — like single-run, but instruments
//!   only the transactions named by the first run's static information.
//! * **PCD-only variant** (§5.4) — ICD's cycle detection is bypassed as a
//!   filter (`run_pcd` without `detect_cycles`): PCD processes every
//!   executed transaction at run end.

use crate::report::{DcStats, StaticTxInfo};
use dc_icd::{Icd, IcdConfig, SccReport};
use dc_obs::{
    EventKind, GraphReport, Histogram, ObsLevel, OctetReport, PipelineObs, PipelineReport,
    ReplayReport, TraceEvent,
};
use dc_octet::{BarrierOutcome, CoordinationMode, OctetState, Protocol, TransitionSink};
use dc_pcd::{replay_scc, ReplayStats, Violation};
use dc_runtime::checker::{Checker, Distinct};
use dc_runtime::heap::{CellLayout, Heap};
use dc_runtime::ids::{AccessKind, CellId, MethodId, ObjId, ThreadId, SYNC_CELL};
use dc_runtime::spec::{AtomicitySpec, EnterOutcome, ExitOutcome, TxFilter, TxTracker};
use dc_runtime::OwnerCell;
use parking_lot::{Mutex, MutexGuard};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Configuration of a DoubleChecker instance.
#[derive(Clone, Debug)]
pub struct DcConfig {
    /// Record read/write logs (off in the first run of multi-run mode).
    pub logging: bool,
    /// Run PCD in this run: on each ICD SCC, or — without `detect_cycles`
    /// — once over *all* transactions at run end (§5.4 PCD-only variant;
    /// forces `collect_every = 0` behaviour).
    pub run_pcd: bool,
    /// Which transactions to instrument.
    pub filter: TxFilter,
    /// Instrument array accesses (off by default, matching the paper).
    pub instrument_arrays: bool,
    /// Detect SCCs in the IDG. Off in the PCD-only variant and in the
    /// benchmark's ablation ladder, which prices SCC detection as a
    /// difference of two runs.
    pub detect_cycles: bool,
    /// Transaction-collector cadence (0 disables).
    pub collect_every: u32,
    /// Octet coordination mode: `Threaded` under the real engine,
    /// `Immediate` under the deterministic engine, as
    /// [`crate::ExecPlan::coordination`] gives it; [`crate::run_doublechecker`]
    /// refuses any other pairing.
    pub coordination: CoordinationMode,
    /// How much the observability layer records. At `Off` every
    /// instrumentation site is a single pointer test; no level changes
    /// checker results. `Off` unless the caller asks
    /// ([`DcConfig::with_observability`], the CLI's `--obs`).
    pub observability: ObsLevel,
    /// Octet's per-thread ownership inline cache (hit = no state-word
    /// load). `false` restores the exact uncached barrier — the
    /// differential baseline for `--barrier-cache off`. On by default.
    pub barrier_cache: bool,
}

/// Compatibility stub: the frozen benchmark names a transport
/// (`dc-benchmark/src/subject.rs:131`). Remove with ROADMAP 1(a).
#[doc(hidden)]
#[derive(Clone, Copy, Debug)]
pub enum OpTransport {
    /// The (deleted) MPSC op ring.
    Ring,
}

impl DcConfig {
    /// Single-run mode: ICD + logging + PCD, everything instrumented.
    pub fn single_run(coordination: CoordinationMode) -> Self {
        DcConfig {
            logging: true,
            run_pcd: true,
            filter: TxFilter::all(),
            instrument_arrays: false,
            detect_cycles: true,
            collect_every: 128,
            coordination,
            observability: ObsLevel::Off,
            barrier_cache: true,
        }
    }

    /// Compatibility no-op for `dc-benchmark/src/subject.rs:129` (and
    /// `tests/driver.rs:84`): the asynchronous pipeline is deleted, every
    /// run is synchronous. Remove with ROADMAP 1(a).
    #[doc(hidden)]
    pub fn with_pipelined(self, _pipelined: bool) -> Self {
        self
    }

    /// Returns this configuration with the given observability level.
    pub fn with_observability(mut self, level: ObsLevel) -> Self {
        self.observability = level;
        self
    }

    /// Compatibility no-op for `dc-benchmark/src/subject.rs:131`. Remove
    /// with ROADMAP 1(a).
    #[doc(hidden)]
    pub fn with_op_transport(self, _transport: OpTransport) -> Self {
        self
    }

    /// Compatibility no-op for `dc-benchmark/src/subject.rs:132`: there is
    /// one graph. Remove with ROADMAP 1(a).
    #[doc(hidden)]
    pub fn with_shards(self, shards: u32) -> Self {
        assert_eq!(
            shards, 1,
            "the sharded IDG is deleted; this stub goes with ROADMAP 1(a)"
        );
        self
    }

    /// Returns this configuration with Octet's ownership inline cache
    /// switched on or off.
    pub fn with_barrier_cache(mut self, barrier_cache: bool) -> Self {
        self.barrier_cache = barrier_cache;
        self
    }

    /// First run of multi-run mode: ICD only, no logging.
    pub fn first_run(coordination: CoordinationMode) -> Self {
        DcConfig {
            logging: false,
            run_pcd: false,
            ..Self::single_run(coordination)
        }
    }

    /// Second run of multi-run mode: like single-run restricted to the
    /// first run's static transaction information.
    pub fn second_run(info: &StaticTxInfo, coordination: CoordinationMode) -> Self {
        DcConfig {
            filter: info.to_filter(),
            ..Self::single_run(coordination)
        }
    }

    /// The §5.4 PCD-only straw man: no ICD filtering; PCD replays the whole
    /// execution at run end.
    pub fn pcd_only(coordination: CoordinationMode) -> Self {
        DcConfig {
            detect_cycles: false, // no SCCs; one bulk replay at run end
            collect_every: 0,
            ..Self::single_run(coordination)
        }
    }

    /// Whether this is the PCD-only variant: PCD without ICD's filter sees
    /// the whole execution.
    fn is_pcd_only(&self) -> bool {
        self.run_pcd && !self.detect_cycles
    }
}

/// The transition sink wired into Octet: delivers coordination events to
/// ICD's `handleConflictingTransition`.
#[derive(Debug)]
pub struct IcdSink(Arc<Icd>);

impl TransitionSink for IcdSink {
    fn conflicting(&self, resp: ThreadId, req: ThreadId) {
        self.0.handle_conflicting(resp, req);
    }
}

/// Per-thread instrumentation context.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Context {
    /// Accesses are analyzed (inside a covered regular transaction, or
    /// unary context with unary instrumentation on).
    Instrumented,
    /// Accesses are skipped (uncovered transaction / filtered unary).
    Skipped,
}

/// One thread's checker state, in its own [`OwnerCell`]: every access runs
/// on that thread.
struct Local {
    tracker: TxTracker,
    /// `Instrumented` only while `handles` is resolved.
    context: Context,
    /// The thread's Octet and ICD state, resolved once at `thread_begin` so
    /// the per-access kernel never indexes by `ThreadId`; `None` before.
    /// The slots behind the handles are `Arc`-shared with the `Protocol`
    /// and the `Icd`, both of which live as long as the checker does.
    handles: Option<Handles>,
}

struct Handles {
    octet: dc_octet::ThreadHandle,
    icd: dc_icd::ThreadHandle,
}

/// The analyses of the one run a checker accepts, both built by
/// `run_begin` for the run's heap: ICD over the heap's cell layout, and the
/// Octet protocol that delivers its coordination events to ICD.
struct Run {
    octet: Protocol<IcdSink>,
    icd: Arc<Icd>,
}

/// What the analysis concluded: each SCC is merged into it under one lock,
/// once, after its replay ([`DoubleChecker::conclude`]).
#[derive(Debug, Default)]
struct Outcome {
    /// The precise violations, one per static key.
    violations: Distinct<Violation>,
    static_info: StaticTxInfo,
    sccs_to_pcd: u64,
    pcd: ReplayStats,
}

/// The composed DoubleChecker analysis.
pub struct DoubleChecker {
    config: DcConfig,
    spec: AtomicitySpec,
    /// The only run-scoped state: set by the one `run_begin` a checker
    /// accepts. The fused fast path never reads it; the slow kernel and the
    /// lifecycle hooks do.
    run: OnceLock<Run>,
    slots: Box<[OwnerCell<Local>]>,
    outcome: Mutex<Outcome>,
    /// Latency and trace registry shared with Octet and ICD; `None` at
    /// `Off`.
    obs: Option<Arc<PipelineObs>>,
    n_threads: usize,
}

impl std::fmt::Debug for DoubleChecker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DoubleChecker")
            .field("threads", &self.n_threads)
            .field("config", &self.config)
            .finish()
    }
}

impl DoubleChecker {
    /// Creates a DoubleChecker for `n_threads` threads under `spec`.
    pub fn new(n_threads: usize, spec: AtomicitySpec, config: DcConfig) -> Self {
        let obs = PipelineObs::new(config.observability);
        DoubleChecker {
            config,
            spec,
            run: OnceLock::new(),
            slots: (0..n_threads)
                .map(|_| {
                    OwnerCell::new(Local {
                        tracker: TxTracker::new(),
                        context: Context::Skipped,
                        handles: None,
                    })
                })
                .collect(),
            outcome: Mutex::default(),
            obs,
            n_threads,
        }
    }

    /// Compatibility stub for `dc-benchmark/src/subject.rs:331`, which
    /// calls `.is_some()` on it: there is no pipeline left to fail. Remove
    /// with ROADMAP 1(a).
    #[doc(hidden)]
    pub fn pipeline_error(&self) -> Option<std::convert::Infallible> {
        None
    }

    /// The observability report, at every level: always `Some`, an
    /// `Option` only because the frozen benchmark unwraps it (remove with
    /// ROADMAP 1(a)). Complete once `run_end` returned. Every count is one
    /// of the analysis' own statistics; latencies and the trace count are
    /// zero at `Off`.
    pub fn pipeline_report(&self) -> Option<PipelineReport> {
        let obs = self.obs.as_deref();
        let latency =
            |h: fn(&PipelineObs) -> &Histogram| obs.map(|o| h(o).summary()).unwrap_or_default();
        let run = self.run.get();
        let octet = run.map(|r| {
            let s = r.octet.stats();
            let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
            OctetReport {
                first_touch: get(&s.first_touch),
                upgrades: get(&s.upgrades),
                fences: get(&s.fences),
                conflicts: get(&s.conflicts),
                coalesced: get(&s.coalesced),
                cache_hits: get(&s.cache_hits),
                cache_flushes: get(&s.cache_flushes),
            }
        });
        Some(PipelineReport {
            level: self.config.observability,
            octet: octet.unwrap_or_default(),
            graph: GraphReport {
                sccs_skipped_trivial: run.map_or(0, |r| r.icd.skipped_probes()),
                scc_latency: latency(|o| &o.scc_latency),
                collect_latency: latency(|o| &o.collect_latency),
            },
            replay: ReplayReport {
                latency: latency(|o| &o.replay_latency),
                violations: self.outcome.lock().pcd.cycles,
            },
            trace_recorded: obs.map_or(0, PipelineObs::trace_recorded),
        })
    }

    /// The trace ring's events (oldest first). Empty below
    /// [`ObsLevel::Full`].
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.obs
            .as_ref()
            .map(|o| o.trace_events())
            .unwrap_or_default()
    }

    /// The precise violations found, the first of each static identity.
    pub fn violations(&self) -> Vec<Violation> {
        self.outcome.lock().violations.as_slice().to_vec()
    }

    /// The static transaction information collected for multi-run mode.
    pub fn static_info(&self) -> StaticTxInfo {
        self.outcome.lock().static_info.clone()
    }

    /// Run statistics (Table 3 columns plus analysis internals); all zero
    /// before `run_begin`.
    pub fn stats(&self) -> DcStats {
        let Some(Run { icd, .. }) = self.run.get() else {
            return DcStats::default();
        };
        let stats = icd.stats();
        let outcome = self.outcome.lock();
        DcStats {
            regular_txs: stats.regular_txs.load(Ordering::Relaxed),
            unary_txs: stats.unary_txs.load(Ordering::Relaxed),
            regular_accesses: stats.regular_accesses.load(Ordering::Relaxed),
            unary_accesses: stats.unary_accesses.load(Ordering::Relaxed),
            log_entries: stats.log_entries.load(Ordering::Relaxed),
            collected_txs: icd.collected_txs(),
            idg_cross_edges: icd.cross_edges(),
            icd_sccs: icd.scc_count(),
            sccs_to_pcd: outcome.sccs_to_pcd,
            graph_locks: icd.graph_locks(),
            pcd: outcome.pcd,
        }
    }

    fn run(&self) -> &Run {
        self.run.get().expect("run_begin builds the run's analyses")
    }

    /// Consumes an SCC report: [`DoubleChecker::conclude`]s it, records
    /// its static info (first run) under the same lock, and hands the
    /// report's buffers back.
    fn process_scc(&self, scc: Option<SccReport>) {
        let Some(scc) = scc else { return };
        self.conclude(&scc).static_info.absorb_scc(&scc);
        scc.recycle();
    }

    /// Hands one SCC to PCD, if this run runs it, without a lock and into a
    /// buffer that allocates only for a violation (with a registry, timing
    /// and tracing the replay). Then locks the outcome once to count the
    /// SCC, merge its statistics and keep each violation whose static key
    /// is new, and returns the lock.
    fn conclude(&self, scc: &SccReport) -> MutexGuard<'_, Outcome> {
        if !self.config.run_pcd {
            return self.outcome.lock();
        }
        let t0 = self.obs.as_ref().map(|obs| {
            obs.trace(EventKind::ReplaySubmit, scc.len() as u64);
            Instant::now()
        });
        let (found, stats) = replay_scc(scc);
        if let (Some(obs), Some(t0)) = (&self.obs, t0) {
            obs.replay_latency.record_elapsed(t0);
            obs.trace(EventKind::ReplayDone, stats.cycles);
        }
        let mut outcome = self.outcome.lock();
        outcome.sccs_to_pcd += 1;
        outcome.pcd.merge(stats);
        outcome.violations.extend(found, Violation::static_key);
        outcome
    }

    /// The instrumented access body shared by plain, array, and sync hooks:
    /// one inlined straight-line sequence over the thread's own state.
    #[inline(always)]
    fn access(&self, t: ThreadId, obj: ObjId, cell: CellId, kind: AccessKind, is_sync: bool) {
        // SAFETY: called on thread t.
        let local = unsafe { self.slots[t.index()].get() };
        if local.context == Context::Skipped {
            return;
        }
        // `refresh_context` grants `Instrumented` only with resolved handles.
        let Some(handles) = &local.handles else {
            return;
        };
        // Fused fast path: one combined per-access check. No new ICD edge
        // events (so `before_access` would be a no-op) plus an
        // ownership-table hit (so the Octet barrier would classify
        // same-state without touching the state word) feed the elision
        // probe and the log tail directly — the whole hot kernel is
        // core-local. Anything else takes the full slow kernel. With the
        // ownership cache off the probe always misses: the same kernel,
        // every access through the slow half.
        if handles.icd.edge_events_unchanged() && handles.octet.cache_probe(obj, kind) {
            handles
                .icd
                .record_access(obj, cell, kind.is_write(), is_sync, false);
            return;
        }
        self.access_slow(t, handles, obj, cell, kind, is_sync);
    }

    /// The full per-access kernel: unary merging / elision-epoch
    /// maintenance, the uncached Octet barrier (the ownership table was
    /// already probed — a hit with *changed* edge events still lands here
    /// so the unary cut happens first), Figure-4 post-processing, then the
    /// log tail.
    fn access_slow(
        &self,
        t: ThreadId,
        handles: &Handles,
        obj: ObjId,
        cell: CellId,
        kind: AccessKind,
        is_sync: bool,
    ) {
        let Run { octet, icd } = self.run();
        // Unary merging / elision-epoch maintenance; may cut the unary tx.
        let scc = icd.before_access(t);
        if scc.is_some() {
            self.process_scc(scc);
        }
        // Octet barrier at object granularity, then Figure-4 post-processing.
        let outcome = octet.access_uncached(t, obj, kind);
        let mut force_log = false;
        match outcome {
            BarrierOutcome::Same => {}
            BarrierOutcome::FirstTouch => {
                if kind == AccessKind::Read {
                    icd.note_rdex_claim(t);
                }
            }
            BarrierOutcome::UpgradedToWrEx => {}
            BarrierOutcome::UpgradedToRdSh { prev_owner, .. } => {
                icd.handle_upgrading(t, prev_owner);
                force_log = true;
            }
            BarrierOutcome::Fence { .. } => {
                icd.handle_fence(t);
                force_log = true;
            }
            BarrierOutcome::Conflicting { new, .. } => {
                if let OctetState::RdEx(owner) = new {
                    debug_assert_eq!(owner, t);
                    icd.note_rdex_claim(t);
                }
                force_log = true;
            }
        }
        // Field granularity; ICD conflates arrays and monitors as it logs.
        handles
            .icd
            .record_access(obj, cell, kind.is_write(), is_sync, force_log);
    }

    /// Answers pending explicit-protocol requests at a safe point.
    #[cold]
    fn respond(&self, t: ThreadId) {
        self.run().octet.safe_point(t);
    }

    /// Recomputes the thread's instrumentation context from its transaction
    /// state and the configured filter.
    fn refresh_context(&self, local: &mut Local) {
        debug_assert!(
            local.handles.is_some(),
            "a transaction hook ran on a thread before its thread_begin"
        );
        let covered = match local.tracker.transaction_method() {
            Some(m) => self.config.filter.covers_method(m),
            None => self.config.filter.instrument_unary,
        };
        local.context = if covered && local.handles.is_some() {
            Context::Instrumented
        } else {
            Context::Skipped
        };
    }
}

impl Checker for DoubleChecker {
    fn run_begin(&self, heap: &Heap) {
        if let Some(obs) = &self.obs {
            obs.trace(EventKind::RunBegin, self.n_threads as u64);
        }
        let config = &self.config;
        let icd_config = IcdConfig {
            logging: config.logging,
            collect_every: if config.is_pcd_only() {
                0
            } else {
                config.collect_every
            },
            detect_sccs: config.detect_cycles,
        };
        let icd = Arc::new(Icd::with_layout(
            self.n_threads,
            icd_config,
            &CellLayout::new(heap),
            self.obs.clone(),
        ));
        let octet = Protocol::with_config(
            heap.len(),
            self.n_threads,
            config.coordination,
            IcdSink(Arc::clone(&icd)),
            self.obs.clone(),
            config.barrier_cache,
        );
        // Per-thread handles point into this run's tables, so a silently
        // kept first run would be the wrong heap's.
        assert!(
            self.run.set(Run { octet, icd }).is_ok(),
            "DoubleChecker is single-run: run_begin called twice"
        );
    }

    fn run_end(&self) {
        if self.config.is_pcd_only() {
            // Straw-man variant: replay every executed transaction.
            self.conclude(&self.run().icd.snapshot_all_finished());
        }
        if let Some(obs) = &self.obs {
            obs.trace(EventKind::RunEnd, self.n_threads as u64);
        }
    }

    fn thread_begin(&self, t: ThreadId) {
        let Run { octet, icd } = self.run();
        octet.thread_begin(t);
        let scc = icd.thread_begin(t);
        debug_assert!(scc.is_none());
        // SAFETY: called on thread t.
        let local = unsafe { self.slots[t.index()].get() };
        local.handles = Some(Handles {
            octet: octet.thread_handle(t),
            icd: icd.thread_handle(t),
        });
        self.refresh_context(local);
    }

    fn thread_end(&self, t: ThreadId) {
        let Run { octet, icd } = self.run();
        self.process_scc(icd.thread_end(t));
        octet.thread_end(t);
    }

    fn enter_method(&self, t: ThreadId, m: MethodId) {
        // SAFETY: called on thread t.
        let local = unsafe { self.slots[t.index()].get() };
        if let EnterOutcome::BeginTransaction(method) = local.tracker.enter(m, &self.spec) {
            self.refresh_context(local);
            if local.context == Context::Instrumented {
                self.process_scc(self.run().icd.begin_regular(t, method));
            }
        }
    }

    fn exit_method(&self, t: ThreadId, m: MethodId) {
        // SAFETY: called on thread t.
        let local = unsafe { self.slots[t.index()].get() };
        if let ExitOutcome::EndTransaction(_) = local.tracker.exit(m) {
            if local.context == Context::Instrumented {
                self.process_scc(self.run().icd.end_regular(t));
            }
            self.refresh_context(local);
        }
    }

    #[inline]
    fn read(&self, t: ThreadId, obj: ObjId, cell: CellId) {
        self.access(t, obj, cell, AccessKind::Read, false);
    }

    #[inline]
    fn write(&self, t: ThreadId, obj: ObjId, cell: CellId) {
        self.access(t, obj, cell, AccessKind::Write, false);
    }

    fn array_read(&self, t: ThreadId, obj: ObjId, index: CellId) {
        if self.config.instrument_arrays {
            self.access(t, obj, index, AccessKind::Read, false);
        }
    }

    fn array_write(&self, t: ThreadId, obj: ObjId, index: CellId) {
        if self.config.instrument_arrays {
            self.access(t, obj, index, AccessKind::Write, false);
        }
    }

    fn sync_acquire(&self, t: ThreadId, obj: ObjId) {
        self.access(t, obj, SYNC_CELL, AccessKind::Read, true);
    }

    fn sync_release(&self, t: ThreadId, obj: ObjId) {
        self.access(t, obj, SYNC_CELL, AccessKind::Write, true);
    }

    #[inline]
    fn safe_point(&self, t: ThreadId) {
        // SAFETY: called on thread t.
        let local = unsafe { self.slots[t.index()].get() };
        // Before `thread_begin` nobody can have sent `t` a request (a thread
        // that is not running is coordinated with implicitly): a no-op.
        if local
            .handles
            .as_ref()
            .is_some_and(|h| h.octet.has_requests())
        {
            self.respond(t);
        }
    }

    fn before_block(&self, t: ThreadId) {
        self.run().octet.before_block(t);
    }

    fn after_unblock(&self, t: ThreadId) {
        self.run().octet.after_unblock(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_runtime::heap::ObjKind;

    const T0: ThreadId = ThreadId(0);
    const O: ObjId = ObjId(0);

    fn checker() -> DoubleChecker {
        DoubleChecker::new(
            1,
            AtomicitySpec::all_atomic(),
            DcConfig::single_run(CoordinationMode::Immediate),
        )
    }

    fn heap() -> Heap {
        Heap::new(&[ObjKind::Plain { fields: 2 }], 1)
    }

    /// One window between two of T0's atomic calls, driven hook by hook:
    /// T1's `beta` (wr o … wr p) overlaps T0's `alpha` (wr p, rd o) and
    /// takes `p` from T0 after `alpha` ended — with `touch`, after T0 wrote
    /// its own object `q` in that window. Returns the first run's static
    /// information.
    fn window_static_info(touch: bool) -> StaticTxInfo {
        const T1: ThreadId = ThreadId(1);
        let (o, p, q) = (ObjId(0), ObjId(1), ObjId(2));
        let (alpha, beta) = (MethodId(0), MethodId(1));
        let c = DoubleChecker::new(
            2,
            AtomicitySpec::all_atomic(),
            DcConfig::first_run(CoordinationMode::Immediate),
        );
        c.run_begin(&Heap::new(&[ObjKind::Plain { fields: 1 }; 3], 2));
        c.thread_begin(T0);
        c.thread_begin(T1);
        c.enter_method(T1, beta);
        c.write(T1, o, 0);
        c.enter_method(T0, alpha);
        c.write(T0, p, 0);
        c.read(T0, o, 0); // edge beta → alpha
        c.exit_method(T0, alpha);
        if touch {
            c.write(T0, q, 0);
        }
        c.write(T1, p, 0); // edge out of T0's window into beta
        c.exit_method(T1, beta);
        c.enter_method(T0, alpha);
        c.exit_method(T0, alpha);
        c.thread_end(T0);
        c.thread_end(T1);
        c.run_end();
        assert_eq!(c.stats().icd_sccs, 1, "alpha and beta form one cycle");
        c.static_info()
    }

    /// The unary transaction between two atomic calls gets an IDG node only
    /// once it accesses something. An empty one is never an SCC member, so
    /// it no longer sets `StaticTxInfo::any_unary` (the edge out of its
    /// window leaves the `alpha` before it, which is in the cycle anyway):
    /// the one way the first run's output differs from an eager unary node,
    /// and it only narrows the second run. An accessed one inside the cycle
    /// still sets it.
    #[test]
    fn only_an_accessed_unary_transaction_in_a_cycle_sets_any_unary() {
        let empty = window_static_info(false);
        assert_eq!(empty.methods, [MethodId(0), MethodId(1)].into());
        assert!(!empty.any_unary);
        let accessed = window_static_info(true);
        assert_eq!(accessed.methods, empty.methods);
        assert!(accessed.any_unary);
    }

    /// ICD is built in `run_begin` over the run's heap: before it every
    /// statistic reads zero, and after it duplicates are elided and an
    /// array's cells share one log cell.
    #[test]
    fn the_run_logs_through_its_heaps_layout() {
        let c = DoubleChecker::new(
            1,
            AtomicitySpec::all_atomic(),
            DcConfig {
                instrument_arrays: true,
                ..DcConfig::single_run(CoordinationMode::Immediate)
            },
        );
        assert_eq!(c.stats(), DcStats::default());
        assert_eq!(c.pipeline_report(), Some(PipelineReport::default()));
        let array = ObjId(1);
        c.run_begin(&Heap::new(
            &[ObjKind::Plain { fields: 2 }, ObjKind::Array { len: 4 }],
            1,
        ));
        c.thread_begin(T0);
        c.read(T0, O, 0);
        c.read(T0, O, 0); // elided
        c.array_read(T0, array, 3);
        c.array_read(T0, array, 1); // the array's one cell: elided
        c.thread_end(T0);
        c.run_end();
        let stats = c.stats();
        assert_eq!((stats.unary_accesses, stats.log_entries), (4, 2));
    }

    /// `alpha` and `beta` called five times each on two threads, one
    /// action at a time: PCD finds a precise cycle of the same two methods
    /// every round, and the outcome keeps the first round's only.
    #[test]
    fn a_violation_repeated_k_times_is_stored_once() {
        use dc_runtime::engine::det::{run_det, Schedule};
        use dc_runtime::program::{Op, ProgramBuilder};
        let mut b = ProgramBuilder::new();
        let o = b.object(ObjKind::Plain { fields: 2 });
        let alpha = b.method("alpha", vec![Op::Write(o, 0), Op::Read(o, 1)]);
        let beta = b.method("beta", vec![Op::Write(o, 1), Op::Read(o, 0)]);
        let loop_of = |m| {
            vec![Op::Loop {
                count: 5,
                body: vec![Op::Call(m)],
            }]
        };
        let t0 = b.method("t0", loop_of(alpha));
        let t1 = b.method("t1", loop_of(beta));
        b.thread(t0);
        b.thread(t1);
        let p = b.build().unwrap();
        let c = DoubleChecker::new(
            2,
            AtomicitySpec::excluding([t0, t1]),
            DcConfig::single_run(CoordinationMode::Immediate),
        );
        run_det(&p, &c, &Schedule::RoundRobin { quantum: 1 }).unwrap();
        assert_eq!(c.stats().pcd.cycles, 5, "one precise cycle per round");
        assert_eq!(
            c.outcome.lock().violations.as_slice().len(),
            1,
            "stored once"
        );
        let violations = c.violations();
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].static_key(), [Some(alpha), Some(beta)]);
        assert_eq!(violations[0].cycle.len(), 2);
    }

    #[test]
    #[should_panic(expected = "DoubleChecker is single-run")]
    fn second_run_begin_panics_instead_of_keeping_the_first_runs_tables() {
        let c = checker();
        c.run_begin(&heap());
        c.run_begin(&heap());
    }

    /// Per-thread handles are resolved at `thread_begin`; a hook that runs
    /// earlier finds none and does nothing — it never reaches for run or
    /// thread state that does not exist yet.
    #[test]
    fn hooks_before_thread_begin_are_no_ops() {
        let c = checker();
        c.safe_point(T0); // even before run_begin
        c.run_begin(&heap());
        c.safe_point(T0);
        c.read(T0, O, 0);
        c.write(T0, O, 1);
        c.sync_acquire(T0, O);
        c.thread_begin(T0);
        c.safe_point(T0);
        c.write(T0, O, 1);
        c.thread_end(T0);
        c.run_end();
        let stats = c.stats();
        assert_eq!(
            (
                stats.unary_accesses,
                stats.regular_accesses,
                stats.log_entries
            ),
            (1, 0, 1),
            "only the access after thread_begin is analyzed"
        );
    }
}
