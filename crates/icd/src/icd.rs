//! The ICD analysis: transaction lifecycle, Figure-4 edge procedures,
//! read/write logging with duplicate elision, and SCC detection at
//! transaction end.
//!
//! One [`Icd`] instance is shared by all threads, with one slot per thread.
//! A slot's head holds the cross-thread-visible registers — `currTX(T)`,
//! `T.lastRdEx`, the published log length, the edge counter — as atomics,
//! read by other threads only during Octet coordination (when the owner is
//! at a safe point or held) and by the collector; its owner block
//! ([`OwnerCell`]) holds the hot, owner-only state (the current
//! transaction's log, the elision table, the tallies). The slots are
//! `Arc`-shared: a thread resolves its own once ([`Icd::thread_handle`]) and
//! the per-access hooks then run on the [`ThreadHandle`] alone, with no
//! `ThreadId` indexing and no reference back to the `Icd`; the
//! `ThreadId`-taking hooks resolve the slot and run the same code.
//!
//! Application threads mutate the IDG under a global mutex (rare relative
//! to accesses — Table 3: edges ≪ accesses — which is what makes ICD cheap):
//! one critical section per transaction boundary and one per edge procedure,
//! each counted by [`Icd::graph_locks`].
//!
//! A statistic is written by the one thread or lock that already
//! serializes it, never by a locked read-modify-write of its own: the
//! per-thread tallies are owner-local and fold in at thread end; the graph's
//! counts (locks, cross edges, SCCs, collected transactions) and the
//! transaction-id counter are plain integers under the graph lock; every
//! writer of a thread's `edge_events` holds that lock too.

use crate::graph::{Collector, Graph};
use crate::types::{Edge, EdgeKind, LogEntry, SccReport, TxId, TxKind};
use dc_obs::PipelineObs;
use dc_runtime::heap::CellLayout;
use dc_runtime::ids::{CellId, MethodId, ObjId, ThreadId, SYNC_CELL};
use dc_runtime::OwnerCell;
use parking_lot::{Mutex, MutexGuard};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Configuration for one ICD instance.
#[derive(Clone, Copy, Debug)]
pub struct IcdConfig {
    /// Record read/write logs (single-run mode and the second run of
    /// multi-run mode). The first run of multi-run mode turns this off —
    /// that is its entire performance advantage (§3.1).
    pub logging: bool,
    /// Run the transaction collector every this many transaction ends
    /// (0 disables collection).
    pub collect_every: u32,
    /// Detect SCCs when transactions end. Disabled for the §5.4
    /// array-overhead comparison and the PCD-only variant.
    pub detect_sccs: bool,
}

impl Default for IcdConfig {
    fn default() -> Self {
        IcdConfig {
            logging: true,
            collect_every: 128,
            detect_sccs: true,
        }
    }
}

/// Aggregated per-thread run statistics (Table 3 columns): transactions,
/// accesses and log entries are kept thread-locally and fold in at
/// [`Icd::thread_end`]. The graph's counts are read under its lock
/// ([`Icd::cross_edges`], [`Icd::scc_count`], [`Icd::collected_txs`],
/// [`Icd::graph_locks`]).
#[derive(Debug, Default)]
pub struct IcdStats {
    /// Regular (non-unary) transactions started (folded at thread end).
    pub regular_txs: AtomicU64,
    /// Unary (merged) transactions started, including pending ones that
    /// never got a node (folded at thread end).
    pub unary_txs: AtomicU64,
    /// Instrumented accesses inside regular transactions.
    pub regular_accesses: AtomicU64,
    /// Instrumented accesses in non-transactional (unary) context.
    pub unary_accesses: AtomicU64,
    /// Read/write log entries actually recorded (after elision) — the
    /// paper's main memory cost ("GC time" analog in Figure 7).
    pub log_entries: AtomicU64,
}

/// One thread's cross-thread-visible registers, the head of its [`Slot`].
#[derive(Debug, Default)]
pub(crate) struct ThreadRegs {
    /// `currTX(T)`; stays pointing at the last transaction after it ends so
    /// coordination against an idle/finished thread still finds a source —
    /// in particular while a unary transaction is `pending`.
    pub(crate) current_tx: AtomicU64,
    /// `T.lastRdEx`: last transaction of `T` to move an object into RdEx-T.
    pub(crate) last_rd_ex: AtomicU64,
    /// Stepped by [`EDGE_EVENT`] by whoever attaches an edge to this
    /// thread's *current* transaction, under the graph lock; drives
    /// unary-transaction cutting and elision epochs.
    pub(crate) edge_events: AtomicU32,
    /// Published length of the current transaction's log.
    pub(crate) log_len: AtomicU32,
    /// The unary transaction a regular one's end opened has no node yet:
    /// `currTX(T)` still names that finished regular transaction and
    /// publishes its final log length, so an edge created meanwhile leaves
    /// it. The thread's first access materializes the unary transaction
    /// ([`Icd::before_access`]); if it makes none, the next regular
    /// transaction follows the finished one directly. Stored by the owner
    /// only (`Release`, beside `current_tx`); read by a thread recording an
    /// upgrade edge out of `T.lastRdEx` (`Acquire`). It publishes no other
    /// data.
    pub(crate) pending: AtomicBool,
}

/// The step of [`ThreadRegs::edge_events`]: the counter is always even, so a
/// `seen_edge_events` with the low bit set never matches it — how a pending
/// unary transaction sends the thread's next access to the slow kernel
/// without a branch of its own on the fused path.
const EDGE_EVENT: u32 = 2;

/// Per-thread local (owner-only) state.
struct Local {
    /// [`IcdConfig::logging`], copied so the per-access hooks need no `Icd`.
    logging: bool,
    /// The attached [`CellLayout`] as of thread begin (clones share the
    /// table); empty without one.
    layout: CellLayout,
    log: Vec<LogEntry>,
    /// Duplicate-elision table keyed by (obj, cell): used by threads that
    /// began with no [`CellLayout`] attached (tests, standalone use).
    elision: HashMap<(ObjId, CellId), (u32, bool)>,
    /// Flat duplicate-elision table (`epoch << 1 | wrote` per layout slot);
    /// the fast path when a layout is attached. Sized at thread begin so the
    /// hot loop never re-checks a lazy init; non-empty implies `layout` is
    /// the attached one.
    elision_flat: Vec<u64>,
    /// Bumped at transaction start and whenever the owner observes a new
    /// edge on its current transaction; stale elision entries simply
    /// mismatch.
    epoch: u32,
    /// `edge_events` value last observed by the owner; `| 1` while a unary
    /// transaction is pending.
    seen_edge_events: u32,
    kind: TxKind,
    /// Per-thread transaction sequence number.
    seq: u64,
    /// IDG slot of the current transaction, as [`Graph::insert`] returned
    /// it: the boundary finds its own node without hashing.
    tx_slot: u32,
    /// Instrumented accesses of the current transaction; folded into the
    /// per-kind totals when the transaction's kind is about to change, so
    /// the per-access hook bumps one counter without testing `kind`.
    accesses: u64,
    regular_accesses: u64,
    unary_accesses: u64,
    log_entries: u64,
    /// Transactions started, by kind.
    regular_txs: u64,
    unary_txs: u64,
}

impl Local {
    /// Out-of-line elision for a thread that began with no layout attached
    /// (standalone use): a HashMap keyed by `(obj, cell)`. Returns `true`
    /// when the access is already covered this epoch.
    #[cold]
    fn elide_cold(&mut self, obj: ObjId, cell: CellId, is_write: bool, force: bool) -> bool {
        let epoch = self.epoch;
        let covered = !force
            && self
                .elision
                .get(&(obj, cell))
                .is_some_and(|&(e, wrote)| e == epoch && (wrote || !is_write));
        if !covered {
            self.elision.insert((obj, cell), (epoch, is_write));
        }
        covered
    }

    /// The thread-local half of opening a transaction of `kind`: sequence
    /// number, access tallies, a fresh elision epoch.
    fn open(&mut self, kind: TxKind) {
        self.seq += 1;
        self.fold_accesses();
        self.kind = kind;
        self.bump_epoch();
        match kind {
            TxKind::Regular(_) => self.regular_txs += 1,
            TxKind::Unary => self.unary_txs += 1,
        }
        debug_assert!(self.log.is_empty(), "log must be drained at tx end");
    }

    /// Makes `id` the thread's current transaction in its registers
    /// `regs`, starting from the edge events seen so far and an empty
    /// published log.
    fn publish(&mut self, regs: &ThreadRegs, id: TxId) {
        self.seen_edge_events = regs.edge_events.load(Ordering::Acquire);
        regs.log_len.store(0, Ordering::Release);
        regs.pending.store(false, Ordering::Release);
        regs.current_tx.store(id.0, Ordering::Release);
    }

    /// Leaves the just-finished transaction published as `currTX(T)` and
    /// marks the unary transaction opened after it pending. The edge events
    /// seen so far are kept with the low bit set, which never matches the
    /// counter.
    fn pend(&mut self, regs: &ThreadRegs) {
        self.seen_edge_events = regs.edge_events.load(Ordering::Acquire) | 1;
        regs.pending.store(true, Ordering::Release);
    }

    /// Folds the current transaction's access count into its kind's total.
    fn fold_accesses(&mut self) {
        match self.kind {
            TxKind::Regular(_) => self.regular_accesses += self.accesses,
            TxKind::Unary => self.unary_accesses += self.accesses,
        }
        self.accesses = 0;
    }

    /// Advances the elision epoch. On u32 wrap the new epoch would collide
    /// with stale table entries stamped billions of accesses ago, letting
    /// them spuriously elide a fresh access (and silently drop a log
    /// entry), so both elision tables are cleared. The epoch then restarts
    /// at 1, never 0: flat slots are zero-initialized and decode as
    /// `(epoch 0, no write)`, which must never match a live epoch.
    #[inline]
    fn bump_epoch(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.elision_flat.fill(0);
            self.elision.clear();
            self.epoch = 1;
        }
    }
}

/// One thread's ICD state: the registers other threads read (and whose
/// edge counter they step), then the owner block, which starts a 128-byte
/// block of its own (`#[repr(C)]` keeps the head first). Every access to
/// `local` runs on the owner: the engine calls the `ThreadId`-taking hooks
/// on that thread, and a `ThreadHandle` is used only by the thread it was
/// resolved for.
#[repr(C)]
struct Slot {
    regs: ThreadRegs,
    local: OwnerCell<Local>,
}

impl Slot {
    fn new(logging: bool) -> Self {
        Slot {
            regs: ThreadRegs::default(),
            local: OwnerCell::new(Local {
                logging,
                layout: CellLayout::default(),
                log: Vec::new(),
                elision: HashMap::new(),
                elision_flat: Vec::new(),
                epoch: 0,
                seen_edge_events: 0,
                kind: TxKind::Unary,
                seq: 0,
                tx_slot: 0,
                accesses: 0,
                regular_accesses: 0,
                unary_accesses: 0,
                log_entries: 0,
                regular_txs: 0,
                unary_txs: 0,
            }),
        }
    }

    /// [`Icd::edge_events_unchanged`] for the owning thread.
    #[inline(always)]
    fn edge_events_unchanged(&self) -> bool {
        // SAFETY: called on the owning thread.
        let local = unsafe { self.local.get() };
        // Acquire pairs with the release store in `note_edge_event`.
        self.regs.edge_events.load(Ordering::Acquire) == local.seen_edge_events
    }

    /// [`Icd::record_access`] for the owning thread.
    #[inline(always)]
    fn record_access(&self, obj: ObjId, cell: CellId, is_write: bool, is_sync: bool, force: bool) {
        // SAFETY: called on the owning thread.
        let local = unsafe { self.local.get() };
        local.accesses += 1;
        if !local.logging {
            return;
        }
        let epoch = local.epoch;
        // Hot branch: the flat table exists (allocated at thread begin when
        // a layout is attached), so the probe is one layout load, one table
        // load, one compare and at most one core-local store.
        let log_cell = if !local.elision_flat.is_empty() {
            let entry = local.layout.entry(obj);
            let slot = &mut local.elision_flat[entry.slot(cell) as usize];
            let (e, wrote) = ((*slot >> 1) as u32, *slot & 1 != 0);
            if !force && e == epoch && (wrote || !is_write) {
                // Already covered this epoch. The shared log-length atomic
                // is written only when the log grows, so elided accesses
                // (the common case in tight loops) stay core-local.
                return;
            }
            *slot = (u64::from(epoch) << 1) | u64::from(is_write || (wrote && e == epoch));
            // Conflated kinds (arrays, monitors, thread objects) share one
            // metadata cell per object — the paper's array-level metadata
            // (§5.4); the elision slot above is already the same for every
            // one of their cells.
            if !entry.conflated() {
                cell
            } else if is_sync {
                SYNC_CELL
            } else {
                0
            }
        } else if local.elide_cold(obj, cell, is_write, force) {
            return;
        } else {
            cell
        };
        local
            .log
            .push(LogEntry::new(obj, log_cell, is_write, is_sync));
        local.log_entries += 1;
        self.regs
            .log_len
            .store(local.log.len() as u32, Ordering::Release);
    }
}

/// One thread's ICD state, resolved once ([`Icd::thread_handle`]) for a
/// client's fused per-access kernel: the edge-event test and the log tail
/// run on the handle alone. Valid as long as it is held (the slot is
/// `Arc`-shared with the [`Icd`]). Like every `ThreadId`-taking hook, a
/// handle's methods must only be called by the thread it was resolved for.
pub struct ThreadHandle(Arc<Slot>);

impl ThreadHandle {
    /// [`Icd::edge_events_unchanged`] for this thread.
    #[inline(always)]
    pub fn edge_events_unchanged(&self) -> bool {
        self.0.edge_events_unchanged()
    }

    /// [`Icd::record_access`] for this thread.
    #[inline(always)]
    pub fn record_access(
        &self,
        obj: ObjId,
        cell: CellId,
        is_write: bool,
        is_sync: bool,
        force: bool,
    ) {
        self.0.record_access(obj, cell, is_write, is_sync, force);
    }
}

impl std::fmt::Debug for ThreadHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadHandle").finish_non_exhaustive()
    }
}

/// What the graph mutex guards: the IDG, the collector that paces itself
/// on its transaction ends, and the counters only a lock holder touches.
#[derive(Debug)]
struct Owned {
    graph: Graph,
    collector: Collector,
    /// Hot-path acquisitions of this mutex ([`Icd::graph_locks`]).
    locks: u64,
    /// Next transaction id, drawn inside the boundary's critical section.
    next_tx: u64,
}

/// The imprecise-cycle-detection analysis.
pub struct Icd {
    slots: Box<[Arc<Slot>]>,
    layout: OnceLock<CellLayout>,
    graph: Mutex<Owned>,
    config: IcdConfig,
    stats: IcdStats,
    obs: Option<Arc<PipelineObs>>,
}

impl std::fmt::Debug for Icd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Icd")
            .field("threads", &self.slots.len())
            .field("config", &self.config)
            .finish()
    }
}

impl Icd {
    /// Creates an ICD instance for `n_threads` threads.
    pub fn new(n_threads: usize, config: IcdConfig) -> Self {
        Self::with_observability(n_threads, config, None)
    }

    /// Like [`Icd::new`] with an optional observability registry shared
    /// with the rest of the checker (it times SCC probes and collector
    /// passes and traces them); with `None` the analysis runs exactly the
    /// uninstrumented code.
    pub fn with_observability(
        n_threads: usize,
        config: IcdConfig,
        obs: Option<Arc<PipelineObs>>,
    ) -> Self {
        Icd {
            slots: (0..n_threads)
                .map(|_| Arc::new(Slot::new(config.logging)))
                .collect(),
            layout: OnceLock::new(),
            graph: Mutex::new(Owned {
                graph: Graph::new(),
                collector: Collector::new(config.collect_every),
                locks: 0,
                next_tx: 1,
            }),
            config,
            stats: IcdStats::default(),
            obs,
        }
    }

    /// Run statistics.
    pub fn stats(&self) -> &IcdStats {
        &self.stats
    }

    /// Attaches the heap's cell layout: threads that begin afterwards use
    /// a flat duplicate-elision side table and log conflated kinds (arrays,
    /// monitors) at one cell per object. Call once, at run start, before any
    /// thread begins.
    ///
    /// # Panics
    ///
    /// Panics on a second call: a silently kept first layout would be the
    /// wrong heap's.
    pub fn attach_layout(&self, layout: CellLayout) {
        assert!(
            self.layout.set(layout).is_ok(),
            "Icd::attach_layout called twice"
        );
    }

    /// Resolves `t`'s per-thread state into a handle. Resolve after
    /// [`Icd::thread_begin`], which is what binds the attached layout.
    pub fn thread_handle(&self, t: ThreadId) -> ThreadHandle {
        ThreadHandle(Arc::clone(&self.slots[t.index()]))
    }

    /// Thread `t`'s slot.
    #[inline]
    fn slot(&self, t: ThreadId) -> &Slot {
        &self.slots[t.index()]
    }

    // The readers below take the graph lock without counting it in
    // `graph_locks`, which counts the analysis' own acquisitions only.

    /// Cross-thread IDG edges added so far (Table 3). Read under the graph
    /// lock.
    pub fn cross_edges(&self) -> u64 {
        self.graph.lock().graph.cross_edges()
    }

    /// IDG SCCs (≥ 2 transactions) detected so far (Table 3). Read under
    /// the graph lock.
    pub fn scc_count(&self) -> u64 {
        self.graph.lock().graph.scc_count()
    }

    /// Transaction ends whose SCC probe the trivial pre-filter skipped.
    pub fn skipped_probes(&self) -> u64 {
        self.graph.lock().graph.skipped_probes()
    }

    /// Transactions the collector reclaimed so far.
    pub fn collected_txs(&self) -> u64 {
        self.graph.lock().collector.collected
    }

    /// Hot-path graph-mutex acquisitions so far, each one counted while it
    /// is held: one per transaction boundary that touches the graph (the
    /// collector runs inside it) and one per edge procedure.
    pub fn graph_locks(&self) -> u64 {
        self.graph.lock().locks
    }

    /// `currTX(T)`.
    pub fn current_tx(&self, t: ThreadId) -> TxId {
        TxId(self.slot(t).regs.current_tx.load(Ordering::Acquire))
    }

    /// Snapshot of every finished transaction with its log and the edges
    /// among them (the §5.4 "PCD-only" variant). Call after all threads
    /// have ended; requires `collect_every == 0` so nothing was reclaimed.
    pub fn snapshot_all_finished(&self) -> SccReport {
        self.graph.lock().graph.snapshot_all_finished()
    }

    /// Acquires the graph mutex on an application-thread hot path, counting
    /// the acquisition once it is held.
    fn lock_graph(&self) -> MutexGuard<'_, Owned> {
        let mut guard = self.graph.lock();
        guard.locks += 1;
        guard
    }

    // ----- transaction lifecycle -------------------------------------------

    /// Thread start: opens the thread's first unary transaction.
    pub fn thread_begin(&self, t: ThreadId) -> Option<SccReport> {
        let slot = self.slot(t);
        // SAFETY: called on thread t.
        let local = unsafe { slot.local.get() };
        let report = self.boundary(t, &slot.regs, local, Some(TxKind::Unary), true);
        // Bind the attached layout and allocate the flat elision table off
        // the record_access hot loop: in the checker flow the layout is
        // attached before any thread begins, and this runs on the owner
        // thread (mutating the slot here is safe; doing it in
        // `attach_layout` would not be).
        if let Some(layout) = self.layout.get() {
            if local.elision_flat.is_empty() && layout.total() > 0 {
                local.layout = layout.clone();
                local.elision_flat = vec![0; layout.total() as usize];
            }
        }
        report
    }

    /// Thread exit: ends the current transaction (its id stays visible as a
    /// coordination source) and folds local counters into global stats.
    pub fn thread_end(&self, t: ThreadId) -> Option<SccReport> {
        let slot = self.slot(t);
        // SAFETY: called on thread t.
        let local = unsafe { slot.local.get() };
        let report = self.boundary(t, &slot.regs, local, None, false);
        local.fold_accesses();
        for (total, tally) in [
            (&self.stats.regular_txs, &mut local.regular_txs),
            (&self.stats.unary_txs, &mut local.unary_txs),
            (&self.stats.regular_accesses, &mut local.regular_accesses),
            (&self.stats.unary_accesses, &mut local.unary_accesses),
            (&self.stats.log_entries, &mut local.log_entries),
        ] {
            total.fetch_add(std::mem::take(tally), Ordering::Relaxed);
        }
        report
    }

    /// A regular transaction rooted at `method` begins (atomic method
    /// entered from non-transactional context). After a pending unary
    /// transaction it follows the finished regular one directly.
    pub fn begin_regular(&self, t: ThreadId, method: MethodId) -> Option<SccReport> {
        let slot = self.slot(t);
        // SAFETY: called on thread t.
        let local = unsafe { slot.local.get() };
        self.boundary(t, &slot.regs, local, Some(TxKind::Regular(method)), true)
    }

    /// The regular transaction ends; a fresh unary transaction opens
    /// immediately (paper §4: "At method end, it creates a new unary
    /// transaction") — pending: it gets no node until the thread's first
    /// access.
    pub fn end_regular(&self, t: ThreadId) -> Option<SccReport> {
        let slot = self.slot(t);
        // SAFETY: called on thread t.
        let local = unsafe { slot.local.get() };
        self.boundary(t, &slot.regs, local, Some(TxKind::Unary), false)
    }

    /// One transaction boundary of thread `t` (registers `regs`, owner
    /// block `local`): ends its current transaction
    /// — unless there is none yet or it already ended (a unary transaction
    /// is pending) — and opens one of kind `open` (none at thread exit, or
    /// when a pending unary transaction is materialized). With `insert` the
    /// thread's transaction gets its node now; without, it is pending.
    ///
    /// All of it happens in **one** critical section, in this order: append
    /// the finished log to the graph's log arena, run SCC detection from it
    /// (§3.2.3) into recycled report buffers, count the end toward the
    /// collector and run a due pass (the ended transaction is still
    /// `currTX(t)`, hence a root), draw the next id, insert its node with the
    /// program-order edge, publish it as `currTX(t)`. The thread names its
    /// own nodes by `(slot, id)`, so none of this consults the graph's id map
    /// except the insert itself. A boundary with nothing to end and nothing
    /// to insert (thread exit while a unary transaction is pending) takes no
    /// lock.
    fn boundary(
        &self,
        t: ThreadId,
        regs: &ThreadRegs,
        local: &mut Local,
        open: Option<TxKind>,
        insert: bool,
    ) -> Option<SccReport> {
        let old = TxId(regs.current_tx.load(Ordering::Acquire));
        let old_node = (local.tx_slot, old);
        // The owner is `pending`'s only writer.
        let ends = old.is_some() && !regs.pending.load(Ordering::Relaxed);
        // The graph copies the finished log under the lock; the thread's
        // buffer keeps its capacity for the next transaction.
        let mut log = std::mem::take(&mut local.log);
        if let Some(kind) = open {
            local.open(kind);
        }
        let mut report = None;
        if ends || insert {
            let mut guard = self.lock_graph();
            let Owned {
                graph,
                collector,
                next_tx,
                ..
            } = &mut *guard;
            if ends {
                let mut scc = SccReport::spare();
                // The hooks name only transactions they inserted, so a
                // malformed finish here is a checker bug.
                let cycle = graph
                    .finish_and_probe(
                        old_node,
                        &log,
                        self.config.detect_sccs,
                        self.obs.as_deref(),
                        &mut scc,
                    )
                    .expect("finishing unknown tx");
                if cycle {
                    report = Some(scc);
                } else {
                    scc.recycle();
                }
                collector.on_finish();
                if collector.due() {
                    let threads = self.slots.iter().map(|slot| &slot.regs);
                    collector.collect(graph, threads, self.obs.as_deref());
                }
            }
            if insert {
                let id = TxId(*next_tx);
                *next_tx += 1;
                local.tx_slot = graph.insert_after(id, t, local.kind, local.seq, old_node);
                local.publish(regs, id);
            } else {
                local.pend(regs);
            }
        }
        log.clear();
        local.log = log;
        report
    }

    // ----- access instrumentation ------------------------------------------

    /// Fused-kernel probe: `true` when no new edge has been attached to
    /// `t`'s current transaction since its last access, i.e. when
    /// [`Icd::before_access`] would be a no-op. The checker's fast path
    /// folds this single load-and-compare into its combined per-access
    /// check and skips `before_access` entirely on `true`.
    #[inline]
    pub fn edge_events_unchanged(&self, t: ThreadId) -> bool {
        self.slot(t).edge_events_unchanged()
    }

    /// Must run before each access's Octet barrier: observes edges attached
    /// to the current transaction since the last access, bumping the elision
    /// epoch and — in unary context — cutting the merged unary transaction
    /// (paper §4's merging rule). The first access after a regular
    /// transaction's end always lands here and materializes the pending
    /// unary transaction; an edge that left the finished regular
    /// transaction meanwhile counts as the cut it would have made had the
    /// unary transaction had a node, so transaction counts and sequence
    /// numbers are those of an eager node.
    #[inline]
    pub fn before_access(&self, t: ThreadId) -> Option<SccReport> {
        let slot = self.slot(t);
        // SAFETY: called on thread t.
        let local = unsafe { slot.local.get() };
        let events = slot.regs.edge_events.load(Ordering::Acquire);
        if events == local.seen_edge_events {
            return None;
        }
        // Always true outside the pending window, where `seen` is even.
        let cut = events != (local.seen_edge_events & !1);
        local.seen_edge_events = events;
        local.bump_epoch();
        if local.kind == TxKind::Unary {
            self.boundary(t, &slot.regs, local, cut.then_some(TxKind::Unary), true)
        } else {
            None
        }
    }

    /// Records the access in the current transaction's read/write log
    /// (after the Octet barrier), at one cell per object for conflated kinds
    /// when a layout is attached. `force` bypasses duplicate elision — set
    /// when the barrier reported a possible dependence, so the dependence's
    /// sink entry lands at a log position after the edge.
    #[inline]
    pub fn record_access(
        &self,
        t: ThreadId,
        obj: ObjId,
        cell: CellId,
        is_write: bool,
        is_sync: bool,
        force: bool,
    ) {
        self.slot(t)
            .record_access(obj, cell, is_write, is_sync, force);
    }

    // ----- Figure 4: edge-creation procedures ------------------------------

    /// `handleConflictingTransition` (Figure 4): adds an IDG edge from
    /// `currTX(resp)` to `currTX(req)`. Runs on the responder at its safe
    /// point (explicit protocol) or on the requester while holding the
    /// blocked responder (implicit protocol) — either way both ends are
    /// stable.
    pub fn handle_conflicting(&self, resp: ThreadId, req: ThreadId) {
        let src = self.current_tx(resp);
        let dst = self.current_tx(req);
        if !src.is_some() || !dst.is_some() || src == dst {
            return;
        }
        let src_pos = self.slot(resp).regs.log_len.load(Ordering::Acquire);
        let dst_pos = self.slot(req).regs.log_len.load(Ordering::Acquire);
        let mut guard = self.lock_graph();
        guard.graph.add_edge(Edge {
            src,
            src_pos,
            dst,
            dst_pos,
            kind: EdgeKind::Cross,
        });
        self.note_edge_event(&guard, resp, src);
        self.note_edge_event(&guard, req, dst);
    }

    /// `handleUpgradingTransition` (Figure 4): on `RdEx T1 → RdSh`, adds
    /// edges `T1.lastRdEx → currTX(t)` and `gLastRdSh → currTX(t)`, then
    /// updates `gLastRdSh` — ordering all transitions to RdSh.
    pub fn handle_upgrading(&self, t: ThreadId, prev_owner: ThreadId) {
        let cur = self.current_tx(t);
        if !cur.is_some() {
            return;
        }
        let dst_pos = self.slot(t).regs.log_len.load(Ordering::Acquire);
        let owner = &self.slot(prev_owner).regs;
        let last_rd_ex = TxId(owner.last_rd_ex.load(Ordering::Acquire));
        let mut guard = self.lock_graph();
        let graph = &mut guard.graph;
        if last_rd_ex.is_some() && last_rd_ex != cur {
            let src_pos = self.edge_src_pos(graph, prev_owner, last_rd_ex);
            graph.add_edge(Edge {
                src: last_rd_ex,
                src_pos,
                dst: cur,
                dst_pos,
                kind: EdgeKind::Cross,
            });
        }
        self.add_rd_sh_edge(graph, cur, dst_pos);
        graph.g_last_rd_sh = cur;
        // While `prev_owner`'s unary transaction is pending, its `lastRdEx`
        // may be the finished regular transaction `currTX` still names: the
        // edge leaves that one, not the thread's current (unary) one.
        if last_rd_ex.is_some() && !owner.pending.load(Ordering::Acquire) {
            self.note_edge_event(&guard, prev_owner, last_rd_ex);
        }
        self.note_edge_event(&guard, t, cur);
    }

    /// `handleFenceTransition` (Figure 4): adds `gLastRdSh → currTX(t)`.
    pub fn handle_fence(&self, t: ThreadId) {
        let cur = self.current_tx(t);
        if !cur.is_some() {
            return;
        }
        let dst_pos = self.slot(t).regs.log_len.load(Ordering::Acquire);
        let mut guard = self.lock_graph();
        self.add_rd_sh_edge(&mut guard.graph, cur, dst_pos);
        self.note_edge_event(&guard, t, cur);
    }

    /// The edge `gLastRdSh → cur` both RdSh procedures add, `cur` having
    /// logged `dst_pos` entries.
    fn add_rd_sh_edge(&self, graph: &mut Graph, cur: TxId, dst_pos: u32) {
        let g = graph.g_last_rd_sh;
        if g.is_some() && g != cur {
            let src_pos = self.any_src_pos(graph, g);
            graph.add_edge(Edge {
                src: g,
                src_pos,
                dst: cur,
                dst_pos,
                kind: EdgeKind::Cross,
            });
        }
    }

    /// Records that `t`'s current transaction moved an object into
    /// RdEx-`t` (updates `t.lastRdEx`; Figure 4's conflicting handler).
    pub fn note_rdex_claim(&self, t: ThreadId) {
        let regs = &self.slot(t).regs;
        let cur = regs.current_tx.load(Ordering::Acquire);
        regs.last_rd_ex.store(cur, Ordering::Release);
    }

    /// Steps the thread's edge counter if `tx` is still its current
    /// transaction (drives unary cutting and elision epochs). This is the
    /// counter's only writer and its caller holds the graph lock — `_held`
    /// is what the lock guards — so a load and a store lose no step. The
    /// release store pairs with the owner's acquire load.
    fn note_edge_event(&self, _held: &Owned, t: ThreadId, tx: TxId) {
        let regs = &self.slot(t).regs;
        if regs.current_tx.load(Ordering::Acquire) == tx.0 {
            let events = regs.edge_events.load(Ordering::Relaxed);
            regs.edge_events
                .store(events.wrapping_add(EDGE_EVENT), Ordering::Release);
        }
    }

    /// Log position to use for an edge out of `tx` owned by thread `owner`:
    /// the live published length if `tx` is still current, else its final
    /// length.
    fn edge_src_pos(&self, graph: &Graph, owner: ThreadId, tx: TxId) -> u32 {
        let regs = &self.slot(owner).regs;
        if regs.current_tx.load(Ordering::Acquire) == tx.0 {
            regs.log_len.load(Ordering::Acquire)
        } else {
            graph.node(tx).map_or(0, |n| n.data.final_len)
        }
    }

    /// Like [`Self::edge_src_pos`] when the owning thread is not known
    /// statically (the `gLastRdSh` register).
    fn any_src_pos(&self, graph: &Graph, tx: TxId) -> u32 {
        match graph.node(tx) {
            Some(node) => self.edge_src_pos(graph, node.data.thread, tx),
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);
    const O: ObjId = ObjId(0);
    const M: MethodId = MethodId(0);

    fn icd(n: usize) -> Icd {
        let icd = Icd::new(n, IcdConfig::default());
        for i in 0..n {
            icd.thread_begin(ThreadId::from_index(i));
        }
        icd
    }

    /// Ends every thread, folding the per-thread tallies into the stats.
    fn end_all(icd: &Icd, n: usize) {
        for i in 0..n {
            icd.thread_end(ThreadId::from_index(i));
        }
    }

    /// Thread 0's owner-only state.
    #[allow(clippy::mut_from_ref)]
    fn local0(icd: &Icd) -> &mut Local {
        // SAFETY: every test runs on the one thread that drives slot 0, and
        // drops each borrow before the next hook.
        unsafe { icd.slots[0].local.get() }
    }

    /// Thread `i`'s registers.
    fn regs(icd: &Icd, i: usize) -> &ThreadRegs {
        &icd.slots[i].regs
    }

    /// The registers other threads touch sit in the slot's first 128-byte
    /// block; the owner block, written on every access, starts at the next
    /// one — no false sharing between the two.
    #[test]
    fn the_owner_block_starts_128_bytes_after_the_registers() {
        use std::mem::{align_of, offset_of, size_of};
        assert_eq!(align_of::<Slot>(), 128);
        assert!(offset_of!(Slot, regs) + size_of::<ThreadRegs>() <= 128);
        assert!(offset_of!(Slot, local) >= offset_of!(Slot, regs) + 128);
    }

    #[test]
    fn threads_open_unary_transactions_at_start() {
        let icd = icd(2);
        assert!(icd.current_tx(T0).is_some());
        assert_ne!(icd.current_tx(T0), icd.current_tx(T1));
        end_all(&icd, 2);
        assert_eq!(icd.stats().unary_txs.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn regular_tx_lifecycle_counts_and_chains() {
        let icd = icd(1);
        let unary = icd.current_tx(T0);
        icd.begin_regular(T0, M);
        let reg = icd.current_tx(T0);
        assert_ne!(unary, reg);
        icd.record_access(T0, O, 0, true, false, false);
        icd.end_regular(T0);
        // The unary transaction `end_regular` opens is pending: `currTX`
        // still names the finished regular one, at its final log length,
        // and no node was inserted for it.
        assert_eq!(icd.current_tx(T0), reg);
        assert_eq!(regs(&icd, 0).log_len.load(Ordering::Relaxed), 1);
        assert!(!icd.edge_events_unchanged(T0), "the next access goes slow");
        let chain = |tx| -> Vec<(TxId, EdgeKind)> {
            let g = &icd.graph.lock().graph;
            g.out_edges(tx).map(|e| (e.dst, e.kind)).collect()
        };
        {
            let g = &icd.graph.lock().graph;
            assert!(g.node(reg).unwrap().finished);
            assert_eq!(g.len(), 2, "no node for the pending unary transaction");
        }
        // Without an access in between, the next regular transaction
        // follows the finished one directly.
        icd.begin_regular(T0, M);
        let reg2 = icd.current_tx(T0);
        assert_eq!(chain(reg), [(reg2, EdgeKind::Intra)]);
        icd.end_regular(T0);
        // The first access materializes the pending unary transaction.
        assert!(icd.before_access(T0).is_none());
        let unary2 = icd.current_tx(T0);
        assert_ne!(unary2, reg2);
        assert!(icd.edge_events_unchanged(T0));
        assert_eq!(regs(&icd, 0).log_len.load(Ordering::Relaxed), 0);
        assert_eq!(chain(reg2), [(unary2, EdgeKind::Intra)]);
        // The per-thread tallies fold in at thread end, not before; the
        // unary count includes the transaction that never got a node.
        assert_eq!(icd.stats().regular_txs.load(Ordering::Relaxed), 0);
        end_all(&icd, 1);
        assert_eq!(icd.stats().regular_txs.load(Ordering::Relaxed), 2);
        assert_eq!(icd.stats().unary_txs.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn duplicate_reads_are_elided_but_writes_after_reads_are_not() {
        let icd = icd(1);
        icd.record_access(T0, O, 0, false, false, false);
        icd.record_access(T0, O, 0, false, false, false); // elided
        icd.record_access(T0, O, 0, true, false, false); // write after read: logged
        icd.record_access(T0, O, 0, false, false, false); // read after write: elided
        icd.record_access(T0, O, 1, false, false, false); // different cell: logged
                                                          // Log length published: 3 entries.
        assert_eq!(regs(&icd, 0).log_len.load(Ordering::Relaxed), 3);
        end_all(&icd, 1);
        assert_eq!(icd.stats().unary_txs.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn force_bypasses_elision() {
        let icd = icd(1);
        icd.record_access(T0, O, 0, false, false, false);
        icd.record_access(T0, O, 0, false, false, true); // forced: logged again
        assert_eq!(regs(&icd, 0).log_len.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn new_transaction_resets_elision_epoch() {
        let icd = icd(1);
        icd.record_access(T0, O, 0, false, false, false);
        icd.begin_regular(T0, M);
        icd.record_access(T0, O, 0, false, false, false); // new tx: logged
        assert_eq!(regs(&icd, 0).log_len.load(Ordering::Relaxed), 1);
    }

    /// Drives the elision epoch through a full u32 wrap and back to `stale`,
    /// the epoch a table entry was stamped with earlier. Without the wrap
    /// handling in `Local::bump_epoch` that entry would spuriously elide the
    /// next access to its cell and silently drop a log entry.
    fn wrap_epoch_back_to(icd: &Icd, stale: u32) {
        local0(icd).epoch = u32::MAX;
        while local0(icd).epoch != stale {
            icd.begin_regular(T0, M); // one epoch bump per begin
        }
    }

    #[test]
    fn epoch_wrap_clears_hash_elision_table() {
        let icd = icd(1);
        icd.record_access(T0, O, 0, false, false, false);
        let stale = local0(&icd).epoch;
        wrap_epoch_back_to(&icd, stale);
        assert!(
            local0(&icd).elision.is_empty(),
            "wrap must clear the hash elision table"
        );
        icd.record_access(T0, O, 0, false, false, false);
        assert_eq!(
            regs(&icd, 0).log_len.load(Ordering::Relaxed),
            1,
            "a stale pre-wrap elision entry must not elide this access"
        );
    }

    #[test]
    fn epoch_wrap_clears_flat_elision_table() {
        use dc_runtime::heap::{Heap, ObjKind};
        let icd = Icd::new(1, IcdConfig::default());
        let heap = Heap::new(&[ObjKind::Plain { fields: 2 }], 1);
        icd.attach_layout(CellLayout::new(&heap));
        icd.thread_begin(T0); // binds the layout: the flat table is live
        icd.record_access(T0, O, 0, false, false, false);
        let stale = local0(&icd).epoch;
        wrap_epoch_back_to(&icd, stale);
        icd.record_access(T0, O, 0, false, false, false);
        assert_eq!(
            regs(&icd, 0).log_len.load(Ordering::Relaxed),
            1,
            "a stale pre-wrap flat slot must not elide this access"
        );
    }

    #[test]
    fn conflicting_edge_cuts_merged_unary_transaction() {
        let icd = icd(2);
        icd.record_access(T0, O, 0, true, false, false);
        let tx_before = icd.current_tx(T0);
        // T1's conflicting access: edge T0's tx → T1's tx.
        icd.handle_conflicting(T0, T1);
        // T0's next access observes the edge and cuts its unary tx.
        assert!(icd.before_access(T0).is_none(), "path, not a cycle");
        assert_ne!(icd.current_tx(T0), tx_before);
        // T1's next access also observes its incoming edge and cuts.
        let t1_before = icd.current_tx(T1);
        icd.before_access(T1);
        assert_ne!(icd.current_tx(T1), t1_before);
    }

    /// An edge that leaves a thread while its unary transaction is pending
    /// is one that transaction would have had as a node, so its first access
    /// counts the cut such a node would have made. An upgrade edge out of
    /// the thread's `lastRdEx` — the finished regular transaction — is not.
    #[test]
    fn pending_window_edges_cut_like_an_eager_unary_node() {
        let run = |edge: fn(&Icd)| {
            let icd = icd(2);
            icd.begin_regular(T0, M);
            icd.note_rdex_claim(T0);
            icd.end_regular(T0);
            edge(&icd);
            let seq = local0(&icd).seq;
            icd.before_access(T0);
            let cuts = local0(&icd).seq - seq;
            end_all(&icd, 2);
            (cuts, icd.stats().unary_txs.load(Ordering::Relaxed))
        };
        assert_eq!(run(|_| {}), (0, 3));
        assert_eq!(run(|icd| icd.handle_conflicting(T0, T1)), (1, 4));
        assert_eq!(run(|icd| icd.handle_upgrading(T1, T0)), (0, 3));
    }

    #[test]
    fn regular_transactions_are_not_cut_by_edges() {
        let icd = icd(2);
        icd.begin_regular(T0, M);
        let reg = icd.current_tx(T0);
        icd.handle_conflicting(T0, T1);
        icd.before_access(T0);
        assert_eq!(icd.current_tx(T0), reg, "regular tx must survive edges");
    }

    #[test]
    fn mutual_conflicts_form_an_scc_reported_once() {
        let icd = icd(2);
        icd.begin_regular(T0, M);
        icd.begin_regular(T1, MethodId(1));
        icd.record_access(T0, O, 0, true, false, false);
        // T1 writes O: conflicting, edge T0→T1.
        icd.handle_conflicting(T0, T1);
        icd.record_access(T1, O, 0, true, false, true);
        // T0 reads back: edge T1→T0.
        icd.handle_conflicting(T1, T0);
        icd.record_access(T0, O, 0, false, false, true);
        // End T0: T1 still unfinished → no SCC yet.
        assert!(icd.end_regular(T0).is_none());
        // End T1: SCC of the two regular transactions.
        let scc = icd.end_regular(T1).expect("cycle detected");
        assert_eq!(scc.len(), 2);
        assert!(scc.txs.iter().all(|t| t.kind.is_regular()));
        assert_eq!(icd.scc_count(), 1);
        assert_eq!(icd.cross_edges(), 2);
    }

    #[test]
    fn lastrdex_is_tracked_per_thread() {
        let icd = icd(2);
        icd.note_rdex_claim(T1);
        assert_eq!(
            TxId(regs(&icd, 1).last_rd_ex.load(Ordering::Relaxed)),
            icd.current_tx(T1)
        );
        assert_eq!(regs(&icd, 0).last_rd_ex.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn upgrading_adds_edges_from_lastrdex_and_glastrdsh() {
        let icd = icd(3);
        // T0 claims RdEx in its current tx.
        icd.note_rdex_claim(T0);
        let t0_tx = icd.current_tx(T0);
        // T1 upgrades the object to RdSh: edge T0.lastRdEx → currTX(T1).
        icd.handle_upgrading(T1, T0);
        let t1_tx = icd.current_tx(T1);
        {
            let g = &icd.graph.lock().graph;
            let out: Vec<_> = g.out_edges(t0_tx).map(|e| e.dst).collect();
            assert!(out.contains(&t1_tx));
            assert_eq!(g.g_last_rd_sh, t1_tx);
        }
        // T2 takes a fence: edge gLastRdSh (= T1's tx) → currTX(T2).
        icd.handle_fence(T2_ID);
        let t2_tx = icd.current_tx(T2_ID);
        let g = &icd.graph.lock().graph;
        let out: Vec<_> = g.out_edges(t1_tx).map(|e| e.dst).collect();
        assert!(out.contains(&t2_tx));
    }

    const T2_ID: ThreadId = ThreadId(2);

    #[test]
    fn edge_positions_snapshot_log_lengths() {
        let icd = icd(2);
        icd.record_access(T0, O, 0, true, false, false);
        icd.record_access(T0, ObjId(1), 0, true, false, false);
        icd.handle_conflicting(T0, T1);
        let g = &icd.graph.lock().graph;
        let t0_tx = TxId(regs(&icd, 0).current_tx.load(Ordering::Relaxed));
        let e = g.out_edges(t0_tx).next().unwrap();
        assert_eq!(e.src_pos, 2, "source logged two entries before the edge");
        assert_eq!(e.dst_pos, 0, "sink logged nothing yet");
    }

    #[test]
    fn collector_runs_and_reclaims() {
        let icd = Icd::new(
            1,
            IcdConfig {
                logging: false,
                collect_every: 8,
                ..IcdConfig::default()
            },
        );
        icd.thread_begin(T0);
        for i in 0..64 {
            icd.begin_regular(T0, MethodId(i));
            icd.end_regular(T0);
        }
        assert!(
            icd.collected_txs() > 0,
            "isolated finished transactions must be reclaimed"
        );
    }

    #[test]
    fn logging_off_records_counts_but_no_entries() {
        let icd = Icd::new(
            1,
            IcdConfig {
                logging: false,
                collect_every: 0,
                ..IcdConfig::default()
            },
        );
        icd.thread_begin(T0);
        icd.record_access(T0, O, 0, true, false, false);
        icd.thread_end(T0);
        assert_eq!(icd.stats().unary_accesses.load(Ordering::Relaxed), 1);
        assert_eq!(icd.stats().log_entries.load(Ordering::Relaxed), 0);
    }

    /// An upgrade edge out of a source that is still its thread's current
    /// transaction carries the source's live log length — not the final
    /// length it reaches later.
    #[test]
    fn upgrade_edge_out_of_a_live_source_uses_its_live_position() {
        let icd = Icd::new(
            3,
            IcdConfig {
                collect_every: 0,
                ..IcdConfig::default()
            },
        );
        for i in 0..3 {
            icd.thread_begin(ThreadId::from_index(i));
        }
        // T2 logs two entries and claims RdEx in its still-live transaction.
        icd.record_access(T2_ID, O, 0, true, false, false);
        icd.record_access(T2_ID, O, 1, true, false, false);
        icd.note_rdex_claim(T2_ID);
        let t2_tx = icd.current_tx(T2_ID);
        icd.handle_upgrading(T0, T2_ID);
        let t0_tx = icd.current_tx(T0);
        // T2 keeps logging before it ends.
        icd.record_access(T2_ID, O, 2, true, false, false);
        end_all(&icd, 3);
        let g = &icd.graph.lock().graph;
        assert_eq!(g.node(t2_tx).unwrap().data.final_len, 3);
        let edge = g
            .out_edges(t2_tx)
            .find(|e| e.dst == t0_tx)
            .expect("upgrade edge added");
        assert_eq!(edge.src_pos, 2);
    }

    /// One critical section per transaction boundary that touches the
    /// graph — the collector runs inside it — and one per edge procedure.
    /// An atomic-method call is two boundaries, so two acquisitions: its
    /// end finishes the regular transaction but no longer inserts the unary
    /// one it opens, and the next begin inserts without finishing anything
    /// while that unary transaction is pending. A unary transaction that is
    /// accessed takes one more, for its node, at its first access; a thread
    /// that exits with one pending takes none.
    #[test]
    fn graph_lock_is_taken_once_per_boundary_and_edge() {
        let icd = Icd::new(
            2,
            IcdConfig {
                collect_every: 4, // several passes inside the boundaries below
                ..IcdConfig::default()
            },
        );
        let locks = || icd.graph_locks();
        icd.thread_begin(T0);
        icd.thread_begin(T1);
        assert_eq!(locks(), 2, "one per thread begin");
        const CALLS: u64 = 100;
        for i in 0..CALLS {
            icd.begin_regular(T0, M);
            icd.record_access(T0, O, i as u32, true, false, false);
            icd.end_regular(T0);
        }
        assert_eq!(locks(), 2 + 2 * CALLS, "two per atomic-method call");
        assert!(icd.collected_txs() > 0);
        icd.before_access(T0);
        let base = 2 + 2 * CALLS + 1;
        assert_eq!(locks(), base, "one for a unary node, at its first access");
        icd.handle_conflicting(T0, T1);
        icd.handle_fence(T1);
        icd.handle_upgrading(T1, T0);
        assert_eq!(locks(), base + 3, "one per edge procedure");
        icd.record_access(T0, O, 0, true, false, false);
        assert_eq!(locks(), base + 3, "accesses take none");
        icd.begin_regular(T0, M);
        icd.end_regular(T0);
        end_all(&icd, 2);
        assert_eq!(locks(), base + 3 + 2 + 1, "T0 exits pending: no lock");
    }
}
