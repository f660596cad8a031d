//! Asynchronous graph pipeline: application threads append linearized graph
//! operations instead of mutating the IDG under a global lock; a dedicated
//! *graph-owner* thread applies them, runs SCC detection and the transaction
//! collector, and hands SCC reports to a sink (dc-core wires the sink to the
//! PCD replay pool).
//!
//! # Linearization by tickets
//!
//! Every operation draws a *ticket* from one global counter at creation
//! time, on the application thread, at exactly the point where synchronous
//! mode would have acquired the graph lock. Operations travel to the owner
//! in per-thread batches, so they can arrive out of ticket order; the owner
//! holds early arrivals in a ticket-indexed scoreboard and applies a
//! strictly contiguous ticket sequence. The applied order is therefore a
//! valid lock-acquisition order of the synchronous analysis — and under the
//! deterministic engine (one OS thread driving all program threads) it is
//! *the* order synchronous mode uses, which is what makes pipelined and
//! synchronous runs produce identical SCCs, violations, and static
//! transaction information on deterministic schedules.
//!
//! Two details keep apply-time semantics equal to lock-time semantics:
//!
//! * Operations embed everything they read from mutable non-graph state
//!   (published log lengths, `lastRdEx`, per-thread current-transaction
//!   registers) at creation time. The rare upgrading/fence operations carry
//!   a full per-thread `(currTX, log length)` snapshot because their edge
//!   source — the graph-owned `gLastRdSh` register — is only resolved at
//!   apply time.
//! * State a source transaction's position depends on *after* it finished
//!   (`final_len`) is resolved by the owner: the `Finish` that set it
//!   necessarily drew an earlier ticket (the observing thread's ticket was
//!   drawn after an acquire-load that observed the finish), so it has
//!   already been applied.
//!
//! Progress: tickets are only held in a thread's private buffer for the
//! duration of one instrumentation hook — every hook flushes its batch
//! before returning — so the scoreboard's gaps resolve promptly and
//! [`PipelineHandle::shutdown`] (called once all application threads
//! have joined) observes every ticket below its own.
//!
//! # Transport
//!
//! Batches travel over a fixed-capacity cache-line-aligned MPSC ring
//! ([`crate::ring::OpRing`]): sends are one `fetch_add` plus one release
//! store, with spin-then-yield backpressure on a full ring (counted as
//! `graph.ring_full_waits`). Batch buffers are pooled and round-trip
//! owner→app, so a steady-state enqueue performs no allocation.

use crate::graph::{Collector, Graph};
use crate::icd::{IcdConfig, IcdStats, Registers};
use crate::ring::OpRing;
use crate::types::{Edge, EdgeKind, LogEntry, SccReport, TxId, TxKind};
use dc_obs::{EventKind, PipelineObs, Stage};
use dc_runtime::ids::ThreadId;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Whether IDG maintenance runs on the application threads under a global
/// lock (`Sync`) or on a dedicated graph-owner thread fed through the op ring
/// (`Pipelined`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PipelineMode {
    /// Application threads mutate the graph directly (deterministic engine,
    /// unit tests, and the paper's baseline configuration).
    #[default]
    Sync,
    /// Application threads enqueue operations; SCC detection, collection,
    /// and PCD dispatch run off the application hot path.
    Pipelined,
}

/// Ring capacity in messages (batches), a power of two. 1024 in-flight
/// batches is far beyond any hook burst; hitting backpressure here means
/// the owner has genuinely fallen behind.
const RING_CAPACITY: usize = 1024;
/// Initial capacity of a pooled batch buffer (ops per hook is single-digit;
/// Octet coalescing can push a few more).
const BATCH_CAPACITY: usize = 32;
/// Maximum pooled buffers retained; excess buffers are dropped. Sized past
/// the worst-case in-flight depth (one batch per ring slot, plus per-thread
/// pending buffers), so producers that run ahead of the owner recycle
/// buffers instead of allocating while the owner's returns overflow the
/// pool — steady-state enqueue stays allocation-free even at full
/// backpressure.
const POOL_RETAIN: usize = RING_CAPACITY + 128;
/// Initial reorder-scoreboard span (tickets), a power of two; grows by
/// doubling if in-flight tickets ever span further.
const REORDER_CAPACITY: usize = 256;

/// Callback invoked by the graph-owner thread for every detected SCC.
pub type SccSink = Box<dyn Fn(SccReport) + Send + 'static>;

/// A structural failure in the op stream, detected on the graph-owner
/// thread. Instead of panicking — which poisons the owner
/// thread and aborts the whole multi-run process at join — the pipeline
/// stops applying, drains, and surfaces the first error through
/// [`PipelineHandle::shutdown`] into the final report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PipelineError {
    /// A ticket at or below the applied frontier arrived again.
    StaleTicket {
        /// The offending ticket.
        ticket: u64,
        /// The frontier at arrival time.
        next: u64,
    },
    /// Two in-flight ops carried the same ticket.
    DuplicateTicket {
        /// The offending ticket.
        ticket: u64,
    },
    /// A `Finish` named an unknown or already-finished transaction.
    MalformedFinish {
        /// The transaction the finish named.
        id: TxId,
        /// False: never inserted (or collected while unfinished). True:
        /// finished twice.
        already_finished: bool,
    },
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::StaleTicket { ticket, next } => {
                write!(f, "op ticket {ticket} below applied frontier {next}")
            }
            PipelineError::DuplicateTicket { ticket } => {
                write!(f, "duplicate op ticket {ticket}")
            }
            PipelineError::MalformedFinish {
                id,
                already_finished,
            } => {
                if *already_finished {
                    write!(f, "transaction {} finished twice", id.0)
                } else {
                    write!(f, "finish for unknown transaction {}", id.0)
                }
            }
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<crate::graph::FinishError> for PipelineError {
    fn from(e: crate::graph::FinishError) -> Self {
        match e {
            crate::graph::FinishError::UnknownTx(id) => PipelineError::MalformedFinish {
                id,
                already_finished: false,
            },
            crate::graph::FinishError::AlreadyFinished(id) => PipelineError::MalformedFinish {
                id,
                already_finished: true,
            },
        }
    }
}

/// Per-thread `(currTX, published log length)` snapshot taken when a rare
/// upgrading/fence operation is created, reproducing the synchronous
/// analysis's live-position reads for sources resolved at apply time.
pub(crate) type PosSnapshot = Box<[(u64, u32)]>;

/// One linearized graph mutation, in application-thread creation order.
#[derive(Debug)]
pub(crate) enum GraphOp {
    /// A transaction begins: node insertion plus the program-order edge
    /// from the thread's previous transaction.
    Insert {
        id: TxId,
        thread: ThreadId,
        kind: TxKind,
        seq: u64,
        prev: TxId,
    },
    /// A transaction ends with its final read/write log (`None` when
    /// empty); triggers SCC detection and (periodically) the collector on
    /// the owner.
    Finish {
        id: TxId,
        log: Option<Arc<[LogEntry]>>,
    },
    /// `handleConflictingTransition`: one cross-thread edge, positions
    /// snapshotted at creation.
    Cross {
        src: TxId,
        src_pos: u32,
        dst: TxId,
        dst_pos: u32,
    },
    /// `handleUpgradingTransition`: edges from `lastRdEx` and `gLastRdSh`,
    /// then the `gLastRdSh` update.
    Upgrade {
        cur: TxId,
        dst_pos: u32,
        last_rd_ex: TxId,
        snap: PosSnapshot,
    },
    /// `handleFenceTransition`: edge from `gLastRdSh`.
    Fence {
        cur: TxId,
        dst_pos: u32,
        snap: PosSnapshot,
    },
}

impl GraphOp {
    /// The transactions this op names. While the op sits in the reorder
    /// scoreboard (received, unapplied) they are extra collector roots, so
    /// nothing a buffered op still needs is reclaimed.
    ///
    /// Ops still in flight (unreceived) stay safe without extra roots:
    /// every op's *destination* was its thread's current transaction at
    /// creation, so its `Finish` carries a later ticket and the node is
    /// still unfinished in the applied graph — and `Graph::collect` roots
    /// unfinished transactions itself. An in-flight op's *source* can be
    /// collected, but only when it is finished, unreachable, and has its
    /// full (final) in-edge set applied — i.e. provably never part of a
    /// future cycle — so dropping an edge out of it loses nothing.
    fn referenced(&self) -> [TxId; 2] {
        match *self {
            GraphOp::Insert { id, prev, .. } => [id, prev],
            GraphOp::Finish { id, .. } => [id, TxId::NONE],
            GraphOp::Cross { src, dst, .. } => [src, dst],
            GraphOp::Upgrade {
                cur, last_rd_ex, ..
            } => [cur, last_rd_ex],
            GraphOp::Fence { cur, .. } => [cur, TxId::NONE],
        }
    }
}

/// One thread's batch of ticketed operations.
pub(crate) type OpBatch = Vec<(u64, GraphOp)>;

/// Transport protocol between application threads and the graph owner.
enum Msg {
    /// A batch of ticketed operations from one thread's buffer.
    Ops(OpBatch),
    /// Drain marker carrying the final ticket; sent by
    /// [`PipelineHandle::shutdown`] after all application threads
    /// joined, so every lower ticket is already in flight.
    Shutdown(u64),
}

/// Shared free list of batch buffers. The owner clears applied batches and
/// returns them here; application threads refill their pending buffer from
/// it, so in steady state no batch is ever allocated or freed.
struct BatchPool {
    bufs: Mutex<Vec<OpBatch>>,
    obs: Option<Arc<PipelineObs>>,
}

impl BatchPool {
    fn new(obs: Option<Arc<PipelineObs>>) -> Self {
        BatchPool {
            bufs: Mutex::new(Vec::with_capacity(POOL_RETAIN)),
            obs,
        }
    }

    /// Pops a pooled buffer, or allocates a fresh one (warm-up only).
    fn take(&self) -> OpBatch {
        let mut bufs = self.bufs.lock();
        let buf = bufs.pop();
        if let Some(obs) = &self.obs {
            obs.graph.pooled_buffers.set(bufs.len() as i64);
        }
        drop(bufs);
        buf.unwrap_or_else(|| Vec::with_capacity(BATCH_CAPACITY))
    }

    /// Clears and returns a buffer to the pool (dropping it when the pool
    /// is already at its retention cap).
    fn put(&self, mut buf: OpBatch) {
        buf.clear();
        let mut bufs = self.bufs.lock();
        if bufs.len() < POOL_RETAIN {
            bufs.push(buf);
            if let Some(obs) = &self.obs {
                obs.graph.pooled_buffers.set(bufs.len() as i64);
            }
        }
    }
}

/// What the owner thread returns at join: the drained graph plus the first
/// structural error it hit.
pub(crate) type OwnerExit = (Graph, Option<PipelineError>);

/// Application-side handle: the op transport, the batch pool, the ticket
/// counter, and the owner thread's join handle.
pub(crate) struct PipelineHandle {
    ring: Arc<OpRing<Msg>>,
    pool: Arc<BatchPool>,
    next_ticket: AtomicU64,
    owner: Mutex<Option<JoinHandle<OwnerExit>>>,
    obs: Option<Arc<PipelineObs>>,
}

impl std::fmt::Debug for PipelineHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineHandle").finish_non_exhaustive()
    }
}

impl PipelineHandle {
    /// Moves `graph` onto a freshly spawned graph-owner thread.
    pub(crate) fn spawn(
        graph: Graph,
        regs: Arc<Registers>,
        stats: Arc<IcdStats>,
        config: IcdConfig,
        sink: Option<SccSink>,
        obs: Option<Arc<PipelineObs>>,
    ) -> Self {
        Self::spawn_inner(graph, regs, stats, config, sink, obs, None)
    }

    /// Test hook: like [`PipelineHandle::spawn`] with an explicit ring park
    /// timeout, so shutdown-latency tests can make a missed wakeup cost
    /// seconds instead of the production 1 ms.
    #[cfg(test)]
    pub(crate) fn spawn_with_park_timeout(
        graph: Graph,
        regs: Arc<Registers>,
        stats: Arc<IcdStats>,
        config: IcdConfig,
        sink: Option<SccSink>,
        obs: Option<Arc<PipelineObs>>,
        park_timeout: std::time::Duration,
    ) -> Self {
        Self::spawn_inner(graph, regs, stats, config, sink, obs, Some(park_timeout))
    }

    fn spawn_inner(
        graph: Graph,
        regs: Arc<Registers>,
        stats: Arc<IcdStats>,
        config: IcdConfig,
        sink: Option<SccSink>,
        obs: Option<Arc<PipelineObs>>,
        park_timeout: Option<std::time::Duration>,
    ) -> Self {
        let ring = Arc::new(match park_timeout {
            Some(t) => OpRing::with_park_timeout(RING_CAPACITY, t),
            None => OpRing::with_capacity(RING_CAPACITY),
        });
        let pool = Arc::new(BatchPool::new(obs.clone()));
        let owner_ring = Arc::clone(&ring);
        let owner_pool = Arc::clone(&pool);
        let owner_obs = obs.clone();
        let owner = std::thread::Builder::new()
            .name("dc-graph-owner".into())
            .spawn(move || {
                owner_loop(
                    owner_ring, owner_pool, graph, regs, stats, config, sink, owner_obs,
                )
            })
            .expect("spawn graph-owner thread");
        PipelineHandle {
            ring,
            pool,
            next_ticket: AtomicU64::new(0),
            owner: Mutex::new(Some(owner)),
            obs,
        }
    }

    /// Draws the next linearization ticket.
    pub(crate) fn ticket(&self) -> u64 {
        self.next_ticket.fetch_add(1, Ordering::Relaxed)
    }

    /// A pooled (or warm-up-allocated) empty batch buffer.
    pub(crate) fn take_batch(&self) -> OpBatch {
        self.pool.take()
    }

    /// Sends one thread's buffered batch, leaving a pooled empty buffer
    /// (with its capacity) in `pending`.
    pub(crate) fn send_batch(&self, pending: &mut OpBatch) {
        let fresh = self.pool.take();
        let batch = std::mem::replace(pending, fresh);
        self.dispatch(batch, false);
    }

    /// Sends a batch built outside a thread-local buffer (Octet-coalesced
    /// edge ops); returns empty buffers to the pool instead.
    pub(crate) fn send_taken(&self, batch: OpBatch) {
        if batch.is_empty() {
            self.pool.put(batch);
        } else {
            self.dispatch(batch, false);
        }
    }

    /// Ticket-and-send for rare operations created outside a thread-local
    /// buffer (edge procedures may run on either coordination participant).
    pub(crate) fn send_one(&self, op: GraphOp) {
        let ticket = self.ticket();
        let mut batch = self.pool.take();
        batch.push((ticket, op));
        self.dispatch(batch, true);
    }

    /// Observability accounting plus the transport send. `single` batches
    /// (one rare op) get their own counter so `graph.batches` keeps
    /// measuring hook-flush batching.
    fn dispatch(&self, batch: OpBatch, single: bool) {
        debug_assert!(!batch.is_empty());
        if let Some(obs) = &self.obs {
            let n = batch.len() as u64;
            obs.graph.ops_enqueued.add(n);
            if single {
                obs.graph.singles.inc();
            } else {
                obs.graph.batches.inc();
            }
            obs.graph.queue_depth.add(n as i64);
            obs.trace(Stage::Graph, EventKind::BatchSent, n);
        }
        let t0 = self.obs.as_ref().and_then(|o| o.clock());
        let waited = self.ring.send(Msg::Ops(batch));
        if let Some(obs) = &self.obs {
            obs.graph.enqueue_latency.record_elapsed(t0);
            if waited {
                obs.graph.ring_full_waits.inc();
            }
        }
    }

    /// Drains the pipeline and hands the graph back with the first
    /// structural error the owner hit (if any). Must be called after all
    /// application threads have flushed (joined); `None` on repeated calls.
    pub(crate) fn shutdown(&self) -> Option<OwnerExit> {
        let handle = self.owner.lock().take()?;
        let ticket = self.ticket();
        self.ring.send(Msg::Shutdown(ticket));
        // The ring's `send` only notifies when it observes the consumer's
        // `sleeping` flag, so an idle owner may be parked past it; without
        // this unconditional wake, drain latency is clamped to the ring
        // park timeout.
        self.ring.wake();
        Some(handle.join().expect("graph-owner thread panicked"))
    }
}

impl Drop for PipelineHandle {
    /// Backstop for handles dropped without [`PipelineHandle::shutdown`]:
    /// the ring has no disconnect signal, so the owner thread must be told
    /// to stop or it would block forever.
    fn drop(&mut self) {
        if let Some(handle) = self.owner.get_mut().take() {
            let ticket = self.ticket();
            self.ring.send(Msg::Shutdown(ticket));
            self.ring.wake();
            let _ = handle.join();
        }
    }
}

/// Ticket-indexed circular scoreboard holding out-of-order arrivals. The
/// occupied window is always `[next, next + capacity)`, so slot `ticket %
/// capacity` is unambiguous; the board doubles (rare, warm-up only) when an
/// arrival lands beyond the window. Replaces the former `BTreeMap`, whose
/// per-insert node allocation was the owner loop's last steady-state
/// allocation.
struct Reorder {
    slots: Vec<Option<GraphOp>>,
    /// Next ticket to apply (everything below is applied).
    next: u64,
    occupied: usize,
}

impl Reorder {
    fn with_capacity(capacity: usize) -> Self {
        assert!(capacity.is_power_of_two());
        Reorder {
            slots: (0..capacity).map(|_| None).collect(),
            next: 0,
            occupied: 0,
        }
    }

    fn next_ticket(&self) -> u64 {
        self.next
    }

    fn len(&self) -> usize {
        self.occupied
    }

    /// Files an out-of-order arrival. A ticket below the applied frontier
    /// or one already occupied is a corrupted stream: formerly
    /// `debug_assert!`s, which in release silently leaked the old op and
    /// desynced `occupied` — now checked errors the owner surfaces.
    fn insert(&mut self, ticket: u64, op: GraphOp) -> Result<(), PipelineError> {
        if ticket < self.next {
            return Err(PipelineError::StaleTicket {
                ticket,
                next: self.next,
            });
        }
        while ticket - self.next >= self.slots.len() as u64 {
            self.grow();
        }
        let mask = self.slots.len() as u64 - 1;
        let slot = &mut self.slots[(ticket & mask) as usize];
        if slot.is_some() {
            return Err(PipelineError::DuplicateTicket { ticket });
        }
        *slot = Some(op);
        self.occupied += 1;
        Ok(())
    }

    /// Takes the op at the contiguous frontier, if it has arrived.
    fn pop_next(&mut self) -> Option<GraphOp> {
        let mask = self.slots.len() as u64 - 1;
        let op = self.slots[(self.next & mask) as usize].take()?;
        self.next += 1;
        self.occupied -= 1;
        Some(op)
    }

    /// Buffered (received, unapplied) ops, for collector rooting.
    fn iter(&self) -> impl Iterator<Item = &GraphOp> {
        self.slots.iter().filter_map(|s| s.as_ref())
    }

    fn grow(&mut self) {
        let old_cap = self.slots.len() as u64;
        let mut bigger: Vec<Option<GraphOp>> = (0..old_cap * 2).map(|_| None).collect();
        // An old index maps to the unique ticket in `[next, next + old_cap)`
        // congruent to it mod the old capacity.
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if let Some(op) = slot.take() {
                let offset = (i as u64).wrapping_sub(self.next) & (old_cap - 1);
                let ticket = self.next + offset;
                bigger[(ticket & (old_cap * 2 - 1)) as usize] = Some(op);
            }
        }
        self.slots = bigger;
    }
}

/// The graph-owner loop: reorder by ticket, apply contiguously, return the
/// graph (and the first structural error, if any) at shutdown.
///
/// On error the loop stops mutating the graph and switches to
/// drain-and-discard: messages keep being received (and batch buffers
/// recycled) so producers never block on a full ring, but no further op is
/// applied; the loop exits at the shutdown marker as usual.
#[allow(clippy::too_many_arguments)]
fn owner_loop(
    ring: Arc<OpRing<Msg>>,
    pool: Arc<BatchPool>,
    mut graph: Graph,
    regs: Arc<Registers>,
    stats: Arc<IcdStats>,
    config: IcdConfig,
    sink: Option<SccSink>,
    obs: Option<Arc<PipelineObs>>,
) -> OwnerExit {
    let mut reorder = Reorder::with_capacity(REORDER_CAPACITY);
    let mut shutdown_at: Option<u64> = None;
    let mut error: Option<PipelineError> = None;
    let mut collector = Collector::new(config.collect_every);
    'recv: loop {
        match ring.recv() {
            Msg::Ops(mut batch) => {
                for (ticket, op) in batch.drain(..) {
                    if error.is_none() {
                        if let Err(e) = reorder.insert(ticket, op) {
                            error = Some(e);
                        }
                    }
                }
                pool.put(batch);
            }
            Msg::Shutdown(ticket) => shutdown_at = Some(ticket),
        }
        if error.is_some() {
            if shutdown_at.is_some() {
                break 'recv;
            }
            continue;
        }
        loop {
            if shutdown_at == Some(reorder.next_ticket()) {
                break 'recv;
            }
            let Some(op) = reorder.pop_next() else {
                break;
            };
            if matches!(op, GraphOp::Finish { .. }) {
                collector.on_finish();
            }
            let t0 = obs.as_ref().and_then(|o| o.clock());
            let applied = apply(&mut graph, &config, sink.as_ref(), obs.as_deref(), op);
            if let Some(obs) = &obs {
                obs.graph.apply_latency.record_elapsed(t0);
                obs.graph.ops_applied.inc();
                obs.graph.queue_depth.dec();
            }
            if let Err(e) = applied {
                error = Some(e);
                break;
            }
        }
        if error.is_some() && shutdown_at.is_some() {
            break 'recv;
        }
        if let Some(obs) = &obs {
            obs.graph.reorder_depth.set(reorder.len() as i64);
        }
        // Collect only between contiguous runs, when the scoreboard is
        // exactly the out-of-order tail: its referenced transactions become
        // extra roots, so nothing a buffered op still needs is reclaimed.
        if error.is_none() && collector.due() {
            collector.collect(
                &mut graph,
                &regs,
                reorder.iter().flat_map(GraphOp::referenced),
                &stats,
                obs.as_deref(),
            );
        }
    }
    if shutdown_at.is_some() && error.is_none() {
        debug_assert!(
            reorder.len() == 0,
            "ops left unapplied at shutdown (missing flush?)"
        );
    }
    (graph, error)
}

/// Applies one operation, mirroring the synchronous under-lock code paths.
/// `Err` means the op stream itself was malformed; the graph is left as it
/// was before the offending op.
fn apply(
    graph: &mut Graph,
    config: &IcdConfig,
    sink: Option<&SccSink>,
    obs: Option<&PipelineObs>,
    op: GraphOp,
) -> Result<(), PipelineError> {
    match op {
        GraphOp::Insert {
            id,
            thread,
            kind,
            seq,
            prev,
        } => graph.insert_after(id, thread, kind, seq, prev),
        GraphOp::Finish { id, log } => {
            let report = graph.finish_and_probe(id, log, config.detect_sccs, obs)?;
            if let (Some(report), Some(sink)) = (report, sink) {
                sink(report);
            }
        }
        GraphOp::Cross {
            src,
            src_pos,
            dst,
            dst_pos,
        } => {
            graph.add_edge(Edge {
                src,
                src_pos,
                dst,
                dst_pos,
                kind: EdgeKind::Cross,
            });
        }
        GraphOp::Upgrade {
            cur,
            dst_pos,
            last_rd_ex,
            snap,
        } => {
            if last_rd_ex.is_some() && last_rd_ex != cur {
                if let Some(src_pos) = resolve_src_pos(graph, &snap, last_rd_ex) {
                    graph.add_edge(Edge {
                        src: last_rd_ex,
                        src_pos,
                        dst: cur,
                        dst_pos,
                        kind: EdgeKind::Cross,
                    });
                }
            }
            let g = graph.g_last_rd_sh;
            if g.is_some() && g != cur {
                if let Some(src_pos) = resolve_src_pos(graph, &snap, g) {
                    graph.add_edge(Edge {
                        src: g,
                        src_pos,
                        dst: cur,
                        dst_pos,
                        kind: EdgeKind::Cross,
                    });
                }
            }
            graph.g_last_rd_sh = cur;
        }
        GraphOp::Fence { cur, dst_pos, snap } => {
            let g = graph.g_last_rd_sh;
            if g.is_some() && g != cur {
                if let Some(src_pos) = resolve_src_pos(graph, &snap, g) {
                    graph.add_edge(Edge {
                        src: g,
                        src_pos,
                        dst: cur,
                        dst_pos,
                        kind: EdgeKind::Cross,
                    });
                }
            }
        }
    }
    Ok(())
}

/// Source log position for an edge out of `tx`: the creation-time published
/// length if `tx` was still its thread's current transaction, else the final
/// length its (already applied) `Finish` recorded. `None` if the node was
/// collected — the edge would be dropped anyway.
fn resolve_src_pos(graph: &Graph, snap: &PosSnapshot, tx: TxId) -> Option<u32> {
    let node = graph.node(tx)?;
    // `pos_snapshot` walks the full register file, so every live node's
    // thread is covered; a short snapshot would silently compare `current`
    // against 0 and use a stale `final_len` for a still-live source.
    debug_assert!(
        node.thread.index() < snap.len(),
        "pos snapshot shorter than thread index {}",
        node.thread.index()
    );
    let Some(&(current, len)) = snap.get(node.thread.index()) else {
        return Some(node.final_len);
    };
    Some(if current == tx.0 { len } else { node.final_len })
}

#[cfg(test)]
mod tests {
    use super::*;
    fn test_regs(n: usize) -> Arc<Registers> {
        Arc::new(Registers {
            threads: (0..n).map(|_| Arc::default()).collect(),
        })
    }

    fn op() -> GraphOp {
        GraphOp::Cross {
            src: TxId(1),
            src_pos: 0,
            dst: TxId(2),
            dst_pos: 0,
        }
    }

    #[test]
    fn reorder_applies_contiguously_across_gaps() {
        let mut r = Reorder::with_capacity(4);
        r.insert(1, op()).unwrap();
        assert!(r.pop_next().is_none(), "ticket 0 missing");
        r.insert(0, op()).unwrap();
        assert!(r.pop_next().is_some());
        assert!(r.pop_next().is_some());
        assert_eq!(r.next_ticket(), 2);
        assert_eq!(r.len(), 0);
    }

    #[test]
    fn reorder_grows_past_its_initial_window() {
        let mut r = Reorder::with_capacity(4);
        // Tickets spanning 4x the initial window, inserted far-first.
        for t in (0..16u64).rev() {
            r.insert(t, op()).unwrap();
        }
        assert_eq!(r.len(), 16);
        for t in 0..16u64 {
            assert!(r.pop_next().is_some(), "ticket {t} lost in growth");
        }
        assert_eq!(r.next_ticket(), 16);
    }

    #[test]
    fn reorder_grow_preserves_slots_mid_stream() {
        let mut r = Reorder::with_capacity(4);
        for t in 0..3u64 {
            r.insert(t, op()).unwrap();
        }
        assert!(r.pop_next().is_some()); // next = 1, occupied window shifted
        r.insert(9, op()).unwrap(); // forces growth with live entries at 1, 2
        assert_eq!(r.len(), 3);
        assert!(r.pop_next().is_some());
        assert!(r.pop_next().is_some());
        assert!(r.pop_next().is_none(), "tickets 3..9 missing");
        for t in 3..9u64 {
            r.insert(t, op()).unwrap();
        }
        for _ in 3..10u64 {
            assert!(r.pop_next().is_some());
        }
        assert_eq!(r.len(), 0);
    }

    #[test]
    fn reorder_rejects_stale_and_duplicate_tickets() {
        let mut r = Reorder::with_capacity(4);
        r.insert(0, op()).unwrap();
        assert!(r.pop_next().is_some());
        // A ticket at/below the frontier: formerly a release-mode silent
        // occupancy desync, now a checked error leaving the board intact.
        assert_eq!(
            r.insert(0, op()),
            Err(PipelineError::StaleTicket { ticket: 0, next: 1 })
        );
        r.insert(2, op()).unwrap();
        assert_eq!(
            r.insert(2, op()),
            Err(PipelineError::DuplicateTicket { ticket: 2 })
        );
        assert_eq!(r.len(), 1, "rejected inserts must not leak occupancy");
        assert!(r.pop_next().is_none(), "ticket 1 still missing");
    }

    #[test]
    fn shutdown_is_wake_driven_not_park_timeout_bound() {
        // A park timeout far beyond the test's latency budget: if shutdown
        // still relied on the owner's periodic timeout poll (the old
        // behaviour), the join below would take ~30 s and trip the assert.
        let h = PipelineHandle::spawn_with_park_timeout(
            Graph::default(),
            test_regs(1),
            Arc::new(IcdStats::default()),
            IcdConfig::default(),
            None,
            None,
            std::time::Duration::from_secs(30),
        );
        // Let the owner drain the (empty) ring and park.
        std::thread::sleep(std::time::Duration::from_millis(100));
        let t0 = std::time::Instant::now();
        let (_, error) = h.shutdown().expect("first shutdown");
        assert!(error.is_none());
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(5),
            "drain latency was park-timeout bound: {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn malformed_finish_is_a_structured_error_not_a_panic() {
        let h = PipelineHandle::spawn(
            Graph::default(),
            test_regs(1),
            Arc::new(IcdStats::default()),
            IcdConfig::default(),
            None,
            None,
        );
        // Finish for a transaction that was never inserted: the owner used
        // to panic (poisoning the join), now it drains and reports.
        h.send_one(GraphOp::Finish {
            id: TxId(42),
            log: None,
        });
        let (_, error) = h.shutdown().expect("first shutdown");
        assert_eq!(
            error,
            Some(PipelineError::MalformedFinish {
                id: TxId(42),
                already_finished: false,
            })
        );
    }
}
