//! The Octet protocol engine: barriers, coordination, counters.
//!
//! [`Protocol::access`] is the barrier body the paper's compiler inlines
//! before every program access. Its fast path is a single load-and-compare
//! of the object's packed state word — no store, no fence, no
//! synchronization — which is where Octet's (and therefore DoubleChecker's)
//! performance advantage over Velodrome comes from. On top of that, an
//! optional per-thread ownership inline cache (`cache.rs`) elides even
//! the state-word load for objects the thread is known to still own: a
//! cache hit touches only core-local memory (see `cache.rs` for the
//! safe-point-invariant soundness argument).
//!
//! Conflicting transitions run the coordination protocol of §3.2.1:
//! the requester first CASes the object into an *intermediate* state (one
//! in-flight change per object), then coordinates with each responding
//! thread either *explicitly* (a request word the responder claims and
//! answers at its next safe point, running the hook in between — see
//! [`crate::registry`]) or *implicitly* (hold placed on a blocked
//! responder; the requester runs the hook itself). Either way the hook has
//! returned before the requester proceeds. While spin-waiting for a
//! response the requester marks itself blocked, so coordination can never
//! deadlock.

use crate::registry::{Tally, ThreadRegistry, ThreadSlot, BLOCKED, BLOCKED_HELD, RUNNING};
use crate::state::{classify, OctetState, Responders, TransitionKind};
use crate::word::{decode, encode, encode_intermediate, rd_sh_counter, DecodedState, StateTable};
use dc_obs::{EventKind, PipelineObs, Stage};
use dc_runtime::ids::{AccessKind, ObjId, ThreadId};
use std::sync::atomic::{fence, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Receiver of coordination-time events.
///
/// The hook runs exactly when the happens-before relationship with the
/// responding thread is established: on the responder at its safe point
/// while the requester is still waiting for the answer (explicit protocol)
/// or on the requester while holding the blocked responder (implicit
/// protocol). Both threads are therefore stopped at a known point for the
/// whole hook. ICD's `handleConflictingTransition` (Figure 4) is the
/// intended implementation.
pub trait TransitionSink: Sync {
    /// A conflicting transition requested by `req` has been coordinated with
    /// responder `resp`. Called once per responding thread.
    fn conflicting(&self, resp: ThreadId, req: ThreadId);
}

/// A sink that ignores all events (plain Octet with no client analysis).
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl TransitionSink for NullSink {
    fn conflicting(&self, _resp: ThreadId, _req: ThreadId) {}
}

/// How conflicting transitions coordinate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoordinationMode {
    /// Real explicit/implicit protocol across OS threads.
    Threaded,
    /// Immediate resolution: every other thread is by construction at a
    /// safe point (the deterministic engine runs one action at a time), so
    /// the hook runs synchronously on the requester.
    Immediate,
}

/// Result of one barrier invocation (Table 1 row taken).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BarrierOutcome {
    /// Fast path; no state change.
    Same,
    /// First access claimed a free object.
    FirstTouch,
    /// `RdEx T → WrEx T` by the owner.
    UpgradedToWrEx,
    /// `RdEx prev → RdSh counter`.
    UpgradedToRdSh {
        /// Previous read-exclusive owner.
        prev_owner: ThreadId,
        /// Fresh global counter value stamped on the object.
        counter: u32,
    },
    /// Fence transition on a read-shared object.
    Fence {
        /// The object's read-shared counter.
        counter: u32,
    },
    /// Conflicting transition, coordinated with `responders` threads.
    Conflicting {
        /// State after the transition.
        new: OctetState,
        /// Number of threads coordinated with.
        responders: u32,
    },
}

/// Per-run statistics about transitions taken. The uncached same-state
/// fast path is deliberately not counted: it must perform no shared
/// writes. Transitions and inline-cache hits and flushes are counted
/// thread-locally — each thread's tallies fold into the shared totals once,
/// at [`Protocol::thread_end`], so read them after the threads ended.
#[derive(Debug, Default)]
pub struct ProtocolStats {
    /// First-touch claims (folded at thread end).
    pub first_touch: AtomicU64,
    /// Upgrading transitions, both kinds (folded at thread end).
    pub upgrades: AtomicU64,
    /// Fence transitions (folded at thread end).
    pub fences: AtomicU64,
    /// Conflicting transitions (folded at thread end).
    pub conflicts: AtomicU64,
    /// Ownership-inline-cache hits (folded at thread end).
    pub cache_hits: AtomicU64,
    /// Ownership-inline-cache flushes of a non-empty cache (folded at
    /// thread end).
    pub cache_flushes: AtomicU64,
    /// Extra conflicting requests folded into a coalesced safe-point drain
    /// (`drained - 1` per multi-request drain).
    pub coalesced: AtomicU64,
}

/// One thread's per-thread protocol state, resolved once
/// ([`Protocol::thread_handle`]) so a client's fused per-access kernel
/// reaches its ownership table and pending-request flag without indexing
/// by `ThreadId`. Valid as long as it is held (the slot is `Arc`-shared
/// with the protocol). Like every `ThreadId`-taking hook, a handle's
/// methods must only be called by the thread it was resolved for.
pub struct ThreadHandle {
    slot: Arc<ThreadSlot>,
    /// Whether the ownership cache is on; off, a probe misses before it
    /// touches the table.
    cache: bool,
}

impl ThreadHandle {
    /// [`Protocol::cache_probe`] for this thread.
    #[inline(always)]
    pub fn cache_probe(&self, obj: ObjId, kind: AccessKind) -> bool {
        self.cache && self.slot.probe(obj, kind.is_write())
    }

    /// Whether explicit-protocol requests are pending: the test
    /// [`Protocol::safe_point`] makes before responding.
    #[inline(always)]
    pub fn has_requests(&self) -> bool {
        self.slot.has_requests()
    }
}

impl std::fmt::Debug for ThreadHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadHandle")
            .field("cache", &self.cache)
            .finish_non_exhaustive()
    }
}

/// The Octet protocol for one run.
pub struct Protocol<S> {
    states: StateTable,
    threads: ThreadRegistry,
    /// `gRdShCnt`: incremented on every transition to read-shared.
    g_rd_sh_cnt: AtomicU32,
    mode: CoordinationMode,
    sink: S,
    stats: ProtocolStats,
    /// Trace registry (`--obs full` only); `None` keeps every barrier
    /// untouched.
    obs: Option<Arc<PipelineObs>>,
    /// Whether the ownership inline cache is on; off (`--barrier-cache
    /// off`) restores the exact uncached barrier.
    cache: bool,
}

impl<S: TransitionSink> Protocol<S> {
    /// Creates a protocol instance for `n_objects` objects and `n_threads`
    /// threads, delivering coordination events to `sink`.
    pub fn new(n_objects: usize, n_threads: usize, mode: CoordinationMode, sink: S) -> Self {
        Self::with_config(n_objects, n_threads, mode, sink, None, true)
    }

    /// Full constructor: [`Protocol::new`] plus a trace registry (slow-path
    /// state transitions land in its trace ring; the same-state fast path
    /// is never instrumented) and the `barrier_cache` switch. `false` omits
    /// the ownership inline cache entirely, making every barrier take the
    /// exact uncached path (the differential baseline for
    /// `--barrier-cache off`).
    pub fn with_config(
        n_objects: usize,
        n_threads: usize,
        mode: CoordinationMode,
        sink: S,
        obs: Option<Arc<PipelineObs>>,
        barrier_cache: bool,
    ) -> Self {
        Protocol {
            states: StateTable::new(n_objects),
            threads: ThreadRegistry::new(n_threads, if barrier_cache { n_objects } else { 0 }),
            g_rd_sh_cnt: AtomicU32::new(0),
            mode,
            sink,
            stats: ProtocolStats::default(),
            obs,
            cache: barrier_cache,
        }
    }

    /// Counts one transition `t` performed, on `t`'s own tallies, and
    /// traces it. The kind's number identifies it in trace output (0 first
    /// touch, 1 upgrade, 2 fence, 3 conflicting).
    #[inline]
    fn observe_transition(&self, t: ThreadId, kind: Tally) {
        self.threads.slot(t).tally(kind);
        if let Some(obs) = &self.obs {
            obs.trace(Stage::Octet, EventKind::Transition, kind as u64);
        }
    }

    /// The coordination-event sink.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Transition statistics for this run.
    pub fn stats(&self) -> &ProtocolStats {
        &self.stats
    }

    /// Decoded current state of `obj` (for tests and diagnostics; racy by
    /// nature during a threaded run).
    pub fn state_of(&self, obj: ObjId) -> DecodedState {
        decode(self.states.load(obj.index()))
    }

    /// Current value of the global read-shared counter.
    pub fn g_rd_sh_cnt(&self) -> u32 {
        self.g_rd_sh_cnt.load(Ordering::Acquire)
    }

    /// `t.rdShCnt`.
    pub fn rd_sh_cnt(&self, t: ThreadId) -> u32 {
        self.threads.rd_sh_cnt(t)
    }

    /// Resolves `t`'s per-thread state into a handle.
    pub fn thread_handle(&self, t: ThreadId) -> ThreadHandle {
        ThreadHandle {
            slot: Arc::clone(self.threads.slot(t)),
            cache: self.cache,
        }
    }

    /// Marks `t` as running; must be called before `t`'s first barrier.
    pub fn thread_begin(&self, t: ThreadId) {
        self.threads.set_running(t);
    }

    /// Marks `t` as permanently blocked; pending requests are answered
    /// first, the inline cache is flushed, and `t`'s tallies fold into the
    /// shared stats.
    pub fn thread_end(&self, t: ThreadId) {
        self.respond_pending(t);
        self.threads.set_blocked(t);
        self.cache_flush(t);
        let s = &self.stats;
        // In `Tally` order.
        let totals = [
            &s.first_touch,
            &s.upgrades,
            &s.fences,
            &s.conflicts,
            &s.cache_hits,
            &s.cache_flushes,
        ];
        for (total, tally) in totals.into_iter().zip(self.threads.slot(t).take_tallies()) {
            total.fetch_add(tally, Ordering::Relaxed);
        }
    }

    /// Safe-point hook: answer pending explicit-protocol requests.
    #[inline]
    pub fn safe_point(&self, t: ThreadId) {
        if self.threads.has_requests(t) {
            self.respond_pending(t);
        }
    }

    /// `t` is about to block: answer pending requests, then flip to blocked
    /// so requesters use the implicit protocol. The inline cache is flushed
    /// because implicit transitions revoke ownership while `t` sleeps.
    pub fn before_block(&self, t: ThreadId) {
        self.respond_pending(t);
        self.cache_flush(t);
        self.threads.set_blocked(t);
    }

    /// `t` resumed: wait out any hold, flip to running, answer anything
    /// that was posted meanwhile. The inline-cache flush here is
    /// belt-and-braces with the one in [`Protocol::before_block`] (the
    /// cache is empty while blocked, so this is a free no-op unless a
    /// protocol client skipped `before_block`).
    pub fn after_unblock(&self, t: ThreadId) {
        self.threads.set_running(t);
        self.cache_flush(t);
        self.respond_pending(t);
    }

    fn respond_pending(&self, t: ThreadId) {
        // Claim every pending request first, then notify the sink for each
        // in requester-index order.
        let requesters = self.threads.claim_requests(t);
        let responded = !requesters.is_empty();
        if responded {
            // We are granting ownership away; anything cached is suspect.
            // The flush happens on our own thread before our next probe,
            // so no stale hit can slip in between.
            self.cache_flush(t);
            if requesters.len() > 1 {
                self.stats
                    .coalesced
                    .fetch_add(requesters.len() as u64 - 1, Ordering::Relaxed);
            }
            // The claimed requesters are still spinning: the hook reads
            // their state (ICD: current transaction and log length) exactly
            // as it was when they asked.
            for &req in &requesters {
                self.sink.conflicting(t, req);
            }
        }
        self.threads.respond_requests(t, requesters);
        if responded {
            // Hand the core back so the (yielded) requester can finish its
            // transition promptly; otherwise its in-flight transaction
            // stays current for our whole timeslice, accruing imprecise
            // edges (catastrophic on few-core hosts).
            std::thread::yield_now();
        }
    }

    /// Read barrier for `(t, obj)`.
    #[inline]
    pub fn read_barrier(&self, t: ThreadId, obj: ObjId) -> BarrierOutcome {
        self.access(t, obj, AccessKind::Read)
    }

    /// Write barrier for `(t, obj)`.
    #[inline]
    pub fn write_barrier(&self, t: ThreadId, obj: ObjId) -> BarrierOutcome {
        self.access(t, obj, AccessKind::Write)
    }

    /// The barrier body: classifies the access against the object's state
    /// and performs whatever transition Table 1 prescribes. With the
    /// inline cache enabled, a probe hit proves the access is a same-state
    /// fast path without touching the (possibly contended) state word.
    #[inline]
    pub fn access(&self, t: ThreadId, obj: ObjId, kind: AccessKind) -> BarrierOutcome {
        if self.cache_probe(t, obj, kind) {
            return BarrierOutcome::Same;
        }
        self.access_uncached(t, obj, kind)
    }

    /// Fused-kernel probe: `true` when the inline cache proves the access
    /// is a same-state fast path (no state-word load needed). Clients that
    /// fuse the probe into their own fast path call this, then
    /// [`Protocol::access_uncached`] on a miss. Always `false` with the
    /// cache disabled.
    #[inline]
    pub fn cache_probe(&self, t: ThreadId, obj: ObjId, kind: AccessKind) -> bool {
        self.cache && self.threads.slot(t).probe(obj, kind.is_write())
    }

    /// Stamps `obj` in `t`'s ownership table once the barrier proved a
    /// stable permission (`write_ok` iff `t` holds it `WrEx`). Runs on `t`;
    /// a core-local store, no shared write.
    #[inline]
    fn cache_insert(&self, t: ThreadId, obj: ObjId, write_ok: bool) {
        if self.cache {
            self.threads.slot(t).insert(obj, write_ok);
        }
    }

    /// Flushes `t`'s ownership table. Runs on `t`.
    fn cache_flush(&self, t: ThreadId) {
        if self.cache {
            self.threads.slot(t).flush();
        }
    }

    /// Revokes `t`'s ownership table from another thread: its next probe
    /// flushes.
    fn cache_revoke(&self, t: ThreadId) {
        if self.cache {
            self.threads.slot(t).revoke();
        }
    }

    /// The barrier body without the leading inline-cache probe. Clients
    /// that already probed (and missed) on their own fused fast path call
    /// this directly to avoid probing twice. The inlined head is the
    /// paper's fast path — one load and compare of the state word; a miss
    /// that is same-state (a first probe after a flush) warms the cache.
    /// Everything else is an out-of-line transition.
    #[inline]
    pub fn access_uncached(&self, t: ThreadId, obj: ObjId, kind: AccessKind) -> BarrierOutcome {
        let word = self.states.load(obj.index());
        if let Some(write_ok) = self.same_state(word, t, kind) {
            // The uncached fast path performs no shared writes (the
            // paper's key performance property) — not even a statistics
            // update. Warming the inline cache is a core-local store only.
            self.cache_insert(t, obj, write_ok);
            return BarrierOutcome::Same;
        }
        self.transition(t, obj, kind)
    }

    /// Table 1's same-state rows tested on the raw state word, without
    /// decoding it: `Some(write_ok)` when `t`'s access of `kind` needs no
    /// transition (`write_ok` iff the word is `WrEx_t`). Must agree with
    /// [`classify`]` == Same`, the tested reference.
    #[inline]
    fn same_state(&self, word: u64, t: ThreadId, kind: AccessKind) -> Option<bool> {
        if word == encode(OctetState::WrEx(t)) {
            return Some(true);
        }
        let same = kind == AccessKind::Read
            && (word == encode(OctetState::RdEx(t))
                || rd_sh_counter(word).is_some_and(|c| c <= self.threads.rd_sh_cnt(t)));
        same.then_some(false)
    }

    /// Every barrier outcome the same-state head did not settle: classify
    /// against the decoded state and perform the transition Table 1
    /// prescribes, retrying when another thread's transition interferes.
    #[cold]
    fn transition(&self, t: ThreadId, obj: ObjId, kind: AccessKind) -> BarrierOutcome {
        let i = obj.index();
        loop {
            let word = self.states.load(i);
            let state = match decode(word) {
                DecodedState::Intermediate(_) => {
                    // Another thread's transition is in flight. We are at a
                    // safe point (before our access), so keep responding to
                    // requests while we wait; otherwise the in-flight
                    // requester could be waiting on *us*. Yield the core:
                    // progress requires the other thread to run.
                    self.safe_point(t);
                    std::thread::yield_now();
                    continue;
                }
                DecodedState::Stable(s) => s,
            };
            match classify(state, kind, t, self.threads.rd_sh_cnt(t)) {
                TransitionKind::Same => {
                    // Reached only when the word changed under us (on a
                    // retry, or between the head's load and ours): same
                    // contract as the inlined head — no shared writes.
                    self.cache_insert(t, obj, matches!(state, OctetState::WrEx(_)));
                    return BarrierOutcome::Same;
                }
                TransitionKind::FirstTouch { new } => {
                    if self.states.compare_exchange(i, word, encode(new)).is_ok() {
                        self.observe_transition(t, Tally::FirstTouch);
                        self.cache_insert(t, obj, matches!(new, OctetState::WrEx(_)));
                        return BarrierOutcome::FirstTouch;
                    }
                }
                TransitionKind::UpgradeToWrEx => {
                    if self
                        .states
                        .compare_exchange(i, word, encode(OctetState::WrEx(t)))
                        .is_ok()
                    {
                        self.observe_transition(t, Tally::Upgrade);
                        self.cache_insert(t, obj, true);
                        return BarrierOutcome::UpgradedToWrEx;
                    }
                }
                TransitionKind::UpgradeToRdSh { prev_owner } => {
                    // This demotes the previous read-exclusive owner *in
                    // place* — the one ownership loss that involves no
                    // safe-point response and no block — so bump its
                    // revocation epoch before the CAS can publish the new
                    // state (a spurious bump on CAS failure just costs the
                    // loser one extra flush).
                    self.cache_revoke(prev_owner);
                    // Stamp a fresh counter; if the CAS loses, the counter
                    // value is simply skipped (harmless: counters only need
                    // to be unique and increasing).
                    let counter = self.g_rd_sh_cnt.fetch_add(1, Ordering::AcqRel) + 1;
                    if self
                        .states
                        .compare_exchange(i, word, encode(OctetState::RdSh(counter)))
                        .is_ok()
                    {
                        self.threads.raise_rd_sh_cnt(t, counter);
                        self.observe_transition(t, Tally::Upgrade);
                        self.cache_insert(t, obj, false);
                        return BarrierOutcome::UpgradedToRdSh {
                            prev_owner,
                            counter,
                        };
                    }
                }
                TransitionKind::Fence { counter } => {
                    fence(Ordering::SeqCst);
                    self.threads.raise_rd_sh_cnt(t, counter);
                    self.observe_transition(t, Tally::Fence);
                    self.cache_insert(t, obj, false);
                    return BarrierOutcome::Fence { counter };
                }
                TransitionKind::Conflicting { new, responders } => {
                    if self
                        .states
                        .compare_exchange(i, word, encode_intermediate(t))
                        .is_err()
                    {
                        continue;
                    }
                    let n = self.coordinate(t, responders);
                    if let OctetState::RdEx(_) = new {
                        // A reader that takes exclusive ownership has seen
                        // everything up to the current global counter.
                        let c = self.g_rd_sh_cnt.load(Ordering::Acquire);
                        self.threads.raise_rd_sh_cnt(t, c);
                    }
                    self.states.store(i, encode(new));
                    self.observe_transition(t, Tally::Conflict);
                    self.cache_insert(t, obj, matches!(new, OctetState::WrEx(_)));
                    return BarrierOutcome::Conflicting { new, responders: n };
                }
            }
        }
    }

    /// Coordinates a conflicting transition with every responding thread.
    fn coordinate(&self, req: ThreadId, responders: Responders) -> u32 {
        match responders {
            Responders::One(r) => {
                self.coordinate_one(req, r);
                1
            }
            Responders::AllOthers => {
                let mut n = 0;
                for i in 0..self.threads.len() {
                    let r = ThreadId::from_index(i);
                    if r != req {
                        self.coordinate_one(req, r);
                        n += 1;
                    }
                }
                n
            }
        }
    }

    fn coordinate_one(&self, req: ThreadId, resp: ThreadId) {
        // Whatever `resp` has cached for the transitioning object is about
        // to become stale; bump its revocation epoch up front. This is what
        // makes the immediate path sound (the responder never executes a
        // safe-point response there), and in threaded mode it is a cheap
        // belt-and-braces on top of the responder's own flush — one RMW on
        // an already-slow coordination path.
        self.cache_revoke(resp);
        if self.mode == CoordinationMode::Immediate {
            // Deterministic engine: every other thread is at a safe point.
            self.sink.conflicting(resp, req);
            return;
        }
        loop {
            match self.threads.status(resp) {
                RUNNING => {
                    if self.explicit_protocol(req, resp) {
                        return;
                    }
                }
                BLOCKED => {
                    if self.threads.try_hold(resp) {
                        // Implicit protocol: the hold keeps `resp` from
                        // unblocking while we run the hook on its behalf.
                        self.sink.conflicting(resp, req);
                        self.threads.release_hold(resp);
                        return;
                    }
                }
                BLOCKED_HELD => {
                    // Another requester holds `resp`; wait our turn. Keep
                    // answering our own requests meanwhile.
                    self.safe_point(req);
                    std::thread::yield_now();
                }
                other => unreachable!("corrupt status word {other}"),
            }
        }
    }

    /// Explicit protocol: request and spin for a response. Returns false if
    /// the responder blocked before taking the request (caller retries
    /// implicitly).
    fn explicit_protocol(&self, req: ThreadId, resp: ThreadId) -> bool {
        self.threads.request(resp, req);
        // While we spin-wait we are logically blocked: answer our own
        // requests first and let requesters treat us implicitly (deadlock
        // freedom).
        self.before_block(req);
        let mut spins = 0u32;
        let answered = loop {
            if self.threads.take_response(resp, req) {
                break true;
            }
            // Responder blocked: withdraw the request. Losing the withdraw
            // means the responder claimed it after all and is running the
            // hook against us right now — keep waiting for the answer.
            if self.threads.status(resp) != RUNNING && self.threads.withdraw(resp, req) {
                break false;
            }
            spins += 1;
            if spins > 64 {
                // The response needs the responder to reach a safe point;
                // on few-core machines that needs the core.
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        };
        self.after_unblock(req);
        answered
    }
}

impl<S> std::fmt::Debug for Protocol<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Protocol")
            .field("objects", &self.states.len())
            .field("threads", &self.threads.len())
            .field("mode", &self.mode)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Mutex;

    const T0: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);
    const T2: ThreadId = ThreadId(2);
    const O: ObjId = ObjId(0);

    /// Objects the cache-invalidation tests run on — the first, and one
    /// past id 64: a flush must invalidate every stamp wherever it sits.
    const OBJS: [ObjId; 2] = [O, ObjId(64 + 7)];

    fn immediate(n_threads: usize) -> Protocol<NullSink> {
        let p = Protocol::new(128, n_threads, CoordinationMode::Immediate, NullSink);
        for i in 0..n_threads {
            p.thread_begin(ThreadId::from_index(i));
        }
        p
    }

    #[test]
    fn first_write_claims_wrex_and_stays_fast() {
        let p = immediate(2);
        assert_eq!(p.write_barrier(T0, O), BarrierOutcome::FirstTouch);
        assert_eq!(p.state_of(O), DecodedState::Stable(OctetState::WrEx(T0)));
        assert_eq!(p.write_barrier(T0, O), BarrierOutcome::Same);
        assert_eq!(p.read_barrier(T0, O), BarrierOutcome::Same);
    }

    #[test]
    fn first_read_claims_rdex_then_owner_write_upgrades() {
        let p = immediate(2);
        assert_eq!(p.read_barrier(T0, O), BarrierOutcome::FirstTouch);
        assert_eq!(p.state_of(O), DecodedState::Stable(OctetState::RdEx(T0)));
        assert_eq!(p.write_barrier(T0, O), BarrierOutcome::UpgradedToWrEx);
        assert_eq!(p.state_of(O), DecodedState::Stable(OctetState::WrEx(T0)));
    }

    #[test]
    fn second_reader_upgrades_to_rdsh_with_fresh_counter() {
        let p = immediate(3);
        p.read_barrier(T0, O);
        let outcome = p.read_barrier(T1, O);
        assert_eq!(
            outcome,
            BarrierOutcome::UpgradedToRdSh {
                prev_owner: T0,
                counter: 1
            }
        );
        assert_eq!(p.state_of(O), DecodedState::Stable(OctetState::RdSh(1)));
        // The upgrading thread's counter is current: its next read is fast.
        assert_eq!(p.read_barrier(T1, O), BarrierOutcome::Same);
        // A third thread lags and takes a fence transition.
        assert_eq!(p.read_barrier(T2, O), BarrierOutcome::Fence { counter: 1 });
        assert_eq!(p.read_barrier(T2, O), BarrierOutcome::Same);
    }

    #[test]
    fn conflicting_write_after_write() {
        let p = immediate(2);
        p.write_barrier(T0, O);
        let outcome = p.write_barrier(T1, O);
        assert_eq!(
            outcome,
            BarrierOutcome::Conflicting {
                new: OctetState::WrEx(T1),
                responders: 1
            }
        );
        assert_eq!(p.state_of(O), DecodedState::Stable(OctetState::WrEx(T1)));
    }

    #[test]
    fn conflicting_read_after_write_gives_rdex() {
        let p = immediate(2);
        p.write_barrier(T0, O);
        assert_eq!(
            p.read_barrier(T1, O),
            BarrierOutcome::Conflicting {
                new: OctetState::RdEx(T1),
                responders: 1
            }
        );
    }

    #[test]
    fn rdsh_write_coordinates_with_all_others() {
        let p = immediate(4);
        p.read_barrier(T0, O);
        p.read_barrier(T1, O); // RdSh now
        let outcome = p.write_barrier(T2, O);
        assert_eq!(
            outcome,
            BarrierOutcome::Conflicting {
                new: OctetState::WrEx(T2),
                responders: 3
            }
        );
    }

    #[test]
    fn sink_sees_one_event_per_responder() {
        #[derive(Default)]
        struct Recording(Mutex<Vec<(ThreadId, ThreadId)>>);
        impl TransitionSink for Recording {
            fn conflicting(&self, resp: ThreadId, req: ThreadId) {
                self.0.lock().unwrap().push((resp, req));
            }
        }
        let p = Protocol::new(2, 3, CoordinationMode::Immediate, Recording::default());
        p.write_barrier(T0, O);
        p.write_barrier(T1, O);
        p.read_barrier(T0, O);
        let events = p.sink().0.lock().unwrap().clone();
        assert_eq!(events, vec![(T0, T1), (T1, T0)]);
    }

    #[test]
    fn global_counter_increments_per_rdsh_transition() {
        let p = immediate(3);
        let o2 = ObjId(1);
        p.read_barrier(T0, O);
        p.read_barrier(T1, O); // counter 1
        p.read_barrier(T0, o2);
        p.read_barrier(T1, o2); // counter 2
        assert_eq!(p.g_rd_sh_cnt(), 2);
        assert_eq!(p.state_of(o2), DecodedState::Stable(OctetState::RdSh(2)));
        // T2 reads o2 (counter 2) first: its rdShCnt jumps to 2, so reading
        // O (counter 1) afterwards is fence-free — the Figure 2 T5 case.
        assert_eq!(p.read_barrier(T2, o2), BarrierOutcome::Fence { counter: 2 });
        assert_eq!(p.read_barrier(T2, O), BarrierOutcome::Same);
    }

    #[test]
    fn threaded_explicit_protocol_delivers_request_at_safe_point() {
        #[derive(Default)]
        struct Count(AtomicUsize, Mutex<Vec<(ThreadId, ThreadId)>>);
        impl TransitionSink for Count {
            fn conflicting(&self, resp: ThreadId, req: ThreadId) {
                self.0.fetch_add(1, Ordering::SeqCst);
                self.1.lock().unwrap().push((resp, req));
            }
        }
        let p = std::sync::Arc::new(Protocol::new(
            1,
            2,
            CoordinationMode::Threaded,
            Count::default(),
        ));
        p.thread_begin(T0);
        p.write_barrier(T0, O); // T0 owns O

        let p2 = std::sync::Arc::clone(&p);
        let writer = std::thread::spawn(move || {
            p2.thread_begin(T1);
            // Conflicts with T0; must wait for T0's safe point.
            p2.write_barrier(T1, O);
            p2.thread_end(T1);
        });
        // Give the requester a moment to enqueue, then hit a safe point.
        for _ in 0..1000 {
            p.safe_point(T0);
            std::thread::yield_now();
            if p.sink().0.load(Ordering::SeqCst) > 0 {
                break;
            }
        }
        // Either the explicit protocol delivered at our safe point, or the
        // request raced our exit and the requester retried implicitly.
        p.thread_end(T0);
        writer.join().unwrap();
        assert_eq!(p.sink().0.load(Ordering::SeqCst), 1);
        assert_eq!(p.sink().1.lock().unwrap()[0], (T0, T1));
        assert_eq!(p.state_of(O), DecodedState::Stable(OctetState::WrEx(T1)));
    }

    #[test]
    fn threaded_implicit_protocol_on_blocked_thread() {
        let p = std::sync::Arc::new(Protocol::new(1, 2, CoordinationMode::Threaded, NullSink));
        p.thread_begin(T0);
        p.write_barrier(T0, O);
        p.before_block(T0); // T0 parks
        let p2 = std::sync::Arc::clone(&p);
        let h = std::thread::spawn(move || {
            p2.thread_begin(T1);
            let outcome = p2.write_barrier(T1, O);
            assert!(matches!(outcome, BarrierOutcome::Conflicting { .. }));
        });
        h.join().unwrap();
        p.after_unblock(T0);
        assert_eq!(p.state_of(O), DecodedState::Stable(OctetState::WrEx(T1)));
    }

    /// With the cache disabled the barrier is the exact legacy path.
    fn uncached(n_threads: usize) -> Protocol<NullSink> {
        let p = Protocol::with_config(
            4,
            n_threads,
            CoordinationMode::Immediate,
            NullSink,
            None,
            false,
        );
        for i in 0..n_threads {
            p.thread_begin(ThreadId::from_index(i));
        }
        p
    }

    fn folded_cache_counters(p: &Protocol<NullSink>, t: ThreadId) -> (u64, u64) {
        p.thread_end(t);
        (
            p.stats().cache_hits.load(Ordering::Relaxed),
            p.stats().cache_flushes.load(Ordering::Relaxed),
        )
    }

    #[test]
    fn cache_off_counts_nothing() {
        let p = uncached(2);
        p.write_barrier(T0, O);
        assert!(!p.cache_probe(T0, O, AccessKind::Write));
        for _ in 0..10 {
            assert_eq!(p.write_barrier(T0, O), BarrierOutcome::Same);
        }
        assert_eq!(folded_cache_counters(&p, T0), (0, 0));
    }

    #[test]
    fn cache_hits_dominate_a_loopy_owner() {
        let p = immediate(2);
        p.write_barrier(T0, O);
        for _ in 0..99 {
            assert_eq!(p.write_barrier(T0, O), BarrierOutcome::Same);
            assert_eq!(p.read_barrier(T0, O), BarrierOutcome::Same);
        }
        let (hits, _) = folded_cache_counters(&p, T0);
        // 198 re-accesses; all but none are cache hits (>90% hit rate).
        assert_eq!(hits, 198);
    }

    /// Every re-access of an owned object is a hit however many objects
    /// the thread streams over: the table has no capacity to exceed.
    #[test]
    fn streaming_over_192_owned_objects_hits_on_every_reaccess() {
        const OBJECTS: u32 = 192;
        const PASSES: u64 = 5;
        let p = Protocol::new(192, 2, CoordinationMode::Immediate, NullSink);
        p.thread_begin(T0);
        for pass in 0..PASSES {
            for o in (0..OBJECTS).map(ObjId) {
                let first = if pass == 0 {
                    BarrierOutcome::FirstTouch
                } else {
                    BarrierOutcome::Same
                };
                assert_eq!(p.write_barrier(T0, o), first);
                assert_eq!(p.read_barrier(T0, o), BarrierOutcome::Same);
            }
        }
        let accesses = PASSES * u64::from(OBJECTS) * 2;
        let first_touches = u64::from(OBJECTS);
        assert_eq!(
            folded_cache_counters(&p, T0),
            (accesses - first_touches, 1),
            "only first touches miss; the one flush is thread_end's"
        );
    }

    /// The inlined same-state head agrees with `classify(..) == Same` over
    /// the Table-1 state × kind × owner matrix (and every counter relation
    /// for `RdSh`), and reports `write_ok` exactly for `WrEx_t`.
    #[test]
    fn same_state_head_agrees_with_classify() {
        let states = [
            OctetState::Free,
            OctetState::WrEx(T0),
            OctetState::WrEx(T1),
            OctetState::RdEx(T0),
            OctetState::RdEx(T1),
            OctetState::RdSh(4),
        ];
        for cnt in [0, 3, 4, 9] {
            let p = immediate(2);
            p.threads.raise_rd_sh_cnt(T0, cnt);
            for state in states {
                for kind in [AccessKind::Read, AccessKind::Write] {
                    let head = p.same_state(encode(state), T0, kind);
                    let reference = classify(state, kind, T0, cnt) == TransitionKind::Same;
                    assert_eq!(head.is_some(), reference, "{state:?} {kind:?} cnt {cnt}");
                    if let Some(write_ok) = head {
                        assert_eq!(write_ok, state == OctetState::WrEx(T0));
                    }
                }
            }
            for kind in [AccessKind::Read, AccessKind::Write] {
                assert_eq!(p.same_state(encode_intermediate(T0), T0, kind), None);
            }
        }
    }

    #[test]
    fn conflicting_transition_revokes_the_loser() {
        for obj in OBJS {
            let p = immediate(2);
            p.write_barrier(T0, obj);
            p.write_barrier(T0, obj); // warm T0's cache
            assert!(matches!(
                p.write_barrier(T1, obj),
                BarrierOutcome::Conflicting { .. }
            ));
            // A stale hit would answer `Same` here; the revocation epoch
            // forces the slow path, which sees T1's ownership and conflicts
            // back.
            assert!(matches!(
                p.write_barrier(T0, obj),
                BarrierOutcome::Conflicting { .. }
            ));
            assert_eq!(p.state_of(obj), DecodedState::Stable(OctetState::WrEx(T0)));
        }
    }

    #[test]
    fn rdsh_upgrade_revokes_the_demoted_owner() {
        for obj in OBJS {
            let p = immediate(3);
            p.read_barrier(T0, obj);
            p.read_barrier(T0, obj); // warm T0's read stamp (RdEx T0)
            p.read_barrier(T1, obj); // RdEx T0 → RdSh: demotes T0 in place

            // T0's stamp is revoked; its next read re-classifies against
            // RdSh. The upgrade counter was stamped while T0's rdShCnt
            // lagged, so a stale `Same` hit would skip the required fence
            // transition.
            assert_eq!(
                p.read_barrier(T0, obj),
                BarrierOutcome::Fence { counter: 1 }
            );
            assert_eq!(p.read_barrier(T0, obj), BarrierOutcome::Same);
        }
    }

    #[test]
    fn safe_point_response_flushes_the_cache() {
        #[derive(Default)]
        struct Count(AtomicUsize);
        impl TransitionSink for Count {
            fn conflicting(&self, _resp: ThreadId, _req: ThreadId) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        for obj in OBJS {
            let p = std::sync::Arc::new(Protocol::new(
                128,
                2,
                CoordinationMode::Threaded,
                Count::default(),
            ));
            p.thread_begin(T0);
            p.write_barrier(T0, obj);
            p.write_barrier(T0, obj); // warm T0's cache

            let p2 = std::sync::Arc::clone(&p);
            let writer = std::thread::spawn(move || {
                p2.thread_begin(T1);
                p2.write_barrier(T1, obj);
                p2.thread_end(T1);
            });
            while p.sink().0.load(Ordering::SeqCst) == 0 {
                p.safe_point(T0); // grants ownership away → must flush
                std::thread::yield_now();
            }
            writer.join().unwrap();
            // No stale hit: T0's next write conflicts with T1's ownership.
            assert!(matches!(
                p.write_barrier(T0, obj),
                BarrierOutcome::Conflicting { .. }
            ));
            p.thread_end(T0);
            assert!(p.stats().cache_flushes.load(Ordering::Relaxed) >= 1);
        }
    }

    #[test]
    fn block_unblock_cycle_flushes_the_cache() {
        for obj in OBJS {
            let p =
                std::sync::Arc::new(Protocol::new(128, 2, CoordinationMode::Threaded, NullSink));
            p.thread_begin(T0);
            p.write_barrier(T0, obj);
            p.write_barrier(T0, obj); // warm T0's cache
            p.before_block(T0); // T0 parks; cache flushed
            let p2 = std::sync::Arc::clone(&p);
            std::thread::spawn(move || {
                p2.thread_begin(T1);
                p2.write_barrier(T1, obj); // implicit protocol while T0 sleeps
                p2.thread_end(T1);
            })
            .join()
            .unwrap();
            p.after_unblock(T0);
            // A stale hit would answer `Same`; the flush forces the slow path.
            assert!(matches!(
                p.write_barrier(T0, obj),
                BarrierOutcome::Conflicting { .. }
            ));
            p.thread_end(T0);
            assert!(p.stats().cache_flushes.load(Ordering::Relaxed) >= 1);
        }
    }

    #[test]
    fn threaded_stress_many_threads_one_object() {
        // Hammer a single object from several threads; the protocol must
        // neither deadlock nor corrupt the state word, and the per-thread
        // transition tallies folded at thread end must add up to exactly
        // the outcomes the threads saw.
        let n = 4;
        let p = std::sync::Arc::new(Protocol::new(1, n, CoordinationMode::Threaded, NullSink));
        let mut handles = Vec::new();
        for i in 0..n {
            let p = std::sync::Arc::clone(&p);
            handles.push(std::thread::spawn(move || {
                let t = ThreadId::from_index(i);
                p.thread_begin(t);
                // first touch, upgrades, fences, conflicts
                let mut seen = [0u64; 4];
                for round in 0..2000u32 {
                    let outcome = if (round + i as u32).is_multiple_of(3) {
                        p.write_barrier(t, O)
                    } else {
                        p.read_barrier(t, O)
                    };
                    match outcome {
                        BarrierOutcome::Same => {}
                        BarrierOutcome::FirstTouch => seen[0] += 1,
                        BarrierOutcome::UpgradedToWrEx | BarrierOutcome::UpgradedToRdSh { .. } => {
                            seen[1] += 1
                        }
                        BarrierOutcome::Fence { .. } => seen[2] += 1,
                        BarrierOutcome::Conflicting { .. } => seen[3] += 1,
                    }
                    p.safe_point(t);
                }
                p.thread_end(t);
                seen
            }));
        }
        let mut seen = [0u64; 4];
        for h in handles {
            let counts = h.join().unwrap();
            seen.iter_mut().zip(counts).for_each(|(sum, c)| *sum += c);
        }
        assert!(matches!(p.state_of(O), DecodedState::Stable(_)));
        let s = p.stats();
        let folded = [&s.first_touch, &s.upgrades, &s.fences, &s.conflicts]
            .map(|c| c.load(Ordering::Relaxed));
        assert_eq!(folded, seen);
        assert!(seen[3] > 0, "the threads took the object from each other");
    }

    /// Transitions are tallied by the thread that performs them and reach
    /// the shared stats only when it ends.
    #[test]
    fn transition_tallies_fold_in_at_thread_end() {
        let p = immediate(2);
        p.write_barrier(T0, O); // first touch
        p.read_barrier(T1, O); // conflicting
        p.write_barrier(T1, O); // upgrade RdEx → WrEx
        let counts = |p: &Protocol<NullSink>| {
            let s = p.stats();
            [&s.first_touch, &s.upgrades, &s.fences, &s.conflicts]
                .map(|c| c.load(Ordering::Relaxed))
        };
        assert_eq!(counts(&p), [0; 4], "nothing folded before thread end");
        p.thread_end(T1);
        assert_eq!(counts(&p), [0, 1, 0, 1]);
        p.thread_end(T0);
        assert_eq!(counts(&p), [1, 1, 0, 1]);
    }
}
