//! Per-thread ownership inline cache.
//!
//! A flat per-thread table, one stamp per heap object, marking the objects
//! the thread is known to still hold in `WrEx_T` / `RdEx_T` (or to have a
//! read permission on, e.g. `RdSh` with an up-to-date counter). A stamp is
//! valid only while it carries the thread's current *generation*, so
//! nothing aliases or is evicted: a probe misses only on a first touch or
//! after a flush, and a flush is one generation bump. A probe hit skips the
//! metadata-word load entirely: the probe touches only the thread's own
//! slot, so the hot path generates zero shared-cache-line traffic.
//!
//! Soundness rests on Octet's safe-point invariant (paper §3.2.1): a
//! running thread's exclusive ownership can only be revoked at that
//! thread's safe points or while it is blocked. The protocol therefore
//! flushes the cache at every point where ownership may have changed
//! hands:
//!
//! * locally, whenever the thread responds to pending requests
//!   ([`respond_pending`](crate::Protocol::safe_point)), around
//!   block/unblock, and at thread end;
//! * remotely, via a revocation epoch ([`CacheSlot::revoke`]) bumped
//!   by any thread that takes ownership away without the loser executing
//!   code (the immediate-mode coordination path and the read-shared
//!   upgrade, which demotes the previous exclusive owner in place).
//!
//! The epoch is the only cross-thread word: a probe loads it (acquire)
//! and self-flushes on mismatch, so a stale hit after revocation is
//! impossible. Everything else in a slot is owner-thread-private behind
//! an `UnsafeCell`.

use dc_runtime::ids::{ObjId, ThreadId};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Stamp bit 0: the cached permission licenses writes (`WrEx_T`), not
/// just reads. The generation occupies the 31 bits above it.
const WRITE_OK: u32 = 1;
/// First generation, and a stamp's unit of generation. Never 0: tables
/// are zero-initialized and a zero stamp must match no live generation.
const GEN_ONE: u32 = 1 << 1;

/// Owner-thread-private half of a slot. Remote threads never touch this.
#[derive(Debug)]
struct CacheLocal {
    /// Last revocation epoch this thread observed; a probe that sees a
    /// newer epoch flushes before answering.
    seen_epoch: u32,
    /// Whether any stamp is valid — lets idle flushes (e.g. block/unblock
    /// with an empty cache) skip the generation bump and the flush counter.
    occupied: bool,
    /// Current generation, pre-shifted (`generation << 1`).
    generation: u32,
    /// One stamp per heap object: `generation << 1 | write_ok`, valid iff
    /// the generation is current; `0` = never valid.
    stamps: Box<[u32]>,
    /// Probe hits since the last [`CacheSlot::take_counters`].
    hits: u64,
    /// Non-empty flushes since the last [`CacheSlot::take_counters`].
    flushes: u64,
}

/// One per thread, padded to its own cache-line group: the revocation
/// epoch is the only field remote threads write, and the owner's private
/// state never shares a line with another thread's slot.
#[repr(align(128))]
pub(crate) struct CacheSlot {
    /// Revocation epoch, bumped by remote threads that take ownership
    /// away from this thread outside its own execution.
    revoked: AtomicU32,
    local: UnsafeCell<CacheLocal>,
}

// SAFETY: `local` is only ever accessed by the slot's owner thread (the
// protocol resolves the accessing thread's own slot for `probe`/`insert`/
// `flush`/`take_counters`); remote threads touch only the atomic
// `revoked` epoch.
unsafe impl Sync for CacheSlot {}

impl std::fmt::Debug for CacheSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheSlot")
            .field("revoked", &self.revoked.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// The per-thread ownership inline cache (one slot per registered thread).
/// Slots are `Arc`-shared so a thread can resolve its own once
/// ([`crate::ThreadHandle`]) instead of indexing per access.
#[derive(Debug)]
pub(crate) struct OwnershipCache {
    slots: Box<[Arc<CacheSlot>]>,
}

impl OwnershipCache {
    /// Builds a cache with one slot per thread, each covering every one
    /// of the heap's `n_objects` objects (4 bytes per object per thread).
    pub(crate) fn new(n_objects: usize, n_threads: usize) -> Self {
        let slot = |_| {
            Arc::new(CacheSlot {
                revoked: AtomicU32::new(0),
                local: UnsafeCell::new(CacheLocal {
                    seen_epoch: 0,
                    occupied: false,
                    generation: GEN_ONE,
                    stamps: vec![0; n_objects].into_boxed_slice(),
                    hits: 0,
                    flushes: 0,
                }),
            })
        };
        OwnershipCache {
            slots: (0..n_threads).map(slot).collect(),
        }
    }

    /// Thread `t`'s slot.
    #[inline]
    pub(crate) fn slot(&self, t: ThreadId) -> &Arc<CacheSlot> {
        &self.slots[t.index()]
    }
}

impl CacheSlot {
    /// Owner-thread probe: returns `true` when the cache proves the
    /// access would classify as a same-state fast path. On a revocation
    /// epoch mismatch the cache self-flushes and misses.
    #[inline(always)]
    pub(crate) fn probe(&self, obj: ObjId, write: bool) -> bool {
        // Acquire pairs with the revoker's release bump: seeing an
        // up-to-date epoch means any revocation that *preceded* the new
        // ownership is visible here as a flush.
        let revoked = self.revoked.load(Ordering::Acquire);
        // SAFETY: only the owner thread probes its own slot.
        let local = unsafe { &mut *self.local.get() };
        if local.seen_epoch != revoked {
            Self::flush_local(local, revoked);
            return false;
        }
        let stamp = local.stamps[obj.index()];
        let hit = if write {
            stamp == local.generation | WRITE_OK
        } else {
            // A read is licensed by either permission level.
            (stamp & !WRITE_OK) == local.generation
        };
        if hit {
            local.hits += 1;
        }
        hit
    }

    /// Owner-thread insert after the slow path established a stable
    /// permission for `obj` (`write_ok` iff the state is `WrEx_T`).
    #[inline]
    pub(crate) fn insert(&self, obj: ObjId, write_ok: bool) {
        // SAFETY: only the owner thread inserts into its own slot.
        let local = unsafe { &mut *self.local.get() };
        local.stamps[obj.index()] = local.generation | u32::from(write_ok);
        local.occupied = true;
    }

    /// Invalidates every stamp by moving to the next generation. On wrap
    /// the new generation would collide with stamps written billions of
    /// flushes ago, so the table is cleared and the generation restarts
    /// at one, never 0 (the never-valid stamp).
    #[cold]
    fn flush_local(local: &mut CacheLocal, revoked: u32) {
        local.seen_epoch = revoked;
        if local.occupied {
            local.generation = local.generation.wrapping_add(GEN_ONE);
            if local.generation == 0 {
                local.stamps.fill(0);
                local.generation = GEN_ONE;
            }
            local.occupied = false;
            local.flushes += 1;
        }
    }

    /// Owner-thread flush: invalidates every stamp (no-op on an already
    /// empty cache). Called at safe-point responses, around block and
    /// unblock, and at thread end.
    pub(crate) fn flush(&self) {
        let revoked = self.revoked.load(Ordering::Acquire);
        // SAFETY: only the owner thread flushes its own slot.
        let local = unsafe { &mut *self.local.get() };
        Self::flush_local(local, revoked);
    }

    /// Remote revocation: bumps this thread's epoch so its next probe
    /// flushes. Used when ownership is taken from it without it executing
    /// a safe-point response (immediate-mode coordination, the `RdSh`
    /// upgrade's in-place demotion of the previous owner).
    #[inline]
    pub(crate) fn revoke(&self) {
        self.revoked.fetch_add(1, Ordering::Release);
    }

    /// Owner-thread counter drain: returns and resets `(hits, flushes)`.
    pub(crate) fn take_counters(&self) -> (u64, u64) {
        // SAFETY: only the owner thread drains its own slot's counters.
        let local = unsafe { &mut *self.local.get() };
        let out = (local.hits, local.flushes);
        local.hits = 0;
        local.flushes = 0;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: ThreadId = ThreadId(0);

    #[test]
    fn probe_miss_then_insert_then_hit() {
        let cache = OwnershipCache::new(8, 2);
        let slot = cache.slot(T0);
        let obj = ObjId(7);
        assert!(!slot.probe(obj, false));
        slot.insert(obj, false);
        assert!(slot.probe(obj, false), "read stamp licenses reads");
        assert!(!slot.probe(obj, true), "read stamp rejects writes");
        slot.insert(obj, true);
        assert!(slot.probe(obj, true), "write stamp licenses writes");
        assert!(slot.probe(obj, false), "write stamp licenses reads");
        assert_eq!(slot.take_counters(), (3, 0));
    }

    #[test]
    fn no_aliasing_between_objects_64_apart() {
        let cache = OwnershipCache::new(128, 1);
        let slot = cache.slot(T0);
        let (a, b) = (ObjId(1), ObjId(1 + 64));
        slot.insert(a, true);
        slot.insert(b, true);
        assert!(slot.probe(a, true), "b's insert must not evict a");
        assert!(slot.probe(b, true));
    }

    #[test]
    fn generation_wrap_clears_the_table_and_restarts_at_one() {
        let cache = OwnershipCache::new(4, 1);
        let slot = cache.slot(T0);
        // SAFETY: single-threaded test; each reference dies with its call.
        let local = || unsafe { &mut *cache.slots[0].local.get() };
        slot.insert(ObjId(2), true); // stamped in generation 1
        local().generation = ((1 << 31) - 1) << 1; // the last generation
        slot.insert(ObjId(3), true);
        slot.flush(); // wraps
        assert_eq!(local().generation, GEN_ONE, "restart at 1, never 0");
        assert!(!slot.probe(ObjId(2), true), "pre-wrap stamp hit");
        assert!(!slot.probe(ObjId(3), true));
        assert!(!slot.probe(ObjId(0), false), "zero stamp hit");
    }

    #[test]
    fn flush_empties_and_counts_only_when_occupied() {
        let cache = OwnershipCache::new(4, 1);
        let slot = cache.slot(T0);
        slot.flush();
        assert_eq!(slot.take_counters(), (0, 0), "empty flush is uncounted");
        slot.insert(ObjId(3), true);
        slot.flush();
        assert!(!slot.probe(ObjId(3), true));
        assert_eq!(slot.take_counters(), (0, 1));
    }

    #[test]
    fn remote_revoke_invalidates_next_probe() {
        let cache = OwnershipCache::new(8, 2);
        let slot = cache.slot(T0);
        let obj = ObjId(5);
        slot.insert(obj, true);
        assert!(slot.probe(obj, true));
        slot.revoke(); // as if ThreadId(1) took ownership
        assert!(!slot.probe(obj, true), "stale hit after revocation");
        assert!(!slot.probe(obj, true), "epoch sync must not flap");
        assert_eq!(slot.take_counters(), (1, 1));
    }
}
