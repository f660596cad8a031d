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
//! * remotely, via a revocation epoch ([`OwnershipCache::revoke`]) bumped
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
    /// Probe hits since the last [`OwnershipCache::take_counters`].
    hits: u64,
    /// Non-empty flushes since the last [`OwnershipCache::take_counters`].
    flushes: u64,
}

/// One per thread, padded to its own cache-line group: the revocation
/// epoch is the only field remote threads write, and the owner's private
/// state never shares a line with another thread's slot.
#[repr(align(128))]
struct CacheSlot {
    /// Revocation epoch, bumped by remote threads that take ownership
    /// away from this thread outside its own execution.
    revoked: AtomicU32,
    local: UnsafeCell<CacheLocal>,
}

// SAFETY: `local` is only ever accessed by the slot's owner thread (the
// protocol passes the accessing thread's own id to `probe`/`insert`/
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
#[derive(Debug)]
pub(crate) struct OwnershipCache {
    slots: Box<[CacheSlot]>,
}

impl OwnershipCache {
    /// Builds a cache with one slot per thread, each covering every one
    /// of the heap's `n_objects` objects (4 bytes per object per thread).
    pub(crate) fn new(n_objects: usize, n_threads: usize) -> Self {
        let slot = |_| CacheSlot {
            revoked: AtomicU32::new(0),
            local: UnsafeCell::new(CacheLocal {
                seen_epoch: 0,
                occupied: false,
                generation: GEN_ONE,
                stamps: vec![0; n_objects].into_boxed_slice(),
                hits: 0,
                flushes: 0,
            }),
        };
        OwnershipCache {
            slots: (0..n_threads).map(slot).collect(),
        }
    }

    /// Owner-thread probe: returns `true` when the cache proves the
    /// access would classify as a same-state fast path. On a revocation
    /// epoch mismatch the cache self-flushes and misses.
    #[inline]
    pub(crate) fn probe(&self, t: ThreadId, obj: ObjId, write: bool) -> bool {
        let slot = &self.slots[t.index()];
        // Acquire pairs with the revoker's release bump: seeing an
        // up-to-date epoch means any revocation that *preceded* the new
        // ownership is visible here as a flush.
        let revoked = slot.revoked.load(Ordering::Acquire);
        // SAFETY: only the owner thread probes its own slot.
        let local = unsafe { &mut *slot.local.get() };
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
    pub(crate) fn insert(&self, t: ThreadId, obj: ObjId, write_ok: bool) {
        let slot = &self.slots[t.index()];
        // SAFETY: only the owner thread inserts into its own slot.
        let local = unsafe { &mut *slot.local.get() };
        local.stamps[obj.index()] = local.generation | u32::from(write_ok);
        local.occupied = true;
    }

    /// Invalidates every stamp by moving to the next generation. On wrap
    /// the new generation would collide with stamps written billions of
    /// flushes ago, so the table is cleared and the generation restarts
    /// at one, never 0 (the never-valid stamp).
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
    #[inline]
    pub(crate) fn flush(&self, t: ThreadId) {
        let slot = &self.slots[t.index()];
        let revoked = slot.revoked.load(Ordering::Acquire);
        // SAFETY: only the owner thread flushes its own slot.
        let local = unsafe { &mut *slot.local.get() };
        Self::flush_local(local, revoked);
    }

    /// Remote revocation: bumps `t`'s epoch so its next probe flushes.
    /// Used when ownership is taken from `t` without `t` executing a
    /// safe-point response (immediate-mode coordination, the `RdSh`
    /// upgrade's in-place demotion of the previous owner).
    #[inline]
    pub(crate) fn revoke(&self, t: ThreadId) {
        self.slots[t.index()]
            .revoked
            .fetch_add(1, Ordering::Release);
    }

    /// Owner-thread counter drain: returns and resets `(hits, flushes)`.
    pub(crate) fn take_counters(&self, t: ThreadId) -> (u64, u64) {
        let slot = &self.slots[t.index()];
        // SAFETY: only the owner thread drains its own slot's counters.
        let local = unsafe { &mut *slot.local.get() };
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
        let obj = ObjId(7);
        assert!(!cache.probe(T0, obj, false));
        cache.insert(T0, obj, false);
        assert!(cache.probe(T0, obj, false), "read stamp licenses reads");
        assert!(!cache.probe(T0, obj, true), "read stamp rejects writes");
        cache.insert(T0, obj, true);
        assert!(cache.probe(T0, obj, true), "write stamp licenses writes");
        assert!(cache.probe(T0, obj, false), "write stamp licenses reads");
        assert_eq!(cache.take_counters(T0), (3, 0));
    }

    #[test]
    fn no_aliasing_between_objects_64_apart() {
        let cache = OwnershipCache::new(128, 1);
        let (a, b) = (ObjId(1), ObjId(1 + 64));
        cache.insert(T0, a, true);
        cache.insert(T0, b, true);
        assert!(cache.probe(T0, a, true), "b's insert must not evict a");
        assert!(cache.probe(T0, b, true));
    }

    #[test]
    fn generation_wrap_clears_the_table_and_restarts_at_one() {
        let cache = OwnershipCache::new(4, 1);
        // SAFETY: single-threaded test; each reference dies with its call.
        let local = || unsafe { &mut *cache.slots[0].local.get() };
        cache.insert(T0, ObjId(2), true); // stamped in generation 1
        local().generation = ((1 << 31) - 1) << 1; // the last generation
        cache.insert(T0, ObjId(3), true);
        cache.flush(T0); // wraps
        assert_eq!(local().generation, GEN_ONE, "restart at 1, never 0");
        assert!(!cache.probe(T0, ObjId(2), true), "pre-wrap stamp hit");
        assert!(!cache.probe(T0, ObjId(3), true));
        assert!(!cache.probe(T0, ObjId(0), false), "zero stamp hit");
    }

    #[test]
    fn flush_empties_and_counts_only_when_occupied() {
        let cache = OwnershipCache::new(4, 1);
        cache.flush(T0);
        assert_eq!(cache.take_counters(T0), (0, 0), "empty flush is uncounted");
        cache.insert(T0, ObjId(3), true);
        cache.flush(T0);
        assert!(!cache.probe(T0, ObjId(3), true));
        assert_eq!(cache.take_counters(T0), (0, 1));
    }

    #[test]
    fn remote_revoke_invalidates_next_probe() {
        let cache = OwnershipCache::new(8, 2);
        let obj = ObjId(5);
        cache.insert(T0, obj, true);
        assert!(cache.probe(T0, obj, true));
        cache.revoke(T0); // as if ThreadId(1) took ownership
        assert!(!cache.probe(T0, obj, true), "stale hit after revocation");
        assert!(!cache.probe(T0, obj, true), "epoch sync must not flap");
        assert_eq!(cache.take_counters(T0), (1, 1));
    }
}
