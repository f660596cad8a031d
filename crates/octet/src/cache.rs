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
//! * remotely, via a revocation epoch ([`ThreadSlot::revoke`]) bumped
//!   by any thread that takes ownership away without the loser executing
//!   code (the immediate-mode coordination path and the read-shared
//!   upgrade, which demotes the previous exclusive owner in place).
//!
//! The epoch is the only cross-thread word, in the head of the thread's
//! [`ThreadSlot`]: a probe loads it (acquire) and self-flushes on mismatch,
//! so a stale hit after revocation is impossible. The table itself lives in
//! the slot's owner block; hits and non-empty flushes are counted in the
//! owner block's tallies.

use crate::registry::{Owner, Tally, ThreadSlot};
use dc_runtime::ids::ObjId;
use std::sync::atomic::Ordering;

/// Stamp bit 0: the cached permission licenses writes (`WrEx_T`), not
/// just reads. The generation occupies the 31 bits above it.
const WRITE_OK: u32 = 1;
/// First generation, and a stamp's unit of generation. Never 0: tables
/// are zero-initialized and a zero stamp must match no live generation.
const GEN_ONE: u32 = 1 << 1;

/// One thread's stamp table, in its slot's owner block.
#[derive(Debug)]
pub(crate) struct Stamps {
    /// Last revocation epoch this thread observed; a probe that sees a
    /// newer epoch flushes before answering.
    seen_epoch: u32,
    /// Whether any stamp is valid — lets idle flushes (e.g. block/unblock
    /// with an empty cache) skip the generation bump and the flush tally.
    occupied: bool,
    /// Current generation, pre-shifted (`generation << 1`).
    generation: u32,
    /// One stamp per heap object: `generation << 1 | write_ok`, valid iff
    /// the generation is current; `0` = never valid.
    stamps: Box<[u32]>,
}

impl Stamps {
    /// A table covering `n_objects` objects (4 bytes each).
    pub(crate) fn new(n_objects: usize) -> Self {
        Stamps {
            seen_epoch: 0,
            occupied: false,
            generation: GEN_ONE,
            stamps: vec![0; n_objects].into_boxed_slice(),
        }
    }
}

/// Invalidates every stamp by moving to the next generation, and tallies
/// the flush if a stamp was valid. On wrap the new generation would collide
/// with stamps written billions of flushes ago, so the table is cleared and
/// the generation restarts at one, never 0 (the never-valid stamp).
#[cold]
fn flush_owner(owner: &mut Owner, revoked: u32) {
    let cache = &mut owner.cache;
    cache.seen_epoch = revoked;
    if cache.occupied {
        cache.generation = cache.generation.wrapping_add(GEN_ONE);
        if cache.generation == 0 {
            cache.stamps.fill(0);
            cache.generation = GEN_ONE;
        }
        cache.occupied = false;
        owner.tallies[Tally::CacheFlush as usize] += 1;
    }
}

impl ThreadSlot {
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
        let owner = unsafe { self.owner.get() };
        if owner.cache.seen_epoch != revoked {
            flush_owner(owner, revoked);
            return false;
        }
        let cache = &owner.cache;
        let stamp = cache.stamps[obj.index()];
        let hit = if write {
            stamp == cache.generation | WRITE_OK
        } else {
            // A read is licensed by either permission level.
            (stamp & !WRITE_OK) == cache.generation
        };
        if hit {
            owner.tallies[Tally::CacheHit as usize] += 1;
        }
        hit
    }

    /// Owner-thread insert after the slow path established a stable
    /// permission for `obj` (`write_ok` iff the state is `WrEx_T`).
    #[inline]
    pub(crate) fn insert(&self, obj: ObjId, write_ok: bool) {
        // SAFETY: only the owner thread inserts into its own slot.
        let cache = &mut unsafe { self.owner.get() }.cache;
        cache.stamps[obj.index()] = cache.generation | u32::from(write_ok);
        cache.occupied = true;
    }

    /// Owner-thread flush: invalidates every stamp (no-op on an already
    /// empty cache). Called at safe-point responses, around block and
    /// unblock, and at thread end.
    pub(crate) fn flush(&self) {
        let revoked = self.revoked.load(Ordering::Acquire);
        // SAFETY: only the owner thread flushes its own slot.
        flush_owner(unsafe { self.owner.get() }, revoked);
    }

    /// Remote revocation: bumps this thread's epoch so its next probe
    /// flushes. Used when ownership is taken from it without it executing
    /// a safe-point response (immediate-mode coordination, the `RdSh`
    /// upgrade's in-place demotion of the previous owner).
    #[inline]
    pub(crate) fn revoke(&self) {
        self.revoked.fetch_add(1, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A slot of a two-thread run whose cache covers `n_objects` objects.
    fn slot(n_objects: usize) -> ThreadSlot {
        ThreadSlot::new(2, n_objects)
    }

    /// Returns and resets the slot's `(hits, flushes)`.
    fn take_counters(slot: &ThreadSlot) -> (u64, u64) {
        let tallies = slot.take_tallies();
        (
            tallies[Tally::CacheHit as usize],
            tallies[Tally::CacheFlush as usize],
        )
    }

    #[test]
    fn probe_miss_then_insert_then_hit() {
        let slot = slot(8);
        let obj = ObjId(7);
        assert!(!slot.probe(obj, false));
        slot.insert(obj, false);
        assert!(slot.probe(obj, false), "read stamp licenses reads");
        assert!(!slot.probe(obj, true), "read stamp rejects writes");
        slot.insert(obj, true);
        assert!(slot.probe(obj, true), "write stamp licenses writes");
        assert!(slot.probe(obj, false), "write stamp licenses reads");
        assert_eq!(take_counters(&slot), (3, 0));
    }

    #[test]
    fn no_aliasing_between_objects_64_apart() {
        let slot = slot(128);
        let (a, b) = (ObjId(1), ObjId(1 + 64));
        slot.insert(a, true);
        slot.insert(b, true);
        assert!(slot.probe(a, true), "b's insert must not evict a");
        assert!(slot.probe(b, true));
    }

    #[test]
    fn generation_wrap_clears_the_table_and_restarts_at_one() {
        let slot = slot(4);
        // SAFETY: single-threaded test; each borrow dies with its call.
        let cache = || &mut unsafe { slot.owner.get() }.cache;
        slot.insert(ObjId(2), true); // stamped in generation 1
        cache().generation = ((1 << 31) - 1) << 1; // the last generation
        slot.insert(ObjId(3), true);
        slot.flush(); // wraps
        assert_eq!(cache().generation, GEN_ONE, "restart at 1, never 0");
        assert!(!slot.probe(ObjId(2), true), "pre-wrap stamp hit");
        assert!(!slot.probe(ObjId(3), true));
        assert!(!slot.probe(ObjId(0), false), "zero stamp hit");
    }

    #[test]
    fn flush_empties_and_counts_only_when_occupied() {
        let slot = slot(4);
        slot.flush();
        assert_eq!(take_counters(&slot), (0, 0), "empty flush is uncounted");
        slot.insert(ObjId(3), true);
        slot.flush();
        assert!(!slot.probe(ObjId(3), true));
        assert_eq!(take_counters(&slot), (0, 1));
    }

    #[test]
    fn remote_revoke_invalidates_next_probe() {
        let slot = slot(8);
        let obj = ObjId(5);
        slot.insert(obj, true);
        assert!(slot.probe(obj, true));
        slot.revoke(); // as if ThreadId(1) took ownership
        assert!(!slot.probe(obj, true), "stale hit after revocation");
        assert!(!slot.probe(obj, true), "epoch sync must not flap");
        assert_eq!(take_counters(&slot), (1, 1));
    }
}
