//! Per-thread state, one `ThreadSlot` per thread. Its head holds the words
//! other threads read or write: the status word, the request words, the
//! thread's view of the global read-shared counter and the ownership
//! cache's revocation epoch. Its owner block ([`OwnerCell`]) holds what
//! only the thread touches: the ownership cache's stamp table (`cache.rs`),
//! the claim buffer and the tallies.
//!
//! A thread's *status word* makes the explicit/implicit protocol choice
//! possible (paper §3.2.1): requesters post a request to `Running` threads
//! (the responder answers at its next safe point) and place a *hold* on
//! `Blocked` threads (the requester runs the hook itself; the hold keeps
//! the responder from unblocking mid-hook).
//!
//! An explicit request is one `AtomicU32` *request word* per (responder,
//! requester) pair. A requester spins on its single outstanding request —
//! it coordinates with one responder at a time — so one word per pair
//! holds everything there is to say, and posting, answering and
//! withdrawing a request allocate nothing and take no lock:
//!
//! ```text
//!            requester                responder                requester
//!   IDLE ───────────────▶ PENDING ───────────────▶ CLAIMED ─────────▶ RESPONDED ──▶ IDLE
//!          request()         │     claim_requests()     respond_requests()   take_response()
//!                            └──▶ IDLE   withdraw(): only from PENDING
//! ```
//!
//! The responder *claims* every pending word, runs the coordination hook
//! while those requesters are still spinning, and only then answers
//! (§3.2.1 / Figure 4: the edge is recorded while the requester waits). A
//! requester that sees its responder block may withdraw a request only
//! while it is still `PENDING`; once claimed, the hook is running against
//! it and it keeps waiting for the answer.

use crate::cache::Stamps;
use dc_runtime::ids::ThreadId;
use dc_runtime::OwnerCell;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

/// Thread is executing code normally; coordinate explicitly.
pub const RUNNING: u32 = 0;
/// Thread is blocked (or not yet started / finished); coordinate implicitly.
pub const BLOCKED: u32 = 1;
/// Thread is blocked and a requester currently holds it.
pub const BLOCKED_HELD: u32 = 2;

/// Request word: no request outstanding.
const IDLE: u32 = 0;
/// The requester posted a request and spins.
const PENDING: u32 = 1;
/// The responder took the request at a safe point; its hook is running.
const CLAIMED: u32 = 2;
/// The hook ran; the requester may proceed.
const RESPONDED: u32 = 3;

/// One thread's Octet state: the words other threads read or write, then
/// the owner block, which starts a 128-byte block of its own
/// (`#[repr(C)]` keeps the head first).
#[repr(C)]
pub(crate) struct ThreadSlot {
    status: AtomicU32,
    has_requests: AtomicBool,
    /// One request word per requester, indexed by the requester's id.
    requests: Box<[AtomicU32]>,
    /// `T.rdShCnt` — the thread's view of the global read-shared counter.
    rd_sh_cnt: AtomicU32,
    /// Ownership-cache revocation epoch, bumped by threads that take
    /// ownership away from this one outside its own execution
    /// ([`ThreadSlot::revoke`]).
    pub(crate) revoked: AtomicU32,
    pub(crate) owner: OwnerCell<Owner>,
}

/// What only the slot's thread touches.
#[derive(Debug)]
pub(crate) struct Owner {
    /// The ownership inline cache's stamp table.
    pub(crate) cache: Stamps,
    /// The requesters this thread claimed at its current safe point. The
    /// buffer is moved out while in use and handed back cleared, so it is
    /// allocated once (with room for every other thread).
    claimed: Vec<ThreadId>,
    /// What this thread did, by [`Tally`], since the last
    /// [`ThreadSlot::take_tallies`].
    pub(crate) tallies: Tallies,
}

/// Per-thread counts, indexed by [`Tally`].
pub(crate) type Tallies = [u64; 6];

/// What a thread tallies: the transitions it performed (first touch,
/// upgrade, fence, conflicting) and its ownership cache's hits and
/// non-empty flushes.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Tally {
    FirstTouch,
    Upgrade,
    Fence,
    Conflict,
    CacheHit,
    CacheFlush,
}

impl ThreadSlot {
    /// A slot for one of `n_threads` threads, with a stamp table covering
    /// `cache_objects` objects (0 with the ownership cache off).
    pub(crate) fn new(n_threads: usize, cache_objects: usize) -> Self {
        ThreadSlot {
            // Threads are "blocked" until thread_begin: not-yet-started
            // threads are coordinated with implicitly.
            status: AtomicU32::new(BLOCKED),
            has_requests: AtomicBool::new(false),
            requests: (0..n_threads).map(|_| AtomicU32::new(IDLE)).collect(),
            rd_sh_cnt: AtomicU32::new(0),
            revoked: AtomicU32::new(0),
            owner: OwnerCell::new(Owner {
                cache: Stamps::new(cache_objects),
                claimed: Vec::with_capacity(n_threads),
                tallies: [0; 6],
            }),
        }
    }

    /// Cheap check whether the thread may have pending requests (safe-point
    /// fast path). Acquire pairs with [`ThreadRegistry::request`]'s release
    /// store after the request word is posted.
    #[inline]
    pub(crate) fn has_requests(&self) -> bool {
        self.has_requests.load(Ordering::Acquire)
    }

    /// Counts one `kind` event. Runs on the slot's thread.
    #[inline]
    pub(crate) fn tally(&self, kind: Tally) {
        // SAFETY: runs on the owner, which holds no other borrow of its cell.
        unsafe { self.owner.get() }.tallies[kind as usize] += 1;
    }

    /// Returns and resets the counts. Runs on the slot's thread.
    pub(crate) fn take_tallies(&self) -> Tallies {
        // SAFETY: as in `tally`.
        std::mem::take(&mut unsafe { self.owner.get() }.tallies)
    }
}

/// Dense per-thread slots, `Arc`-shared so a thread can resolve its own
/// once ([`crate::ThreadHandle`]).
pub struct ThreadRegistry {
    slots: Box<[Arc<ThreadSlot>]>,
}

impl ThreadRegistry {
    /// Creates a registry for `n` threads, all initially blocked, each with
    /// an ownership-cache stamp table covering `cache_objects` objects (4
    /// bytes per object per thread; 0 with the cache off).
    pub fn new(n: usize, cache_objects: usize) -> Self {
        ThreadRegistry {
            slots: (0..n)
                .map(|_| Arc::new(ThreadSlot::new(n, cache_objects)))
                .collect(),
        }
    }

    /// Thread `t`'s slot.
    #[inline]
    pub(crate) fn slot(&self, t: ThreadId) -> &Arc<ThreadSlot> {
        &self.slots[t.index()]
    }

    /// Number of threads.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Current status word of `t`.
    #[inline]
    pub fn status(&self, t: ThreadId) -> u32 {
        self.slots[t.index()].status.load(Ordering::Acquire)
    }

    /// Marks `t` running (thread start / unblock). Spins past any holds.
    pub fn set_running(&self, t: ThreadId) {
        let slot = &self.slots[t.index()];
        loop {
            match slot.status.compare_exchange(
                BLOCKED,
                RUNNING,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return,
                Err(BLOCKED_HELD) => std::thread::yield_now(),
                Err(RUNNING) => return,
                Err(other) => unreachable!("corrupt status word {other}"),
            }
        }
    }

    /// Marks `t` blocked (before parking, or thread exit).
    pub fn set_blocked(&self, t: ThreadId) {
        self.slots[t.index()]
            .status
            .store(BLOCKED, Ordering::Release);
    }

    /// Tries to place a hold on a blocked `t`. On success the caller may run
    /// coordination hooks against `t` and must call [`Self::release_hold`].
    pub fn try_hold(&self, t: ThreadId) -> bool {
        self.slots[t.index()]
            .status
            .compare_exchange(BLOCKED, BLOCKED_HELD, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Releases a hold placed by [`Self::try_hold`].
    pub fn release_hold(&self, t: ThreadId) {
        let prev = self.slots[t.index()].status.swap(BLOCKED, Ordering::AcqRel);
        debug_assert_eq!(prev, BLOCKED_HELD, "hold released without being held");
    }

    /// `req`'s request word in `resp`'s slot.
    #[inline]
    fn word(&self, resp: ThreadId, req: ThreadId) -> &AtomicU32 {
        &self.slots[resp.index()].requests[req.index()]
    }

    /// Posts `req`'s explicit-protocol request to responder `resp`. `req`
    /// must have no request outstanding with `resp`.
    pub fn request(&self, resp: ThreadId, req: ThreadId) {
        let word = self.word(resp, req);
        debug_assert_eq!(
            word.load(Ordering::Relaxed),
            IDLE,
            "one outstanding request per pair"
        );
        word.store(PENDING, Ordering::Release);
        // Raised after the word: a responder that sees the flag (acquire)
        // sees the word. A responder that clears the flag first either
        // claims the word in the same scan or leaves the flag raised by
        // this store for its next safe point — never a lost request, at
        // worst one empty scan.
        self.slots[resp.index()]
            .has_requests
            .store(true, Ordering::Release);
    }

    /// Requester side: true once `resp` answered `req`'s request, which
    /// returns the word to idle. Acquire pairs with the release store in
    /// [`Self::respond_requests`]: everything the responder's hook did is
    /// visible to the requester that proceeds.
    #[inline]
    pub fn take_response(&self, resp: ThreadId, req: ThreadId) -> bool {
        let word = self.word(resp, req);
        let answered = word.load(Ordering::Acquire) == RESPONDED;
        if answered {
            word.store(IDLE, Ordering::Relaxed);
        }
        answered
    }

    /// Requester side: withdraws `req`'s request to `resp` (the responder
    /// blocked; the caller retries implicitly). Succeeds only while the
    /// request is still pending: a claimed request is being answered, and
    /// its requester must keep waiting.
    pub fn withdraw(&self, resp: ThreadId, req: ThreadId) -> bool {
        self.word(resp, req)
            .compare_exchange(PENDING, IDLE, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Cheap check whether `t` may have pending requests (safe-point fast
    /// path).
    #[inline]
    pub fn has_requests(&self, t: ThreadId) -> bool {
        self.slots[t.index()].has_requests()
    }

    /// Responder side, called by `t` itself at safe points and around
    /// blocking: claims every pending request and returns the requesters in
    /// index order. They keep spinning until the list is handed back to
    /// [`Self::respond_requests`], which the caller must do — also when it
    /// is empty, so the buffer is reused.
    pub fn claim_requests(&self, t: ThreadId) -> Vec<ThreadId> {
        let slot = &self.slots[t.index()];
        // SAFETY: runs on `t`. The buffer leaves the cell, so no borrow of
        // it is alive while the caller runs the sink for these requesters.
        let mut claimed = std::mem::take(&mut unsafe { slot.owner.get() }.claimed);
        if slot.has_requests.swap(false, Ordering::AcqRel) {
            for (i, word) in slot.requests.iter().enumerate() {
                if word
                    .compare_exchange(PENDING, CLAIMED, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
                {
                    claimed.push(ThreadId::from_index(i));
                }
            }
        }
        claimed
    }

    /// Answers the requests [`Self::claim_requests`] claimed, releasing
    /// their requesters, and takes the buffer back.
    pub fn respond_requests(&self, t: ThreadId, mut claimed: Vec<ThreadId>) {
        let slot = &self.slots[t.index()];
        for req in claimed.drain(..) {
            let word = &slot.requests[req.index()];
            debug_assert_eq!(
                word.load(Ordering::Relaxed),
                CLAIMED,
                "only the responder moves a claimed word"
            );
            word.store(RESPONDED, Ordering::Release);
        }
        // SAFETY: runs on `t`, which holds no other borrow of its cell here.
        unsafe { slot.owner.get() }.claimed = claimed;
    }

    /// `t.rdShCnt`.
    #[inline]
    pub fn rd_sh_cnt(&self, t: ThreadId) -> u32 {
        self.slots[t.index()].rd_sh_cnt.load(Ordering::Acquire)
    }

    /// Raises `t.rdShCnt` to at least `c`. Only `t` raises its own
    /// counter, so a counter already at `c` needs no read-modify-write.
    #[inline]
    pub fn raise_rd_sh_cnt(&self, t: ThreadId, c: u32) {
        let cnt = &self.slots[t.index()].rd_sh_cnt;
        if cnt.load(Ordering::Acquire) < c {
            cnt.fetch_max(c, Ordering::AcqRel);
        }
    }
}

impl std::fmt::Debug for ThreadRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadRegistry")
            .field("threads", &self.slots.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);
    const T2: ThreadId = ThreadId(2);

    /// The words other threads touch sit in the slot's first 128-byte
    /// block; the owner block, written on every cache probe, starts at the
    /// next one — no false sharing between the two.
    #[test]
    fn the_owner_block_starts_128_bytes_after_the_shared_words() {
        use std::mem::{align_of, offset_of, size_of};
        assert_eq!(align_of::<ThreadSlot>(), 128);
        let head_end = offset_of!(ThreadSlot, revoked) + size_of::<AtomicU32>();
        for word in [
            offset_of!(ThreadSlot, status),
            offset_of!(ThreadSlot, has_requests),
            offset_of!(ThreadSlot, requests),
            offset_of!(ThreadSlot, rd_sh_cnt),
        ] {
            assert!(word < head_end);
        }
        assert!(head_end <= 128);
        assert!(offset_of!(ThreadSlot, owner) >= offset_of!(ThreadSlot, status) + 128);
    }

    #[test]
    fn threads_start_blocked_and_can_run() {
        let reg = ThreadRegistry::new(2, 0);
        assert_eq!(reg.len(), 2);
        assert!(!reg.is_empty());
        assert_eq!(reg.status(T0), BLOCKED);
        reg.set_running(T0);
        assert_eq!(reg.status(T0), RUNNING);
        reg.set_blocked(T0);
        assert_eq!(reg.status(T0), BLOCKED);
    }

    #[test]
    fn holds_are_exclusive() {
        let reg = ThreadRegistry::new(1, 0);
        assert!(reg.try_hold(T0));
        assert!(!reg.try_hold(T0), "second hold must fail");
        reg.release_hold(T0);
        assert!(reg.try_hold(T0));
        reg.release_hold(T0);
    }

    #[test]
    fn cannot_hold_running_thread() {
        let reg = ThreadRegistry::new(1, 0);
        reg.set_running(T0);
        assert!(!reg.try_hold(T0));
    }

    /// Requester word of `req` in `resp`'s slot, as the tests observe it.
    fn word(reg: &ThreadRegistry, resp: ThreadId, req: ThreadId) -> u32 {
        reg.word(resp, req).load(Ordering::Acquire)
    }

    #[test]
    fn request_round_trip_walks_the_four_states() {
        let reg = ThreadRegistry::new(3, 0);
        reg.request(T0, T1);
        reg.request(T0, T2);
        assert!(reg.has_requests(T0));
        assert_eq!(word(&reg, T0, T1), PENDING);
        let claimed = reg.claim_requests(T0);
        assert_eq!(claimed, vec![T1, T2], "requesters in index order");
        assert!(!reg.has_requests(T0));
        assert_eq!(word(&reg, T0, T1), CLAIMED);
        assert!(!reg.take_response(T0, T1), "claimed is not answered");
        reg.respond_requests(T0, claimed);
        assert_eq!(word(&reg, T0, T2), RESPONDED);
        assert!(reg.take_response(T0, T1));
        assert!(reg.take_response(T0, T2));
        assert_eq!(word(&reg, T0, T1), IDLE);
        // A second scan is a no-op on the reused buffer.
        let again = reg.claim_requests(T0);
        assert!(again.is_empty());
        assert!(again.capacity() >= 3, "the claim buffer is reused");
        reg.respond_requests(T0, again);
    }

    #[test]
    fn claimed_word_cannot_be_withdrawn() {
        let reg = ThreadRegistry::new(2, 0);
        reg.request(T0, T1);
        let claimed = reg.claim_requests(T0);
        assert!(
            !reg.withdraw(T0, T1),
            "the hook is running against a claimed requester: it must wait"
        );
        assert_eq!(word(&reg, T0, T1), CLAIMED);
        reg.respond_requests(T0, claimed);
        assert!(reg.take_response(T0, T1));
    }

    #[test]
    fn pending_word_behind_a_blocking_responder_is_withdrawn_and_reposted() {
        let reg = ThreadRegistry::new(2, 0);
        reg.set_running(T0);
        reg.request(T0, T1);
        // The responder blocks without reaching another safe point.
        reg.set_blocked(T0);
        assert!(reg.withdraw(T0, T1), "pending requests can be withdrawn");
        assert_eq!(word(&reg, T0, T1), IDLE);
        // The stale flag costs the responder one empty scan, nothing else.
        reg.set_running(T0);
        assert!(reg.has_requests(T0));
        let claimed = reg.claim_requests(T0);
        assert!(claimed.is_empty());
        reg.respond_requests(T0, claimed);
        // The same pair can post again.
        reg.request(T0, T1);
        let claimed = reg.claim_requests(T0);
        assert_eq!(claimed, vec![T1]);
        reg.respond_requests(T0, claimed);
        assert!(reg.take_response(T0, T1));
    }

    /// `request` is two stores (word, then flag) and `claim_requests` a
    /// flag clear followed by a scan; drive every order they can interleave
    /// in by hand.
    #[test]
    fn flag_raised_around_a_scan_is_not_lost() {
        let reg = ThreadRegistry::new(3, 0);
        let slot = reg.slot(T0);
        // Word posted, flag not raised yet: the safe point skips the scan;
        // the request is found once the flag lands.
        slot.requests[T1.index()].store(PENDING, Ordering::Release);
        let claimed = reg.claim_requests(T0);
        assert!(claimed.is_empty());
        reg.respond_requests(T0, claimed);
        slot.has_requests.store(true, Ordering::Release);
        let claimed = reg.claim_requests(T0);
        assert_eq!(claimed, vec![T1]);
        // A requester posts while T1 is still claimed (the responder is in
        // its hook): the flag stays raised for the next safe point, and the
        // claimed word is not claimed twice.
        reg.request(T0, T2);
        assert!(reg.has_requests(T0));
        reg.respond_requests(T0, claimed);
        let claimed = reg.claim_requests(T0);
        assert_eq!(claimed, vec![T2]);
        reg.respond_requests(T0, claimed);
        // The scan claimed a word whose flag store lands afterwards: one
        // spurious empty scan.
        assert!(reg.take_response(T0, T1));
        slot.requests[T1.index()].store(PENDING, Ordering::Release);
        slot.has_requests.store(true, Ordering::Release); // raised by T2, say
        let claimed = reg.claim_requests(T0);
        assert_eq!(claimed, vec![T1]);
        slot.has_requests.store(true, Ordering::Release); // T1's late store
        reg.respond_requests(T0, claimed);
        let claimed = reg.claim_requests(T0);
        assert!(claimed.is_empty());
        reg.respond_requests(T0, claimed);
        assert!(!reg.has_requests(T0));
    }

    #[test]
    fn rd_sh_cnt_is_monotonic() {
        let reg = ThreadRegistry::new(1, 0);
        assert_eq!(reg.rd_sh_cnt(T0), 0);
        reg.raise_rd_sh_cnt(T0, 5);
        reg.raise_rd_sh_cnt(T0, 3);
        assert_eq!(reg.rd_sh_cnt(T0), 5);
    }

    #[test]
    fn unblock_waits_for_hold_release() {
        // A held thread's set_running spins until the hold is released;
        // exercise the handoff across real threads.
        let reg = Arc::new(ThreadRegistry::new(1, 0));
        assert!(reg.try_hold(T0));
        let reg2 = Arc::clone(&reg);
        let h = std::thread::spawn(move || {
            reg2.set_running(T0);
            assert_eq!(reg2.status(T0), RUNNING);
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        reg.release_hold(T0);
        h.join().unwrap();
    }
}
