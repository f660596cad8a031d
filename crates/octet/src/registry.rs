//! Per-thread coordination state: status words, request mailboxes, and the
//! thread-local view of the global read-shared counter.
//!
//! A thread's *status word* makes the explicit/implicit protocol choice
//! possible (paper §3.2.1): requesters send mailbox requests to `Running`
//! threads (the responder answers at its next safe point) and place a *hold*
//! on `Blocked` threads (the requester runs the hook itself; the hold keeps
//! the responder from unblocking mid-hook).

use dc_runtime::ids::ThreadId;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

/// Thread is executing code normally; coordinate explicitly.
pub const RUNNING: u32 = 0;
/// Thread is blocked (or not yet started / finished); coordinate implicitly.
pub const BLOCKED: u32 = 1;
/// Thread is blocked and a requester currently holds it.
pub const BLOCKED_HELD: u32 = 2;

/// Lifecycle of one explicit-protocol request.
pub const REQ_PENDING: u32 = 0;
/// Responder ran the hook and answered.
pub const REQ_RESPONDED: u32 = 1;
/// Requester abandoned the request (responder blocked); it must be skipped.
pub const REQ_CANCELLED: u32 = 2;

/// An explicit-protocol request parked in a responder's mailbox.
#[derive(Debug)]
pub struct Request {
    /// The thread asking for the state change.
    pub requester: ThreadId,
    /// One of [`REQ_PENDING`], [`REQ_RESPONDED`], [`REQ_CANCELLED`].
    pub flag: Arc<AtomicU32>,
}

#[repr(align(128))]
pub(crate) struct ThreadSlot {
    status: AtomicU32,
    has_requests: AtomicBool,
    mailbox: Mutex<Vec<Request>>,
    /// `T.rdShCnt` — the thread's view of the global read-shared counter.
    rd_sh_cnt: AtomicU32,
}

impl ThreadSlot {
    fn new() -> Self {
        ThreadSlot {
            // Threads are "blocked" until thread_begin: not-yet-started
            // threads are coordinated with implicitly.
            status: AtomicU32::new(BLOCKED),
            has_requests: AtomicBool::new(false),
            mailbox: Mutex::new(Vec::new()),
            rd_sh_cnt: AtomicU32::new(0),
        }
    }

    /// Cheap check whether the thread has pending requests (safe-point
    /// fast path). Acquire pairs with [`ThreadRegistry::enqueue_request`]'s
    /// release store after the mailbox push.
    #[inline]
    pub(crate) fn has_requests(&self) -> bool {
        self.has_requests.load(Ordering::Acquire)
    }
}

/// Dense per-thread coordination slots, `Arc`-shared so a thread can
/// resolve its own once ([`crate::ThreadHandle`]).
pub struct ThreadRegistry {
    slots: Box<[Arc<ThreadSlot>]>,
}

impl ThreadRegistry {
    /// Creates a registry for `n` threads, all initially blocked.
    pub fn new(n: usize) -> Self {
        ThreadRegistry {
            slots: (0..n).map(|_| Arc::new(ThreadSlot::new())).collect(),
        }
    }

    /// Thread `t`'s slot.
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

    /// Enqueues an explicit-protocol request for responder `r`.
    pub fn enqueue_request(&self, r: ThreadId, request: Request) {
        let slot = &self.slots[r.index()];
        slot.mailbox.lock().push(request);
        slot.has_requests.store(true, Ordering::Release);
    }

    /// Cheap check whether `t` has pending requests (safe-point fast path).
    #[inline]
    pub fn has_requests(&self, t: ThreadId) -> bool {
        self.slots[t.index()].has_requests()
    }

    /// Drains `t`'s mailbox, invoking `respond` for each still-pending
    /// request (cancelled requests are skipped). Called by `t` itself at
    /// safe points and around blocking.
    pub fn drain_requests(&self, t: ThreadId, mut respond: impl FnMut(ThreadId)) {
        let slot = &self.slots[t.index()];
        if !slot.has_requests.swap(false, Ordering::AcqRel) {
            return;
        }
        let requests: Vec<Request> = std::mem::take(&mut *slot.mailbox.lock());
        for request in requests {
            if request
                .flag
                .compare_exchange(
                    REQ_PENDING,
                    REQ_RESPONDED,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_ok()
            {
                respond(request.requester);
            }
        }
    }

    /// `t.rdShCnt`.
    #[inline]
    pub fn rd_sh_cnt(&self, t: ThreadId) -> u32 {
        self.slots[t.index()].rd_sh_cnt.load(Ordering::Acquire)
    }

    /// Raises `t.rdShCnt` to at least `c`.
    #[inline]
    pub fn raise_rd_sh_cnt(&self, t: ThreadId, c: u32) {
        self.slots[t.index()]
            .rd_sh_cnt
            .fetch_max(c, Ordering::AcqRel);
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

    #[test]
    fn threads_start_blocked_and_can_run() {
        let reg = ThreadRegistry::new(2);
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
        let reg = ThreadRegistry::new(1);
        assert!(reg.try_hold(T0));
        assert!(!reg.try_hold(T0), "second hold must fail");
        reg.release_hold(T0);
        assert!(reg.try_hold(T0));
        reg.release_hold(T0);
    }

    #[test]
    fn cannot_hold_running_thread() {
        let reg = ThreadRegistry::new(1);
        reg.set_running(T0);
        assert!(!reg.try_hold(T0));
    }

    #[test]
    fn drain_responds_to_pending_and_skips_cancelled() {
        let reg = ThreadRegistry::new(2);
        let pending = Arc::new(AtomicU32::new(REQ_PENDING));
        let cancelled = Arc::new(AtomicU32::new(REQ_CANCELLED));
        reg.enqueue_request(
            T0,
            Request {
                requester: T1,
                flag: Arc::clone(&pending),
            },
        );
        reg.enqueue_request(
            T0,
            Request {
                requester: T1,
                flag: Arc::clone(&cancelled),
            },
        );
        assert!(reg.has_requests(T0));
        let mut responded = Vec::new();
        reg.drain_requests(T0, |req| responded.push(req));
        assert_eq!(responded, vec![T1]);
        assert_eq!(pending.load(Ordering::Acquire), REQ_RESPONDED);
        assert!(!reg.has_requests(T0));
        // Second drain is a no-op.
        reg.drain_requests(T0, |_| panic!("nothing left to respond to"));
    }

    #[test]
    fn rd_sh_cnt_is_monotonic() {
        let reg = ThreadRegistry::new(1);
        assert_eq!(reg.rd_sh_cnt(T0), 0);
        reg.raise_rd_sh_cnt(T0, 5);
        reg.raise_rd_sh_cnt(T0, 3);
        assert_eq!(reg.rd_sh_cnt(T0), 5);
    }

    #[test]
    fn unblock_waits_for_hold_release() {
        // A held thread's set_running spins until the hold is released;
        // exercise the handoff across real threads.
        let reg = Arc::new(ThreadRegistry::new(1));
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
