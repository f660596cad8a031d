//! The explicit protocol's ordering contract on real threads (paper §3.2.1 /
//! Figure 4): the responder runs the coordination hook *while the requester
//! is still waiting*, and answers only afterwards. A hook that reads the
//! requester's state (ICD reads its log length for the edge's sink position)
//! must see it as it was when the requester asked.

use dc_octet::{BarrierOutcome, CoordinationMode, Protocol, TransitionSink};
use dc_runtime::ids::{ObjId, ThreadId};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::time::Duration;

const T0: ThreadId = ThreadId(0);
const T1: ThreadId = ThreadId(1);
const O: ObjId = ObjId(0);

/// A slow hook that looks, at its very end, at a flag the requester raises
/// as soon as its barrier returns.
#[derive(Default)]
struct SlowSink {
    requester_proceeded: AtomicBool,
    /// Hooks run, and how many of them saw the requester already past its
    /// barrier.
    hooks: AtomicU32,
    saw_requester_proceed: AtomicU32,
}

impl TransitionSink for SlowSink {
    fn conflicting(&self, _resp: ThreadId, _req: ThreadId) {
        // Not a synchronization device: with the contract kept the outcome
        // is the same for any delay; the delay only makes a release-first
        // responder lose the race every time instead of sometimes.
        std::thread::sleep(Duration::from_millis(2));
        self.hooks.fetch_add(1, Ordering::SeqCst);
        if self.requester_proceeded.load(Ordering::SeqCst) {
            self.saw_requester_proceed.fetch_add(1, Ordering::SeqCst);
        }
    }
}

#[test]
fn requester_is_released_only_after_the_hook_returned() {
    let p = Protocol::new(1, 2, CoordinationMode::Threaded, SlowSink::default());
    p.thread_begin(T0);
    assert_eq!(p.write_barrier(T0, O), BarrierOutcome::FirstTouch);
    std::thread::scope(|s| {
        s.spawn(|| {
            p.thread_begin(T1);
            // Conflicts with T0, which is running: the explicit protocol.
            let outcome = p.write_barrier(T1, O);
            p.sink().requester_proceeded.store(true, Ordering::SeqCst);
            assert!(matches!(outcome, BarrierOutcome::Conflicting { .. }));
            p.thread_end(T1);
        });
        // T0 stays running and answers at safe points until the hook ran.
        while p.sink().hooks.load(Ordering::SeqCst) == 0 {
            p.safe_point(T0);
            std::thread::yield_now();
        }
    });
    p.thread_end(T0);
    assert_eq!(p.sink().hooks.load(Ordering::SeqCst), 1);
    assert_eq!(
        p.sink().saw_requester_proceed.load(Ordering::SeqCst),
        0,
        "the requester left its barrier while the responder's hook was still running"
    );
}
