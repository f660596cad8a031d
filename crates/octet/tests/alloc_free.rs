//! A warm explicit-protocol round trip allocates nothing, on the requester
//! or on the responder: a request is one store into a word that exists for
//! the whole run, and the responder's list of claimed requesters is a buffer
//! it reuses. (This file holds one test: the counter is process-wide.)

use dc_octet::{BarrierOutcome, CoordinationMode, Protocol, TransitionSink};
use dc_runtime::ids::{ObjId, ThreadId};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

#[path = "../../../tests/common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::process_allocations;

thread_local! {
    /// The program thread this OS thread plays (const-init: no lazy
    /// allocation under the counter).
    static ME: Cell<u16> = const { Cell::new(u16::MAX) };
}

/// Counts the hooks that ran on the responder's own thread, i.e. the
/// explicit protocol (the implicit protocol runs the hook on the requester).
#[derive(Default)]
struct ExplicitCount(AtomicU64);

impl TransitionSink for ExplicitCount {
    fn conflicting(&self, resp: ThreadId, _req: ThreadId) {
        if ME.with(Cell::get) == resp.0 {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[test]
fn warm_explicit_round_trip_allocates_nothing_on_either_side() {
    const WARM: u64 = 64;
    const MEASURED: u64 = 512;
    const O: ObjId = ObjId(0);
    let p = Protocol::new(1, 2, CoordinationMode::Threaded, ExplicitCount::default());
    // Turn `n` belongs to thread `n % 2`: it takes the object from the
    // other thread, which is running and polls its safe point while it
    // waits for its own turn — every barrier is an explicit round trip.
    let turn = AtomicU64::new(0);
    let window = (AtomicU64::new(0), AtomicU64::new(0));
    std::thread::scope(|s| {
        for me in 0..2u64 {
            let (p, turn, window) = (&p, &turn, &window);
            s.spawn(move || {
                let t = ThreadId(me as u16);
                ME.with(|c| c.set(t.0));
                p.thread_begin(t);
                // Nobody moves before both threads run: a thread that has
                // not begun would be coordinated with implicitly.
                turn.fetch_add(1, Ordering::SeqCst);
                while turn.load(Ordering::SeqCst) < 2 {
                    std::hint::spin_loop();
                }
                loop {
                    let n = turn.load(Ordering::SeqCst) - 2;
                    if n >= WARM + MEASURED {
                        break;
                    }
                    if n % 2 != me {
                        p.safe_point(t);
                        std::thread::yield_now();
                        continue;
                    }
                    // Thread 0's turns open and close the measured window;
                    // thread 1 is only polling meanwhile.
                    if n == WARM {
                        window.0.store(process_allocations(), Ordering::SeqCst);
                    }
                    let outcome = p.write_barrier(t, O);
                    assert_eq!(
                        matches!(outcome, BarrierOutcome::Conflicting { .. }),
                        n > 0,
                        "turn {n}"
                    );
                    if n + 2 == WARM + MEASURED {
                        window.1.store(process_allocations(), Ordering::SeqCst);
                    }
                    turn.fetch_add(1, Ordering::SeqCst);
                }
                // Leave together: an early exit would turn the other
                // thread's last requests implicit.
                turn.fetch_add(1, Ordering::SeqCst);
                while turn.load(Ordering::SeqCst) < WARM + MEASURED + 4 {
                    p.safe_point(t);
                    std::hint::spin_loop();
                }
                p.thread_end(t);
            });
        }
    });
    assert_eq!(
        p.sink().0.load(Ordering::Relaxed),
        WARM + MEASURED - 1,
        "every conflicting barrier went through the explicit protocol"
    );
    assert_eq!(
        window.1.load(Ordering::SeqCst) - window.0.load(Ordering::SeqCst),
        0,
        "a warm explicit round trip must not allocate (requester or responder)"
    );
}
