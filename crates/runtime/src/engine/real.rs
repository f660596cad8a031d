//! The real-thread execution engine.
//!
//! Spawns one OS thread per program thread and interprets each thread's
//! action stream with the thread lifecycle of [`super`]; this file owns
//! parking. The engine polls [`Checker::safe_point`] where the interpreter's
//! [`Step::safe_point`] bit asks for it: after every non-access action and
//! after the first action past each loop back edge, the places a JVM puts
//! its yieldpoints (see [`crate::interp`]). Each poll sits between two
//! complete actions, never between a barrier and its access (§3.2.1).
//!
//! Synchronization runs on the `sync` state machine the det engine uses,
//! kept behind one mutex with one condition variable. A thread whose
//! action blocks calls [`Checker::before_block`], parks on the condition
//! variable until its block clears, then calls [`Checker::after_unblock`],
//! so Octet's implicit coordination protocol can engage; a forked thread
//! parks the same way until its fork. The mutex is held only to step the
//! state machine, never across a checker hook.

use crate::checker::Checker;
use crate::heap::Heap;
use crate::ids::ThreadId;
use crate::interp::{Action, Step, ThreadInterp};
use crate::program::{Program, StartMode};
use parking_lot::{Condvar, Mutex};
use std::time::Instant;

use super::sync::{acquired, released, SyncState};
use super::{exit_thread, perform, start_thread, RunStats};

/// The run's synchronization state, and the condition variable a blocked
/// thread parks on until its block clears. The mutex is never held across
/// a checker hook.
struct Parking<'p> {
    state: Mutex<SyncState<'p>>,
    changed: Condvar,
}

/// Runs `program` on real OS threads under `checker`.
///
/// Returns aggregate statistics including the wall-clock time of the
/// parallel phase: `elapsed_nanos` covers spawning the threads, running
/// them and joining them; heap and sync-state construction,
/// `Checker::run_begin` and `Checker::run_end` are outside it.
///
/// # Panics
///
/// Panics with "invalid program", before any thread starts, if `program`
/// fails `Program::validate` (which refuses, among others, a method body
/// that releases a monitor it does not hold). Panics inside the run on
/// monitor misuse validation cannot see, across a call. A panic on a
/// program thread (in a checker hook, say) is re-raised with its own
/// payload, the first thread's in thread order, once every thread has
/// been joined.
pub fn run_real<C: Checker>(program: &Program, checker: &C) -> RunStats {
    program.validate().expect("invalid program");
    let heap = Heap::new(&program.objects, program.n_threads());
    checker.run_begin(&heap);
    let parking = Parking {
        state: Mutex::new(SyncState::new(program)),
        changed: Condvar::new(),
    };
    let start = Instant::now();
    let mut stats = RunStats::default();
    let mut panic = None;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (i, spec) in program.threads.iter().enumerate() {
            let t = ThreadId::from_index(i);
            let heap = &heap;
            let parking = &parking;
            let entry = spec.entry;
            let forked = spec.start == StartMode::OnFork;
            handles.push(
                scope.spawn(move || run_thread(program, checker, heap, parking, t, entry, forked)),
            );
        }
        for handle in handles {
            match handle.join() {
                Ok(thread_stats) => stats.merge(&thread_stats),
                Err(payload) => {
                    panic.get_or_insert(payload);
                }
            }
        }
    });
    if let Some(payload) = panic {
        std::panic::resume_unwind(payload);
    }
    stats.elapsed_nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    checker.run_end();
    stats
}

fn run_thread<C: Checker>(
    program: &Program,
    checker: &C,
    heap: &Heap,
    parking: &Parking,
    t: ThreadId,
    entry: crate::ids::MethodId,
    forked: bool,
) -> RunStats {
    // Threads that start on fork park before touching any analysis state.
    if forked {
        let mut state = parking.state.lock();
        while !state.runnable(t) {
            parking.changed.wait(&mut state);
        }
    }
    start_thread(checker, heap, t, forked);
    let mut stats = RunStats::default();
    let mut interp = ThreadInterp::new(program, entry);
    while let Some(Step { action, safe_point }) = interp.next_action() {
        if !perform(checker, heap, &mut stats, t, action) {
            // One out-of-line call that never lends its `Action` out
            // (`&action`). When it did, the loop copied every `Step` out of
            // `next_action`'s return slot, and the uninstrumented loop ran
            // up to 2x slower. Keep the access arms inline.
            synchronize(parking, checker, heap, t, action);
        }
        if safe_point {
            checker.safe_point(t);
        }
    }
    exit_thread(checker, heap, t);
    parking.state.lock().finish(t);
    parking.changed.notify_all();
    stats
}

/// Runs one synchronization action in the hook sequence of [`super::sync`],
/// parking the thread while it is blocked. `action` is passed on by value
/// only: see the call site.
#[inline(never)]
fn synchronize<C: Checker>(
    parking: &Parking,
    checker: &C,
    heap: &Heap,
    t: ThreadId,
    action: Action,
) {
    let released = released(heap, action);
    if let Some(o) = released {
        checker.sync_release(t, o);
    }
    let block = parking.state.lock().start(t, action);
    // Only a release-like action can clear another thread's block.
    if released.is_some() {
        parking.changed.notify_all();
    }
    if let Some(block) = block {
        checker.before_block(t);
        let mut state = parking.state.lock();
        while !state.cleared(block) {
            parking.changed.wait(&mut state);
        }
        state.resume(t, block);
        drop(state);
        checker.after_unblock(t);
    }
    if let Some(o) = acquired(heap, action) {
        checker.sync_acquire(t, o);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::NopChecker;
    use crate::heap::ObjKind;
    use crate::ids::{CellId, ObjId};
    use crate::program::{Op, ProgramBuilder};
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn runs_two_independent_threads() {
        let mut b = ProgramBuilder::new();
        let o = b.object(ObjKind::Plain { fields: 4 });
        let m = b.method(
            "work",
            vec![Op::Loop {
                count: 100,
                body: vec![Op::Read(o, 0), Op::Write(o, 1), Op::Compute(5)],
            }],
        );
        b.thread(m);
        b.thread(m);
        let p = b.build().unwrap();
        let stats = run_real(&p, &NopChecker);
        assert_eq!(stats.reads, 200);
        assert_eq!(stats.writes, 200);
        assert_eq!(stats.method_entries, 2);
    }

    #[test]
    #[should_panic(expected = "injected write fault")]
    fn a_thread_panic_is_re_raised_with_its_own_payload() {
        struct FaultyWrite;
        impl Checker for FaultyWrite {
            fn write(&self, t: ThreadId, _: ObjId, _: CellId) {
                assert!(t != ThreadId(1), "injected write fault");
            }
        }
        let mut b = ProgramBuilder::new();
        let o = b.objects(2, 1);
        let m0 = b.method("w0", vec![Op::Write(o[0], 0)]);
        let m1 = b.method("w1", vec![Op::Write(o[1], 0)]);
        b.thread(m0);
        b.thread(m1);
        run_real(&b.build().unwrap(), &FaultyWrite);
    }

    #[test]
    fn locks_provide_mutual_exclusion() {
        // Two threads increment a shared counter under a lock; a counting
        // checker verifies acquire/release pairing.
        #[derive(Default)]
        struct SyncCounter {
            acquires: AtomicU64,
            releases: AtomicU64,
        }
        impl Checker for SyncCounter {
            fn sync_acquire(&self, _: ThreadId, _: ObjId) {
                self.acquires.fetch_add(1, Ordering::Relaxed);
            }
            fn sync_release(&self, _: ThreadId, _: ObjId) {
                self.releases.fetch_add(1, Ordering::Relaxed);
            }
        }
        let mut b = ProgramBuilder::new();
        let lock = b.object(ObjKind::Monitor);
        let o = b.object(ObjKind::Plain { fields: 1 });
        let m = b.method(
            "locked",
            vec![Op::Loop {
                count: 50,
                body: vec![
                    Op::Acquire(lock),
                    Op::Read(o, 0),
                    Op::Write(o, 0),
                    Op::Release(lock),
                ],
            }],
        );
        b.thread(m);
        b.thread(m);
        let p = b.build().unwrap();
        let checker = SyncCounter::default();
        run_real(&p, &checker);
        // 100 acquires + 100 releases, plus 2 thread-exit releases.
        assert_eq!(checker.acquires.load(Ordering::Relaxed), 100);
        assert_eq!(checker.releases.load(Ordering::Relaxed), 102);
    }

    #[test]
    fn fork_and_join_sequence_threads() {
        let mut b = ProgramBuilder::new();
        let o = b.object(ObjKind::Plain { fields: 1 });
        let worker = b.method("worker", vec![Op::Write(o, 0)]);
        let child = ThreadId(1);
        let main = b.method(
            "main",
            vec![Op::Fork(child), Op::Join(child), Op::Read(o, 0)],
        );
        b.thread(main);
        b.forked_thread(worker);
        let p = b.build().unwrap();
        let stats = run_real(&p, &NopChecker);
        assert_eq!(stats.writes, 1);
        assert_eq!(stats.reads, 1);
        assert_eq!(stats.syncs, 2); // fork + join
    }

    #[test]
    fn barrier_rendezvous_releases_all_parties() {
        let mut b = ProgramBuilder::new();
        let bar = b.object(ObjKind::Barrier { parties: 3 });
        let o = b.object(ObjKind::Plain { fields: 1 });
        let m = b.method(
            "phased",
            vec![
                Op::Write(o, 0),
                Op::Barrier(bar),
                Op::Read(o, 0),
                Op::Barrier(bar),
            ],
        );
        b.thread(m);
        b.thread(m);
        b.thread(m);
        let p = b.build().unwrap();
        let stats = run_real(&p, &NopChecker);
        assert_eq!(stats.syncs, 6);
        assert_eq!(stats.reads, 3);
    }

    #[test]
    fn wait_notify_hand_off() {
        // T1 waits until T0 notifies. T0 acquires, writes, notifies, releases.
        let mut b = ProgramBuilder::new();
        let mon = b.object(ObjKind::Monitor);
        let o = b.object(ObjKind::Plain { fields: 1 });
        let waiter_entry = b.method(
            "waiter",
            vec![
                Op::Acquire(mon),
                Op::Wait(mon),
                Op::Read(o, 0),
                Op::Release(mon),
            ],
        );
        let waiter_t = ThreadId(1);
        let notifier = b.method(
            "notifier",
            vec![
                Op::Fork(waiter_t),
                Op::Compute(1000),
                Op::Acquire(mon),
                Op::Write(o, 0),
                Op::NotifyAll(mon),
                Op::Release(mon),
                Op::Join(waiter_t),
            ],
        );
        b.thread(notifier);
        b.forked_thread(waiter_entry);
        let p = b.build().unwrap();
        let stats = run_real(&p, &NopChecker);
        assert_eq!(stats.reads, 1);
        assert_eq!(stats.writes, 1);
    }

    #[test]
    fn heap_stores_are_visible_across_barrier() {
        let mut b = ProgramBuilder::new();
        let o = b.object(ObjKind::Plain { fields: 1 });
        let m = b.method("w", vec![Op::Write(o, 0 as CellId)]);
        b.thread(m);
        let p = b.build().unwrap();
        run_real(&p, &NopChecker);
    }
}
