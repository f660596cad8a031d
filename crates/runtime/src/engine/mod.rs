//! Execution engines.
//!
//! Two engines run the same [`crate::program::Program`] against the same
//! [`crate::checker::Checker`]:
//!
//! * [`real::run_real`] — one OS thread per program thread; used for the
//!   performance experiments (Figure 7) because the analyses' costs come from
//!   real atomics, fences, and cache traffic.
//! * [`det::run_det`] — a deterministic single-threaded scheduler with
//!   scripted or seeded interleavings; used for correctness tests and for
//!   reproducing the paper's worked examples (Figures 2 and 3) exactly.
//!
//! They share everything but the interleaving. [`crate::interp`] decides
//! what each thread does and where its safe points are. This module owns
//! the thread lifecycle: thread start, every action but a synchronization
//! (`perform`), thread exit. `sync` is the one state machine for monitors,
//! wait latches, barriers, fork and join, with one hook sequence for every
//! synchronization action: release-like hook, primitive (bracketed by
//! `before_block` … `after_unblock` only if it blocked), acquire-like
//! hook, safe-point poll. `det` owns scheduling and `real` parking: how a
//! blocked thread waits (resumed by a later scheduled step; parked on one
//! condition variable) and who runs next. The real engine's one mutex is
//! never held across a checker hook: a hook may wait for another thread
//! (an Octet request does), and that thread may need the mutex.

pub mod det;
pub mod real;
mod sync;

use crate::checker::Checker;
use crate::heap::Heap;
use crate::ids::ThreadId;
use crate::interp::{compute_units, Action};
use std::time::Duration;

/// Aggregate statistics for one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Plain-field reads executed.
    pub reads: u64,
    /// Plain-field writes executed.
    pub writes: u64,
    /// Array-element accesses executed.
    pub array_accesses: u64,
    /// Synchronization operations executed (acquire, release, wait, notify,
    /// barrier, fork, join).
    pub syncs: u64,
    /// Method entries executed.
    pub method_entries: u64,
    /// Wall-clock time of the parallel phase, in nanoseconds.
    pub elapsed_nanos: u64,
}

impl RunStats {
    /// Total instrumented-relevant events.
    pub fn total_accesses(&self) -> u64 {
        self.reads + self.writes + self.array_accesses + self.syncs
    }

    /// Wall-clock time of the parallel phase.
    pub fn elapsed(&self) -> Duration {
        Duration::from_nanos(self.elapsed_nanos)
    }

    pub(crate) fn merge(&mut self, other: &RunStats) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.array_accesses += other.array_accesses;
        self.syncs += other.syncs;
        self.method_entries += other.method_entries;
    }
}

/// Thread start: `thread_begin`, then, for a thread started by a fork, the
/// acquire-like hook on its own thread object (the fork → start edge) and a
/// poll.
#[inline(always)]
fn start_thread<C: Checker>(checker: &C, heap: &Heap, t: ThreadId, forked: bool) {
    checker.thread_begin(t);
    if forked {
        checker.sync_acquire(t, heap.thread_obj(t));
        checker.safe_point(t);
    }
}

/// Runs `action` for thread `t` if it is not a synchronization action: its
/// count, its hook and its heap access. Returns `false`, having counted it,
/// for a synchronization action, which the engine runs on `sync`.
#[inline(always)]
fn perform<C: Checker>(
    checker: &C,
    heap: &Heap,
    stats: &mut RunStats,
    t: ThreadId,
    action: Action,
) -> bool {
    match action {
        Action::Enter(m) => {
            stats.method_entries += 1;
            checker.enter_method(t, m);
        }
        Action::Exit(m) => checker.exit_method(t, m),
        Action::Read(o, c) => {
            stats.reads += 1;
            checker.read(t, o, c);
            std::hint::black_box(heap.load(o, c));
        }
        Action::Write(o, c) => {
            stats.writes += 1;
            checker.write(t, o, c);
            heap.store(o, c, stats.writes);
        }
        Action::ArrayRead(o, c) => {
            stats.array_accesses += 1;
            checker.array_read(t, o, c);
            std::hint::black_box(heap.load(o, c));
        }
        Action::ArrayWrite(o, c) => {
            stats.array_accesses += 1;
            checker.array_write(t, o, c);
            heap.store(o, c, stats.array_accesses);
        }
        Action::Compute(u) => {
            std::hint::black_box(compute_units(u));
        }
        _ => {
            stats.syncs += 1;
            return false;
        }
    }
    true
}

/// Thread exit: release-like on the thread's own object, so a joiner sees a
/// dependence edge from everything the thread did, then `thread_end`.
#[inline(always)]
fn exit_thread<C: Checker>(checker: &C, heap: &Heap, t: ThreadId) {
    checker.sync_release(t, heap.thread_obj(t));
    checker.thread_end(t);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::Checker;
    use crate::heap::ObjKind;
    use crate::ids::{CellId, MethodId, ObjId, ThreadId};
    use crate::program::{Op, Program, ProgramBuilder};
    use std::sync::Mutex;

    /// Logs each thread's hooks as short tokens; `sp` is a safe-point poll,
    /// `blk` / `unblk` bracket a blocked window.
    #[derive(Default)]
    struct Recorder(Mutex<Vec<(ThreadId, String)>>);

    impl Recorder {
        fn log(&self, t: ThreadId, token: impl Into<String>) {
            self.0.lock().unwrap().push((t, token.into()));
        }

        /// Each thread's tokens, in order.
        fn threads(self) -> Vec<Vec<String>> {
            let mut threads = Vec::new();
            for (t, token) in self.0.into_inner().unwrap() {
                if threads.len() <= t.index() {
                    threads.resize(t.index() + 1, Vec::new());
                }
                threads[t.index()].push(token);
            }
            threads
        }

        fn run_real(program: &Program) -> Vec<Vec<String>> {
            let recorder = Recorder::default();
            real::run_real(program, &recorder);
            recorder.threads()
        }

        fn run_det(program: &Program, schedule: &det::Schedule) -> Vec<Vec<String>> {
            let recorder = Recorder::default();
            det::run_det(program, &recorder, schedule).unwrap();
            recorder.threads()
        }
    }

    impl Checker for Recorder {
        fn enter_method(&self, t: ThreadId, m: MethodId) {
            self.log(t, format!("enter{}", m.index()));
        }
        fn exit_method(&self, t: ThreadId, m: MethodId) {
            self.log(t, format!("exit{}", m.index()));
        }
        fn read(&self, t: ThreadId, _: ObjId, cell: CellId) {
            self.log(t, format!("R{cell}"));
        }
        fn write(&self, t: ThreadId, _: ObjId, cell: CellId) {
            self.log(t, format!("W{cell}"));
        }
        fn sync_acquire(&self, t: ThreadId, _: ObjId) {
            self.log(t, "acq");
        }
        fn sync_release(&self, t: ThreadId, _: ObjId) {
            self.log(t, "rel");
        }
        fn safe_point(&self, t: ThreadId) {
            self.log(t, "sp");
        }
        fn before_block(&self, t: ThreadId) {
            self.log(t, "blk");
        }
        fn after_unblock(&self, t: ThreadId) {
            self.log(t, "unblk");
        }
    }

    #[test]
    fn both_engines_poll_at_the_same_program_points() {
        let mut b = ProgramBuilder::new();
        let o = b.object(ObjKind::Plain { fields: 2 });
        let lock = b.object(ObjKind::Monitor);
        let leaf = b.method("leaf", vec![Op::Write(o, 0), Op::Read(o, 1)]);
        let main = b.method(
            "main",
            vec![
                Op::Loop {
                    count: 3,
                    body: vec![Op::Read(o, 0), Op::Write(o, 1)],
                },
                Op::Compute(4),
                Op::Acquire(lock),
                Op::Read(o, 0),
                Op::Release(lock),
                Op::Call(leaf),
            ],
        );
        b.thread(main);
        let p = b.build().unwrap();
        assert_eq!((leaf.index(), main.index()), (0, 1));
        // One line per program point; `sp` is a poll.
        #[rustfmt::skip]
        let expected = [
            "enter1", "sp",
            // Iteration 1 runs straight on from the entry poll; each later
            // iteration polls once, after its first access.
            "R0", "W1",
            "R0", "sp", "W1",
            "R0", "sp", "W1",
            // Compute (a modelled loop) polls, and hooks nothing else.
            "sp",
            "acq", "sp",
            "R0",
            "rel", "sp",
            "enter0", "sp",
            "W0", "R1",
            "exit0", "sp",
            "exit1", "sp",
            // Thread exit's release on the thread object.
            "rel",
        ];
        assert_eq!(Recorder::run_real(&p), [expected]);
        assert_eq!(Recorder::run_det(&p, &det::Schedule::random(7)), [expected]);
    }

    /// A blocked action's window is `blk unblk acq sp` in its thread's
    /// stream, with nothing of that thread in between, whichever engine runs
    /// it and whatever it blocked on.
    #[test]
    fn both_engines_bracket_a_block_with_one_hook_sequence() {
        let t = ThreadId::from_index;
        let mut programs = Vec::new();
        // (a) A contended `Acquire`: t1 asks while t0 holds the lock.
        let mut b = ProgramBuilder::new();
        let lock = b.object(ObjKind::Monitor);
        let body = vec![Op::Acquire(lock), Op::Compute(20), Op::Release(lock)];
        let m = b.method("locked", vec![Op::Loop { count: 20, body }]);
        b.thread(m);
        b.thread(m);
        programs.push(("acquire", b.build().unwrap(), vec![t(0), t(0), t(1), t(1)]));
        // (b) A 2-party barrier: t0 arrives first.
        let mut b = ProgramBuilder::new();
        let bar = b.object(ObjKind::Barrier { parties: 2 });
        let body = vec![Op::Barrier(bar), Op::Compute(20)];
        let m = b.method("phased", vec![Op::Loop { count: 20, body }]);
        b.thread(m);
        b.thread(m);
        programs.push(("barrier", b.build().unwrap(), vec![t(0), t(0)]));
        // (c) A join on a child that is still running.
        let mut b = ProgramBuilder::new();
        let worker = b.method("worker", vec![Op::Compute(1000)]);
        let main = b.method("main", vec![Op::Fork(t(1)), Op::Join(t(1))]);
        b.thread(main);
        b.forked_thread(worker);
        programs.push(("join", b.build().unwrap(), vec![t(0), t(0), t(0)]));
        // (d) A wait notified while the notifier still holds the monitor.
        let mut b = ProgramBuilder::new();
        let mon = b.object(ObjKind::Monitor);
        let notifier = b.method(
            "notifier",
            vec![
                Op::Acquire(mon),
                Op::NotifyAll(mon),
                Op::Compute(20),
                Op::Release(mon),
            ],
        );
        let waiter = b.method(
            "waiter",
            vec![Op::Acquire(mon), Op::Wait(mon), Op::Release(mon)],
        );
        b.thread(notifier);
        b.thread(waiter);
        let script = vec![t(1), t(1), t(1), t(0), t(0), t(0)];
        programs.push(("wait", b.build().unwrap(), script));

        let check = |name: &str, threads: &[Vec<String>]| {
            for (i, log) in threads.iter().enumerate() {
                for (at, _) in log.iter().enumerate().filter(|(_, t)| *t == "blk") {
                    assert_eq!(
                        log.get(at + 1..at + 4),
                        Some(&["unblk", "acq", "sp"].map(String::from)[..]),
                        "{name}: thread {i} at {at}: {log:?}"
                    );
                }
            }
        };
        for (name, program, script) in &programs {
            let threads = Recorder::run_det(program, &det::Schedule::Scripted(script.clone()));
            assert!(threads.concat().contains(&"blk".into()), "{name} blocked");
            check(name, &threads);
            for _ in 0..20 {
                check(name, &Recorder::run_real(program));
            }
        }
    }

    #[test]
    fn a_loop_polls_once_per_iteration_not_once_per_access() {
        let mut b = ProgramBuilder::new();
        let o = b.object(ObjKind::Plain { fields: 2 });
        let accesses = vec![
            Op::Read(o, 0),
            Op::Write(o, 1),
            Op::Read(o, 1),
            Op::Write(o, 0),
        ];
        // The body opens with a nested loop: the outer back edge's poll
        // still lands after the first access of the next iteration.
        let m = b.method(
            "m",
            vec![Op::Loop {
                count: 100,
                body: vec![Op::Loop {
                    count: 1,
                    body: accesses,
                }],
            }],
        );
        b.thread(m);
        let p = b.build().unwrap();
        for (engine, mut log) in [
            ("real", Recorder::run_real(&p)),
            ("det", Recorder::run_det(&p, &det::Schedule::random(7))),
        ] {
            let log = log.remove(0);
            let polls = log.iter().filter(|t| *t == "sp").count();
            let accesses = log.iter().filter(|t| t.starts_with(['R', 'W'])).count();
            assert_eq!(accesses, 400, "{engine}");
            // Entry, 99 back edges, exit: the entry poll covers the first
            // iteration.
            assert_eq!(polls, 101, "{engine}: {log:?}");
        }
    }

    /// A thread that releases a monitor it never took panics inside the
    /// run, and the real engine would wait for good on the joiner it leaves
    /// parked: validation refuses the program before any thread starts,
    /// under either engine.
    #[test]
    fn both_engines_refuse_a_release_of_an_unheld_monitor() {
        let mut b = ProgramBuilder::new();
        let lock = b.object(ObjKind::Monitor);
        let child = ThreadId::from_index(1);
        let main = b.method("main", vec![Op::Fork(child), Op::Join(child)]);
        let releaser = b.method("releaser", vec![]);
        b.thread(main);
        b.forked_thread(releaser);
        // `build` validates: give the child its body afterwards.
        let mut p = b.build().unwrap();
        p.methods[releaser.index()].body = vec![Op::Release(lock)];
        let misuse = crate::program::ProgramError::MonitorMisuse {
            method: releaser,
            op: Op::Release(lock),
        };
        let err = det::run_det(&p, &Recorder::default(), &det::Schedule::random(1));
        assert_eq!(err.unwrap_err(), det::DetError::Invalid(misuse));
        let recorder = Recorder::default();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            real::run_real(&p, &recorder)
        }))
        .expect_err("run_real refuses the program");
        let message = panicked
            .downcast_ref::<String>()
            .map(String::as_str)
            .unwrap_or_default();
        assert!(message.starts_with("invalid program"), "{message}");
        assert!(recorder.threads().is_empty(), "no thread started");
    }

    #[test]
    fn merge_sums_everything_but_elapsed() {
        let mut a = RunStats {
            reads: 1,
            writes: 2,
            array_accesses: 3,
            syncs: 4,
            method_entries: 5,
            elapsed_nanos: 100,
        };
        let b = RunStats {
            reads: 10,
            writes: 20,
            array_accesses: 30,
            syncs: 40,
            method_entries: 50,
            elapsed_nanos: 999,
        };
        a.merge(&b);
        assert_eq!(a.reads, 11);
        assert_eq!(a.total_accesses(), 11 + 22 + 33 + 44);
        assert_eq!(a.elapsed_nanos, 100, "elapsed is not merged");
        assert_eq!(a.elapsed(), Duration::from_nanos(100));
    }
}
