//! The deterministic single-threaded execution engine.
//!
//! Interprets all program threads in one OS thread, interleaving them
//! according to a [`Schedule`]. Used to reproduce the paper's worked
//! examples (Figures 2 and 3, the delayed-cycle example of §3.2.3) with
//! *exact* interleavings, and for seeded randomized soundness tests where
//! the same seed must always produce the same execution.
//!
//! This file owns scheduling. Hooks fire in the same order as in the real
//! engine by construction: both take actions and safe points from
//! [`ThreadInterp`], the thread lifecycle from [`super`], and
//! synchronization semantics and hook order from the shared `sync` state
//! machine. A blocking action ends its thread's step after
//! `before_block`; the thread is runnable again only once its block has
//! cleared (a notified waiter also needs its monitor free), and that later
//! step resumes it: `after_unblock`, the acquire-like hook, the poll. No
//! poll falls inside a blocked window. Because only one action executes at
//! a time, every other thread is always at a safe point, so Octet-style
//! coordination resolves immediately (Octet's `Immediate` mode) and no poll
//! ever finds a request.

use crate::checker::Checker;
use crate::heap::Heap;
use crate::ids::ThreadId;
use crate::interp::{Step, ThreadInterp};
use crate::program::{Program, StartMode};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::time::Instant;

use super::sync::{acquired, released, SyncState};
use super::{exit_thread, perform, start_thread, RunStats};

/// Interleaving policy for the deterministic engine.
#[derive(Clone, Debug)]
pub enum Schedule {
    /// Run each runnable thread for `quantum` actions before switching.
    RoundRobin {
        /// Actions per turn; must be ≥ 1.
        quantum: u32,
    },
    /// Pick a uniformly random runnable thread before every action, from a
    /// seeded generator (same seed ⇒ same execution).
    Random {
        /// PRNG seed.
        seed: u64,
    },
    /// Follow an explicit thread sequence, one action per entry. After the
    /// script is exhausted, falls back to round-robin with quantum 1.
    Scripted(Vec<ThreadId>),
}

impl Schedule {
    /// Convenience constructor for a seeded random schedule.
    pub fn random(seed: u64) -> Self {
        Schedule::Random { seed }
    }
}

/// Error produced by [`run_det`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DetError {
    /// No thread is runnable but some have not finished.
    Deadlock {
        /// Threads still blocked.
        blocked: Vec<ThreadId>,
    },
    /// A scripted schedule named a thread that is not runnable.
    ScriptedThreadNotRunnable {
        /// Script position.
        position: usize,
        /// The named thread.
        thread: ThreadId,
    },
    /// The program failed validation.
    Invalid(crate::program::ProgramError),
}

impl fmt::Display for DetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DetError::Deadlock { blocked } => write!(f, "deadlock; blocked threads: {blocked:?}"),
            DetError::ScriptedThreadNotRunnable { position, thread } => {
                write!(
                    f,
                    "script position {position}: thread {thread:?} not runnable"
                )
            }
            DetError::Invalid(e) => write!(f, "invalid program: {e}"),
        }
    }
}

impl std::error::Error for DetError {}

struct DetWorld<'p, C: Checker> {
    checker: &'p C,
    heap: Heap,
    interps: Vec<ThreadInterp<'p>>,
    sync: SyncState<'p>,
    stats: RunStats,
    forked: Vec<bool>,
}

impl<C: Checker> DetWorld<'_, C> {
    /// Runs one step of thread `t`: its next action, or the completion of
    /// the block it is in, which has cleared.
    fn step(&mut self, t: ThreadId) {
        let ti = t.index();
        let checker = self.checker;
        if let Some(block) = self.sync.blocked(t) {
            self.sync.resume(t, block);
            checker.after_unblock(t);
            if let Some(o) = acquired(&self.heap, block.action) {
                checker.sync_acquire(t, o);
            }
            // Every synchronization action is followed by a safe point.
            checker.safe_point(t);
            return;
        }
        if !self.interps[ti].started() {
            start_thread(checker, &self.heap, t, self.forked[ti]);
        }
        let Some(Step { action, safe_point }) = self.interps[ti].next_action() else {
            exit_thread(checker, &self.heap, t);
            self.sync.finish(t);
            return;
        };
        if !perform(checker, &self.heap, &mut self.stats, t, action) {
            if let Some(o) = released(&self.heap, action) {
                checker.sync_release(t, o);
            }
            if self.sync.start(t, action).is_some() {
                // The rest of the action, its poll included, runs when `t`
                // is next scheduled with its block cleared.
                checker.before_block(t);
                return;
            }
            if let Some(o) = acquired(&self.heap, action) {
                checker.sync_acquire(t, o);
            }
        }
        if safe_point {
            checker.safe_point(t);
        }
    }
}

/// Runs `program` deterministically under `schedule`.
///
/// # Errors
///
/// Returns [`DetError::Deadlock`] if the program deadlocks under the chosen
/// interleaving, [`DetError::ScriptedThreadNotRunnable`] if a scripted
/// schedule names a non-runnable thread, and [`DetError::Invalid`] if the
/// program fails validation.
pub fn run_det<C: Checker>(
    program: &Program,
    checker: &C,
    schedule: &Schedule,
) -> Result<RunStats, DetError> {
    program.validate().map_err(DetError::Invalid)?;
    let n = program.threads.len();
    let heap = Heap::new(&program.objects, program.n_threads());
    checker.run_begin(&heap);
    let start = Instant::now();
    let mut world = DetWorld {
        checker,
        heap,
        interps: program
            .threads
            .iter()
            .map(|spec| ThreadInterp::new(program, spec.entry))
            .collect(),
        sync: SyncState::new(program),
        stats: RunStats::default(),
        forked: program
            .threads
            .iter()
            .map(|spec| spec.start == StartMode::OnFork)
            .collect(),
    };

    let mut rng = match schedule {
        Schedule::Random { seed } => Some(SmallRng::seed_from_u64(*seed)),
        _ => None,
    };
    let mut script_pos = 0usize;
    // The round-robin picker, which also runs a `Scripted` schedule past its
    // end, with quantum 1. `rr_cursor` is the thread it picked last; a
    // script's fallback starts as if thread n−1 had, so it picks thread 0
    // first.
    let (quantum, mut rr_cursor) = match schedule {
        Schedule::RoundRobin { quantum } => ((*quantum).max(1), 0),
        _ => (1, n.saturating_sub(1)),
    };
    let mut rr_left = 0u32;

    loop {
        let runnable: Vec<ThreadId> = (0..n)
            .map(ThreadId::from_index)
            .filter(|&t| world.sync.runnable(t))
            .collect();
        if runnable.is_empty() {
            if world.sync.all_finished() {
                break;
            }
            let blocked = (0..n)
                .map(ThreadId::from_index)
                .filter(|&t| world.sync.blocked(t).is_some())
                .collect();
            return Err(DetError::Deadlock { blocked });
        }
        let t = match schedule {
            Schedule::Scripted(script) if script_pos < script.len() => {
                let t = script[script_pos];
                if !world.sync.runnable(t) {
                    return Err(DetError::ScriptedThreadNotRunnable {
                        position: script_pos,
                        thread: t,
                    });
                }
                script_pos += 1;
                t
            }
            Schedule::Random { .. } => {
                let rng = rng.as_mut().expect("random schedule has rng");
                runnable[rng.gen_range(0..runnable.len())]
            }
            Schedule::RoundRobin { .. } | Schedule::Scripted(_) => {
                if rr_left == 0 || !world.sync.runnable(ThreadId::from_index(rr_cursor)) {
                    rr_cursor = (1..=n)
                        .map(|i| (rr_cursor + i) % n)
                        .find(|&i| world.sync.runnable(ThreadId::from_index(i)))
                        .expect("some thread is runnable");
                    rr_left = quantum;
                }
                rr_left -= 1;
                ThreadId::from_index(rr_cursor)
            }
        };
        world.step(t);
    }
    world.stats.elapsed_nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    checker.run_end();
    Ok(world.stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::NopChecker;
    use crate::heap::ObjKind;
    use crate::program::{Op, ProgramBuilder};

    fn lock_program() -> Program {
        let mut b = ProgramBuilder::new();
        let lock = b.object(ObjKind::Monitor);
        let o = b.object(ObjKind::Plain { fields: 1 });
        let m = b.method(
            "locked",
            vec![Op::Loop {
                count: 10,
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
        b.build().unwrap()
    }

    #[test]
    fn round_robin_completes_lock_program() {
        let stats = run_det(
            &lock_program(),
            &NopChecker,
            &Schedule::RoundRobin { quantum: 3 },
        )
        .unwrap();
        assert_eq!(stats.reads, 20);
        assert_eq!(stats.writes, 20);
        assert_eq!(stats.syncs, 40);
    }

    #[test]
    fn random_schedule_is_reproducible() {
        let s1 = run_det(&lock_program(), &NopChecker, &Schedule::random(42)).unwrap();
        let s2 = run_det(&lock_program(), &NopChecker, &Schedule::random(42)).unwrap();
        assert_eq!(s1.reads, s2.reads);
        assert_eq!(s1.syncs, s2.syncs);
    }

    #[test]
    fn scripted_schedule_follows_script_exactly() {
        let mut b = ProgramBuilder::new();
        let o = b.object(ObjKind::Plain { fields: 2 });
        let m0 = b.method("a", vec![Op::Write(o, 0)]);
        let m1 = b.method("b", vec![Op::Write(o, 1)]);
        b.thread(m0);
        b.thread(m1);
        let p = b.build().unwrap();
        // Interleave strictly: t0 enter, t1 enter, t0 write, t1 write, ...
        let script = vec![
            ThreadId(0),
            ThreadId(1),
            ThreadId(0),
            ThreadId(1),
            ThreadId(0),
            ThreadId(1),
        ];
        let stats = run_det(&p, &NopChecker, &Schedule::Scripted(script)).unwrap();
        assert_eq!(stats.writes, 2);
    }

    #[test]
    fn scripted_schedule_rejects_unrunnable_thread() {
        let mut b = ProgramBuilder::new();
        let worker = b.method("worker", vec![Op::Compute(1)]);
        let wt = ThreadId(1);
        let main = b.method("main", vec![Op::Fork(wt), Op::Join(wt)]);
        b.thread(main);
        b.forked_thread(worker);
        let p = b.build().unwrap();
        // Thread 1 is not yet forked at script position 0.
        let err = run_det(&p, &NopChecker, &Schedule::Scripted(vec![ThreadId(1)])).unwrap_err();
        assert_eq!(
            err,
            DetError::ScriptedThreadNotRunnable {
                position: 0,
                thread: ThreadId(1)
            }
        );
    }

    #[test]
    fn detects_deadlock() {
        // Classic AB-BA deadlock under an adversarial script.
        let mut b = ProgramBuilder::new();
        let l1 = b.object(ObjKind::Monitor);
        let l2 = b.object(ObjKind::Monitor);
        let m0 = b.method(
            "ab",
            vec![
                Op::Acquire(l1),
                Op::Acquire(l2),
                Op::Release(l2),
                Op::Release(l1),
            ],
        );
        let m1 = b.method(
            "ba",
            vec![
                Op::Acquire(l2),
                Op::Acquire(l1),
                Op::Release(l1),
                Op::Release(l2),
            ],
        );
        b.thread(m0);
        b.thread(m1);
        let p = b.build().unwrap();
        // t0: Enter, Acquire(l1); t1: Enter, Acquire(l2); then both stuck.
        let script = vec![ThreadId(0), ThreadId(0), ThreadId(1), ThreadId(1)];
        let err = run_det(&p, &NopChecker, &Schedule::Scripted(script)).unwrap_err();
        assert!(matches!(err, DetError::Deadlock { .. }));
    }

    #[test]
    fn fork_join_and_barrier_work_deterministically() {
        let mut b = ProgramBuilder::new();
        let bar = b.object(ObjKind::Barrier { parties: 2 });
        let o = b.object(ObjKind::Plain { fields: 1 });
        let worker = b.method("worker", vec![Op::Write(o, 0), Op::Barrier(bar)]);
        let wt = ThreadId(1);
        let main = b.method(
            "main",
            vec![Op::Fork(wt), Op::Barrier(bar), Op::Read(o, 0), Op::Join(wt)],
        );
        b.thread(main);
        b.forked_thread(worker);
        let p = b.build().unwrap();
        for seed in 0..20 {
            let stats = run_det(&p, &NopChecker, &Schedule::random(seed)).unwrap();
            assert_eq!(stats.reads, 1);
            assert_eq!(stats.writes, 1);
        }
    }

    #[test]
    fn wait_notify_deterministic() {
        let mut b = ProgramBuilder::new();
        let mon = b.object(ObjKind::Monitor);
        let o = b.object(ObjKind::Plain { fields: 1 });
        let waiter = b.method(
            "waiter",
            vec![
                Op::Acquire(mon),
                Op::Wait(mon),
                Op::Read(o, 0),
                Op::Release(mon),
            ],
        );
        let wt = ThreadId(1);
        let main = b.method(
            "main",
            vec![
                Op::Fork(wt),
                Op::Compute(10),
                Op::Acquire(mon),
                Op::Write(o, 0),
                Op::NotifyAll(mon),
                Op::Release(mon),
                Op::Join(wt),
            ],
        );
        b.thread(main);
        b.forked_thread(waiter);
        let p = b.build().unwrap();
        // Script forces the waiter to wait before the notify happens.
        // t1 must run: Enter, Acquire, Wait before t0 notifies.
        let script = vec![
            ThreadId(0), // Enter main
            ThreadId(0), // Fork
            ThreadId(1), // Enter waiter
            ThreadId(1), // Acquire
            ThreadId(1), // Wait (blocks)
            ThreadId(0), // Compute
            ThreadId(0), // Acquire
            ThreadId(0), // Write
            ThreadId(0), // NotifyAll
            ThreadId(0), // Release
        ];
        let stats = run_det(&p, &NopChecker, &Schedule::Scripted(script)).unwrap();
        assert_eq!(stats.reads, 1);
        assert_eq!(stats.writes, 1);
    }

    #[test]
    fn early_notify_is_not_lost() {
        // Latch semantics: a wait after any notify returns immediately, so
        // the classic lost-notify hang cannot happen in generated workloads.
        let mut b = ProgramBuilder::new();
        let mon = b.object(ObjKind::Monitor);
        let waiter = b.method(
            "waiter",
            vec![Op::Acquire(mon), Op::Wait(mon), Op::Release(mon)],
        );
        let wt = ThreadId(1);
        let main = b.method(
            "main",
            vec![
                Op::Fork(wt),
                Op::Acquire(mon),
                Op::NotifyAll(mon),
                Op::Release(mon),
                Op::Join(wt),
            ],
        );
        b.thread(main);
        b.forked_thread(waiter);
        let p = b.build().unwrap();
        // Run main's notify to completion before the waiter ever runs.
        let script = vec![
            ThreadId(0), // Enter main
            ThreadId(0), // Fork
            ThreadId(0), // Acquire
            ThreadId(0), // NotifyAll
            ThreadId(0), // Release
        ];
        let stats = run_det(&p, &NopChecker, &Schedule::Scripted(script)).unwrap();
        assert_eq!(stats.syncs, 8); // fork, join, 2×(acquire+release), wait, notify
    }
}
