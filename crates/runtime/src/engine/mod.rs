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

pub mod det;
pub mod real;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::Checker;
    use crate::heap::ObjKind;
    use crate::ids::{CellId, MethodId, ObjId, ThreadId};
    use crate::program::{Op, Program, ProgramBuilder};
    use std::sync::Mutex;

    /// Logs the hooks of a single-thread run as short tokens; `sp` is a
    /// safe-point poll.
    #[derive(Default)]
    struct Recorder(Mutex<Vec<String>>);

    impl Recorder {
        fn log(&self, token: String) {
            self.0.lock().unwrap().push(token);
        }

        fn run_real(program: &Program) -> Vec<String> {
            let recorder = Recorder::default();
            real::run_real(program, &recorder);
            recorder.0.into_inner().unwrap()
        }

        fn run_det(program: &Program) -> Vec<String> {
            let recorder = Recorder::default();
            det::run_det(program, &recorder, &det::Schedule::random(7)).unwrap();
            recorder.0.into_inner().unwrap()
        }
    }

    impl Checker for Recorder {
        fn enter_method(&self, _: ThreadId, m: MethodId) {
            self.log(format!("enter{}", m.index()));
        }
        fn exit_method(&self, _: ThreadId, m: MethodId) {
            self.log(format!("exit{}", m.index()));
        }
        fn read(&self, _: ThreadId, _: ObjId, cell: CellId) {
            self.log(format!("R{cell}"));
        }
        fn write(&self, _: ThreadId, _: ObjId, cell: CellId) {
            self.log(format!("W{cell}"));
        }
        fn sync_acquire(&self, _: ThreadId, _: ObjId) {
            self.log("acq".into());
        }
        fn sync_release(&self, _: ThreadId, _: ObjId) {
            self.log("rel".into());
        }
        fn safe_point(&self, _: ThreadId) {
            self.log("sp".into());
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
        assert_eq!(Recorder::run_real(&p), expected);
        assert_eq!(Recorder::run_det(&p), expected);
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
        for (engine, log) in [
            ("real", Recorder::run_real(&p)),
            ("det", Recorder::run_det(&p)),
        ] {
            let polls = log.iter().filter(|t| *t == "sp").count();
            let accesses = log.iter().filter(|t| t.starts_with(['R', 'W'])).count();
            assert_eq!(accesses, 400, "{engine}");
            // Entry, 99 back edges, exit: the entry poll covers the first
            // iteration.
            assert_eq!(polls, 101, "{engine}: {log:?}");
        }
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
