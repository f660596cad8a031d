//! Per-thread program interpretation shared by both execution engines.
//!
//! [`ThreadInterp`] walks one thread's method bodies (flattening calls and
//! loops) and yields a stream of primitive [`Action`]s. The engines execute
//! the actions — invoking checker hooks and performing heap accesses — and
//! run every synchronization action on one shared state machine
//! (`engine::sync`), so the two engines cannot diverge on *what* a program
//! does or on the hooks it fires, only on interleaving and timing.
//!
//! The interpreter also decides where the safe points are, once for both
//! engines. A JVM polls for Octet requests at its yieldpoints — method entry
//! and exit and loop back edges — and at blocking operations, never after
//! each field access. So a [`Step`] asks for a safe point after every action
//! that is not a field or array access (`Enter`, `Exit`, `Compute`, and
//! every synchronization, blocking, fork and join action), and after the
//! first action following each loop back edge. A thread that holds an
//! ownership request therefore answers it within one loop iteration or one
//! call-free straight-line run.

use crate::ids::{CellId, MethodId, ObjId, ThreadId};
use crate::program::{Op, Program};

/// A primitive step of execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// Method entry (drives transaction demarcation).
    Enter(MethodId),
    /// Method exit.
    Exit(MethodId),
    /// Plain-field load.
    Read(ObjId, CellId),
    /// Plain-field store.
    Write(ObjId, CellId),
    /// Array-element load.
    ArrayRead(ObjId, CellId),
    /// Array-element store.
    ArrayWrite(ObjId, CellId),
    /// Monitor enter.
    Acquire(ObjId),
    /// Monitor exit.
    Release(ObjId),
    /// Monitor wait.
    Wait(ObjId),
    /// Monitor notify-all.
    NotifyAll(ObjId),
    /// Barrier rendezvous.
    Barrier(ObjId),
    /// Start a thread.
    Fork(ThreadId),
    /// Wait for a thread.
    Join(ThreadId),
    /// Busy-work units.
    Compute(u32),
}

/// One action of a thread, and whether a safe point follows it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Step {
    /// The action to execute.
    pub action: Action,
    /// The engine polls `Checker::safe_point` once the action completes:
    /// the action is not an access, or it is the first after a loop back
    /// edge.
    pub safe_point: bool,
}

impl Step {
    fn new(action: Action, back_edge: bool) -> Self {
        let access = matches!(
            action,
            Action::Read(..) | Action::Write(..) | Action::ArrayRead(..) | Action::ArrayWrite(..)
        );
        Step {
            action,
            safe_point: back_edge | !access,
        }
    }
}

#[derive(Debug)]
enum Frame<'p> {
    Method {
        m: MethodId,
        ops: &'p [Op],
        pc: usize,
    },
    Loop {
        remaining: u32,
        ops: &'p [Op],
        pc: usize,
    },
}

/// Iterator-like walker over one thread's dynamic action stream.
#[derive(Debug)]
pub struct ThreadInterp<'p> {
    program: &'p Program,
    frames: Vec<Frame<'p>>,
    started: bool,
    entry: MethodId,
}

impl<'p> ThreadInterp<'p> {
    /// Creates an interpreter for the thread whose entry method is `entry`.
    pub fn new(program: &'p Program, entry: MethodId) -> Self {
        ThreadInterp {
            program,
            frames: Vec::with_capacity(8),
            started: false,
            entry,
        }
    }

    /// Whether [`Self::next_action`] has been called.
    pub(crate) fn started(&self) -> bool {
        self.started
    }

    /// Produces the next action with its safe-point bit (see the module
    /// docs), or `None` when the thread has finished.
    ///
    /// Blocking actions are returned exactly once; the engine completes them
    /// once their block clears.
    pub fn next_action(&mut self) -> Option<Step> {
        if !self.started {
            self.started = true;
            self.push_method(self.entry);
            return Some(Step::new(Action::Enter(self.entry), false));
        }
        // Set when a loop frame wraps: the action this call returns is the
        // first after a back edge.
        let mut back_edge = false;
        loop {
            let (ops, pc) = match self.frames.last_mut()? {
                Frame::Method { m, ops, pc } => {
                    if *pc == ops.len() {
                        let m = *m;
                        self.frames.pop();
                        return Some(Step::new(Action::Exit(m), back_edge));
                    }
                    (*ops, pc)
                }
                Frame::Loop { remaining, ops, pc } => {
                    if *pc == ops.len() {
                        *remaining -= 1;
                        if *remaining == 0 {
                            self.frames.pop();
                            continue;
                        }
                        *pc = 0;
                        back_edge = true;
                    }
                    (*ops, pc)
                }
            };
            let op = &ops[*pc];
            *pc += 1;
            if let Some(action) = self.lower(op) {
                return Some(Step::new(action, back_edge));
            }
        }
    }

    /// Lowers one op: control ops push frames and yield nothing (or an
    /// `Enter`); leaf ops become actions directly.
    ///
    /// Inlined so that `next_action` builds its step in its own return
    /// slot: copying the step out of a callee's temporary made every action
    /// of the uninstrumented `local_churn` run ≈ 1.7x slower.
    #[inline(always)]
    fn lower(&mut self, op: &'p Op) -> Option<Action> {
        match op {
            Op::Read(o, c) => Some(Action::Read(*o, *c)),
            Op::Write(o, c) => Some(Action::Write(*o, *c)),
            Op::ArrayRead(o, c) => Some(Action::ArrayRead(*o, *c)),
            Op::ArrayWrite(o, c) => Some(Action::ArrayWrite(*o, *c)),
            Op::Acquire(o) => Some(Action::Acquire(*o)),
            Op::Release(o) => Some(Action::Release(*o)),
            Op::Wait(o) => Some(Action::Wait(*o)),
            Op::NotifyAll(o) => Some(Action::NotifyAll(*o)),
            Op::Barrier(o) => Some(Action::Barrier(*o)),
            Op::Fork(t) => Some(Action::Fork(*t)),
            Op::Join(t) => Some(Action::Join(*t)),
            Op::Compute(u) => Some(Action::Compute(*u)),
            Op::Call(m) => {
                self.push_method(*m);
                Some(Action::Enter(*m))
            }
            Op::Loop { count, body } => {
                if *count > 0 && !body.is_empty() {
                    self.frames.push(Frame::Loop {
                        remaining: *count,
                        ops: body,
                        pc: 0,
                    });
                }
                None
            }
        }
    }

    fn push_method(&mut self, m: MethodId) {
        self.frames.push(Frame::Method {
            m,
            ops: &self.program.methods[m.index()].body,
            pc: 0,
        });
    }
}

/// Executes `units` of deterministic busy-work and returns a value derived
/// from it so the optimizer cannot elide the loop.
#[inline]
pub fn compute_units(units: u32) -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ u64::from(units);
    for _ in 0..units {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::ObjKind;
    use crate::program::ProgramBuilder;

    fn collect(program: &Program, entry: MethodId) -> Vec<Action> {
        let mut interp = ThreadInterp::new(program, entry);
        let mut out = Vec::new();
        while let Some(step) = interp.next_action() {
            out.push(step.action);
        }
        out
    }

    #[test]
    fn yields_enter_body_exit() {
        let mut b = ProgramBuilder::new();
        let o = b.object(ObjKind::Plain { fields: 1 });
        let m = b.method("m", vec![Op::Read(o, 0), Op::Write(o, 0)]);
        b.thread(m);
        let p = b.build().unwrap();
        assert_eq!(
            collect(&p, m),
            vec![
                Action::Enter(m),
                Action::Read(o, 0),
                Action::Write(o, 0),
                Action::Exit(m),
            ]
        );
    }

    #[test]
    fn calls_nest_enter_exit() {
        let mut b = ProgramBuilder::new();
        let o = b.object(ObjKind::Plain { fields: 1 });
        let leaf = b.method("leaf", vec![Op::Write(o, 0)]);
        let m = b.method("m", vec![Op::Call(leaf), Op::Read(o, 0)]);
        b.thread(m);
        let p = b.build().unwrap();
        assert_eq!(
            collect(&p, m),
            vec![
                Action::Enter(m),
                Action::Enter(leaf),
                Action::Write(o, 0),
                Action::Exit(leaf),
                Action::Read(o, 0),
                Action::Exit(m),
            ]
        );
    }

    #[test]
    fn loops_repeat_their_body() {
        let mut b = ProgramBuilder::new();
        let o = b.object(ObjKind::Plain { fields: 1 });
        let m = b.method(
            "m",
            vec![Op::Loop {
                count: 3,
                body: vec![Op::Read(o, 0)],
            }],
        );
        b.thread(m);
        let p = b.build().unwrap();
        let actions = collect(&p, m);
        assert_eq!(actions.len(), 5); // Enter + 3 reads + Exit
        assert_eq!(
            actions[1..4]
                .iter()
                .filter(|a| matches!(a, Action::Read(..)))
                .count(),
            3
        );
    }

    #[test]
    fn zero_iteration_and_empty_loops_vanish() {
        let mut b = ProgramBuilder::new();
        let o = b.object(ObjKind::Plain { fields: 1 });
        let m = b.method(
            "m",
            vec![
                Op::Loop {
                    count: 0,
                    body: vec![Op::Read(o, 0)],
                },
                Op::Loop {
                    count: 5,
                    body: vec![],
                },
                Op::Write(o, 0),
            ],
        );
        b.thread(m);
        let p = b.build().unwrap();
        assert_eq!(
            collect(&p, m),
            vec![Action::Enter(m), Action::Write(o, 0), Action::Exit(m)]
        );
    }

    #[test]
    fn nested_loops_multiply() {
        let mut b = ProgramBuilder::new();
        let o = b.object(ObjKind::Plain { fields: 1 });
        let m = b.method(
            "m",
            vec![Op::Loop {
                count: 2,
                body: vec![Op::Loop {
                    count: 3,
                    body: vec![Op::Read(o, 0)],
                }],
            }],
        );
        b.thread(m);
        let p = b.build().unwrap();
        let reads = collect(&p, m)
            .iter()
            .filter(|a| matches!(a, Action::Read(..)))
            .count();
        assert_eq!(reads, 6);
    }

    #[test]
    fn compute_units_is_deterministic_and_nonzero() {
        assert_eq!(compute_units(10), compute_units(10));
        assert_ne!(compute_units(10), compute_units(11));
    }
}
