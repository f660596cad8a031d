//! The workload program representation.
//!
//! Workloads are expressed in a small operation IR rather than as raw Rust
//! closures so that *both* execution engines — the real-thread executor used
//! for performance experiments and the deterministic scheduler used for
//! interleaving-exact tests — can run the identical program. The IR plays the
//! role of the instrumented bytecode in the paper's Jikes RVM implementation:
//! every shared access in the IR passes through the engine's barrier hooks.

use crate::heap::ObjKind;
use crate::ids::{CellId, MethodId, ObjId, ThreadId};
use std::fmt;

/// One operation of a workload program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Load `(obj, cell)` through the read barrier.
    Read(ObjId, CellId),
    /// Store to `(obj, cell)` through the write barrier.
    Write(ObjId, CellId),
    /// Load an array element. Subject to the array-instrumentation switch
    /// (paper §5.4); metadata is conflated at array granularity.
    ArrayRead(ObjId, CellId),
    /// Store an array element.
    ArrayWrite(ObjId, CellId),
    /// Enter the object's monitor (acquire-like; treated as a read of the
    /// object by the analyses).
    Acquire(ObjId),
    /// Exit the object's monitor (release-like; treated as a write).
    Release(ObjId),
    /// Call a method. Atomic methods called from a non-transactional context
    /// start a regular transaction (paper §4).
    Call(MethodId),
    /// Busy-work: `units` iterations of a small arithmetic loop, modelling
    /// the compute between shared accesses.
    Compute(u32),
    /// Start thread `t` (release-like write to `t`'s thread object).
    Fork(ThreadId),
    /// Wait for thread `t` to finish (acquire-like read of its thread
    /// object once it has completed).
    Join(ThreadId),
    /// Wait on the object's monitor (must hold it; releases and re-acquires
    /// around the wait, with the corresponding write/read barrier hooks).
    Wait(ObjId),
    /// Wake all waiters on the object's monitor (must hold it).
    NotifyAll(ObjId),
    /// Rendezvous on a [`ObjKind::Barrier`] object (release-like on arrival,
    /// acquire-like on departure).
    Barrier(ObjId),
    /// Execute `body` `count` times.
    Loop {
        /// Iteration count.
        count: u32,
        /// Loop body.
        body: Vec<Op>,
    },
}

/// A named method with a body of operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Method {
    /// Human-readable name, also used as the method's *static identity* when
    /// the multi-run first run reports transactions by signature.
    pub name: String,
    /// The operations executed by the method.
    pub body: Vec<Op>,
}

/// Whether a thread starts when the run starts or when another thread
/// executes [`Op::Fork`] naming it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StartMode {
    /// Runnable from the beginning of the run.
    AtRunStart,
    /// Runnable only after some thread forks it.
    OnFork,
}

/// One program thread: an entry method plus a start mode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ThreadSpec {
    /// The thread's `run()` method.
    pub entry: MethodId,
    /// When the thread becomes runnable.
    pub start: StartMode,
}

/// A complete workload program.
#[derive(Clone, Debug, Default)]
pub struct Program {
    /// All methods, indexed by [`MethodId`].
    pub methods: Vec<Method>,
    /// Declared heap objects, indexed by [`ObjId`]. The engines append one
    /// thread object per thread after these.
    pub objects: Vec<ObjKind>,
    /// Program threads, indexed by [`ThreadId`].
    pub threads: Vec<ThreadSpec>,
}

/// Error found by [`Program::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProgramError {
    /// An op references a method id that does not exist.
    UnknownMethod(MethodId),
    /// An op references an object id that does not exist.
    UnknownObject(ObjId),
    /// An op references a thread id that does not exist.
    UnknownThread(ThreadId),
    /// The static call graph contains a cycle through this method.
    RecursiveCall(MethodId),
    /// A barrier op targets a non-barrier object.
    NotABarrier(ObjId),
    /// An array op targets a non-array object (or vice versa).
    KindMismatch(ObjId),
    /// A thread is marked [`StartMode::OnFork`] but no op forks it.
    NeverForked(ThreadId),
    /// A thread is forked but marked [`StartMode::AtRunStart`], or forked
    /// more than once.
    ForkMismatch(ThreadId),
    /// `op` in `method`'s body acquires a monitor the body already holds
    /// there (monitors are not reentrant), or releases one it does not
    /// hold.
    MonitorMisuse {
        /// The method whose body misuses the monitor.
        method: MethodId,
        /// The offending `Acquire` or `Release`.
        op: Op,
    },
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::UnknownMethod(m) => write!(f, "unknown method {m:?}"),
            ProgramError::UnknownObject(o) => write!(f, "unknown object {o:?}"),
            ProgramError::UnknownThread(t) => write!(f, "unknown thread {t:?}"),
            ProgramError::RecursiveCall(m) => write!(f, "recursive call through {m:?}"),
            ProgramError::NotABarrier(o) => write!(f, "barrier op on non-barrier object {o:?}"),
            ProgramError::KindMismatch(o) => write!(f, "object kind mismatch for {o:?}"),
            ProgramError::NeverForked(t) => {
                write!(f, "thread {t:?} starts on fork but is never forked")
            }
            ProgramError::ForkMismatch(t) => write!(f, "thread {t:?} forked inconsistently"),
            ProgramError::MonitorMisuse { method, op } => {
                let held = if matches!(op, Op::Acquire(_)) {
                    "already holds"
                } else {
                    "does not hold"
                };
                write!(f, "{op:?} in {method:?} names a monitor the method {held}")
            }
        }
    }
}

impl std::error::Error for ProgramError {}

impl Program {
    /// Number of threads.
    pub fn n_threads(&self) -> u16 {
        u16::try_from(self.threads.len()).expect("too many threads")
    }

    /// Looks up a method id by name, if present.
    pub fn method_by_name(&self, name: &str) -> Option<MethodId> {
        self.methods
            .iter()
            .position(|m| m.name == name)
            .map(MethodId::from_index)
    }

    /// The name of method `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    pub fn method_name(&self, m: MethodId) -> &str {
        &self.methods[m.index()].name
    }

    /// Checks internal consistency and returns the first error, in this
    /// order: thread entries; then, for each method in turn, id ranges,
    /// object kinds and fork counts along its body, followed by the body's
    /// own monitor discipline; then fork/start-mode agreement; then
    /// call-graph acyclicity. Each check walks the bodies in place, on
    /// buffers shared by all methods, so validation makes no allocation
    /// per method.
    ///
    /// # Errors
    ///
    /// Returns the first [`ProgramError`] found.
    pub fn validate(&self) -> Result<(), ProgramError> {
        for spec in &self.threads {
            if spec.entry.index() >= self.methods.len() {
                return Err(ProgramError::UnknownMethod(spec.entry));
            }
        }
        let mut forked: Vec<u32> = vec![0; self.threads.len()];
        let mut held = Vec::new();
        for (i, method) in self.methods.iter().enumerate() {
            self.validate_ops(&method.body, &mut forked)?;
            held.clear();
            check_monitors(MethodId::from_index(i), &method.body, &mut held)?;
        }
        // Fork counts are per static op site; a fork op inside a loop still
        // counts once statically (dynamic double-fork is an engine error).
        for (i, spec) in self.threads.iter().enumerate() {
            match (spec.start, forked[i]) {
                (StartMode::OnFork, 0) => {
                    return Err(ProgramError::NeverForked(ThreadId::from_index(i)))
                }
                (StartMode::AtRunStart, n) if n > 0 => {
                    return Err(ProgramError::ForkMismatch(ThreadId::from_index(i)))
                }
                _ => {}
            }
        }
        self.check_acyclic_calls()
    }

    fn validate_ops(&self, ops: &[Op], forked: &mut [u32]) -> Result<(), ProgramError> {
        for op in ops {
            match op {
                Op::Read(o, _) | Op::Write(o, _) => {
                    self.check_obj(*o)?;
                    if matches!(self.objects.get(o.index()), Some(ObjKind::Array { .. })) {
                        return Err(ProgramError::KindMismatch(*o));
                    }
                }
                Op::ArrayRead(o, _) | Op::ArrayWrite(o, _) => {
                    self.check_obj(*o)?;
                    if !matches!(self.objects.get(o.index()), Some(ObjKind::Array { .. })) {
                        return Err(ProgramError::KindMismatch(*o));
                    }
                }
                Op::Acquire(o) | Op::Release(o) | Op::Wait(o) | Op::NotifyAll(o) => {
                    self.check_obj(*o)?;
                }
                Op::Barrier(o) => {
                    self.check_obj(*o)?;
                    if !matches!(self.objects.get(o.index()), Some(ObjKind::Barrier { .. })) {
                        return Err(ProgramError::NotABarrier(*o));
                    }
                }
                Op::Call(m) => {
                    if m.index() >= self.methods.len() {
                        return Err(ProgramError::UnknownMethod(*m));
                    }
                }
                Op::Fork(t) | Op::Join(t) => {
                    if t.index() >= self.threads.len() {
                        return Err(ProgramError::UnknownThread(*t));
                    }
                    if matches!(op, Op::Fork(_)) {
                        forked[t.index()] += 1;
                    }
                }
                Op::Compute(_) => {}
                Op::Loop { body, .. } => self.validate_ops(body, forked)?,
            }
        }
        Ok(())
    }

    fn check_obj(&self, o: ObjId) -> Result<(), ProgramError> {
        if o.index() >= self.objects.len() {
            Err(ProgramError::UnknownObject(o))
        } else {
            Ok(())
        }
    }

    /// One depth-first walk of the static call graph over the method
    /// bodies themselves, on one stack of `(method, ops left)` frames; a
    /// loop body gets a frame of its own. A `Call` to a method still on the
    /// call path is recursion. The walk never recurses, so a long call
    /// chain cannot overflow the thread's stack.
    fn check_acyclic_calls(&self) -> Result<(), ProgramError> {
        #[derive(Clone, Copy, PartialEq)]
        enum State {
            Unvisited,
            OnPath,
            Done,
        }
        let mut state = vec![State::Unvisited; self.methods.len()];
        let mut stack: Vec<(usize, &[Op])> = Vec::new();
        for (start, method) in self.methods.iter().enumerate() {
            if state[start] != State::Unvisited {
                continue;
            }
            state[start] = State::OnPath;
            stack.push((start, &method.body));
            while let Some((m, ops)) = stack.last_mut() {
                let m = *m;
                let Some((op, rest)) = ops.split_first() else {
                    stack.pop();
                    // A loop frame sits on a frame of its own method; a
                    // method's body frame never does (that would be a
                    // self-call, already refused).
                    if stack.last().is_none_or(|&(below, _)| below != m) {
                        state[m] = State::Done;
                    }
                    continue;
                };
                *ops = rest;
                match op {
                    Op::Call(callee) => match state[callee.index()] {
                        State::OnPath => return Err(ProgramError::RecursiveCall(*callee)),
                        State::Unvisited => {
                            state[callee.index()] = State::OnPath;
                            stack.push((callee.index(), &self.methods[callee.index()].body));
                        }
                        State::Done => {}
                    },
                    Op::Loop { body, .. } => stack.push((m, body)),
                    _ => {}
                }
            }
        }
        Ok(())
    }

    /// Counts the dynamic operations one execution of `ops` performs
    /// (loops multiplied out; calls followed). Useful for sizing workloads.
    pub fn dynamic_op_count(&self) -> u64 {
        fn count(program: &Program, ops: &[Op]) -> u64 {
            let mut n = 0u64;
            for op in ops {
                n += match op {
                    Op::Loop { count: c, body } => u64::from(*c) * count(program, body),
                    Op::Call(m) => 1 + count(program, &program.methods[m.index()].body),
                    _ => 1,
                };
            }
            n
        }
        self.threads
            .iter()
            .map(|t| count(self, &self.methods[t.entry.index()].body))
            .sum()
    }
}

/// Follows `ops`, a part of `method`'s body, from the monitors `held` on
/// entry: an `Acquire` of a held monitor, or a `Release` of one not held,
/// is [`ProgramError::MonitorMisuse`]. Each body is checked on its own,
/// from no monitor held; a call does not change what its caller holds.
/// `Wait` and `NotifyAll` are not checked: a helper may wait on or notify
/// a monitor its caller holds.
fn check_monitors(method: MethodId, ops: &[Op], held: &mut Vec<ObjId>) -> Result<(), ProgramError> {
    for op in ops {
        let misuse = match op {
            Op::Acquire(o) if held.contains(o) => true,
            Op::Acquire(o) => {
                held.push(*o);
                false
            }
            Op::Release(o) => {
                let before = held.len();
                held.retain(|h| h != o);
                held.len() == before
            }
            // An iteration that changes what is held fails in the next one
            // (a monitor it takes is taken again, one it gives up is given
            // up again), so two iterations that pass leave `held` as it was
            // and every later one passes too.
            Op::Loop { count, body } => {
                for _ in 0..(*count).min(2) {
                    check_monitors(method, body, held)?;
                }
                false
            }
            _ => false,
        };
        if misuse {
            let op = op.clone();
            return Err(ProgramError::MonitorMisuse { method, op });
        }
    }
    Ok(())
}

/// Incremental builder for [`Program`] (C-BUILDER).
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    program: Program,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a heap object, returning its id.
    pub fn object(&mut self, kind: ObjKind) -> ObjId {
        let id = ObjId::from_index(self.program.objects.len());
        self.program.objects.push(kind);
        id
    }

    /// Declares `n` plain objects with `fields` fields each.
    pub fn objects(&mut self, n: usize, fields: u16) -> Vec<ObjId> {
        (0..n)
            .map(|_| self.object(ObjKind::Plain { fields }))
            .collect()
    }

    /// Looks up an already-added method by name.
    pub fn find_method(&self, name: &str) -> Option<MethodId> {
        self.program.method_by_name(name)
    }

    /// Adds a method, returning its id.
    pub fn method(&mut self, name: impl Into<String>, body: Vec<Op>) -> MethodId {
        let id = MethodId::from_index(self.program.methods.len());
        self.program.methods.push(Method {
            name: name.into(),
            body,
        });
        id
    }

    /// Adds a thread that starts with the run.
    pub fn thread(&mut self, entry: MethodId) -> ThreadId {
        self.push_thread(entry, StartMode::AtRunStart)
    }

    /// Adds a thread that starts when forked.
    pub fn forked_thread(&mut self, entry: MethodId) -> ThreadId {
        self.push_thread(entry, StartMode::OnFork)
    }

    fn push_thread(&mut self, entry: MethodId, start: StartMode) -> ThreadId {
        let id = ThreadId::from_index(self.program.threads.len());
        self.program.threads.push(ThreadSpec { entry, start });
        id
    }

    /// Validates and returns the finished program.
    ///
    /// # Errors
    ///
    /// Returns the first [`ProgramError`] found during validation.
    pub fn build(self) -> Result<Program, ProgramError> {
        self.program.validate()?;
        Ok(self.program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_thread_program() -> ProgramBuilder {
        let mut b = ProgramBuilder::new();
        let o = b.object(ObjKind::Plain { fields: 2 });
        let m = b.method("work", vec![Op::Read(o, 0), Op::Write(o, 1)]);
        b.thread(m);
        b.thread(m);
        b
    }

    #[test]
    fn builds_and_validates_simple_program() {
        let p = two_thread_program().build().unwrap();
        assert_eq!(p.n_threads(), 2);
        assert_eq!(p.method_by_name("work"), Some(MethodId(0)));
        assert_eq!(p.method_name(MethodId(0)), "work");
        assert_eq!(p.dynamic_op_count(), 4);
    }

    #[test]
    fn rejects_unknown_object() {
        let mut b = ProgramBuilder::new();
        let m = b.method("bad", vec![Op::Read(ObjId(9), 0)]);
        b.thread(m);
        assert_eq!(
            b.build().unwrap_err(),
            ProgramError::UnknownObject(ObjId(9))
        );
    }

    #[test]
    fn rejects_recursion() {
        let mut b = ProgramBuilder::new();
        // m0 calls m1 calls m0.
        let m0 = MethodId(0);
        b.method("a", vec![Op::Call(MethodId(1))]);
        b.method("b", vec![Op::Call(m0)]);
        b.thread(m0);
        assert!(matches!(b.build(), Err(ProgramError::RecursiveCall(_))));
    }

    /// The call graph is walked on a heap stack, not by recursing per call:
    /// a 100 000-method chain validates on a 2 MiB thread stack, and the
    /// same chain closed into a cycle is refused.
    #[test]
    fn a_long_call_chain_validates_without_recursing() {
        let chain = |closed: bool| {
            let n = 100_000u32;
            let methods = (0..n)
                .map(|i| Method {
                    name: format!("m{i}"),
                    body: match i + 1 {
                        next if next < n => vec![Op::Call(MethodId(next))],
                        _ if closed => vec![Op::Call(MethodId(0))],
                        _ => Vec::new(),
                    },
                })
                .collect();
            let threads = vec![ThreadSpec {
                entry: MethodId(0),
                start: StartMode::AtRunStart,
            }];
            Program {
                methods,
                objects: Vec::new(),
                threads,
            }
            .validate()
        };
        let results = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || (chain(false), chain(true)))
            .unwrap()
            .join()
            .expect("validation overflowed its stack");
        assert_eq!(results.0, Ok(()));
        assert_eq!(results.1, Err(ProgramError::RecursiveCall(MethodId(0))));
    }

    /// Of two defects, the one checked first is reported: an unknown id
    /// wins over a monitor misuse earlier in the same body, and fork
    /// agreement wins over recursion.
    #[test]
    fn the_first_check_in_order_reports_its_defect() {
        let mut b = ProgramBuilder::new();
        let l = b.object(ObjKind::Monitor);
        let m = b.method("m", vec![Op::Release(l), Op::Read(ObjId(99), 0)]);
        b.thread(m);
        assert_eq!(
            b.build().unwrap_err(),
            ProgramError::UnknownObject(ObjId(99))
        );
        let mut b = ProgramBuilder::new();
        let main = b.method("main", vec![Op::Call(MethodId(0))]);
        b.thread(main);
        let idle = b.method("idle", vec![Op::Compute(1)]);
        let never = b.forked_thread(idle);
        assert_eq!(b.build().unwrap_err(), ProgramError::NeverForked(never));
    }

    #[test]
    fn rejects_array_op_on_plain_object() {
        let mut b = ProgramBuilder::new();
        let o = b.object(ObjKind::Plain { fields: 1 });
        let m = b.method("bad", vec![Op::ArrayRead(o, 0)]);
        b.thread(m);
        assert_eq!(b.build().unwrap_err(), ProgramError::KindMismatch(o));
    }

    #[test]
    fn rejects_plain_op_on_array_object() {
        let mut b = ProgramBuilder::new();
        let o = b.object(ObjKind::Array { len: 4 });
        let m = b.method("bad", vec![Op::Write(o, 0)]);
        b.thread(m);
        assert_eq!(b.build().unwrap_err(), ProgramError::KindMismatch(o));
    }

    #[test]
    fn rejects_barrier_on_plain_object() {
        let mut b = ProgramBuilder::new();
        let o = b.object(ObjKind::Plain { fields: 1 });
        let m = b.method("bad", vec![Op::Barrier(o)]);
        b.thread(m);
        assert_eq!(b.build().unwrap_err(), ProgramError::NotABarrier(o));
    }

    #[test]
    fn rejects_never_forked_thread() {
        let mut b = ProgramBuilder::new();
        let m = b.method("idle", vec![Op::Compute(1)]);
        b.forked_thread(m);
        assert!(matches!(b.build(), Err(ProgramError::NeverForked(_))));
    }

    #[test]
    fn rejects_fork_of_run_start_thread() {
        let mut b = ProgramBuilder::new();
        let m2 = b.method("idle", vec![Op::Compute(1)]);
        let t1 = ThreadId(1);
        let m1 = b.method("main", vec![Op::Fork(t1)]);
        b.thread(m1);
        b.thread(m2); // starts at run start but is also forked
        assert!(matches!(b.build(), Err(ProgramError::ForkMismatch(_))));
    }

    #[test]
    fn dynamic_op_count_multiplies_loops_and_follows_calls() {
        let mut b = ProgramBuilder::new();
        let o = b.object(ObjKind::Plain { fields: 1 });
        let leaf = b.method("leaf", vec![Op::Read(o, 0)]);
        let m = b.method(
            "main",
            vec![Op::Loop {
                count: 3,
                body: vec![Op::Call(leaf), Op::Write(o, 0)],
            }],
        );
        b.thread(m);
        let p = b.build().unwrap();
        // Each iteration: Call (1) + leaf body (1) + Write (1) = 3; ×3 = 9.
        assert_eq!(p.dynamic_op_count(), 9);
    }

    #[test]
    fn rejects_monitor_misuse_along_each_body() {
        let misuse = |body: Vec<Op>| {
            let mut b = ProgramBuilder::new();
            b.object(ObjKind::Monitor);
            let m = b.method("m", body);
            b.thread(m);
            match b.build() {
                Ok(_) => None,
                Err(ProgramError::MonitorMisuse { op, .. }) => Some(op),
                Err(e) => panic!("{e}"),
            }
        };
        let l = ObjId(0);
        let (acq, rel) = (Op::Acquire(l), Op::Release(l));
        assert_eq!(misuse(vec![rel.clone()]), Some(rel.clone()));
        // A helper may wait on or notify its caller's monitor.
        assert_eq!(misuse(vec![Op::Wait(l), Op::NotifyAll(l)]), None);
        assert_eq!(misuse(vec![acq.clone(), acq.clone()]), Some(acq.clone()));
        assert_eq!(
            misuse(vec![acq.clone(), rel.clone(), rel.clone()]),
            Some(rel.clone())
        );
        let once = |count, body| vec![Op::Loop { count, body }];
        // A loop that takes the monitor and never gives it up fails on its
        // second iteration, not its first.
        assert_eq!(misuse(once(1, vec![acq.clone()])), None);
        assert_eq!(misuse(once(2, vec![acq.clone()])), Some(acq.clone()));
        assert_eq!(misuse(once(0, vec![rel.clone()])), None);
        let balanced = vec![acq.clone(), Op::Wait(l), Op::NotifyAll(l), rel.clone()];
        assert_eq!(misuse(once(100, balanced)), None);
        // Released and taken again inside a loop that holds it throughout.
        let inner = once(5, vec![rel.clone(), acq.clone()]);
        assert_eq!(misuse([vec![acq.clone()], inner, vec![rel]].concat()), None);
    }

    #[test]
    fn validate_accepts_fork_join_pairing() {
        let mut b = ProgramBuilder::new();
        let worker = b.method("worker", vec![Op::Compute(1)]);
        let tw = ThreadId(1);
        let main = b.method("main", vec![Op::Fork(tw), Op::Join(tw)]);
        b.thread(main);
        b.forked_thread(worker);
        assert!(b.build().is_ok());
    }
}
