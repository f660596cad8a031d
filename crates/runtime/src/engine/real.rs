//! The real-thread execution engine.
//!
//! Spawns one OS thread per program thread and interprets each thread's
//! action stream, invoking checker hooks at every instrumentation point. The
//! engine polls [`Checker::safe_point`] where the interpreter's
//! [`Step::safe_point`] bit asks for it: after every non-access action and
//! after the first action past each loop back edge, the places a JVM puts
//! its yieldpoints (see [`crate::interp`]). Each poll sits between two
//! complete actions, never between a barrier and its access (§3.2.1). The
//! engine also brackets every blocking operation with
//! [`Checker::before_block`] / [`Checker::after_unblock`] so Octet's
//! implicit coordination protocol can engage.

use crate::checker::Checker;
use crate::heap::{Heap, ObjKind};
use crate::ids::{ObjId, ThreadId};
use crate::interp::{compute_units, Action, Step, ThreadInterp};
use crate::program::{Op, Program, StartMode};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::time::Instant;

use super::RunStats;

/// A Java-style (non-reentrant here) object monitor with wait/notify.
struct Monitor {
    inner: Mutex<MonitorState>,
    lock_cv: Condvar,
    wait_cv: Condvar,
}

#[derive(Default)]
struct MonitorState {
    owner: Option<ThreadId>,
    notify_epoch: u64,
}

impl Monitor {
    fn new() -> Self {
        Monitor {
            inner: Mutex::new(MonitorState::default()),
            lock_cv: Condvar::new(),
            wait_cv: Condvar::new(),
        }
    }

    /// Acquires the monitor for `t`; returns true if it had to block.
    fn acquire<C: Checker>(&self, t: ThreadId, checker: &C) -> bool {
        let mut st = self.inner.lock();
        assert_ne!(st.owner, Some(t), "monitor is not reentrant");
        let mut blocked = false;
        while st.owner.is_some() {
            if !blocked {
                blocked = true;
                checker.before_block(t);
            }
            self.lock_cv.wait(&mut st);
        }
        st.owner = Some(t);
        blocked
    }

    fn release(&self, t: ThreadId) {
        let mut st = self.inner.lock();
        assert_eq!(st.owner, Some(t), "releasing a monitor not owned");
        st.owner = None;
        drop(st);
        self.lock_cv.notify_one();
    }

    /// Latch-style wait: releases the monitor, sleeps until the *first*
    /// notify on this monitor (a wait after any notify returns immediately),
    /// then re-acquires.
    ///
    /// Java's `wait` sleeps until a notify that follows it, so an
    /// early notify is *lost* and the waiter hangs. Real programs guard
    /// waits with condition predicates; the workload IR has no branches, so
    /// the substrate uses latch semantics instead — same release/acquire
    /// dependence edges, guaranteed liveness.
    fn wait<C: Checker>(&self, t: ThreadId, checker: &C) {
        let mut st = self.inner.lock();
        assert_eq!(st.owner, Some(t), "waiting on a monitor not owned");
        st.owner = None;
        self.lock_cv.notify_one();
        let mut blocked = false;
        while st.notify_epoch == 0 {
            if !blocked {
                blocked = true;
                checker.before_block(t);
            }
            self.wait_cv.wait(&mut st);
        }
        while st.owner.is_some() {
            self.lock_cv.wait(&mut st);
        }
        st.owner = Some(t);
        if blocked {
            checker.after_unblock(t);
        }
    }

    fn notify_all(&self, t: ThreadId) {
        let mut st = self.inner.lock();
        assert_eq!(st.owner, Some(t), "notifying a monitor not owned");
        st.notify_epoch += 1;
        drop(st);
        self.wait_cv.notify_all();
    }
}

/// A sense-reversing rendezvous barrier.
struct RendezvousBarrier {
    inner: Mutex<BarrierState>,
    cv: Condvar,
    parties: u32,
}

#[derive(Default)]
struct BarrierState {
    arrived: u32,
    generation: u64,
}

impl RendezvousBarrier {
    fn new(parties: u32) -> Self {
        RendezvousBarrier {
            inner: Mutex::new(BarrierState::default()),
            cv: Condvar::new(),
            parties: parties.max(1),
        }
    }

    /// Returns true if this thread had to block (was not the last arriver).
    fn arrive<C: Checker>(&self, t: ThreadId, checker: &C) -> bool {
        let mut st = self.inner.lock();
        st.arrived += 1;
        if st.arrived == self.parties {
            st.arrived = 0;
            st.generation += 1;
            drop(st);
            self.cv.notify_all();
            false
        } else {
            let gen = st.generation;
            checker.before_block(t);
            while st.generation == gen {
                self.cv.wait(&mut st);
            }
            true
        }
    }
}

/// A start/finish gate for fork and join.
struct Gate {
    inner: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    fn new(open: bool) -> Self {
        Gate {
            inner: Mutex::new(open),
            cv: Condvar::new(),
        }
    }

    fn open(&self) {
        let mut g = self.inner.lock();
        *g = true;
        drop(g);
        self.cv.notify_all();
    }

    /// Waits for the gate; `on_block` fires if the gate was closed.
    fn wait_open(&self, mut on_block: impl FnMut()) -> bool {
        let mut g = self.inner.lock();
        let mut blocked = false;
        while !*g {
            if !blocked {
                blocked = true;
                on_block();
            }
            self.cv.wait(&mut g);
        }
        blocked
    }
}

/// Shared synchronization tables for one run.
struct SyncTables {
    monitors: HashMap<ObjId, Monitor>,
    barriers: HashMap<ObjId, RendezvousBarrier>,
    start_gates: Vec<Gate>,
    finish_gates: Vec<Gate>,
}

impl SyncTables {
    fn build(program: &Program) -> Self {
        let mut monitor_objs = Vec::new();
        let mut barrier_objs = Vec::new();
        fn scan(ops: &[Op], monitors: &mut Vec<ObjId>, barriers: &mut Vec<ObjId>) {
            for op in ops {
                match op {
                    Op::Acquire(o) | Op::Release(o) | Op::Wait(o) | Op::NotifyAll(o) => {
                        monitors.push(*o)
                    }
                    Op::Barrier(o) => barriers.push(*o),
                    Op::Loop { body, .. } => scan(body, monitors, barriers),
                    _ => {}
                }
            }
        }
        for m in &program.methods {
            scan(&m.body, &mut monitor_objs, &mut barrier_objs);
        }
        let monitors = monitor_objs
            .into_iter()
            .map(|o| (o, Monitor::new()))
            .collect();
        let barriers = barrier_objs
            .into_iter()
            .map(|o| {
                let parties = match program.objects[o.index()] {
                    ObjKind::Barrier { parties } => parties,
                    _ => unreachable!("validated program"),
                };
                (o, RendezvousBarrier::new(parties))
            })
            .collect();
        let start_gates = program
            .threads
            .iter()
            .map(|spec| Gate::new(spec.start == StartMode::AtRunStart))
            .collect();
        let finish_gates = program.threads.iter().map(|_| Gate::new(false)).collect();
        SyncTables {
            monitors,
            barriers,
            start_gates,
            finish_gates,
        }
    }

    fn monitor(&self, o: ObjId) -> &Monitor {
        self.monitors.get(&o).expect("monitor table miss")
    }
}

/// Runs `program` on real OS threads under `checker`.
///
/// Returns aggregate statistics including the wall-clock time of the
/// parallel phase: `elapsed_nanos` covers spawning the threads, running
/// them and joining them; heap and sync-table construction,
/// `Checker::run_begin` and `Checker::run_end` are outside it.
///
/// # Panics
///
/// Panics on monitor misuse by the program (releasing an unowned monitor,
/// reentrant acquire) — workload generators must produce well-formed
/// programs; `Program::validate` catches the statically checkable errors.
pub fn run_real<C: Checker>(program: &Program, checker: &C) -> RunStats {
    program.validate().expect("invalid program");
    let heap = Heap::new(&program.objects, program.n_threads());
    checker.run_begin(&heap);
    let tables = SyncTables::build(program);
    let start = Instant::now();
    let mut stats = RunStats::default();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (i, spec) in program.threads.iter().enumerate() {
            let t = ThreadId::from_index(i);
            let heap = &heap;
            let tables = &tables;
            let entry = spec.entry;
            let forked = spec.start == StartMode::OnFork;
            handles.push(
                scope.spawn(move || run_thread(program, checker, heap, tables, t, entry, forked)),
            );
        }
        for handle in handles {
            let thread_stats = handle.join().expect("program thread panicked");
            stats.merge(&thread_stats);
        }
    });
    stats.elapsed_nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    checker.run_end();
    stats
}

fn run_thread<C: Checker>(
    program: &Program,
    checker: &C,
    heap: &Heap,
    tables: &SyncTables,
    t: ThreadId,
    entry: crate::ids::MethodId,
    forked: bool,
) -> RunStats {
    // Threads that start on fork wait before touching any analysis state.
    if forked {
        tables.start_gates[t.index()].wait_open(|| {});
    }
    checker.thread_begin(t);
    if forked {
        // Thread start is acquire-like on the thread's own object, forming
        // the fork → start dependence edge.
        checker.sync_acquire(t, heap.thread_obj(t));
        checker.safe_point(t);
    }
    let mut stats = RunStats::default();
    let mut interp = ThreadInterp::new(program, entry);
    while let Some(Step { action, safe_point }) = interp.next_action() {
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
            Action::Acquire(o) => {
                stats.syncs += 1;
                let blocked = tables.monitor(o).acquire(t, checker);
                if blocked {
                    checker.after_unblock(t);
                }
                checker.sync_acquire(t, o);
            }
            Action::Release(o) => {
                stats.syncs += 1;
                checker.sync_release(t, o);
                tables.monitor(o).release(t);
            }
            Action::Wait(o) => {
                stats.syncs += 1;
                // Wait start is release-like; return is acquire-like.
                checker.sync_release(t, o);
                tables.monitor(o).wait(t, checker);
                checker.sync_acquire(t, o);
            }
            Action::NotifyAll(o) => {
                stats.syncs += 1;
                checker.sync_release(t, o);
                tables.monitor(o).notify_all(t);
            }
            Action::Barrier(o) => {
                stats.syncs += 1;
                checker.sync_release(t, o);
                let blocked = tables
                    .barriers
                    .get(&o)
                    .expect("barrier table miss")
                    .arrive(t, checker);
                if blocked {
                    checker.after_unblock(t);
                }
                checker.sync_acquire(t, o);
            }
            Action::Fork(child) => {
                stats.syncs += 1;
                // Fork is release-like on the child's thread object; the
                // write barrier runs before the child can start.
                checker.sync_release(t, heap.thread_obj(child));
                tables.start_gates[child.index()].open();
            }
            Action::Join(child) => {
                stats.syncs += 1;
                let gate = &tables.finish_gates[child.index()];
                let blocked = gate.wait_open(|| checker.before_block(t));
                if blocked {
                    checker.after_unblock(t);
                }
                checker.sync_acquire(t, heap.thread_obj(child));
            }
            Action::Compute(u) => {
                std::hint::black_box(compute_units(u));
            }
        }
        if safe_point {
            checker.safe_point(t);
        }
    }
    // Thread exit is release-like on the thread's own object so joiners see
    // a dependence edge from everything the thread did.
    checker.sync_release(t, heap.thread_obj(t));
    checker.thread_end(t);
    tables.finish_gates[t.index()].open();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::NopChecker;
    use crate::ids::CellId;
    use crate::program::ProgramBuilder;
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
