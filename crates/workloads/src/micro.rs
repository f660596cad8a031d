//! Analogs of the microbenchmarks the paper evaluates (elevator, hedc,
//! philo, sor, tsp — §5.1). Each models the original program's *sharing
//! shape*: what is thread-local, what is read-shared, what is protected by
//! locks, and where the known atomicity bugs sit.

use crate::builder::{churn, locked, repeat, rmw, Scale, Workload, WorkloadBuilder};
use dc_runtime::ids::CellId;
use dc_runtime::program::Op;

/// `elevator`: discrete-event elevator controllers polling a shared
/// control board. Mostly lock-protected; two status-update methods touch
/// shared fields without holding the lock (the paper reports 2 violations).
/// Not compute-bound.
pub fn elevator(scale: Scale) -> Workload {
    let mut w = WorkloadBuilder::new("elevator");
    let f = scale.factor();
    let controls = w.object(8);
    let status = w.object(4);
    let lock = w.monitor();
    let private: Vec<_> = (0..3).map(|_| w.object(4)).collect();

    let claim = w.method(
        "Elevator.claimRequest",
        locked(
            lock,
            vec![
                Op::Read(controls, 0),
                Op::Write(controls, 1),
                Op::Compute(4),
            ],
        ),
    );
    // Racy read–modify–writes of shared status: atomicity violations.
    let update_status = w.method("Elevator.updateStatus", rmw(status, 0, 6));
    let record_motion = w.method("Elevator.recordMotion", rmw(status, 1, 6));
    let mut threads = Vec::new();
    for i in 0..3u16 {
        let body = vec![repeat(
            6 * f,
            vec![
                Op::Call(claim),
                Op::Call(update_status),
                Op::Call(record_motion),
                churn(&private[i as usize..=i as usize], 4, 1, 2),
            ],
        )];
        threads.push(w.excluded_method(format!("Elevator.run{i}"), body));
    }
    for m in threads {
        w.thread(m);
    }
    w.build(false)
}

/// `hedc`: a crawler with a worker pool pulling tasks from a shared queue
/// under a lock. Three task-bookkeeping methods race on shared metadata
/// (the paper reports 3 violations). Not compute-bound.
pub fn hedc(scale: Scale) -> Workload {
    let mut w = WorkloadBuilder::new("hedc");
    let f = scale.factor();
    let queue = w.object(8);
    let meta = w.object(6);
    let lock = w.monitor();
    let private: Vec<_> = (0..3).map(|_| w.object(8)).collect();

    let take_task = w.method(
        "Hedc.takeTask",
        locked(lock, vec![Op::Read(queue, 0), Op::Write(queue, 1)]),
    );
    let fetch = w.method("Hedc.fetch", vec![Op::Compute(30)]);
    let mark_done = w.method("Hedc.markDone", rmw(meta, 0, 4));
    let count_bytes = w.method("Hedc.countBytes", rmw(meta, 1, 4));
    let log_status = w.method("Hedc.logStatus", rmw(meta, 2, 4));
    let mut threads = Vec::new();
    for i in 0..3u16 {
        let body = vec![repeat(
            4 * f,
            vec![
                Op::Call(take_task),
                Op::Call(fetch),
                churn(&private[i as usize..=i as usize], 8, 1, 3),
                Op::Call(mark_done),
                Op::Call(count_bytes),
                Op::Call(log_status),
            ],
        )];
        threads.push(w.excluded_method(format!("Hedc.worker{i}"), body));
    }
    for m in threads {
        w.thread(m);
    }
    w.build(false)
}

/// `philo`: dining philosophers with ordered fork acquisition. All shared
/// state is lock-protected — no violations. Not compute-bound.
pub fn philo(scale: Scale) -> Workload {
    const N: usize = 5;
    let mut w = WorkloadBuilder::new("philo");
    let f = scale.factor();
    let forks: Vec<_> = (0..N).map(|_| w.monitor()).collect();
    let table = w.object(N as u16);
    let mut threads = Vec::new();
    for i in 0..N {
        let (lo, hi) = (i.min((i + 1) % N), i.max((i + 1) % N));
        let eat = w.method(
            format!("Philo.eat{i}"),
            vec![
                Op::Acquire(forks[lo]),
                Op::Acquire(forks[hi]),
                Op::Read(table, i as CellId),
                Op::Write(table, i as CellId),
                Op::Compute(5),
                Op::Release(forks[hi]),
                Op::Release(forks[lo]),
            ],
        );
        let think = w.method(format!("Philo.think{i}"), vec![Op::Compute(20)]);
        let body = vec![repeat(4 * f, vec![Op::Call(think), Op::Call(eat)])];
        threads.push(w.excluded_method(format!("Philo.run{i}"), body));
    }
    for m in threads {
        w.thread(m);
    }
    w.build(false)
}

/// `sor`: successive over-relaxation — red-black double buffering with
/// barrier-separated phases: the red phase reads the black rows and writes
/// the red rows; the black phase does the opposite. Reads and writes within
/// a phase touch disjoint objects, so the relax transactions are
/// serializable; no violations. Compute-bound.
pub fn sor(scale: Scale) -> Workload {
    const THREADS: usize = 4;
    const COLS: u16 = 64;
    let mut w = WorkloadBuilder::new("sor");
    let f = scale.factor();
    // Rows are arrays (`double[]` in the Java original): not instrumented
    // in the default configuration (paper §4), which is why the paper's
    // sor shows tiny access counts and no SCCs.
    let red: Vec<_> = (0..THREADS).map(|_| w.array(u32::from(COLS))).collect();
    let black: Vec<_> = (0..THREADS).map(|_| w.array(u32::from(COLS))).collect();
    let bar = w.barrier(THREADS as u32);
    let mut threads = Vec::new();
    for i in 0..THREADS {
        let up = (i + THREADS - 1) % THREADS;
        let down = (i + 1) % THREADS;
        let phase = |from: &[dc_runtime::ids::ObjId], to: dc_runtime::ids::ObjId| {
            let mut ops = Vec::new();
            for c in 0..COLS {
                ops.push(Op::ArrayRead(from[up], CellId::from(c)));
                ops.push(Op::ArrayRead(from[down], CellId::from(c)));
                ops.push(Op::Compute(3));
                ops.push(Op::ArrayWrite(to, CellId::from(c)));
            }
            ops
        };
        let relax_red = w.method(format!("Sor.relaxRed{i}"), phase(&black, red[i]));
        let relax_black = w.method(format!("Sor.relaxBlack{i}"), phase(&red, black[i]));
        // The phase loop (with the barrier) is interrupting → auto-excluded.
        let body = vec![repeat(
            f,
            vec![
                Op::Call(relax_red),
                Op::Barrier(bar),
                Op::Call(relax_black),
                Op::Barrier(bar),
            ],
        )];
        threads.push(w.excluded_method(format!("Sor.run{i}"), body));
    }
    for m in threads {
        w.thread(m);
    }
    w.build(true)
}

/// `tsp`: branch-and-bound traveling salesman — thread-local tour search
/// with a shared best-bound read racily for pruning and updated both under
/// a lock and (buggily) without it (the paper reports 7 violations; this
/// analog seeds four racy bound/statistics methods). Compute-bound.
pub fn tsp(scale: Scale) -> Workload {
    const THREADS: usize = 4;
    let mut w = WorkloadBuilder::new("tsp");
    let f = scale.factor();
    let best = w.object(4);
    let stats = w.object(4);
    let lock = w.monitor();
    let private: Vec<_> = (0..THREADS).map(|_| w.object(12)).collect();

    // The subtree search is pure thread-local work; the racy bound check is
    // its own *short* transaction. (Long transactions that touch shared
    // state bridge many other-thread transactions into one giant imprecise
    // SCC — the paper hit exactly this with raytracer/sunflow9 and excluded
    // those methods, §5.1.)
    let search = |w: &mut WorkloadBuilder, i: usize| {
        w.method(
            format!("Tsp.searchSubtree{i}"),
            vec![churn(&private[i..=i], 12, 8, 8)],
        )
    };
    let check_bound = w.method("Tsp.checkBound", vec![Op::Read(best, 0)]);
    let update_locked = w.method(
        "Tsp.updateBoundLocked",
        locked(lock, vec![Op::Read(best, 0), Op::Write(best, 0)]),
    );
    // Racy updates: the classic TSP bound bug plus statistics counters.
    let update_racy = w.method("Tsp.updateBoundRacy", rmw(best, 1, 3));
    let count_nodes = w.method("Tsp.countNodes", rmw(stats, 0, 3));
    let count_prunes = w.method("Tsp.countPrunes", rmw(stats, 1, 3));
    let record_tour = w.method("Tsp.recordTour", rmw(stats, 2, 3));
    let mut threads = Vec::new();
    for i in 0..THREADS {
        let s = search(&mut w, i);
        let body = vec![repeat(
            2 * f,
            vec![
                repeat(6, vec![Op::Call(s), Op::Call(check_bound)]),
                Op::Call(update_locked),
                Op::Call(update_racy),
                Op::Call(count_nodes),
                Op::Call(count_prunes),
                Op::Call(record_tour),
            ],
        )];
        threads.push(w.excluded_method(format!("Tsp.run{i}"), body));
    }
    for m in threads {
        w.thread(m);
    }
    w.build(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_micro_workloads_validate() {
        for wl in [
            elevator(Scale::Tiny),
            hedc(Scale::Tiny),
            philo(Scale::Tiny),
            sor(Scale::Tiny),
            tsp(Scale::Tiny),
        ] {
            assert!(wl.program.threads.len() >= 3);
            assert!(wl.program.dynamic_op_count() > 0);
        }
    }

    #[test]
    fn compute_bound_flags_match_the_paper() {
        assert!(!elevator(Scale::Tiny).compute_bound);
        assert!(!hedc(Scale::Tiny).compute_bound);
        assert!(!philo(Scale::Tiny).compute_bound);
        assert!(sor(Scale::Tiny).compute_bound);
        assert!(tsp(Scale::Tiny).compute_bound);
    }

    #[test]
    fn scaling_multiplies_dynamic_ops() {
        let small = tsp(Scale::Tiny).program.dynamic_op_count();
        let big = tsp(Scale::Small).program.dynamic_op_count();
        assert!(big > 10 * small);
    }

    #[test]
    fn philo_runs_deadlock_free_under_many_schedules() {
        let wl = philo(Scale::Tiny);
        for seed in 0..30 {
            dc_runtime::engine::det::run_det(
                &wl.program,
                &dc_runtime::checker::NopChecker,
                &dc_runtime::engine::det::Schedule::random(seed),
            )
            .unwrap_or_else(|e| panic!("philo deadlocked (seed {seed}): {e}"));
        }
    }

    #[test]
    fn sor_barriers_synchronize_under_random_schedules() {
        let wl = sor(Scale::Tiny);
        for seed in 0..10 {
            dc_runtime::engine::det::run_det(
                &wl.program,
                &dc_runtime::checker::NopChecker,
                &dc_runtime::engine::det::Schedule::random(seed),
            )
            .unwrap();
        }
    }
}
