//! Analogs of the multithreaded DaCapo benchmarks the paper evaluates
//! (§5.1). A parameterized generator composes the sharing shapes; the
//! per-benchmark parameters are chosen to echo the paper's Table 2/3 rows:
//!
//! * `jython9`, `luindex9`, `pmd9` — essentially thread-local work, a
//!   handful of regular transactions, no cycles;
//! * `lusearch6`/`lusearch9` — mostly thread-local indexing, few shared
//!   counters (lusearch9's cycles never involve unary transactions, so the
//!   second run skips non-transactional instrumentation);
//! * `hsqldb6` — lock-protected table operations plus racy statistics;
//! * `xalan6`/`xalan9` — heavy *serializable* ping-pong on shared pool
//!   objects: Octet's object-granularity conflicts produce imprecise IDG
//!   cycles en masse (many SCCs, high PCD load — the paper's xalan6 story)
//!   while precise (field-level) dependences stay acyclic, plus racy
//!   methods that are real violations;
//! * `avrora9` — very many tiny transactions over a shared event queue;
//! * `sunflow9` — a read-shared scene scanned by all threads (RdSh states
//!   and fence transitions) plus racy statistics;
//! * `eclipse6` — a broad mix with the most distinct racy methods.
//!
//! Each benchmark uses the DaCapo driver-thread structure: a driver forks
//! workers and joins them; the driver is excluded from the specification
//! (paper §5.1).

use crate::builder::{churn, locked, repeat, rmw, scan, Scale, Workload, WorkloadBuilder};
use dc_runtime::ids::{CellId, MethodId, ObjId};
use dc_runtime::program::Op;

/// Parameters of the DaCapo-analog generator.
#[derive(Clone, Copy, Debug)]
struct Shape {
    name: &'static str,
    workers: usize,
    /// Per-worker private objects (fast-path traffic).
    private_objs: usize,
    private_fields: u16,
    /// Churn rounds per iteration (thread-local work volume).
    churn_rounds: u32,
    /// Shared read-only table objects scanned per iteration (RdSh traffic);
    /// 0 disables.
    shared_tables: usize,
    /// Lock-protected shared operations per iteration.
    locked_ops: u32,
    /// Distinct racy atomic methods (each a real atomicity violation).
    racy_methods: usize,
    /// Serializable ping-pong writes per iteration on a shared object
    /// (distinct fields per worker) — imprecise-cycle fuel; 0 disables.
    pingpong: u32,
    /// Iterations of non-transactional (unary-context) churn per iteration.
    unary_rounds: u32,
    /// Outer iterations per unit of [`Scale::factor`].
    iters_per_unit: u32,
    /// Put the racy work in transactional context (true) or leave some in
    /// unary context so cycles involve unary transactions.
    racy_in_unary_too: bool,
}

fn generate(shape: Shape, scale: Scale) -> Workload {
    let mut w = WorkloadBuilder::new(shape.name);
    let f = scale.factor();
    let class = shape.name;

    let lock = w.monitor();
    let shared = w.object(16);
    let racy_obj = w.object(16);
    let pingpong_obj = w.object(16);
    let tables: Vec<ObjId> = (0..shape.shared_tables).map(|_| w.object(8)).collect();

    // Racy methods shared by all workers: each is one seeded violation.
    let racy: Vec<MethodId> = (0..shape.racy_methods)
        .map(|k| {
            w.method(
                format!("{class}.racyUpdate{k}"),
                rmw(racy_obj, (k % 16) as CellId, 4),
            )
        })
        .collect();

    let locked_op = w.method(
        format!("{class}.lockedOp"),
        locked(
            lock,
            vec![Op::Read(shared, 0), Op::Write(shared, 1), Op::Compute(3)],
        ),
    );

    let mut worker_entries = Vec::new();
    for i in 0..shape.workers {
        let private: Vec<ObjId> = (0..shape.private_objs)
            .map(|_| w.object(shape.private_fields))
            .collect();
        let local_work = w.method(
            format!("{class}.localWork{i}"),
            vec![churn(&private, shape.private_fields, shape.churn_rounds, 4)],
        );
        let scan_tables = if tables.is_empty() {
            None
        } else {
            Some(w.method(format!("{class}.scanTables{i}"), scan(&tables, 8, 2)))
        };
        let pingpong_m = if shape.pingpong > 0 {
            // Each worker writes its own field: serializable, but Octet's
            // object-granularity state ping-pongs between threads.
            Some(w.method(
                format!("{class}.pingPong{i}"),
                vec![repeat(
                    shape.pingpong,
                    vec![
                        Op::Write(pingpong_obj, i as CellId),
                        Op::Read(pingpong_obj, i as CellId),
                    ],
                )],
            ))
        } else {
            None
        };

        // Clean iteration: thread-local work plus the benign shared
        // operations. Executed several times between each racy batch so
        // shared conflicts stay sparse relative to accesses (Table 3's
        // edges ≪ accesses) and imprecise SCCs stay window-bounded.
        let mut clean_iter = vec![Op::Call(local_work)];
        if let Some(m) = scan_tables {
            clean_iter.push(Op::Call(m));
        }
        for _ in 0..shape.locked_ops {
            clean_iter.push(Op::Call(locked_op));
            clean_iter.push(Op::Call(local_work));
        }
        // Racy batch: the seeded violations plus ping-pong and
        // unary-context shared churn.
        let mut racy_batch = Vec::new();
        if let Some(m) = pingpong_m {
            racy_batch.push(Op::Call(m));
        }
        for (k, &m) in racy.iter().enumerate() {
            // Spread racy methods across workers so every method is shared
            // by at least two threads.
            if shape.workers == 1 || (i + k) % 2 == 0 || shape.workers == 2 {
                racy_batch.push(Op::Call(m));
            }
        }
        if shape.unary_rounds > 0 {
            // Unary-context churn over a shared object: non-transactional
            // accesses that can join imprecise cycles.
            racy_batch.push(repeat(
                shape.unary_rounds,
                vec![
                    Op::Read(racy_obj, (i % 16) as CellId),
                    Op::Write(racy_obj, (i % 16) as CellId),
                ],
            ));
            if shape.racy_in_unary_too {
                racy_batch.push(Op::Read(racy_obj, 0));
            }
        }
        let mut outer = vec![repeat(3, clean_iter.clone())];
        outer.extend(clean_iter);
        outer.extend(racy_batch);
        let entry = w.excluded_method(
            format!("{class}.worker{i}"),
            vec![repeat(shape.iters_per_unit * f, outer)],
        );
        worker_entries.push(entry);
    }

    // DaCapo driver: forks every worker, then joins them. Excluded from the
    // specification (it "executes non-atomically", §5.1).
    let mut driver_body = Vec::new();
    let worker_threads: Vec<_> = (0..shape.workers)
        .map(|i| dc_runtime::ids::ThreadId((i + 1) as u16))
        .collect();
    for &t in &worker_threads {
        driver_body.push(Op::Fork(t));
    }
    for &t in &worker_threads {
        driver_body.push(Op::Join(t));
    }
    let driver = w.excluded_method(format!("{class}.driver"), driver_body);
    w.thread(driver);
    for entry in worker_entries {
        w.forked_thread(entry);
    }
    w.build(true)
}

/// `eclipse6`: the broadest mix — most distinct racy methods (the paper's
/// largest Table 2 row), moderate everything else.
pub fn eclipse6(scale: Scale) -> Workload {
    generate(
        Shape {
            name: "eclipse6",
            workers: 4,
            private_objs: 6,
            private_fields: 8,
            churn_rounds: 20,
            shared_tables: 2,
            locked_ops: 1,
            racy_methods: 10,
            pingpong: 2,
            unary_rounds: 2,
            iters_per_unit: 1,
            racy_in_unary_too: true,
        },
        scale,
    )
}

/// `hsqldb6`: lock-protected table transactions plus racy statistics.
pub fn hsqldb6(scale: Scale) -> Workload {
    generate(
        Shape {
            name: "hsqldb6",
            workers: 4,
            private_objs: 4,
            private_fields: 6,
            churn_rounds: 16,
            shared_tables: 1,
            locked_ops: 1,
            racy_methods: 6,
            pingpong: 0,
            unary_rounds: 1,
            iters_per_unit: 1,
            racy_in_unary_too: true,
        },
        scale,
    )
}

/// `lusearch6`: almost entirely thread-local index search; a single rare
/// racy counter.
pub fn lusearch6(scale: Scale) -> Workload {
    generate(
        Shape {
            name: "lusearch6",
            workers: 4,
            private_objs: 10,
            private_fields: 8,
            churn_rounds: 40,
            shared_tables: 0,
            locked_ops: 1,
            racy_methods: 1,
            pingpong: 0,
            unary_rounds: 8,
            iters_per_unit: 1,
            racy_in_unary_too: false,
        },
        scale,
    )
}

/// `xalan6`: heavy serializable ping-pong — very many imprecise SCCs with
/// no matching precise cycles (ICD's worst case, §5.3) — plus racy methods.
pub fn xalan6(scale: Scale) -> Workload {
    generate(
        Shape {
            name: "xalan6",
            workers: 4,
            private_objs: 4,
            private_fields: 6,
            churn_rounds: 6,
            shared_tables: 1,
            locked_ops: 1,
            racy_methods: 6,
            pingpong: 6,
            unary_rounds: 3,
            iters_per_unit: 2,
            racy_in_unary_too: true,
        },
        scale,
    )
}

/// `avrora9`: a huge number of tiny transactions over shared simulator
/// state.
pub fn avrora9(scale: Scale) -> Workload {
    generate(
        Shape {
            name: "avrora9",
            workers: 4,
            private_objs: 2,
            private_fields: 4,
            churn_rounds: 3,
            shared_tables: 0,
            locked_ops: 1,
            racy_methods: 4,
            pingpong: 2,
            unary_rounds: 6,
            iters_per_unit: 3,
            racy_in_unary_too: true,
        },
        scale,
    )
}

/// `jython9`: effectively single-threaded: one worker, pure private work.
pub fn jython9(scale: Scale) -> Workload {
    generate(
        Shape {
            name: "jython9",
            workers: 1,
            private_objs: 12,
            private_fields: 10,
            churn_rounds: 40,
            shared_tables: 0,
            locked_ops: 0,
            racy_methods: 0,
            pingpong: 0,
            unary_rounds: 10,
            iters_per_unit: 2,
            racy_in_unary_too: false,
        },
        scale,
    )
}

/// `luindex9`: single indexing worker, thread-local.
pub fn luindex9(scale: Scale) -> Workload {
    generate(
        Shape {
            name: "luindex9",
            workers: 1,
            private_objs: 8,
            private_fields: 8,
            churn_rounds: 32,
            shared_tables: 0,
            locked_ops: 0,
            racy_methods: 0,
            pingpong: 0,
            unary_rounds: 6,
            iters_per_unit: 2,
            racy_in_unary_too: false,
        },
        scale,
    )
}

/// `lusearch9`: thread-local search plus a few racy counters; its cycles
/// never involve unary transactions (no unary-context shared churn), so
/// multi-run mode's second run skips non-transactional instrumentation
/// (paper §5.5).
pub fn lusearch9(scale: Scale) -> Workload {
    generate(
        Shape {
            name: "lusearch9",
            workers: 4,
            private_objs: 8,
            private_fields: 8,
            churn_rounds: 32,
            shared_tables: 0,
            locked_ops: 1,
            racy_methods: 3,
            pingpong: 0,
            unary_rounds: 0,
            iters_per_unit: 1,
            racy_in_unary_too: false,
        },
        scale,
    )
}

/// `pmd9`: single analysis worker, thread-local.
pub fn pmd9(scale: Scale) -> Workload {
    generate(
        Shape {
            name: "pmd9",
            workers: 1,
            private_objs: 6,
            private_fields: 6,
            churn_rounds: 24,
            shared_tables: 0,
            locked_ops: 0,
            racy_methods: 0,
            pingpong: 0,
            unary_rounds: 4,
            iters_per_unit: 2,
            racy_in_unary_too: false,
        },
        scale,
    )
}

/// `sunflow9`: all threads scan a read-shared scene (RdSh + fence Octet
/// traffic) with a couple of racy statistics methods.
pub fn sunflow9(scale: Scale) -> Workload {
    generate(
        Shape {
            name: "sunflow9",
            workers: 4,
            private_objs: 6,
            private_fields: 8,
            churn_rounds: 20,
            shared_tables: 4,
            locked_ops: 0,
            racy_methods: 2,
            pingpong: 0,
            unary_rounds: 0,
            iters_per_unit: 1,
            racy_in_unary_too: false,
        },
        scale,
    )
}

/// `xalan9`: like `xalan6` with less extreme ping-pong.
pub fn xalan9(scale: Scale) -> Workload {
    generate(
        Shape {
            name: "xalan9",
            workers: 4,
            private_objs: 4,
            private_fields: 6,
            churn_rounds: 10,
            shared_tables: 1,
            locked_ops: 1,
            racy_methods: 7,
            pingpong: 4,
            unary_rounds: 2,
            iters_per_unit: 2,
            racy_in_unary_too: true,
        },
        scale,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_tiny() -> Vec<Workload> {
        vec![
            eclipse6(Scale::Tiny),
            hsqldb6(Scale::Tiny),
            lusearch6(Scale::Tiny),
            xalan6(Scale::Tiny),
            avrora9(Scale::Tiny),
            jython9(Scale::Tiny),
            luindex9(Scale::Tiny),
            lusearch9(Scale::Tiny),
            pmd9(Scale::Tiny),
            sunflow9(Scale::Tiny),
            xalan9(Scale::Tiny),
        ]
    }

    #[test]
    fn all_dacapo_workloads_validate() {
        for wl in all_tiny() {
            assert!(
                wl.extra_exclusions.len() >= wl.program.threads.len(),
                "{}: driver and worker entries are excluded",
                wl.name
            );
        }
    }

    #[test]
    fn driver_forks_and_joins_all_workers() {
        for wl in all_tiny() {
            dc_runtime::engine::det::run_det(
                &wl.program,
                &dc_runtime::checker::NopChecker,
                &dc_runtime::engine::det::Schedule::random(7),
            )
            .unwrap_or_else(|e| panic!("{} failed: {e}", wl.name));
        }
    }

    #[test]
    fn single_worker_benchmarks_have_two_threads() {
        for wl in [
            jython9(Scale::Tiny),
            luindex9(Scale::Tiny),
            pmd9(Scale::Tiny),
        ] {
            assert_eq!(wl.program.threads.len(), 2, "{}: driver + worker", wl.name);
        }
    }

    #[test]
    fn racy_method_counts_echo_the_paper_ordering() {
        // eclipse6 seeds the most violations; xalan9 > xalan6 is not
        // required, but all xalans exceed lusearch6.
        let count = |wl: &Workload| {
            wl.program
                .methods
                .iter()
                .filter(|m| m.name.contains("racyUpdate"))
                .count()
        };
        assert!(count(&eclipse6(Scale::Tiny)) >= count(&xalan9(Scale::Tiny)));
        assert!(count(&xalan9(Scale::Tiny)) > count(&lusearch6(Scale::Tiny)));
        assert_eq!(count(&jython9(Scale::Tiny)), 0);
    }
}
