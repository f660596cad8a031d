//! Precision on real threads (ROADMAP item 1): a program whose shared
//! accesses all sit inside one monitor is serializable by construction, so
//! single-run DoubleChecker — sound *and precise* — must stay silent on
//! every schedule the OS produces.
//!
//! The deterministic engine cannot see this: it resolves a conflicting
//! transition inside the requester's step, so the window between "the
//! requester asked" and "the responder recorded the edge" does not exist
//! there. On real threads the window is Octet's explicit protocol; a
//! responder that released the requester before ICD read the requester's log
//! length recorded edges that ordered too little, and PCD then replayed one
//! critical section interleaved with the other — a false precise cycle
//! blamed on a method that holds the lock for its whole body.

use dc_core::{run_doublechecker, DcConfig, ExecPlan, ObsLevel};
use dc_runtime::heap::ObjKind;
use dc_runtime::program::{Op, ProgramBuilder};
use dc_runtime::spec::AtomicitySpec;
use doublechecker_repro as _;

#[test]
fn lock_holding_methods_are_never_blamed_on_real_threads() {
    const EXECUTIONS: usize = 40;
    const CALLS: u32 = 1500;
    let mut b = ProgramBuilder::new();
    let lock = b.object(ObjKind::Monitor);
    let shared: Vec<_> = (0..2)
        .map(|_| b.object(ObjKind::Plain { fields: 4 }))
        .collect();
    let mut entries = Vec::new();
    for t in 0..2u32 {
        let private = b.object(ObjKind::Plain { fields: 4 });
        // Both threads read and write the same cells of both shared
        // objects: every critical section takes both objects (and the
        // monitor) from the other thread and truly depends on its
        // predecessor.
        let mut body = vec![Op::Acquire(lock)];
        for &obj in &shared {
            body.extend([Op::Read(obj, 0), Op::Write(obj, 0), Op::Write(obj, 1 + t)]);
        }
        body.push(Op::Release(lock));
        let locked = b.method(format!("locked{t}"), body);
        // A little private work between critical sections, in its own
        // regular transaction.
        let think = b.method(
            format!("think{t}"),
            vec![Op::Write(private, 0), Op::Compute(8), Op::Read(private, 0)],
        );
        entries.push(b.method(
            format!("worker{t}"),
            vec![Op::Loop {
                count: CALLS,
                body: vec![Op::Call(locked), Op::Call(think)],
            }],
        ));
    }
    for &entry in &entries {
        b.thread(entry);
    }
    let program = b.build().expect("valid program");
    let spec = AtomicitySpec::excluding(entries);
    let plan = ExecPlan::Real;
    let mut cross_edges = 0;
    for execution in 0..EXECUTIONS {
        // Every other execution observed at `Full`: clocks and trace events
        // on the hot path shift the real-thread timing, and must not shift
        // the verdict.
        let level = [ObsLevel::Off, ObsLevel::Full][execution % 2];
        let config = DcConfig::single_run(plan.coordination()).with_observability(level);
        let report = run_doublechecker(&program, &spec, config, &plan).expect("real run");
        cross_edges += report.stats.idg_cross_edges;
        if let Some(v) = report.violations.first() {
            let blamed: Vec<&str> = v
                .blamed_methods()
                .into_iter()
                .map(|m| program.method_name(m))
                .collect();
            panic!("execution {execution} ({level:?}): precise cycle blamed on {blamed:?}: {v:?}");
        }
    }
    assert!(
        cross_edges > 0,
        "the critical sections never conflicted: the test exercised nothing"
    );
}
