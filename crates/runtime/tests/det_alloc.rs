//! A step of the deterministic engine allocates nothing: a run's allocator
//! calls do not grow with the number of steps it takes. (The counting
//! allocator is this test binary's global allocator, so the test has a file
//! of its own.)

use dc_runtime::checker::NopChecker;
use dc_runtime::engine::det::{run_det, Schedule};
use dc_runtime::heap::ObjKind;
use dc_runtime::program::{Op, Program, ProgramBuilder};

#[path = "../../../tests/common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations;

/// Two threads, each reading and writing one shared object `iterations`
/// times in a loop.
fn looping(iterations: u32) -> Program {
    let mut b = ProgramBuilder::new();
    let shared = b.object(ObjKind::Plain { fields: 1 });
    for t in 0..2 {
        let body = vec![Op::Read(shared, 0), Op::Write(shared, 0)];
        let entry = b.method(
            format!("loop{t}"),
            vec![Op::Loop {
                count: iterations,
                body,
            }],
        );
        b.thread(entry);
    }
    b.build().expect("a valid program")
}

/// Allocator calls of one run of `program` under a seeded random schedule.
fn run_allocations(program: &Program) -> u64 {
    let before = allocations();
    run_det(program, &NopChecker, &Schedule::random(7)).expect("the run completes");
    allocations() - before
}

#[test]
fn det_steps_allocate_nothing() {
    let (short, long) = (looping(100), looping(10_000));
    // A first run warms whatever is allocated once per thread.
    run_allocations(&short);
    assert_eq!(run_allocations(&short), run_allocations(&long));
}
