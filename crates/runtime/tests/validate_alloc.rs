//! `Program::validate` allocates a constant number of times, whatever the
//! number of methods: it walks the bodies in place, on buffers shared by
//! all of them, instead of copying a list of callees per method. (The
//! counting allocator is this test binary's global allocator, so the test
//! has a file of its own.)

use dc_runtime::heap::ObjKind;
use dc_runtime::program::{Op, Program, ProgramBuilder};

#[path = "../../../tests/common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations;

/// The shape of a lowered history: 4 sessions, each a thread whose entry
/// method calls `txs` transaction methods of 4 reads and writes over 16
/// keys.
fn history_shaped(txs: usize) -> Program {
    let mut b = ProgramBuilder::new();
    let keys: Vec<_> = (0..16)
        .map(|_| b.object(ObjKind::Plain { fields: 1 }))
        .collect();
    for s in 0..4 {
        let calls = (0..txs)
            .map(|t| {
                let key = |i: usize| keys[(s * 7 + t * 3 + i) % keys.len()];
                let body = vec![
                    Op::Read(key(0), 0),
                    Op::Write(key(1), 0),
                    Op::Read(key(2), 0),
                    Op::Write(key(3), 0),
                ];
                Op::Call(b.method(format!("s{s}t{t}"), body))
            })
            .collect();
        let entry = b.method(format!("session{s}"), calls);
        b.thread(entry);
    }
    b.build().expect("a valid program")
}

/// Allocator calls of one validation of `program`.
fn validate_allocations(program: &Program) -> u64 {
    let before = allocations();
    program.validate().expect("valid");
    allocations() - before
}

#[test]
fn validation_allocates_a_constant_number_of_times_not_per_method() {
    let small = validate_allocations(&history_shaped(64));
    let large = validate_allocations(&history_shaped(6_400));
    assert!(
        small <= 6,
        "{small} allocator calls to validate 260 methods"
    );
    assert_eq!(
        small, large,
        "validating 100x the transaction methods made {large} allocator calls, not {small}"
    );
}
