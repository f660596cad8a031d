//! Liveness of Octet's explicit protocol under JVM-style safe points.
//!
//! The engines poll for ownership requests after non-access actions and at
//! loop back edges, not after every access. A thread spinning in a long
//! call-free, compute-free loop must still answer: here thread 0 owns an
//! object and loops over one of its fields while thread 1 keeps writing
//! another field of it in small atomic methods. Every such write is an
//! object-granularity conflict that thread 0 answers at a back edge; there
//! is no field-level dependence, so PCD must refute every cycle ICD finds.

use dc_core::{run_doublechecker, DcConfig, ExecPlan};
use dc_octet::CoordinationMode;
use dc_runtime::heap::ObjKind;
use dc_runtime::program::{Op, ProgramBuilder};
use dc_runtime::spec::AtomicitySpec;
use doublechecker_repro as _;
use std::sync::mpsc;
use std::time::Duration;

#[test]
fn a_responder_in_a_long_call_free_loop_still_answers() {
    const SPIN_ITERATIONS: u32 = 100_000;
    const POKES: u32 = 2_000;
    let mut b = ProgramBuilder::new();
    let o = b.object(ObjKind::Plain { fields: 2 });
    let start = b.object(ObjKind::Barrier { parties: 2 });
    let spin = b.method(
        "spin",
        vec![Op::Loop {
            count: SPIN_ITERATIONS,
            body: vec![Op::Read(o, 0), Op::Write(o, 0)],
        }],
    );
    let poke = b.method("poke", vec![Op::Write(o, 1)]);
    // Thread 0 owns `o` before the barrier, so thread 1's first write after
    // it needs thread 0's answer while thread 0 spins.
    let spinner = b.method(
        "spinner",
        vec![Op::Write(o, 0), Op::Barrier(start), Op::Call(spin)],
    );
    let poker = b.method(
        "poker",
        vec![
            Op::Barrier(start),
            Op::Loop {
                count: POKES,
                body: vec![Op::Call(poke)],
            },
        ],
    );
    b.thread(spinner);
    b.thread(poker);
    let program = b.build().expect("valid program");
    let spec = AtomicitySpec::excluding([spinner, poker]);

    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || {
        let config = DcConfig::single_run(CoordinationMode::Threaded);
        let report = run_doublechecker(&program, &spec, config, &ExecPlan::Real);
        done.send(report).ok();
    });
    let report = finished
        .recv_timeout(Duration::from_secs(30))
        .expect("the run hung: a request was never answered")
        .expect("real run");
    assert!(
        report.violations.is_empty(),
        "no field is shared, so no cycle is precise: {:?}",
        report.violations
    );
    assert!(
        report.pipeline.octet.conflicts >= 1,
        "the threads never conflicted: the test exercised nothing"
    );
    assert_eq!(report.run.reads, u64::from(SPIN_ITERATIONS));
    assert_eq!(report.run.writes, u64::from(SPIN_ITERATIONS + POKES + 1));
}
