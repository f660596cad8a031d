//! Side-by-side comparison of every checker on one workload and one
//! deterministic execution: Velodrome and a trace recorder share a single
//! run via [`Tee`]; the trace oracle (`dc_runtime::oracle`, which shares no
//! code with the checkers) finds the SCCs of the recorded trace; and
//! DoubleChecker replays the identical schedule in single-run, first-run,
//! and PCD-only configurations.
//!
//! Run with: `cargo run --release --example compare_checkers [workload] [seed]`

use dc_core::{run_doublechecker, DcConfig, ExecPlan};
use dc_octet::CoordinationMode;
use dc_runtime::engine::det::{run_det, Schedule};
use dc_runtime::trace::{Tee, TraceChecker};
use dc_velodrome::{Velodrome, VelodromeConfig};
use dc_workloads::{by_name, Scale};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = std::env::args().nth(1).unwrap_or_else(|| "tsp".into());
    let seed: u64 = std::env::args()
        .nth(2)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(3);
    let wl =
        by_name(&workload, Scale::Tiny).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let spec = dc_core::initial_spec(&wl.program, &wl.extra_exclusions);
    let schedule = Schedule::random(seed);

    println!("workload {workload}, seed {seed}\n");
    println!("{:<28} {:>10} {:>12}", "checker", "violations", "notes");

    // Velodrome + trace in one run.
    let tee = Tee::new(
        Velodrome::new(
            wl.program.threads.len(),
            spec.clone(),
            VelodromeConfig::default(),
        ),
        TraceChecker::new(),
    );
    run_det(&wl.program, &tee, &schedule)?;
    println!(
        "{:<28} {:>10} {:>12}",
        "velodrome (online)",
        tee.a.violations().len(),
        format!("{} edges", tee.a.cross_edges())
    );

    // The trace oracle over the recorded trace: one violation per SCC.
    let trace = tee.b.events();
    let oracle = dc_runtime::oracle::check(&trace, &spec, false);
    println!(
        "{:<28} {:>10} {:>12}",
        "trace oracle (SCCs)",
        oracle.sccs.len(),
        format!("{} events", trace.len())
    );

    // DoubleChecker configurations on the identical schedule.
    for (label, config) in [
        (
            "doublechecker single-run",
            DcConfig::single_run(CoordinationMode::Immediate),
        ),
        (
            "doublechecker first-run",
            DcConfig::first_run(CoordinationMode::Immediate),
        ),
        (
            "doublechecker pcd-only",
            DcConfig::pcd_only(CoordinationMode::Immediate),
        ),
    ] {
        let report =
            run_doublechecker(&wl.program, &spec, config, &ExecPlan::Det(schedule.clone()))?;
        let note = if label.contains("first-run") {
            format!("{} methods flagged", report.static_info.methods.len())
        } else {
            format!("{} SCCs", report.stats.icd_sccs)
        };
        println!("{:<28} {:>10} {:>12}", label, report.violations.len(), note);
    }
    Ok(())
}
