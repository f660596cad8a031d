//! DoubleChecker: efficient sound and precise atomicity checking
//! (Biswas, Huang, Sengupta, Bond — PLDI 2014), reproduced in Rust.
//!
//! DoubleChecker stages dynamic conflict-serializability checking across two
//! cooperating analyses: **ICD** tracks cross-thread dependences soundly but
//! imprecisely by piggybacking on the Octet concurrency-control protocol and
//! detects cycles in an imprecise dependence graph; **PCD** replays only the
//! transactions ICD implicates and detects precise cycles — real atomicity
//! violations. Two modes trade soundness for speed:
//!
//! * **single-run** ([`DcConfig::single_run`]): both analyses in one
//!   execution — fully sound and precise;
//! * **multi-run** ([`run_multi`]): a first run executes ICD alone and
//!   passes static transaction information to a second run that instruments
//!   only the implicated transactions.
//!
//! The crate also hosts the iterative-refinement methodology (Figure 6) for
//! deriving atomicity specifications, and mode drivers shared by examples,
//! tests, and the table/figure harnesses.
//!
//! # Example
//!
//! ```
//! use dc_core::{run_single, ExecPlan};
//! use dc_runtime::{AtomicitySpec, ObjKind, Op, ProgramBuilder, Schedule};
//!
//! let mut b = ProgramBuilder::new();
//! let o = b.object(ObjKind::Plain { fields: 2 });
//! let alpha = b.method("alpha", vec![Op::Write(o, 0), Op::Read(o, 1)]);
//! let beta = b.method("beta", vec![Op::Write(o, 1), Op::Read(o, 0)]);
//! let t0 = b.method("t0", vec![Op::Call(alpha)]);
//! let t1 = b.method("t1", vec![Op::Call(beta)]);
//! b.thread(t0);
//! b.thread(t1);
//! let program = b.build()?;
//! let spec = AtomicitySpec::excluding([
//!     program.method_by_name("t0").unwrap(),
//!     program.method_by_name("t1").unwrap(),
//! ]);
//! let report = run_single(&program, &spec, &ExecPlan::Det(Schedule::random(3)))?;
//! // Whether a violation manifests depends on the interleaving; the
//! // analysis itself always demarcates both transactions.
//! assert_eq!(report.stats.regular_txs, 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod checker;
pub mod modes;
pub mod refine;
pub mod report;

#[doc(hidden)]
pub use checker::OpTransport;
pub use checker::{DcConfig, DoubleChecker};
pub use dc_obs::{ObsLevel, PipelineReport, TraceEvent};
pub use modes::{
    run_doublechecker, run_first_runs, run_multi, run_single, DcReport, ExecPlan, MultiRunReport,
};
pub use refine::{initial_spec, iterative_refinement, RefinementResult, ReportedViolation};
pub use report::{
    pipeline_report_to_json, stats_to_json, trace_event_to_json, DcStats, StaticTxInfo,
    STATS_SCHEMA_VERSION,
};
