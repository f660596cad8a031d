//! Managed-runtime substrate for the DoubleChecker (PLDI 2014) reproduction.
//!
//! The paper implements its analyses inside Jikes RVM, where the JIT
//! compilers insert barriers before every program load and store. This crate
//! is that substrate rebuilt from scratch in Rust:
//!
//! * a [`heap::Heap`] of shared objects with real data cells,
//! * a workload [`program::Program`] IR whose every shared access flows
//!   through analysis hooks (the "instrumentation"),
//! * the [`checker::Checker`] trait — the hook surface each atomicity
//!   checker implements,
//! * two execution engines: [`engine::real::run_real`] (one OS thread per
//!   program thread, for performance experiments) and
//!   [`engine::det::run_det`] (deterministic interleavings, for tests and
//!   the paper's worked examples),
//! * [`spec::AtomicitySpec`] and [`spec::TxTracker`] — atomicity
//!   specifications and transaction demarcation shared by all checkers,
//! * [`OwnerCell`] — the owner-only per-thread block every analysis keeps
//!   its hot state in,
//! * [`txgraph::TxGraph`] — the transaction graph (slab, edge arena,
//!   collector) every checker's dependence graph is built on.
//!
//! # Example
//!
//! ```
//! use dc_runtime::heap::ObjKind;
//! use dc_runtime::program::{Op, ProgramBuilder};
//! use dc_runtime::engine::real::run_real;
//! use dc_runtime::checker::NopChecker;
//!
//! let mut b = ProgramBuilder::new();
//! let shared = b.object(ObjKind::Plain { fields: 2 });
//! let work = b.method("work", vec![Op::Read(shared, 0), Op::Write(shared, 1)]);
//! b.thread(work);
//! b.thread(work);
//! let program = b.build()?;
//! let stats = run_real(&program, &NopChecker);
//! assert_eq!(stats.reads, 2);
//! # Ok::<(), dc_runtime::program::ProgramError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod checker;
pub mod engine;
pub mod heap;
pub mod ids;
pub mod interp;
mod owner_cell;
pub mod program;
pub mod spec;
pub mod trace;
pub mod txgraph;

pub use checker::{Checker, NopChecker};
pub use engine::det::{run_det, DetError, Schedule};
pub use engine::real::run_real;
pub use engine::RunStats;
pub use heap::{Heap, ObjKind};
pub use ids::{AccessKind, CellId, MethodId, ObjId, ThreadId, SYNC_CELL};
pub use owner_cell::OwnerCell;
pub use program::{Method, Op, Program, ProgramBuilder, ProgramError, StartMode, ThreadSpec};
pub use spec::{AtomicitySpec, EnterOutcome, ExitOutcome, TxFilter, TxKind, TxTracker};
pub use trace::{Tee, TraceChecker, TraceEvent};
