//! Benchmark workload programs for the DoubleChecker reproduction.
//!
//! The paper evaluates on the multithreaded DaCapo benchmarks, five
//! microbenchmarks, and three Java Grande programs (§5.1). None of those
//! Java programs can run on this Rust substrate, so each is modeled by a
//! synthetic analog with the same *sharing shape* — the mix of thread-local,
//! read-shared, lock-protected, and racy accesses that determines what the
//! atomicity checkers see (transition mix, dependence edges, imprecise
//! SCCs, and real violations). See `DESIGN.md` §2 for the substitution
//! rationale and each generator's docs for what it mimics.
//!
//! Entry points: [`suite::all`], [`suite::by_name`], and
//! [`builder::Scale`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod builder;
pub mod dacapo;
pub mod grande;
pub mod micro;
pub mod suite;

pub use builder::{Scale, Workload, WorkloadBuilder};
pub use suite::{all, by_name};
