//! AeroDrome: vector-clock conflict-serializability checking (after
//! Mathur & Viswanathan, *Atomicity Checking in Linear Time using Vector
//! Clocks*), the third checker of the DoubleChecker reproduction's
//! differential oracle.
//!
//! Velodrome and DoubleChecker both reduce atomicity checking to cycle
//! detection in a transaction dependence graph and pay for it with graph
//! searches (online DFS, or Tarjan SCC probes plus a precise replay).
//! AeroDrome replaces the search with vector clocks: each transaction
//! carries the exact set of transactions that must precede it, a
//! dependence edge is a clock join, and a cycle is a constant-time clock
//! comparison at the join — linear total work in the number of joins,
//! no SCC machinery.
//!
//! That test is the only thing this crate adds. [`AeroDrome`] is
//! `dc-velodrome`'s online checker with [`ClockGraph`] as its cycle filter:
//! dependence discovery (per-field metadata, transaction demarcation, unary
//! merging), the dependence graph, cycle reconstruction and blame are
//! Velodrome's own code, on the transaction graph core DoubleChecker's IDG
//! shares (`dc_runtime::txgraph`; the clocks are a table indexed by its
//! slots). So on one deterministic interleaving the two checkers consume
//! the identical edge stream and any disagreement isolates a bug in a cycle
//! detector. That property is what the top-level
//! `tests/oracle_threeway.rs` suite and the proptest frontier lean on.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod clocks;

pub use clocks::ClockGraph;
use dc_velodrome::{Online, OnlineConfig};

/// The AeroDrome atomicity checker: the online checker with the
/// vector-clock filter.
pub type AeroDrome = Online<ClockGraph>;

/// AeroDrome's configuration (the name the benchmark and the CLI use).
pub type AeroConfig = OnlineConfig;
