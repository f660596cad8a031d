//! Velodrome: sound and precise dynamic atomicity checking (Flanagan,
//! Freund, Yi — PLDI 2008), reimplemented as the baseline DoubleChecker is
//! evaluated against (paper §2, §4).
//!
//! Velodrome tracks, per field, the last transaction to write it and each
//! thread's last transaction to read it; every program access detects
//! cross-thread dependences against that metadata, adds edges to a
//! transaction dependence graph, and checks for cycles — each cycle is a
//! precise conflict-serializability violation. Analysis–access atomicity is
//! enforced by a per-field metadata spinlock, whose cost (atomic operations
//! and the remote cache misses they trigger) dominates Velodrome's overhead
//! and motivates DoubleChecker's design.
//!
//! The crate provides the sound checker, the deliberately *unsound* variant
//! the paper also measures (§5.3), array instrumentation (§5.4), and a
//! transaction filter so Velodrome can serve as the second run of multi-run
//! mode (§5.3). The checker and its graph are generic over a
//! [`CycleFilter`], the test that decides whether a new edge may close a
//! cycle: [`Velodrome`] is `Online<()>` (always run the DFS), and
//! `dc-aerodrome` supplies the vector-clock filter. The graph's nodes, edges
//! and collector are `dc_runtime::txgraph`'s, the core DoubleChecker's IDG
//! is built on ([`DepGraph`]).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod checker;
pub mod graph;
pub mod meta;

pub use checker::{JoinCounts, Online, OnlineConfig, OnlineStats, Variant};
pub use checker::{Velodrome, VelodromeConfig};
pub use graph::{CycleFilter, DepGraph, VGraph, VTxId, VViolation};
pub use meta::MetaTable;
