//! PCD — precise cycle detection, the second of DoubleChecker's two
//! cooperating analyses (paper §3.3).
//!
//! PCD is not a standalone analysis: it consumes the SCCs that ICD detects
//! in the imprecise dependence graph, replays the member transactions'
//! read/write logs in an order consistent with the recorded cross-thread
//! edges, tracks precise last-writer / last-reader information per field
//! (Figure 5), builds the precise dependence graph (PDG), detects cycles —
//! each a real conflict-serializability violation — and performs blame
//! assignment for iterative refinement.
//!
//! Entry point: [`replay_scc`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod replay;
pub mod rules;
pub mod violation;

pub use replay::{replay_scc, ReplayStats};
pub use rules::{Field, Pdg, PdgEdge};
pub use violation::{CycleMember, Violation};
