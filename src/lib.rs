//! Umbrella crate for the DoubleChecker (PLDI 2014) reproduction.
//!
//! Re-exports the workspace crates so examples and integration tests can use
//! a single dependency. See `README.md` for an overview and `DESIGN.md` for
//! the system inventory.

pub mod bench;

pub use dc_core as core;
pub use dc_icd as icd;
pub use dc_octet as octet;
pub use dc_pcd as pcd;
pub use dc_runtime as runtime;
pub use dc_velodrome as velodrome;
pub use dc_workloads as workloads;
