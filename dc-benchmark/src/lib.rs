//! The repository's benchmark: four sized 2-thread workloads, slowdown and
//! ablation-ladder metrics, verdict-gated. See `README.md` in this
//! directory and `BENCHMARK.json` at the repository root.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod alloc;
pub mod bench;
pub mod kernels;
pub mod layers;
pub mod measure;
pub mod octet_only;
pub mod spans;
pub mod stats;
pub mod subject;
pub mod workloads;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;
