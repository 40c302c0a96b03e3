//! # dmc — Data Movement Complexity of Computational DAGs
//!
//! Facade crate re-exporting the whole workspace. See the `README.md` for a
//! tour and `DESIGN.md` for the paper-to-module map.
//!
//! * [`cdag`] — graph substrate (CDAGs, reachability, min-cuts).
//! * [`core`] — pebble games, S-partitions, decomposition, lower bounds.
//! * [`machine`] — machine models and balance parameters.
//! * [`kernels`] — CDAG generators for the analyzed algorithms.
//! * [`sim`] — execution-driven memory-hierarchy simulator.

#![forbid(unsafe_code)]

pub use dmc_cdag as cdag;
pub use dmc_core as core;
pub use dmc_kernels as kernels;
pub use dmc_machine as machine;
pub use dmc_sim as sim;
