//! # dmc-sim — schedule simulation under Red-Blue-White semantics
//!
//! Where `dmc-core` proves bounds on pebble games, this crate *plays*
//! them: it runs a CDAG schedule through a simulated fast memory under the
//! paper's RBW rules (Definition 4: no recomputation, dead values deleted
//! for free) and counts the words that cross each boundary. Every run is a
//! valid game, so the measurement sits between the certified bounds:
//!
//! ```text
//! LB (Theorems 5-7)  ≤  simulated RBW I/O  ≤  certified schedule UB
//! ```
//!
//! * [`simulation`] — the one RBW player: [`Simulation::run`] measures one
//!   schedule at one capacity under LRU or Belady (OPT) eviction,
//!   [`Simulation::run_recorded`] also writes out the game's moves for
//!   `dmc-core`'s rule checker to certify;
//! * [`schedule`] — schedule & ownership builders: plain and level-order
//!   schedules, the skewed (parallelogram) Jacobi tilings that realize
//!   the `(2S)^{1/d}` reuse the paper's Theorem 10 proves optimal, and the
//!   block owner map of a Jacobi grid;
//! * [`hierarchy_sim`] — the machine-hierarchy extension of
//!   [`simulation`]: [`hierarchy_sim::effective_capacities`] gives the
//!   capacity at which [`Simulation::run`] measures each boundary of a
//!   [`dmc_machine::MemoryHierarchy`],
//!   [`hierarchy_sim::split_round_robin`] deals the schedule across P
//!   processors with barrier semantics, and [`hierarchy_sim::remote_reads`]
//!   counts the words any owner map sends across the network, for the
//!   Lemma-2 horizontal comparison.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod hierarchy_sim;
pub mod schedule;
pub mod simulation;

pub use hierarchy_sim::{Inclusion, ParallelSplit};
pub use simulation::{CachePolicy, SimError, Simulation, Trace};
