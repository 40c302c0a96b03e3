//! # dmc-core — pebble games and data-movement lower bounds
//!
//! This crate implements the paper's primary contribution
//! (Elango et al., *On Characterizing the Data Movement Complexity of
//! Computational DAGs for Parallel Execution*, SPAA'14 / Inria RR-8522):
//!
//! * **Pebble games** ([`games`]):
//!   * the classic Hong–Kung red-blue game (Definition 2) with
//!     recomputation,
//!   * the Red-Blue-White game (Definition 4) that forbids recomputation
//!     and supports flexible input/output tagging,
//!   * the Parallel RBW game (Definition 6) over multi-node, multi-level
//!     hierarchies with pebble shades per storage unit,
//!   * validating executors, heuristic players (LRU / Belady eviction) that
//!     produce *upper* bounds, and an exact optimal solver for tiny CDAGs.
//! * **S-partitioning** ([`partition`]): Definitions 3 and 5, the Theorem-1
//!   construction of a 2S-partition from any complete game, and partition
//!   validity certification.
//! * **Lower bounds** ([`bounds`]): Lemma 1 / Corollary 1 (2S-partition),
//!   Lemma 2 (min-cut wavefronts) with an automated anchor-sampling
//!   heuristic, and the decomposition combinators of Theorem 2,
//!   Corollary 2 and Theorem 3.
//! * **Parallel bounds** ([`parallel`]): vertical I/O cost (Theorems 5–6)
//!   and horizontal I/O cost (Theorem 7).
//! * **Machine-balance analysis** ([`analysis`]): Equations 4–10 — turning
//!   bounds + machine specs into bandwidth-bound verdicts (Section 5).
//! * **The unified pipeline** ([`pipeline`]): automatic component
//!   decomposition, a parallel method portfolio per component, Theorem-2
//!   composition, and provenance-tree reports for arbitrary CDAGs.
//! * **Empirical validation** ([`validate`]): catalog kernels executed on
//!   the `dmc-sim` cache simulator along their own schedule hooks, the
//!   measured I/O sandwiched per `S` between the pipeline's certified
//!   lower bound and the RBW validator's count of the recorded LRU game.
//! * **Machine validation** ([`machine_validate`]): the same sandwich at
//!   every boundary of a [`dmc_machine::MachineSpec`]'s node hierarchy,
//!   under a deterministic P-processor wavefront split, with Equation-7/8
//!   roofline verdicts per level and for the network.
//! * **Jobs** ([`job`]): the one options → job → report path that `repro
//!   analyze|simulate` and `dmc-serve` share — option applicability,
//!   defaults, the sweep rule and the JSON line of each report.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analysis;
pub mod bounds;
pub mod games;
pub mod job;
pub mod machine_validate;
pub mod parallel;
pub mod partition;
pub mod pipeline;
pub mod validate;

pub use bounds::{IoBound, Method, Provenance};
pub use games::{GameError, GameTrace, Move};
pub use machine_validate::{MachineLevelPoint, MachineValidationReport};
pub use pipeline::{AnalysisReport, Analyzer, AnalyzerConfig};
pub use validate::{ValidationPoint, ValidationReport};
