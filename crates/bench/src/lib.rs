//! # dmc-bench — experiment harness
//!
//! One function per paper artefact (see `DESIGN.md`'s per-experiment
//! index), each returning the formatted table the `repro` binary prints
//! and the tests check, plus the report entry points behind `repro
//! analyze` and `repro simulate`, the `loadgen` harness for the serve
//! daemon, and the `BENCH_*.json` snapshot writer. The repository's
//! performance is measured by `BENCHMARK.json` and `perfbench/`, which
//! call these same entry points.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod loadgen;
pub mod snapshot;

pub use experiments::*;
