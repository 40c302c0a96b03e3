//! # dmc-kernels — CDAG generators
//!
//! Builders for the computational DAGs analyzed in the paper and used by
//! the test/bench suites:
//!
//! * [`chains`] — chains, diamonds, trees and other synthetic shapes used
//!   to validate the pebble-game engines against hand-computable optima;
//! * [`grid`] — d-dimensional grid indexing shared by the stencil kernels;
//! * [`outer`] — vector outer products (`p·qᵀ`, Section 3's first stages);
//! * [`matmul`] — dense `N×N` matrix multiplication (the Hong–Kung
//!   `N³/(2√(2S))` example);
//! * [`composite`] — the Section-3 motivating example
//!   (`A = p·qᵀ, B = r·sᵀ, C = AB, sum = ΣΣC`), whose composite I/O is
//!   `4N + 1` with `4N + 4` red pebbles;
//! * [`vecops`] — dot products, saxpy and reduction trees;
//! * [`cg`] — Conjugate Gradient iterations on d-dimensional grids
//!   (Theorem 8);
//! * [`gmres`] — GMRES with modified Gram–Schmidt (Theorem 9);
//! * [`heat`] — Crank–Nicolson steps of the 1-D heat equation, each
//!   solved by the Thomas algorithm (Section 5.1);
//! * [`jacobi`] — d-dimensional Jacobi stencils (Theorem 10);
//! * [`fft`] — FFT butterfly networks;
//! * [`pyramid`] — r-pyramid graphs (Ranjan–Savage–Zubair family);
//! * [`random`] — random layered DAGs for property-based testing.
//!
//! Every family is also registered in the [`catalog`] — a [`catalog::Kernel`]
//! trait with declared parameters and a [`catalog::Registry`] that parses
//! spec strings like `jacobi(n=32,d=2,t=8,stencil=star)` — and the paper's
//! Section-5 per-FLOP profiles live in [`profile`]. Catalog entries can
//! additionally emit an executable schedule via
//! [`catalog::Kernel::schedule_source`] (skewed tilings for Jacobi,
//! blocked sweeps for matmul/composite, staged sub-transforms for the
//! FFT); the `dmc-sim` simulator and `dmc-core`'s empirical-validation
//! pipeline execute these orders.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod catalog;
pub mod cg;
pub mod chains;
pub mod composite;
pub mod fft;
pub mod gmres;
pub mod grid;
pub mod heat;
pub mod jacobi;
pub mod matmul;
pub mod outer;
pub mod profile;
pub mod pyramid;
pub mod random;
pub mod scan;
pub mod vecops;
