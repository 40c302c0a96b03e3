//! # dmc-cdag — Computational DAG substrate
//!
//! This crate provides the graph substrate used throughout the `dmc`
//! workspace: the [`Cdag`] type modelling a *computational directed acyclic
//! graph* in the sense of Hong & Kung (STOC'81) and Elango et al.
//! (SPAA'14 / Inria RR-8522).
//!
//! A CDAG is a 4-tuple `C = (I, V, E, O)`:
//!
//! * `V` — vertices, each representing one computational operation (or one
//!   input value),
//! * `E ⊆ V × V` — edges representing flow of values between operations,
//! * `I ⊆ V` — the *input set* (vertices tagged as inputs; they start with
//!   a blue pebble in the pebble games),
//! * `O ⊆ V` — the *output set* (vertices that must carry a blue pebble at
//!   the end of any complete game).
//!
//! Unlike the original Hong & Kung model, the Red-Blue-White model of the
//! paper allows *flexible tagging*: a predecessor-free vertex need not be an
//! input, and a successor-free vertex need not be an output. The tags on a
//! [`Cdag`] are therefore freely assignable (see [`Cdag::retag`]) — this is
//! the basis of the paper's Theorem 3 (tagging/untagging).
//!
//! Beyond the data structure itself the crate implements the graph
//! algorithms the lower-bound machinery of `dmc-core` is built on:
//!
//! * topological orders and depth levels ([`topo`]),
//! * ancestor / descendant reachability with compact bitsets ([`reach`]),
//! * Dinic max-flow and *vertex* min-cuts via vertex splitting ([`flow`]),
//! * convex cuts and schedule wavefronts ([`cut`]),
//! * a parallel batched engine for `max_x |W^min(x)|` ([`engine`]),
//! * deterministic indexed fan-out over scoped workers ([`fanout`]),
//! * process-independent FNV-1a content hashing for cache keys
//!   ([`hash`], [`Cdag::content_hash`]),
//! * minimum dominator-set cardinalities ([`dominator`]),
//! * weakly-connected components for automatic decomposition
//!   ([`components`]),
//! * induced sub-CDAGs and quotient graphs for decomposition ([`subgraph`]),
//! * per-cluster censuses of a cluster assignment for the hierarchical
//!   pipeline ([`mod@coarsen`]),
//! * Graphviz DOT export ([`dot`]).

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bitset;
pub mod builder;
pub mod coarsen;
pub mod components;
pub mod cut;
pub mod dominator;
pub mod dot;
pub mod engine;
pub mod fanout;
pub mod flow;
pub mod graph;
pub mod hash;
pub mod reach;
pub mod subgraph;
pub mod textio;
pub mod topo;

pub use bitset::BitSet;
pub use builder::CdagBuilder;
pub use coarsen::{coarsen, Coarsening};
pub use components::{weakly_connected_components, Components};
pub use cut::{ConvexCut, Wavefront};
pub use engine::{EngineRun, WavefrontEngine};
pub use graph::{Cdag, VertexId};
pub use subgraph::{InducedSubCdag, QuotientGraph};
