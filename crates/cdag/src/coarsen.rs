//! Cluster contraction: collapsing a disjoint cluster assignment into a
//! *super-vertex DAG* — the coarse graph the hierarchical analysis
//! pipeline navigates when the original CDAG is too large to sweep
//! directly.
//!
//! A [`CoarseDag`] keeps, per cluster, the annotations the pipeline
//! needs to reason about the contraction without re-touching the
//! original graph: vertex/edge counts, the *in-boundary* (vertices with
//! a predecessor outside the cluster) and *out-boundary* (vertices with
//! a successor outside the cluster) sizes, and input/output membership.
//!
//! # Determinism
//!
//! Super-vertex numbering is the caller's cluster numbering, verbatim —
//! no hashing, no renumbering. Clusterings produced by
//! `topological_clusters` (contiguous intervals of the deterministic
//! Kahn order) therefore yield bit-identical coarse graphs on every run
//! and at every thread count.
//!
//! # Soundness note (why the coarse graph is a *map*, not a *bound*)
//!
//! A min-cut wavefront computed on the coarse graph is **not** a sound
//! I/O lower bound for the original CDAG: a coarse path `A → B → C`
//! only certifies an original path when every intermediate cluster
//! internally connects its in-boundary to its out-boundary, and a
//! coarse "ancestor" cluster of an anchor mixes true ancestors with
//! incomparable vertices, so Lemma 2's computed/uncomputed wavefront
//! argument does not transfer. The hierarchical pipeline therefore uses
//! the coarse graph for *structure* (cluster diagnostics, provenance)
//! and derives its certified bound from Theorem 2 over the cluster
//! partition instead, summing each cluster's trivial bound from the
//! [`ClusterInfo`] tag counts — see `Analyzer::analyze_hierarchical` in
//! `dmc-core`.

use crate::builder::CdagBuilder;
use crate::graph::{Cdag, VertexId};

/// Why a cluster assignment could not be contracted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoarsenError {
    /// `assignment.len()` differs from the graph's vertex count.
    AssignmentLength {
        /// Length of the assignment slice.
        got: usize,
        /// `|V|` of the graph.
        expected: usize,
    },
    /// A vertex was assigned a cluster index `>= num_clusters`.
    ClusterOutOfRange {
        /// The offending vertex.
        vertex: VertexId,
        /// Its out-of-range cluster index.
        cluster: usize,
        /// The declared cluster count.
        num_clusters: usize,
    },
    /// A declared cluster received no vertices (numbering must be
    /// contiguous `0..num_clusters` so super-vertex ids stay dense).
    EmptyCluster(usize),
    /// The quotient has a directed cycle — the assignment does not
    /// respect a topological order of the graph, so no super-vertex
    /// *DAG* exists. Clusterings built from contiguous intervals of a
    /// topological order can never trigger this.
    CyclicQuotient,
}

impl std::fmt::Display for CoarsenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoarsenError::AssignmentLength { got, expected } => {
                write!(f, "assignment covers {got} vertices, graph has {expected}")
            }
            CoarsenError::ClusterOutOfRange {
                vertex,
                cluster,
                num_clusters,
            } => write!(
                f,
                "vertex {vertex} assigned to cluster {cluster} (declared {num_clusters})"
            ),
            CoarsenError::EmptyCluster(c) => write!(f, "cluster {c} is empty"),
            CoarsenError::CyclicQuotient => {
                write!(
                    f,
                    "cluster quotient has a directed cycle (not a topological clustering)"
                )
            }
        }
    }
}

impl std::error::Error for CoarsenError {}

/// Per-cluster annotations of a [`CoarseDag`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterInfo {
    /// Number of original vertices in the cluster.
    pub vertices: usize,
    /// Number of original edges with both endpoints in the cluster.
    pub internal_edges: usize,
    /// Vertices of the cluster with at least one predecessor outside it.
    pub in_boundary: usize,
    /// Vertices of the cluster with at least one successor outside it.
    pub out_boundary: usize,
    /// Tagged inputs of the original graph inside the cluster.
    pub inputs: usize,
    /// Tagged outputs of the original graph inside the cluster.
    pub outputs: usize,
    /// Tagged outputs inside the cluster that are not also tagged
    /// inputs (`|O_c \ I_c|`): with [`inputs`](ClusterInfo::inputs),
    /// the counts behind the trivial bound of the cluster's induced
    /// sub-CDAG, which inherits the original graph's tags.
    pub pure_outputs: usize,
    /// Lowest original vertex id in the cluster (a stable handle for
    /// locating the cluster in the original graph).
    pub first_vertex: VertexId,
}

/// A cluster assignment contracted into a super-vertex DAG, with the
/// per-cluster annotations the hierarchical pipeline reports.
///
/// Super-vertex `k` of [`graph`](CoarseDag::graph) is cluster `k` of the
/// assignment; `graph` has one (deduplicated) edge `i → j` whenever some
/// original edge crosses from cluster `i` to cluster `j`. A super-vertex
/// is tagged input iff its cluster contains a tagged input and has no
/// coarse predecessor, and tagged output iff its cluster contains a
/// tagged output.
#[derive(Debug, Clone)]
pub struct CoarseDag {
    /// The contracted super-vertex DAG (`num_clusters` vertices).
    pub graph: Cdag,
    /// `cluster_of[v]` = super-vertex id of original vertex `v`.
    pub cluster_of: Vec<usize>,
    /// Per-cluster annotations, indexed by super-vertex id.
    pub clusters: Vec<ClusterInfo>,
    /// Original edges that cross clusters (before deduplication) — the
    /// communication volume the contraction hides.
    pub cut_edges: usize,
}

impl CoarseDag {
    /// Vertex count of the *original* graph.
    pub fn original_vertices(&self) -> usize {
        self.cluster_of.len()
    }
}

/// Contracts `assignment` (cluster index per vertex, contiguous
/// `0..num_clusters`) into a [`CoarseDag`].
///
/// Runs in `O(|V| + |E| + K log K)` and never clones the original
/// graph's payload, so it is safe at 10⁷–10⁸ vertices. Fails with
/// [`CoarsenError::CyclicQuotient`] when the assignment does not induce
/// a DAG on the clusters.
///
/// ```
/// use dmc_cdag::coarsen::coarsen;
/// use dmc_cdag::CdagBuilder;
///
/// let mut b = CdagBuilder::new();
/// let a = b.add_input("a");
/// let x = b.add_op("x", &[a]);
/// let y = b.add_op("y", &[x]);
/// b.tag_output(y);
/// let g = b.build().unwrap();
/// let coarse = coarsen(&g, &[0, 0, 1], 2).unwrap();
/// assert_eq!(coarse.graph.num_vertices(), 2);
/// assert_eq!(coarse.graph.num_edges(), 1);
/// assert_eq!(coarse.clusters[0].out_boundary, 1);
/// assert_eq!(coarse.clusters[1].outputs, 1);
/// ```
pub fn coarsen(
    g: &Cdag,
    assignment: &[usize],
    num_clusters: usize,
) -> Result<CoarseDag, CoarsenError> {
    let n = g.num_vertices();
    if assignment.len() != n {
        return Err(CoarsenError::AssignmentLength {
            got: assignment.len(),
            expected: n,
        });
    }
    let mut clusters = vec![
        ClusterInfo {
            vertices: 0,
            internal_edges: 0,
            in_boundary: 0,
            out_boundary: 0,
            inputs: 0,
            outputs: 0,
            pure_outputs: 0,
            first_vertex: VertexId(0),
        };
        num_clusters
    ];
    for v in g.vertices() {
        let c = assignment[v.index()];
        if c >= num_clusters {
            return Err(CoarsenError::ClusterOutOfRange {
                vertex: v,
                cluster: c,
                num_clusters,
            });
        }
        let info = &mut clusters[c];
        if info.vertices == 0 {
            info.first_vertex = v;
        }
        info.vertices += 1;
        let input = g.is_input(v);
        if input {
            info.inputs += 1;
        }
        if g.is_output(v) {
            info.outputs += 1;
            if !input {
                info.pure_outputs += 1;
            }
        }
        if g.predecessors(v).iter().any(|p| assignment[p.index()] != c) {
            info.in_boundary += 1;
        }
        if g.successors(v).iter().any(|s| assignment[s.index()] != c) {
            info.out_boundary += 1;
        }
    }
    if let Some(c) = clusters.iter().position(|i| i.vertices == 0) {
        return Err(CoarsenError::EmptyCluster(c));
    }

    let mut cut_edges = 0usize;
    let mut coarse_edges: Vec<(usize, usize)> = Vec::new();
    for (u, v) in g.edges() {
        let (cu, cv) = (assignment[u.index()], assignment[v.index()]);
        if cu == cv {
            clusters[cu].internal_edges += 1;
        } else {
            cut_edges += 1;
            coarse_edges.push((cu, cv));
        }
    }
    coarse_edges.sort_unstable();
    coarse_edges.dedup();

    let mut has_pred = vec![false; num_clusters];
    for &(_, v) in &coarse_edges {
        has_pred[v] = true;
    }
    let mut b = CdagBuilder::with_capacity(num_clusters, coarse_edges.len());
    let first = b.add_vertices(num_clusters);
    debug_assert_eq!(first, VertexId(0));
    for (c, info) in clusters.iter().enumerate() {
        if info.inputs > 0 && !has_pred[c] {
            b.tag_input(VertexId(c as u32));
        }
        if info.outputs > 0 {
            b.tag_output(VertexId(c as u32));
        }
    }
    for &(cu, cv) in &coarse_edges {
        b.add_edge(VertexId(cu as u32), VertexId(cv as u32));
    }
    let graph = b.build().map_err(|_| CoarsenError::CyclicQuotient)?;
    Ok(CoarseDag {
        graph,
        cluster_of: assignment.to_vec(),
        clusters,
        cut_edges,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topo::topological_order;

    fn diamond() -> Cdag {
        let mut b = CdagBuilder::new();
        let a = b.add_input("a");
        let x = b.add_op("x", &[a]);
        let y = b.add_op("y", &[a]);
        let d = b.add_op("d", &[x, y]);
        b.tag_output(d);
        b.build().unwrap()
    }

    #[test]
    fn contracts_diamond_into_chain() {
        let g = diamond();
        let coarse = coarsen(&g, &[0, 0, 0, 1], 2).unwrap();
        assert_eq!(coarse.graph.num_vertices(), 2);
        assert_eq!(coarse.graph.num_edges(), 1);
        assert_eq!(coarse.cut_edges, 2); // x→d and y→d cross, deduped to one coarse edge
        assert_eq!(coarse.clusters[0].vertices, 3);
        assert_eq!(coarse.clusters[0].internal_edges, 2);
        assert_eq!(coarse.clusters[0].out_boundary, 2);
        assert_eq!(coarse.clusters[0].in_boundary, 0);
        assert_eq!(coarse.clusters[1].in_boundary, 1);
        assert_eq!(coarse.clusters[1].first_vertex, VertexId(3));
        assert_eq!(coarse.clusters[0].inputs, 1);
        assert_eq!(coarse.clusters[1].pure_outputs, 1);
        // Input/output tags lift to the super-vertices.
        assert!(coarse.graph.is_input(VertexId(0)));
        assert!(coarse.graph.is_output(VertexId(1)));
    }

    #[test]
    fn input_tag_dropped_when_cluster_has_coarse_predecessor() {
        // Cluster 1 = {x, y, d} contains no input; cluster {a} feeds it.
        let g = diamond();
        let coarse = coarsen(&g, &[0, 1, 1, 1], 2).unwrap();
        assert!(coarse.graph.is_input(VertexId(0)));
        assert!(!coarse.graph.is_input(VertexId(1)));
    }

    #[test]
    fn pure_outputs_exclude_tagged_inputs() {
        // An input that is also an output counts as an input only.
        let mut b = CdagBuilder::new();
        let a = b.add_input("a");
        let c = b.add_input("c");
        let x = b.add_op("x", &[a]);
        b.tag_output(c);
        b.tag_output(x);
        let g = b.build().unwrap();
        let coarse = coarsen(&g, &[0, 0, 1], 2).unwrap();
        assert_eq!(
            (coarse.clusters[0].inputs, coarse.clusters[0].outputs),
            (2, 1)
        );
        assert_eq!(coarse.clusters[0].pure_outputs, 0);
        assert_eq!(coarse.clusters[1].pure_outputs, 1);
    }

    #[test]
    fn cyclic_quotient_is_rejected() {
        let g = diamond();
        // {a, d} vs {x, y}: edges cross in both directions.
        assert_eq!(
            coarsen(&g, &[0, 1, 1, 0], 2).unwrap_err(),
            CoarsenError::CyclicQuotient
        );
    }

    #[test]
    fn bad_assignments_are_loud() {
        let g = diamond();
        assert!(matches!(
            coarsen(&g, &[0, 0, 0], 2).unwrap_err(),
            CoarsenError::AssignmentLength {
                got: 3,
                expected: 4
            }
        ));
        assert!(matches!(
            coarsen(&g, &[0, 0, 0, 5], 2).unwrap_err(),
            CoarsenError::ClusterOutOfRange { cluster: 5, .. }
        ));
        assert_eq!(
            coarsen(&g, &[0, 0, 0, 0], 2).unwrap_err(),
            CoarsenError::EmptyCluster(1)
        );
    }

    #[test]
    fn interval_clustering_of_topo_order_always_contracts() {
        // Any contiguous-interval clustering of a topological order has
        // an acyclic quotient: edges only go forward in the order.
        let g = diamond();
        let order = topological_order(&g);
        let mut assignment = vec![0usize; g.num_vertices()];
        for (pos, v) in order.iter().enumerate() {
            assignment[v.index()] = pos * 2 / order.len();
        }
        let coarse = coarsen(&g, &assignment, 2).unwrap();
        assert_eq!(coarse.graph.num_vertices(), 2);
        assert!(coarse.graph.num_edges() <= 1);
        let total: usize = coarse.clusters.iter().map(|c| c.vertices).sum();
        assert_eq!(total, g.num_vertices());
    }

    #[test]
    fn single_cluster_contracts_to_one_vertex() {
        let g = diamond();
        let coarse = coarsen(&g, &[0, 0, 0, 0], 1).unwrap();
        assert_eq!(coarse.graph.num_vertices(), 1);
        assert_eq!(coarse.graph.num_edges(), 0);
        assert_eq!(coarse.cut_edges, 0);
        assert_eq!(coarse.clusters[0].internal_edges, g.num_edges());
    }
}
