//! Cluster census: the per-cluster counts of a disjoint cluster
//! assignment, taken in one pass without building any graph — what the
//! hierarchical analysis pipeline composes when the original CDAG is too
//! large to sweep directly.
//!
//! A [`Coarsening`] keeps, per cluster, what the pipeline needs to bound
//! and report the cluster without re-touching the original graph:
//! vertex and internal-edge counts, the *in-boundary* (vertices with a
//! predecessor outside the cluster) and *out-boundary* (vertices with a
//! successor outside the cluster) sizes, and the tagged inputs and the
//! tagged outputs that are not inputs. Across clusters it keeps two
//! totals: the original edges that cross clusters, and the distinct
//! ordered cluster pairs they join, which [`QuotientGraph`] deduplicates.
//!
//! # Determinism
//!
//! Cluster numbering is the caller's, verbatim — no hashing, no
//! renumbering — and every count is a pure function of the graph and
//! the assignment, so clusterings produced by `topological_clusters`
//! (contiguous intervals of the deterministic Kahn order) yield the same
//! census on every run and at every thread count.
//!
//! # Soundness note (why the cluster quotient is a *map*, not a *bound*)
//!
//! A min-cut wavefront computed on the cluster quotient is **not** a
//! sound I/O lower bound for the original CDAG: a quotient path
//! `A → B → C` only certifies an original path when every intermediate
//! cluster internally connects its in-boundary to its out-boundary, and
//! an "ancestor" cluster of an anchor mixes true ancestors with
//! incomparable vertices, so Lemma 2's computed/uncomputed wavefront
//! argument does not transfer. The hierarchical pipeline therefore
//! reports the quotient's size only as a structural diagnostic and
//! derives its certified bound from Theorem 2 over the cluster partition
//! instead, summing each cluster's trivial bound from the
//! [`ClusterInfo`] tag counts — see `Analyzer::analyze_hierarchical` in
//! `dmc-core`.

use crate::graph::{Cdag, VertexId};
use crate::subgraph::QuotientGraph;

/// Why a cluster assignment could not be counted.
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
    /// contiguous `0..num_clusters`).
    EmptyCluster(usize),
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
        }
    }
}

impl std::error::Error for CoarsenError {}

/// Per-cluster annotations of a [`Coarsening`].
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
    /// Tagged outputs inside the cluster that are not also tagged
    /// inputs (`|O_c \ I_c|`): with [`inputs`](ClusterInfo::inputs),
    /// the counts behind the trivial bound of the cluster's induced
    /// sub-CDAG, which inherits the original graph's tags.
    pub pure_outputs: usize,
    /// Lowest original vertex id in the cluster (a stable handle for
    /// locating the cluster in the original graph).
    pub first_vertex: VertexId,
}

/// The census of a cluster assignment: per-cluster annotations plus the
/// two crossing-edge totals the hierarchical pipeline reports.
#[derive(Debug, Clone)]
pub struct Coarsening {
    /// Per-cluster annotations, indexed by cluster.
    pub clusters: Vec<ClusterInfo>,
    /// Original edges that cross clusters — the communication volume the
    /// clustering hides.
    pub cut_edges: usize,
    /// Distinct ordered cluster pairs `(i, j)`, `i ≠ j`, joined by at
    /// least one crossing edge: the edge count of the cluster quotient.
    pub coarse_edges: usize,
}

/// Counts `assignment` (cluster index per vertex, contiguous
/// `0..num_clusters`) into a [`Coarsening`].
///
/// Runs in `O(|V| + |E| · log P)`, where `P ≤ K²` is the number of
/// distinct cluster pairs, and allocates nothing sized by `|V|` or `|E|`,
/// so it is safe at 10⁷–10⁸ vertices. Any total disjoint assignment is
/// accepted, cyclic quotients included: Theorem 2 needs no order among
/// the clusters.
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
/// assert_eq!(coarse.clusters.len(), 2);
/// assert_eq!((coarse.cut_edges, coarse.coarse_edges), (1, 1));
/// assert_eq!(coarse.clusters[0].out_boundary, 1);
/// assert_eq!(coarse.clusters[1].pure_outputs, 1);
/// ```
pub fn coarsen(
    g: &Cdag,
    assignment: &[usize],
    num_clusters: usize,
) -> Result<Coarsening, CoarsenError> {
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
        if g.is_input(v) {
            info.inputs += 1;
        } else if g.is_output(v) {
            info.pure_outputs += 1;
        }
        if g.predecessors(v).iter().any(|p| assignment[p.index()] != c) {
            info.in_boundary += 1;
        }
        let internal = g
            .successors(v)
            .iter()
            .filter(|s| assignment[s.index()] == c)
            .count();
        info.internal_edges += internal;
        if internal < g.out_degree(v) {
            info.out_boundary += 1;
        }
    }
    if let Some(c) = clusters.iter().position(|i| i.vertices == 0) {
        return Err(CoarsenError::EmptyCluster(c));
    }
    let internal_edges: usize = clusters.iter().map(|c| c.internal_edges).sum();
    Ok(Coarsening {
        cut_edges: g.num_edges() - internal_edges,
        coarse_edges: QuotientGraph::new(g, assignment).edges.len(),
        clusters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CdagBuilder;
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
        assert_eq!(coarse.clusters.len(), 2);
        assert_eq!(coarse.coarse_edges, 1);
        assert_eq!(coarse.cut_edges, 2); // x→d and y→d cross, deduped to one coarse edge
        assert_eq!(coarse.clusters[0].vertices, 3);
        assert_eq!(coarse.clusters[0].internal_edges, 2);
        assert_eq!(coarse.clusters[0].out_boundary, 2);
        assert_eq!(coarse.clusters[0].in_boundary, 0);
        assert_eq!(coarse.clusters[1].in_boundary, 1);
        assert_eq!(coarse.clusters[1].first_vertex, VertexId(3));
        assert_eq!(coarse.clusters[0].inputs, 1);
        assert_eq!(coarse.clusters[1].pure_outputs, 1);
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
        assert_eq!(coarse.clusters[0].inputs, 2);
        assert_eq!(coarse.clusters[0].pure_outputs, 0);
        assert_eq!(coarse.clusters[1].pure_outputs, 1);
    }

    #[test]
    fn cyclic_clustering_counts_both_directions() {
        let g = diamond();
        // {a, d} vs {x, y}: all four edges cross, two each way, so the
        // quotient has the two edges 0 → 1 and 1 → 0.
        let coarse = coarsen(&g, &[0, 1, 1, 0], 2).unwrap();
        assert_eq!(coarse.coarse_edges, 2);
        assert_eq!(coarse.cut_edges, 4);
        assert_eq!(coarse.clusters[0].internal_edges, 0);
        assert_eq!(coarse.clusters[1].internal_edges, 0);
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
        // A contiguous-interval clustering of a topological order has
        // only forward crossing edges: at most one coarse edge here.
        let g = diamond();
        let order = topological_order(&g);
        let mut assignment = vec![0usize; g.num_vertices()];
        for (pos, v) in order.iter().enumerate() {
            assignment[v.index()] = pos * 2 / order.len();
        }
        let coarse = coarsen(&g, &assignment, 2).unwrap();
        assert_eq!(coarse.clusters.len(), 2);
        assert!(coarse.coarse_edges <= 1);
        let total: usize = coarse.clusters.iter().map(|c| c.vertices).sum();
        assert_eq!(total, g.num_vertices());
    }

    #[test]
    fn single_cluster_contracts_to_one_vertex() {
        let g = diamond();
        let coarse = coarsen(&g, &[0, 0, 0, 0], 1).unwrap();
        assert_eq!(coarse.clusters.len(), 1);
        assert_eq!(coarse.coarse_edges, 0);
        assert_eq!(coarse.cut_edges, 0);
        assert_eq!(coarse.clusters[0].internal_edges, g.num_edges());
    }
}
