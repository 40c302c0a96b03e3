//! Induced sub-CDAGs and quotient graphs — the substrate of the paper's
//! decomposition machinery (Theorem 2, Theorem 4) and of S-partition
//! validation (conditions P1/P2 of Definitions 3 and 5).
//!
//! [`decompose`] splits a CDAG into the sub-CDAGs induced by a disjoint
//! partition in one pass over the vertices and edges.
//! [`QuotientGraph`] is the one place inter-block edges are
//! deduplicated: partition validation reads its edge list, and
//! [`coarsen`](crate::coarsen::coarsen) its edge count.

use std::collections::BTreeSet;

use crate::bitset::BitSet;
use crate::builder::CdagBuilder;
use crate::graph::{Cdag, VertexId};

/// A sub-CDAG induced by a vertex subset, remembering the embedding into
/// the parent CDAG.
///
/// Following the paper's Theorem 2 the induced tagging is
/// `I_i = I ∩ V_i`, `E_i = E ∩ (V_i × V_i)`, `O_i = O ∩ V_i`. Vertices
/// whose predecessors were all outside `V_i` become predecessor-free but are
/// **not** retagged as inputs — exactly the situation the Red-Blue-White
/// game's flexible tagging was designed for.
#[derive(Debug, Clone)]
pub struct InducedSubCdag {
    /// The induced sub-CDAG (vertex ids renumbered `0..k`).
    pub cdag: Cdag,
    /// `to_parent[i]` is the parent-CDAG id of sub-vertex `i`.
    pub to_parent: Vec<VertexId>,
}

impl InducedSubCdag {
    /// Maps a sub-CDAG vertex back to the parent CDAG.
    pub fn parent_of(&self, v: VertexId) -> VertexId {
        self.to_parent[v.index()]
    }
}

/// Splits `g` into the sub-CDAGs induced by a disjoint partition
/// (`assignment[v]` = block index of vertex `v`). Blocks must be numbered
/// `0..num_blocks` contiguously.
///
/// Each piece lists its vertices in increasing parent id and, per
/// vertex, its internal out-edges in the parent's successor order. One
/// pass buckets the vertices by block, so the work and the scratch are
/// `O(|V| + |E| + num_blocks)` at any block count.
pub fn decompose(g: &Cdag, assignment: &[usize], num_blocks: usize) -> Vec<InducedSubCdag> {
    assert_eq!(assignment.len(), g.num_vertices());
    let mut members: Vec<Vec<VertexId>> = vec![Vec::new(); num_blocks];
    // `local[v]` = index of `v` within its own block.
    let mut local: Vec<u32> = Vec::with_capacity(assignment.len());
    for (v, &blk) in assignment.iter().enumerate() {
        assert!(blk < num_blocks, "block index {blk} out of range");
        local.push(members[blk].len() as u32);
        members[blk].push(VertexId(v as u32));
    }
    members
        .into_iter()
        .enumerate()
        .map(|(blk, to_parent)| {
            let mut b = CdagBuilder::with_capacity(to_parent.len(), 0);
            for &pv in &to_parent {
                let id = b.add_vertex(g.label(pv).to_string());
                if g.is_input(pv) {
                    b.tag_input(id);
                }
                if g.is_output(pv) {
                    b.tag_output(id);
                }
            }
            for &pv in &to_parent {
                let u = VertexId(local[pv.index()]);
                for &s in g.successors(pv) {
                    if assignment[s.index()] == blk {
                        b.add_edge(u, VertexId(local[s.index()]));
                    }
                }
            }
            let cdag = b.build_valid("induced subgraph of a DAG is a DAG with source inputs");
            InducedSubCdag { cdag, to_parent }
        })
        .collect()
}

/// The *input set* `In(V_i)` of Definition 5: vertices of `V \ V_i` with at
/// least one successor in `V_i`.
pub fn input_set(g: &Cdag, set: &BitSet) -> BitSet {
    let mut r = BitSet::new(g.num_vertices());
    for i in set.iter() {
        for &p in g.predecessors(VertexId(i as u32)) {
            if !set.contains(p.index()) {
                r.insert(p.index());
            }
        }
    }
    r
}

/// The *output set* `Out(V_i)` of Definition 5: vertices of `V_i` that are
/// tagged outputs of `g` or have at least one successor outside `V_i`.
pub fn output_set(g: &Cdag, set: &BitSet) -> BitSet {
    let mut r = BitSet::new(g.num_vertices());
    for i in set.iter() {
        let v = VertexId(i as u32);
        if g.is_output(v) || g.successors(v).iter().any(|s| !set.contains(s.index())) {
            r.insert(i);
        }
    }
    r
}

/// The quotient multigraph of a disjoint vertex partition: one node per
/// block, one edge `i → j` (deduplicated) whenever some CDAG edge crosses
/// from block `i` to block `j`.
#[derive(Debug, Clone)]
pub struct QuotientGraph {
    /// Deduplicated inter-block edges (no self-edges).
    pub edges: Vec<(usize, usize)>,
}

impl QuotientGraph {
    /// Builds the quotient of `g` under `assignment`.
    ///
    /// Each crossing pair goes into an ordered set as it is met, so the
    /// scratch holds distinct pairs only, never one entry per edge
    /// (`BTreeSet`'s `FromIterator` would buffer and sort its whole
    /// input).
    pub fn new(g: &Cdag, assignment: &[usize]) -> Self {
        assert_eq!(assignment.len(), g.num_vertices());
        let mut pairs = BTreeSet::new();
        for (u, v) in g.edges() {
            let (a, b) = (assignment[u.index()], assignment[v.index()]);
            if a != b {
                pairs.insert((a, b));
            }
        }
        QuotientGraph {
            edges: pairs.into_iter().collect(),
        }
    }

    /// `true` if two blocks have edges in both directions — the "circuit
    /// between subsets" forbidden by condition P2 of Definitions 3 and 5.
    ///
    /// Membership of the reversed edge is checked by binary search:
    /// [`QuotientGraph::new`] lists `edges` sorted and deduplicated, so
    /// the list is its own ordered index (lint rule D1 — no hash set
    /// needed).
    pub fn has_pairwise_circuit(&self) -> bool {
        debug_assert!(self.edges.windows(2).all(|w| w[0] < w[1]), "edges sorted");
        self.edges
            .iter()
            .any(|&(a, b)| self.edges.binary_search(&(b, a)).is_ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Cdag {
        let mut b = CdagBuilder::new();
        let a = b.add_input("a");
        let x = b.add_op("b", &[a]);
        let y = b.add_op("c", &[a]);
        let d = b.add_op("d", &[x, y]);
        b.tag_output(d);
        b.build().unwrap()
    }

    #[test]
    fn induce_keeps_internal_edges_and_tags() {
        let g = diamond();
        let sub = &decompose(&g, &[0, 0, 1, 0], 2)[0];
        assert_eq!(sub.cdag.num_vertices(), 3);
        // Edges a->b and b->d survive; a->c and c->d are dropped.
        assert_eq!(sub.cdag.num_edges(), 2);
        assert_eq!(sub.cdag.num_inputs(), 1);
        assert_eq!(sub.cdag.num_outputs(), 1);
        assert_eq!(sub.parent_of(VertexId(0)), VertexId(0));
        assert_eq!(sub.parent_of(VertexId(2)), VertexId(3));
    }

    #[test]
    fn induced_pred_free_vertices_are_not_inputs() {
        let g = diamond();
        // {b, c, d}: b and c lose their predecessor a but stay non-inputs.
        let sub = &decompose(&g, &[0, 1, 1, 1], 2)[1];
        assert_eq!(sub.cdag.num_inputs(), 0);
        assert_eq!(sub.cdag.in_degree(VertexId(0)), 0);
    }

    #[test]
    fn decompose_partitions_everything() {
        let g = diamond();
        let parts = decompose(&g, &[0, 0, 1, 1], 2);
        assert_eq!(parts.len(), 2);
        let total: usize = parts.iter().map(|p| p.cdag.num_vertices()).sum();
        assert_eq!(total, g.num_vertices());
    }

    #[test]
    fn in_out_sets_match_definition5() {
        let g = diamond();
        // V_i = {d}: In = {b, c}; Out = {d} (tagged output).
        let set = BitSet::from_indices(4, [3]);
        assert_eq!(input_set(&g, &set).iter().collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(output_set(&g, &set).iter().collect::<Vec<_>>(), vec![3]);
        // V_i = {a, b}: In = {}; Out = {a (feeds c), b (feeds d)}.
        let set = BitSet::from_indices(4, [0, 1]);
        assert!(input_set(&g, &set).is_empty());
        assert_eq!(output_set(&g, &set).iter().collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn out_set_of_untagged_sink_is_empty() {
        let mut b = CdagBuilder::new();
        let a = b.add_input("a");
        let z = b.add_op("z", &[a]); // sink, not tagged output
        let _ = z;
        let g = b.build().unwrap();
        let set = BitSet::from_indices(2, [1]);
        assert!(output_set(&g, &set).is_empty());
    }

    /// Regression for the HashSet→binary-search conversion in
    /// `has_pairwise_circuit` (lint rule D1): a reversed pair anywhere in
    /// a long sorted edge list is found, and near-misses are not.
    #[test]
    fn pairwise_circuit_found_by_binary_search() {
        let chain: Vec<(usize, usize)> = (0..50).map(|i| (i, i + 1)).collect();
        let acyclic = QuotientGraph {
            edges: chain.clone(),
        };
        assert!(!acyclic.has_pairwise_circuit());
        let mut edges = chain;
        edges.push((37, 36)); // reverse one deep-in-the-list edge
        edges.sort_unstable();
        let cyclic = QuotientGraph { edges };
        assert!(cyclic.has_pairwise_circuit());
    }

    #[test]
    fn quotient_detects_circuits() {
        let g = diamond();
        // Blocks {a, d} and {b, c}: edges 0->1 (a->b) and 1->0 (b->d).
        let q = QuotientGraph::new(&g, &[0, 1, 1, 0]);
        assert!(q.has_pairwise_circuit());
        // Blocks {a, b, c} then {d}: acyclic chain.
        let q = QuotientGraph::new(&g, &[0, 0, 0, 1]);
        assert!(!q.has_pairwise_circuit());
    }
}
