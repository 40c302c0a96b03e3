//! Weakly-connected components of a CDAG.
//!
//! The substrate of the automatic decomposition pipeline: Theorem 2 sums
//! lower bounds across *vertex-disjoint* sub-CDAGs, and the weakly
//! connected components are the canonical disjoint split — no edges cross
//! them, so the induced tagging loses nothing. The traversal walks the
//! CSR adjacency in both directions ([`crate::Cdag::successors`] and
//! [`crate::Cdag::predecessors`]) with an explicit stack.

use crate::bitset::BitSet;
use crate::graph::{Cdag, VertexId};

/// A labelling of every vertex with its weakly-connected component.
///
/// Component ids are deterministic: components are numbered `0..count` in
/// order of their lowest-numbered vertex, so the labelling is a pure
/// function of the graph (independent of traversal internals).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Components {
    /// `assignment[v]` = component id of vertex `v`.
    pub assignment: Vec<usize>,
    /// Number of components.
    pub count: usize,
}

impl Components {
    /// Vertex count of every component, indexed by component id.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.count];
        for &c in &self.assignment {
            sizes[c] += 1;
        }
        sizes
    }

    /// The vertex set of component `c` as a bitset over the full graph.
    pub fn block(&self, c: usize) -> BitSet {
        assert!(c < self.count, "component {c} out of range");
        BitSet::from_indices(
            self.assignment.len(),
            self.assignment
                .iter()
                .enumerate()
                .filter(|&(_, &a)| a == c)
                .map(|(v, _)| v),
        )
    }
}

/// Labels every vertex of `g` with its weakly-connected component
/// (`O(|V| + |E|)`, one pass over the CSR arrays).
pub fn weakly_connected_components(g: &Cdag) -> Components {
    let n = g.num_vertices();
    let mut assignment = vec![usize::MAX; n];
    let mut stack: Vec<VertexId> = Vec::new();
    let mut count = 0usize;
    for start in g.vertices() {
        if assignment[start.index()] != usize::MAX {
            continue;
        }
        let c = count;
        count += 1;
        assignment[start.index()] = c;
        stack.push(start);
        while let Some(v) = stack.pop() {
            for &w in g.successors(v).iter().chain(g.predecessors(v)) {
                if assignment[w.index()] == usize::MAX {
                    assignment[w.index()] = c;
                    stack.push(w);
                }
            }
        }
    }
    Components { assignment, count }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CdagBuilder;

    fn two_diamonds() -> Cdag {
        let mut b = CdagBuilder::new();
        for k in 0..2 {
            let a = b.add_input(format!("a{k}"));
            let x = b.add_op(format!("b{k}"), &[a]);
            let y = b.add_op(format!("c{k}"), &[a]);
            let d = b.add_op(format!("d{k}"), &[x, y]);
            b.tag_output(d);
        }
        b.build().unwrap()
    }

    #[test]
    fn single_component_on_connected_graph() {
        let mut b = CdagBuilder::new();
        let a = b.add_input("a");
        let x = b.add_op("x", &[a]);
        b.tag_output(x);
        let g = b.build().unwrap();
        let c = weakly_connected_components(&g);
        assert_eq!(c.count, 1);
        assert_eq!(c.assignment, vec![0, 0]);
        assert_eq!(c.sizes(), vec![2]);
    }

    #[test]
    fn disjoint_pieces_get_distinct_ids_in_vertex_order() {
        let g = two_diamonds();
        let c = weakly_connected_components(&g);
        assert_eq!(c.count, 2);
        assert_eq!(c.assignment, vec![0, 0, 0, 0, 1, 1, 1, 1]);
        assert_eq!(c.sizes(), vec![4, 4]);
        assert_eq!(c.block(1).iter().collect::<Vec<_>>(), vec![4, 5, 6, 7]);
    }

    #[test]
    fn opposing_edge_directions_still_connect() {
        // x <- a -> y plus a second source feeding y: weak connectivity
        // must follow predecessor edges too.
        let mut b = CdagBuilder::new();
        let a = b.add_input("a");
        let s = b.add_input("s");
        let x = b.add_op("x", &[a]);
        let y = b.add_op("y", &[a, s]);
        b.tag_output(x);
        b.tag_output(y);
        let g = b.build().unwrap();
        let c = weakly_connected_components(&g);
        assert_eq!(c.count, 1);
    }

    #[test]
    fn interleaved_vertex_numbering_is_handled() {
        // Two chains with interleaved ids: 0->2 and 1->3.
        let mut b = CdagBuilder::new();
        let a0 = b.add_input("a0");
        let a1 = b.add_input("a1");
        let x0 = b.add_op("x0", &[a0]);
        let x1 = b.add_op("x1", &[a1]);
        b.tag_output(x0);
        b.tag_output(x1);
        let g = b.build().unwrap();
        let c = weakly_connected_components(&g);
        assert_eq!(c.count, 2);
        // Component 0 is the one containing vertex 0.
        assert_eq!(c.assignment, vec![0, 1, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn block_rejects_bad_component() {
        let g = two_diamonds();
        let c = weakly_connected_components(&g);
        let _ = c.block(5);
    }
}
