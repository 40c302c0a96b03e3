//! The [`Cdag`] type: an immutable CSR-encoded computational DAG with
//! input/output tags.

use crate::bitset::BitSet;
use serde::{Deserialize, Serialize};

/// Identifier of a CDAG vertex.
///
/// A thin `u32` newtype: CDAGs in this workspace routinely reach millions of
/// vertices, and 32-bit ids halve the adjacency footprint compared to
/// `usize` (see the Rust Performance Book's "Smaller Integers" guidance).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct VertexId(pub u32);

impl VertexId {
    /// The vertex id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Debug for VertexId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl std::fmt::Display for VertexId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<u32> for VertexId {
    fn from(v: u32) -> Self {
        VertexId(v)
    }
}

/// A computational DAG `C = (I, V, E, O)` in compressed sparse row form.
///
/// Both forward (successor) and reverse (predecessor) adjacency are stored
/// so ancestor and descendant traversals are equally cheap. The structure is
/// immutable after construction via [`crate::CdagBuilder`]; the only mutable
/// aspect is the input/output *tagging*, which the Red-Blue-White model
/// treats as a free label (paper, Theorem 3) — see [`Cdag::retag`].
#[derive(Clone, Serialize, Deserialize)]
pub struct Cdag {
    n: u32,
    fwd_off: Vec<u32>,
    fwd_adj: Vec<VertexId>,
    rev_off: Vec<u32>,
    rev_adj: Vec<VertexId>,
    inputs: BitSet,
    outputs: BitSet,
    labels: Vec<String>,
}

impl Cdag {
    /// Internal constructor used by the builder. `fwd`/`rev` must be
    /// consistent CSR encodings of the same acyclic edge set.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        n: u32,
        fwd_off: Vec<u32>,
        fwd_adj: Vec<VertexId>,
        rev_off: Vec<u32>,
        rev_adj: Vec<VertexId>,
        inputs: BitSet,
        outputs: BitSet,
        labels: Vec<String>,
    ) -> Self {
        Cdag {
            n,
            fwd_off,
            fwd_adj,
            rev_off,
            rev_adj,
            inputs,
            outputs,
            labels,
        }
    }

    /// Number of vertices `|V|`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n as usize
    }

    /// Number of edges `|E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.fwd_adj.len()
    }

    /// Number of *computational* vertices `|V - I|` — the work `|V'|` used
    /// by the paper's Corollary 1 and the parallel Theorems 6–7.
    pub fn num_compute_vertices(&self) -> usize {
        self.num_vertices() - self.inputs.len()
    }

    /// Iterator over all vertex ids `0..n`.
    pub fn vertices(&self) -> impl ExactSizeIterator<Item = VertexId> + '_ {
        (0..self.n).map(VertexId)
    }

    /// Successors of `v` (targets of out-edges).
    #[inline]
    pub fn successors(&self, v: VertexId) -> &[VertexId] {
        let i = v.index();
        &self.fwd_adj[self.fwd_off[i] as usize..self.fwd_off[i + 1] as usize]
    }

    /// Predecessors of `v` (sources of in-edges).
    #[inline]
    pub fn predecessors(&self, v: VertexId) -> &[VertexId] {
        let i = v.index();
        &self.rev_adj[self.rev_off[i] as usize..self.rev_off[i + 1] as usize]
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.successors(v).len()
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.predecessors(v).len()
    }

    /// Iterator over all edges `(u, v)`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices()
            .flat_map(move |u| self.successors(u).iter().map(move |&v| (u, v)))
    }

    /// `true` if `v` is tagged as an input (starts with a blue pebble).
    #[inline]
    pub fn is_input(&self, v: VertexId) -> bool {
        self.inputs.contains(v.index())
    }

    /// `true` if `v` is tagged as an output (must end with a blue pebble).
    #[inline]
    pub fn is_output(&self, v: VertexId) -> bool {
        self.outputs.contains(v.index())
    }

    /// The input tag set `I` as a bitset.
    pub fn inputs(&self) -> &BitSet {
        &self.inputs
    }

    /// The output tag set `O` as a bitset.
    pub fn outputs(&self) -> &BitSet {
        &self.outputs
    }

    /// Number of tagged inputs `|I|`.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of tagged outputs `|O|`.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Human-readable label of `v` (empty string if none was assigned).
    pub fn label(&self, v: VertexId) -> &str {
        self.labels.get(v.index()).map_or("", |s| s.as_str())
    }

    /// Returns a copy of this CDAG with different input/output tags.
    ///
    /// This implements the *tagging/untagging* operation of the paper's
    /// Theorem 3: the underlying DAG `G = (V, E)` is unchanged, only the
    /// labelling of vertices as inputs/outputs differs. The lower-bound
    /// combinators in `dmc-core` account for the `|dI| + |dO|` correction
    /// terms.
    ///
    /// # Panics
    /// Panics if either bitset's capacity differs from `|V|`, or if some
    /// tagged input has predecessors (inputs must be sources in the RBW
    /// model — values, not computations).
    pub fn retag(&self, inputs: BitSet, outputs: BitSet) -> Cdag {
        assert_eq!(inputs.capacity(), self.num_vertices(), "input tag capacity");
        assert_eq!(
            outputs.capacity(),
            self.num_vertices(),
            "output tag capacity"
        );
        for i in inputs.iter() {
            assert!(
                self.in_degree(VertexId(i as u32)) == 0,
                "vertex v{i} tagged as input but has predecessors"
            );
        }
        let mut c = self.clone();
        c.inputs = inputs;
        c.outputs = outputs;
        c
    }

    /// Checks the Hong–Kung well-formedness convention used by
    /// Definition 2: every source is an input and every sink is an output.
    pub fn is_hong_kung_form(&self) -> bool {
        self.vertices().all(|v| {
            (self.in_degree(v) > 0 || self.is_input(v))
                && (self.out_degree(v) > 0 || self.is_output(v))
        })
    }

    /// `true` if the graph contains the edge `(u, v)`.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.successors(u).contains(&v)
    }

    /// A process-independent content hash of the graph: FNV-1a over the
    /// canonical [`textio`](crate::textio) render. Two graphs hash equal
    /// exactly when they have the same vertex count, tags, labels, and
    /// edge lists in the same id order — comments and whitespace in an
    /// uploaded text form never affect the hash, because the render is
    /// regenerated from the parsed structure. This is the cache key the
    /// serving layer uses for uploaded `.cdag` bodies.
    ///
    /// ```
    /// use dmc_cdag::textio;
    /// use dmc_cdag::CdagBuilder;
    ///
    /// let mut b = CdagBuilder::new();
    /// let x = b.add_input("x");
    /// let y = b.add_op("y", &[x]);
    /// b.tag_output(y);
    /// let g = b.build().unwrap();
    /// let reparsed = textio::from_text(&textio::to_text(&g)).unwrap();
    /// assert_eq!(g.content_hash(), reparsed.content_hash());
    /// ```
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        crate::hash::fnv1a_64(crate::textio::to_text(self).as_bytes())
    }
}

impl std::fmt::Debug for Cdag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Cdag {{ |V|: {}, |E|: {}, |I|: {}, |O|: {} }}",
            self.num_vertices(),
            self.num_edges(),
            self.num_inputs(),
            self.num_outputs()
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::CdagBuilder;
    use crate::{BitSet, VertexId};

    /// Builds the little diamond `a -> {b, c} -> d`.
    fn diamond() -> crate::Cdag {
        let mut b = CdagBuilder::new();
        let a = b.add_input("a");
        let x = b.add_op("b", &[a]);
        let y = b.add_op("c", &[a]);
        let d = b.add_op("d", &[x, y]);
        b.tag_output(d);
        b.build().unwrap()
    }

    #[test]
    fn basic_accessors() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.num_inputs(), 1);
        assert_eq!(g.num_outputs(), 1);
        assert_eq!(g.num_compute_vertices(), 3);
        let a = VertexId(0);
        assert_eq!(g.out_degree(a), 2);
        assert_eq!(g.in_degree(a), 0);
        assert!(g.is_input(a));
        assert!(!g.is_output(a));
        assert_eq!(g.label(a), "a");
        let d = VertexId(3);
        assert_eq!(g.in_degree(d), 2);
        assert!(g.is_output(d));
        assert!(g.has_edge(a, VertexId(1)));
        assert!(!g.has_edge(a, d));
    }

    #[test]
    fn edges_iterator_counts_all() {
        let g = diamond();
        let es: Vec<_> = g.edges().collect();
        assert_eq!(es.len(), 4);
        assert!(es.contains(&(VertexId(0), VertexId(1))));
        assert!(es.contains(&(VertexId(2), VertexId(3))));
    }

    #[test]
    fn retag_swaps_labels_without_touching_structure() {
        let g = diamond();
        let n = g.num_vertices();
        // Untag everything.
        let g2 = g.retag(BitSet::new(n), BitSet::new(n));
        assert_eq!(g2.num_inputs(), 0);
        assert_eq!(g2.num_outputs(), 0);
        assert_eq!(g2.num_edges(), g.num_edges());
        assert!(!g2.is_hong_kung_form());
        let g3 = g2.retag(g.inputs().clone(), g.outputs().clone());
        assert!(g3.is_hong_kung_form());
        assert!(g3.is_input(VertexId(0)));
        assert!(g3.is_output(VertexId(3)));
    }

    #[test]
    #[should_panic(expected = "tagged as input but has predecessors")]
    fn retag_rejects_non_source_inputs() {
        let g = diamond();
        let n = g.num_vertices();
        let bad = BitSet::from_indices(n, [3]);
        let _ = g.retag(bad, BitSet::new(n));
    }

    #[test]
    fn hong_kung_form_detection() {
        let g = diamond();
        assert!(g.is_hong_kung_form());
        // b and c have successors; a is input; d is output — fine.
        let mut b = CdagBuilder::new();
        let a = b.add_input("a");
        let _dangling = b.add_op("x", &[a]); // sink without output tag
        let g = b.build().unwrap();
        assert!(!g.is_hong_kung_form());
    }
}
