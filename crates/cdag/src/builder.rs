//! Incremental construction of [`Cdag`]s.

use crate::bitset::BitSet;
use crate::graph::{Cdag, VertexId};

/// Errors reported by [`CdagBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The edge set contains a directed cycle; the offending vertex is one
    /// that remained with nonzero in-degree after Kahn's algorithm.
    Cycle(VertexId),
    /// An edge endpoint referenced a vertex id that was never added.
    DanglingEdge(VertexId, VertexId),
    /// A self-loop `(v, v)` was added.
    SelfLoop(VertexId),
    /// A vertex was tagged as input but has at least one predecessor.
    InputWithPredecessor(VertexId),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Cycle(v) => write!(f, "edge set contains a cycle through {v}"),
            BuildError::DanglingEdge(u, v) => {
                write!(f, "edge ({u}, {v}) references unknown vertex")
            }
            BuildError::SelfLoop(v) => write!(f, "self-loop on {v}"),
            BuildError::InputWithPredecessor(v) => {
                write!(f, "vertex {v} tagged as input but has predecessors")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Builder accumulating vertices, edges and input/output tags, validated and
/// frozen into a [`Cdag`] by [`CdagBuilder::build`].
///
/// ```
/// use dmc_cdag::CdagBuilder;
///
/// let mut b = CdagBuilder::new();
/// let x = b.add_input("x");
/// let y = b.add_input("y");
/// let s = b.add_op("x+y", &[x, y]);
/// b.tag_output(s);
/// let g = b.build().unwrap();
/// assert_eq!(g.num_vertices(), 3);
/// assert_eq!(g.num_edges(), 2);
/// ```
#[derive(Default, Clone)]
pub struct CdagBuilder {
    /// Vertices added so far.
    n: u32,
    /// Labels by id, up to the last labeled vertex only: a vertex past
    /// the end, or one added without a label, reads `""`.
    labels: Vec<String>,
    edges: Vec<(VertexId, VertexId)>,
    input_tags: Vec<VertexId>,
    output_tags: Vec<VertexId>,
    dedup_edges: bool,
}

impl CdagBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty builder with vertex/edge capacity hints.
    pub fn with_capacity(vertices: usize, edges: usize) -> Self {
        CdagBuilder {
            n: 0,
            labels: Vec::with_capacity(vertices),
            edges: Vec::with_capacity(edges),
            input_tags: Vec::new(),
            output_tags: Vec::new(),
            dedup_edges: false,
        }
    }

    /// When enabled, parallel duplicate edges are collapsed at `build` time.
    /// Kernel generators that emit one edge per scalar *use* (e.g. a value
    /// consumed twice by one op) turn this on.
    pub fn dedup_edges(&mut self, yes: bool) -> &mut Self {
        self.dedup_edges = yes;
        self
    }

    /// Number of vertices added so far.
    pub fn len(&self) -> usize {
        self.n as usize
    }

    /// `true` when no vertex has been added.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Adds an untagged vertex with a label; returns its id.
    ///
    /// A non-empty label pads the label vector with empty labels up to
    /// this id and is stored there; an empty label stores nothing.
    pub fn add_vertex(&mut self, label: impl Into<String>) -> VertexId {
        let id = VertexId(self.n);
        self.n += 1;
        let label = label.into();
        if !label.is_empty() {
            self.labels.resize(id.index(), String::new());
            self.labels.push(label);
        }
        id
    }

    /// Bulk-adds `count` untagged, *unlabeled* vertices and returns the
    /// id of the first one (ids are consecutive) — the streaming path
    /// for generators emitting 10⁷–10⁸-vertex graphs. It only advances
    /// the vertex count: nothing is stored per vertex, and
    /// [`Cdag::label`] reads `""` for every vertex past the last labeled
    /// one.
    pub fn add_vertices(&mut self, count: usize) -> VertexId {
        let id = VertexId(self.n);
        self.n += count as u32;
        id
    }

    /// Reserves capacity for at least `additional` more edges — pairs
    /// with [`CdagBuilder::add_vertices`] so large streamed builds do
    /// their edge allocation once instead of doubling through it.
    pub fn reserve_edges(&mut self, additional: usize) {
        self.edges.reserve(additional);
    }

    /// Adds a vertex tagged as an input.
    pub fn add_input(&mut self, label: impl Into<String>) -> VertexId {
        let id = self.add_vertex(label);
        self.input_tags.push(id);
        id
    }

    /// Adds a computational vertex with edges from every predecessor.
    pub fn add_op(&mut self, label: impl Into<String>, preds: &[VertexId]) -> VertexId {
        let id = self.add_vertex(label);
        for &p in preds {
            self.edges.push((p, id));
        }
        id
    }

    /// Adds the edge `(u, v)`.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) {
        self.edges.push((u, v));
    }

    /// Tags `v` as an input (it must remain predecessor-free at build time).
    pub fn tag_input(&mut self, v: VertexId) {
        self.input_tags.push(v);
    }

    /// Tags `v` as an output.
    pub fn tag_output(&mut self, v: VertexId) {
        self.output_tags.push(v);
    }

    /// Validates and freezes the accumulated graph.
    ///
    /// Checks performed, in this order:
    /// * every edge endpoint exists ([`BuildError::DanglingEdge`]),
    /// * no self-loops ([`BuildError::SelfLoop`]),
    /// * the edge set is acyclic ([`BuildError::Cycle`]),
    /// * inputs are sources ([`BuildError::InputWithPredecessor`]).
    ///
    /// The endpoint scan also notes whether every edge `(u, v)` has
    /// `u < v`, as when each edge runs from an earlier-added vertex to a
    /// later one (the way [`CdagBuilder::add_op`] and the kernel
    /// generators wire them). If so, id order is a topological order and
    /// the graph is acyclic with no further work. Otherwise Kahn's
    /// algorithm decides, and a cycle is reported through the lowest-id
    /// vertex it leaves with nonzero in-degree.
    pub fn build(mut self) -> Result<Cdag, BuildError> {
        let n = self.n;
        let mut id_ordered = true;
        for &(u, v) in &self.edges {
            if u.0 >= n || v.0 >= n {
                return Err(BuildError::DanglingEdge(u, v));
            }
            if u == v {
                return Err(BuildError::SelfLoop(u));
            }
            id_ordered &= u < v;
        }
        if self.dedup_edges {
            self.edges.sort_unstable();
            self.edges.dedup();
        }

        // CSR for forward adjacency via counting sort on source.
        let nn = n as usize;
        let mut fwd_off = vec![0u32; nn + 1];
        let mut rev_off = vec![0u32; nn + 1];
        for &(u, v) in &self.edges {
            fwd_off[u.index() + 1] += 1;
            rev_off[v.index() + 1] += 1;
        }
        for i in 0..nn {
            fwd_off[i + 1] += fwd_off[i];
            rev_off[i + 1] += rev_off[i];
        }
        let m = self.edges.len();
        let mut fwd_adj = vec![VertexId(0); m];
        let mut rev_adj = vec![VertexId(0); m];
        let mut fwd_cursor = fwd_off.clone();
        let mut rev_cursor = rev_off.clone();
        for &(u, v) in &self.edges {
            fwd_adj[fwd_cursor[u.index()] as usize] = v;
            fwd_cursor[u.index()] += 1;
            rev_adj[rev_cursor[v.index()] as usize] = u;
            rev_cursor[v.index()] += 1;
        }

        if !id_ordered {
            kahn_acyclic(&fwd_off, &fwd_adj, &rev_off)?;
        }

        let mut inputs = BitSet::new(nn);
        for &v in &self.input_tags {
            if rev_off[v.index() + 1] - rev_off[v.index()] > 0 {
                return Err(BuildError::InputWithPredecessor(v));
            }
            inputs.insert(v.index());
        }
        let mut outputs = BitSet::new(nn);
        for &v in &self.output_tags {
            outputs.insert(v.index());
        }

        Ok(Cdag::from_parts(
            n,
            fwd_off,
            fwd_adj,
            rev_off,
            rev_adj,
            inputs,
            outputs,
            self.labels,
        ))
    }

    /// [`CdagBuilder::build`] for graphs that are valid *by construction* —
    /// generators that wire edges exclusively from already-created
    /// vertices to newly-created ones (so no cycle, self-loop, or
    /// dangling edge can exist) and tag only sources as inputs.
    ///
    /// A `BuildError` from such a generator is a bug in the generator,
    /// not a recoverable condition, so this panics with `invariant` (the
    /// caller's structural argument, e.g. `"chain is acyclic"`) instead
    /// of returning the error. Every kernel generator funnels through
    /// here, which keeps the workspace's invariant-panic in one audited
    /// place instead of a `.expect` per kernel (lint rule S1).
    #[track_caller]
    pub fn build_valid(self, invariant: &str) -> Cdag {
        match self.build() {
            Ok(g) => g,
            // dmc-lint: allow(s1) -- the single audited invariant-panic every by-construction builder funnels through; reachable only via a generator bug
            Err(e) => panic!("builder invariant '{invariant}' violated: {e}"),
        }
    }
}

/// Kahn's algorithm over a CSR edge set: `Ok` when every vertex drains,
/// else the lowest-id vertex left with nonzero in-degree.
fn kahn_acyclic(fwd_off: &[u32], fwd_adj: &[VertexId], rev_off: &[u32]) -> Result<(), BuildError> {
    let nn = rev_off.len() - 1;
    let mut indeg: Vec<u32> = (0..nn).map(|i| rev_off[i + 1] - rev_off[i]).collect();
    let mut queue: Vec<u32> = (0..nn as u32).filter(|&i| indeg[i as usize] == 0).collect();
    let mut seen = 0usize;
    while let Some(u) = queue.pop() {
        seen += 1;
        let (s, e) = (
            fwd_off[u as usize] as usize,
            fwd_off[u as usize + 1] as usize,
        );
        for &v in &fwd_adj[s..e] {
            indeg[v.index()] -= 1;
            if indeg[v.index()] == 0 {
                queue.push(v.0);
            }
        }
    }
    if seen != nn {
        // `seen != nn` means some vertex kept nonzero in-degree, so
        // `find` always succeeds; the fallback only exists to keep
        // this path panic-free (lint rule S1).
        let culprit = (0..nn).find(|&i| indeg[i] > 0).unwrap_or(0);
        return Err(BuildError::Cycle(VertexId(culprit as u32)));
    }
    Ok(())
}

/// The vertex-disjoint union of several CDAGs: vertices of `parts[k]` are
/// renumbered by the combined offset of the preceding parts, labels and
/// input/output tags carry over. The canonical way to build a
/// multi-component composite for the Theorem-2 pipeline.
pub fn disjoint_union(parts: &[Cdag]) -> Cdag {
    let total_v: usize = parts.iter().map(Cdag::num_vertices).sum();
    let total_e: usize = parts.iter().map(Cdag::num_edges).sum();
    let mut b = CdagBuilder::with_capacity(total_v, total_e);
    let mut offset = 0u32;
    for g in parts {
        for v in g.vertices() {
            let id = b.add_vertex(g.label(v));
            debug_assert_eq!(id.0, offset + v.0);
            if g.is_input(v) {
                b.tag_input(id);
            }
            if g.is_output(v) {
                b.tag_output(id);
            }
        }
        for (u, v) in g.edges() {
            b.add_edge(VertexId(offset + u.0), VertexId(offset + v.0));
        }
        offset += g.num_vertices() as u32;
    }
    b.build_valid("a union of disjoint DAGs is a DAG with source inputs")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph_builds() {
        let g = CdagBuilder::new().build().unwrap();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn cycle_detected() {
        let mut b = CdagBuilder::new();
        let x = b.add_vertex("x");
        let y = b.add_vertex("y");
        b.add_edge(x, y);
        b.add_edge(y, x);
        assert!(matches!(b.build(), Err(BuildError::Cycle(_))));
    }

    #[test]
    fn self_loop_detected() {
        let mut b = CdagBuilder::new();
        let x = b.add_vertex("x");
        b.add_edge(x, x);
        assert_eq!(b.build().unwrap_err(), BuildError::SelfLoop(x));
    }

    #[test]
    fn dangling_edge_detected() {
        let mut b = CdagBuilder::new();
        let x = b.add_vertex("x");
        b.add_edge(x, VertexId(7));
        assert!(matches!(b.build(), Err(BuildError::DanglingEdge(_, _))));
    }

    #[test]
    fn input_with_predecessor_rejected() {
        let mut b = CdagBuilder::new();
        let x = b.add_vertex("x");
        let y = b.add_op("y", &[x]);
        b.tag_input(y);
        assert_eq!(b.build().unwrap_err(), BuildError::InputWithPredecessor(y));
    }

    #[test]
    fn adjacency_is_consistent() {
        let mut b = CdagBuilder::new();
        let a = b.add_input("a");
        let c = b.add_input("c");
        let d = b.add_op("d", &[a, c]);
        let e = b.add_op("e", &[a, d]);
        b.tag_output(e);
        let g = b.build().unwrap();
        assert_eq!(g.successors(a), &[d, e]);
        assert_eq!(g.predecessors(e), &[a, d]);
        assert_eq!(g.predecessors(d), &[a, c]);
        // Every forward edge appears exactly once in reverse adjacency.
        for (u, v) in g.edges() {
            assert!(g.predecessors(v).contains(&u));
        }
    }

    #[test]
    fn dedup_edges_collapses_duplicates() {
        let mut b = CdagBuilder::new();
        let x = b.add_input("x");
        let y = b.add_vertex("y = x*x");
        b.add_edge(x, y);
        b.add_edge(x, y);
        b.dedup_edges(true);
        let g = b.build().unwrap();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn disjoint_union_offsets_and_tags() {
        let mut b1 = CdagBuilder::new();
        let a = b1.add_input("a");
        let x = b1.add_op("x", &[a]);
        b1.tag_output(x);
        let g1 = b1.build().unwrap();
        let mut b2 = CdagBuilder::new();
        let p = b2.add_input("p");
        let q = b2.add_op("q", &[p]);
        let r = b2.add_op("r", &[p, q]);
        b2.tag_output(r);
        let g2 = b2.build().unwrap();
        let u = disjoint_union(&[g1.clone(), g2]);
        assert_eq!(u.num_vertices(), 5);
        assert_eq!(u.num_edges(), 4);
        assert_eq!(u.num_inputs(), 2);
        assert_eq!(u.num_outputs(), 2);
        assert_eq!(u.label(VertexId(2)), "p");
        assert!(u.has_edge(VertexId(2), VertexId(4)));
        assert!(u.is_output(VertexId(1)) && u.is_output(VertexId(4)));
        // Union with a single part is a structural copy.
        let single = disjoint_union(std::slice::from_ref(&g1));
        assert_eq!(single.num_edges(), g1.num_edges());
    }

    /// Labels are stored only up to the last labeled vertex: a graph
    /// mixing bulk unlabeled vertices, labeled adds and explicit empty
    /// labels reads, renders and hashes exactly as the same graph with
    /// every label given explicitly.
    #[test]
    fn sparse_labels_read_as_explicit_labels() {
        let labels = ["", "", "x", "", "in", "", "", "y", "", ""];
        let mut mixed = CdagBuilder::new();
        assert_eq!(mixed.add_vertices(2), VertexId(0));
        mixed.add_vertex("x");
        mixed.add_vertex("");
        mixed.add_input("in");
        assert_eq!(mixed.add_vertices(2), VertexId(5));
        mixed.add_vertex("y");
        mixed.add_vertex("");
        mixed.add_vertices(1);
        let mut explicit = CdagBuilder::new();
        for (i, &label) in labels.iter().enumerate() {
            if i == 4 {
                explicit.add_input(label);
            } else {
                explicit.add_vertex(label);
            }
        }
        assert_eq!((mixed.len(), explicit.len()), (labels.len(), labels.len()));
        for b in [&mut mixed, &mut explicit] {
            for (u, v) in [(0, 2), (4, 2), (2, 7), (3, 9), (7, 9)] {
                b.add_edge(VertexId(u), VertexId(v));
            }
            b.tag_output(VertexId(9));
        }
        let (m, e) = (mixed.build().unwrap(), explicit.build().unwrap());
        for v in m.vertices() {
            assert_eq!(m.label(v), labels[v.index()], "label of {v}");
            assert_eq!(m.label(v), e.label(v), "label of {v}");
        }
        assert_eq!(crate::textio::to_text(&m), crate::textio::to_text(&e));
        assert_eq!(m.content_hash(), e.content_hash());
    }

    #[test]
    fn duplicate_edges_kept_without_dedup() {
        let mut b = CdagBuilder::new();
        let x = b.add_input("x");
        let y = b.add_vertex("y");
        b.add_edge(x, y);
        b.add_edge(x, y);
        let g = b.build().unwrap();
        assert_eq!(g.num_edges(), 2);
    }
}
