//! Convex cuts and schedule wavefronts (paper, Section 3.3).
//!
//! A *convex cut* `(S, T)` partitions the vertices such that there is no
//! edge from `T` back to `S` — equivalently `S` is predecessor-closed (an
//! order ideal of the DAG). A convex cut is exactly a point in time of some
//! sequential no-recomputation schedule: `S` is the set of already-fired
//! vertices. The *wavefront* of the cut is the set of fired vertices that
//! still have an unfired consumer — the live values that must be resident
//! somewhere, which is why the minimum wavefront through a vertex lower
//! bounds I/O (Lemma 2 in `dmc-core`).

use crate::bitset::BitSet;
use crate::flow::{vertex_min_cut, VertexCut, VertexCutOptions};
use crate::graph::{Cdag, VertexId};
use crate::reach::{ancestors, descendants};

/// A convex `(S, T)` cut of a CDAG, stored as the `S` side.
#[derive(Debug, Clone)]
pub struct ConvexCut {
    s_side: BitSet,
}

impl ConvexCut {
    /// Wraps an `S`-side bitset. Use [`ConvexCut::is_valid`] to check
    /// convexity if the provenance is untrusted.
    pub fn new(s_side: BitSet) -> Self {
        ConvexCut { s_side }
    }

    /// The minimal convex cut whose `S` side contains `x`:
    /// `S = {x} ∪ Anc(x)`.
    pub fn minimal_around(g: &Cdag, x: VertexId) -> Self {
        let mut s = ancestors(g, x);
        s.insert(x.index());
        ConvexCut { s_side: s }
    }

    /// The maximal convex cut whose `T` side contains everything forced
    /// after `x`: `T = Desc(x)`, `S = V \ Desc(x)`.
    pub fn maximal_around(g: &Cdag, x: VertexId) -> Self {
        let mut s = descendants(g, x);
        s.complement();
        ConvexCut { s_side: s }
    }

    /// The cut corresponding to a schedule prefix: `S` = first `k` vertices
    /// of `order`.
    pub fn from_prefix(g: &Cdag, prefix: &[VertexId]) -> Self {
        let mut s = BitSet::new(g.num_vertices());
        for &v in prefix {
            s.insert(v.index());
        }
        ConvexCut { s_side: s }
    }

    /// The `S` side.
    pub fn s_side(&self) -> &BitSet {
        &self.s_side
    }

    /// `true` if `v ∈ S`.
    pub fn in_s(&self, v: VertexId) -> bool {
        self.s_side.contains(v.index())
    }

    /// Checks convexity: no edge from `T` to `S` (equivalently `S` is
    /// predecessor-closed).
    pub fn is_valid(&self, g: &Cdag) -> bool {
        g.edges().all(|(u, v)| !self.in_s(v) || self.in_s(u))
    }

    /// The wavefront of this cut: vertices of `S` with at least one
    /// successor in `T`.
    pub fn wavefront(&self, g: &Cdag) -> Wavefront {
        let vertices: Vec<VertexId> = self
            .s_side
            .iter()
            .map(|i| VertexId(i as u32))
            .filter(|&v| g.successors(v).iter().any(|s| !self.in_s(*s)))
            .collect();
        Wavefront { vertices }
    }
}

/// The set of live values at a convex cut — see [`ConvexCut::wavefront`].
#[derive(Debug, Clone)]
pub struct Wavefront {
    /// Vertices in `S` with at least one successor in `T`.
    pub vertices: Vec<VertexId>,
}

impl Wavefront {
    /// Cardinality of the wavefront.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// `true` if the wavefront is empty.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }
}

/// A certified lower bound on the minimum wavefront through `x`.
#[derive(Debug, Clone)]
pub struct MinWavefront {
    /// The anchoring vertex.
    pub anchor: VertexId,
    /// Lower bound on `|W^min(x)|` (the min-cut value; exact up to the +1
    /// for `x` itself, see [`min_wavefront`]).
    pub size: usize,
    /// A witnessing minimum vertex cut.
    pub cut: VertexCut,
}

/// Computes the minimum cardinality wavefront induced by `x`,
/// `|W^min_G(x)|`, as a vertex min-cut between `{x} ∪ Anc(x)` and
/// `Desc(x)` (paper, §3.3 "Correspondence with Graph Min-cut").
///
/// The returned `size` is the max-flow value, and its relation to the true
/// `|W^min(x)|` splits exactly on whether `x` has descendants:
///
/// * **`Desc(x) ≠ ∅`: `|W^min(x)| = size`, exactly.** Every schedule
///   wavefront at the instant `x` fires is a separating set for the cut
///   problem (the last fired vertex on any `Anc(x) ∪ {x} → Desc(x)` path
///   has an unfired consumer, so it is in the wavefront), giving
///   `size ≤ |W^min(x)|`; conversely a schedule firing a minimum cut's
///   source side first realizes a wavefront of exactly `size` vertices.
/// * **`Desc(x) = ∅`: `|W^min(x)| = size + 1 = 1`.** The cut problem is
///   vacuous (`size = 0`), but every schedule wavefront at `x`'s firing
///   still contains `x` itself.
///
/// In both cases `size ≤ |W^min(x)|`, so `size` is always a *sound* value
/// to plug into Lemma 2.
pub fn min_wavefront(g: &Cdag, x: VertexId) -> MinWavefront {
    let mut sources = ancestors(g, x);
    sources.insert(x.index());
    let sinks = descendants(g, x);
    if sinks.is_empty() {
        return MinWavefront {
            anchor: x,
            size: 0,
            cut: VertexCut {
                size: 0,
                vertices: Vec::new(),
            },
        };
    }
    let cut = vertex_min_cut(
        g,
        &sources,
        &sinks,
        VertexCutOptions {
            sources_cuttable: true,
            sinks_cuttable: false,
        },
    )
    // dmc-lint: allow(s1) -- the flow network always admits a finite cut because every source vertex is cuttable by construction; pinned by cut property tests
    .expect("cut always exists when all source vertices are cuttable");
    MinWavefront {
        anchor: x,
        size: cut.size,
        cut,
    }
}

/// Computes `w^max_G = max_x |W^min_G(x)|` over the given anchor sample.
///
/// Passing all vertices gives the exact `w^max` of the paper; for large
/// CDAGs a stratified sample (e.g. one vertex per depth level) is the
/// intended usage and still yields a valid lower bound since every term is.
pub fn max_min_wavefront(g: &Cdag, anchors: &[VertexId]) -> Option<MinWavefront> {
    anchors
        .iter()
        .map(|&x| min_wavefront(g, x))
        .max_by_key(|w| w.size)
}

/// For each prefix of the schedule `order`, the size of the schedule
/// wavefront `W_P(x)` just after firing `order[k]`: the number of fired
/// vertices with an unfired successor, plus the just-fired vertex itself if
/// not already counted (Definition of schedule wavefront, §3.3).
///
/// Runs in `O(|V| + |E|)` by maintaining unfired-successor counts.
pub fn schedule_wavefront_sizes(g: &Cdag, order: &[VertexId]) -> Vec<usize> {
    let n = g.num_vertices();
    let mut remaining: Vec<u32> = (0..n)
        .map(|i| g.out_degree(VertexId(i as u32)) as u32)
        .collect();
    let mut fired = vec![false; n];
    let mut live = 0usize; // fired vertices with >= 1 unfired successor
    let mut out = Vec::with_capacity(order.len());
    for &x in order {
        fired[x.index()] = true;
        // Firing x retires one pending successor from each predecessor.
        for &p in g.predecessors(x) {
            remaining[p.index()] -= 1;
            if remaining[p.index()] == 0 && fired[p.index()] {
                live -= 1;
            }
        }
        if remaining[x.index()] > 0 {
            live += 1;
            out.push(live);
        } else {
            // W_P(x) = {x} ∪ live set; x contributes even with no consumer.
            out.push(live + 1);
        }
    }
    out
}

/// Maximum schedule wavefront over the whole schedule — the peak number of
/// simultaneously-live values, i.e. the minimum storage for this order.
pub fn peak_schedule_wavefront(g: &Cdag, order: &[VertexId]) -> usize {
    schedule_wavefront_sizes(g, order)
        .into_iter()
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CdagBuilder;
    use crate::topo::topological_order;

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
    fn minimal_cut_is_convex() {
        let g = diamond();
        for v in g.vertices() {
            let c = ConvexCut::minimal_around(&g, v);
            assert!(c.is_valid(&g), "minimal cut around {v} must be convex");
            assert!(c.in_s(v));
        }
    }

    #[test]
    fn maximal_cut_is_convex() {
        let g = diamond();
        for v in g.vertices() {
            let c = ConvexCut::maximal_around(&g, v);
            assert!(c.is_valid(&g));
            assert!(c.in_s(v));
        }
    }

    #[test]
    fn invalid_cut_detected() {
        let g = diamond();
        // S = {d} is not predecessor-closed.
        let c = ConvexCut::new(BitSet::from_indices(4, [3]));
        assert!(!c.is_valid(&g));
    }

    #[test]
    fn wavefront_of_prefix() {
        let g = diamond();
        // After firing a and b: both are live (a feeds c, b feeds d).
        let c = ConvexCut::from_prefix(&g, &[VertexId(0), VertexId(1)]);
        assert!(c.is_valid(&g));
        let w = c.wavefront(&g);
        assert_eq!(w.len(), 2);
        // After firing everything the wavefront is empty.
        let all = ConvexCut::from_prefix(&g, &topological_order(&g));
        assert!(all.wavefront(&g).is_empty());
    }

    #[test]
    fn min_wavefront_on_diamond() {
        let g = diamond();
        // Through b: sources {a, b}, sinks {d}. Cutting b alone does not
        // separate (path a -> c -> d), so the cut is {b, a} or {b, c}: 2.
        let w = min_wavefront(&g, VertexId(1));
        assert_eq!(w.size, 2);
        // Through d (no descendants): empty wavefront.
        let w = min_wavefront(&g, VertexId(3));
        assert_eq!(w.size, 0);
    }

    #[test]
    fn wide_fanout_wavefront() {
        // a feeds k independent consumers, each with a private sink: the
        // wavefront through a is 1 (cut a itself).
        let mut b = CdagBuilder::new();
        let a = b.add_input("a");
        for i in 0..5 {
            let m = b.add_op(format!("m{i}"), &[a]);
            let z = b.add_op(format!("z{i}"), &[m]);
            b.tag_output(z);
        }
        let g = b.build().unwrap();
        let w = min_wavefront(&g, a);
        assert_eq!(w.size, 1);
    }

    #[test]
    fn reduction_tree_wavefront_counts_disjoint_paths() {
        // k sources all reduced into one sum vertex, and the sum plus each
        // source also feeds a per-source continuation: through the sum the
        // min cut must sever every source's private path.
        let k = 6;
        let mut b = CdagBuilder::new();
        let srcs: Vec<_> = (0..k).map(|i| b.add_input(format!("s{i}"))).collect();
        let sum = b.add_op("sum", &srcs);
        for (i, &s) in srcs.iter().enumerate() {
            let c = b.add_op(format!("c{i}"), &[s, sum]);
            b.tag_output(c);
        }
        let g = b.build().unwrap();
        let w = min_wavefront(&g, sum);
        // Each source has a disjoint path s_i -> c_i, and sum -> c_i:
        // cut = {s_0..s_{k-1}, sum} = k + 1.
        assert_eq!(w.size, k + 1);
    }

    #[test]
    fn schedule_wavefronts_on_chain() {
        // x0 -> x1 -> x2 -> x3: every prefix has exactly one live value.
        let mut b = CdagBuilder::new();
        let mut prev = b.add_input("x0");
        for i in 1..4 {
            prev = b.add_op(format!("x{i}"), &[prev]);
        }
        b.tag_output(prev);
        let g = b.build().unwrap();
        let order = topological_order(&g);
        assert_eq!(schedule_wavefront_sizes(&g, &order), vec![1, 1, 1, 1]);
        assert_eq!(peak_schedule_wavefront(&g, &order), 1);
    }

    #[test]
    fn schedule_wavefronts_on_diamond() {
        let g = diamond();
        let order = vec![VertexId(0), VertexId(1), VertexId(2), VertexId(3)];
        // after a: {a}; after b: {a, b}; after c: {b, c}; after d: {d}.
        assert_eq!(schedule_wavefront_sizes(&g, &order), vec![1, 2, 2, 1]);
        assert_eq!(peak_schedule_wavefront(&g, &order), 2);
    }

    #[test]
    fn max_min_wavefront_picks_largest() {
        let g = diamond();
        let anchors: Vec<_> = g.vertices().collect();
        let w = max_min_wavefront(&g, &anchors).unwrap();
        assert_eq!(w.size, 2);
    }
}
