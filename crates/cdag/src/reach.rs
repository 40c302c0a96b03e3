//! Ancestor/descendant reachability.
//!
//! The convex-cut machinery of the paper (Section 3.3) anchors each cut at a
//! vertex `x`: `Sx ⊇ {x} ∪ Anc(x)` and `Tx ⊇ Desc(x)`. These traversals are
//! the hot inner loop of the automated min-cut wavefront heuristic, so they
//! operate on bitsets and reuse scratch buffers where it matters.

use crate::bitset::BitSet;
use crate::graph::{Cdag, VertexId};

/// Set of strict ancestors of `v` (excluding `v` itself) as a bitset.
pub fn ancestors(g: &Cdag, v: VertexId) -> BitSet {
    closure(g, v, Direction::Backward)
}

/// Set of strict descendants of `v` (excluding `v` itself) as a bitset.
pub fn descendants(g: &Cdag, v: VertexId) -> BitSet {
    closure(g, v, Direction::Forward)
}

/// Scratch-reusing [`ancestors`]: clears and fills `out` (whose capacity
/// must be `|V|`) instead of allocating, reusing `stack` for the DFS.
pub fn ancestors_into(g: &Cdag, v: VertexId, out: &mut BitSet, stack: &mut Vec<VertexId>) {
    closure_into(g, v, Direction::Backward, out, stack)
}

/// Scratch-reusing [`descendants`]: clears and fills `out` (whose capacity
/// must be `|V|`) instead of allocating, reusing `stack` for the DFS.
pub fn descendants_into(g: &Cdag, v: VertexId, out: &mut BitSet, stack: &mut Vec<VertexId>) {
    closure_into(g, v, Direction::Forward, out, stack)
}

/// `true` if a directed path `u ⇝ v` exists (including `u == v`).
///
/// Allocates fresh scratch per call; use [`reaches_into`] in loops.
pub fn reaches(g: &Cdag, u: VertexId, v: VertexId) -> bool {
    let mut visited = BitSet::new(g.num_vertices());
    let mut stack = Vec::new();
    reaches_into(g, u, v, &mut visited, &mut stack)
}

/// Scratch-reusing [`reaches`]: clears and reuses `visited` (whose capacity
/// must be `|V|`) and `stack` instead of allocating per query, which matters
/// for callers probing many pairs in a loop.
pub fn reaches_into(
    g: &Cdag,
    u: VertexId,
    v: VertexId,
    visited: &mut BitSet,
    stack: &mut Vec<VertexId>,
) -> bool {
    assert_eq!(
        visited.capacity(),
        g.num_vertices(),
        "reaches scratch bitset must be sized to |V|"
    );
    if u == v {
        return true;
    }
    visited.clear();
    stack.clear();
    stack.push(u);
    visited.insert(u.index());
    while let Some(w) = stack.pop() {
        for &s in g.successors(w) {
            if s == v {
                return true;
            }
            if visited.insert(s.index()) {
                stack.push(s);
            }
        }
    }
    false
}

/// Word-parallel ancestor/descendant closures for a *batch* of anchors.
///
/// The per-anchor DFS in [`ancestors_into`]/[`descendants_into`] walks
/// `O(V + E)` pointer-chasing steps per anchor. When many anchors are
/// processed together (as the `WavefrontEngine` does), it is much cheaper to
/// give each vertex a row of `u64` words — one bit per anchor — and compute
/// *all* closures in two topological sweeps whose inner step is a word-wide
/// OR ([`crate::bitset::union_words`]): a reverse sweep propagates "reaches
/// anchor j" along successors, a forward sweep propagates "reached by anchor
/// j" along predecessors. Cost is `O((V + E) · ⌈B/64⌉)` word operations for
/// `B` anchors, i.e. the traversal is amortized across up to 64 anchors per
/// word.
pub struct BatchReach {
    /// `anc[v * stride + w]` bit `b`: vertex `v` reaches anchor `j = 64w + b`
    /// (including `v == x_j`), i.e. `v ∈ {x_j} ∪ Anc(x_j)`.
    anc: Vec<u64>,
    /// `desc[v * stride + w]` bit `b`: anchor `j = 64w + b` *strictly*
    /// reaches vertex `v` (the anchor's own bit is cleared after the sweep),
    /// i.e. `v ∈ Desc(x_j)` — the sink side of anchor `j`.
    desc: Vec<u64>,
    /// Source-frontier rows: bit `j` of `v` set iff `v` is a source of
    /// anchor `j` with at least one successor outside the source side.
    supply: Vec<u64>,
    /// Sink-frontier rows: bit `j` of `v` set iff `v` is a sink of anchor
    /// `j` with at least one predecessor outside the sink side.
    drain: Vec<u64>,
    /// Interior rows: bit `j` of `v` set iff `v` is a non-frontier source
    /// or sink of anchor `j`.
    blocked: Vec<u64>,
    /// Per-lane wavefront width of the closure cut `S = {x_j} ∪ Anc(x_j)`,
    /// i.e. `|supply_j|`.
    anc_cut: Vec<usize>,
    /// Per-lane wavefront width of the closure cut `S = V ∖ Desc(x_j)`:
    /// the vertices outside `Desc(x_j)` with a successor inside it.
    desc_cut: Vec<usize>,
    /// Words per vertex row (`⌈anchors.len() / 64⌉` for the current batch).
    stride: usize,
    /// Anchors of the current batch, in bit order.
    anchors: Vec<VertexId>,
    /// Word-row accumulators reused across sweep steps.
    acc: Vec<u64>,
    hit: Vec<u64>,
}

impl BatchReach {
    /// Creates an empty batch scratch; rows are sized lazily by [`compute`].
    ///
    /// [`compute`]: BatchReach::compute
    pub fn new() -> Self {
        BatchReach {
            anc: Vec::new(),
            desc: Vec::new(),
            supply: Vec::new(),
            drain: Vec::new(),
            blocked: Vec::new(),
            anc_cut: Vec::new(),
            desc_cut: Vec::new(),
            stride: 0,
            anchors: Vec::new(),
            acc: Vec::new(),
            hit: Vec::new(),
        }
    }

    /// Computes ancestor and descendant closures for every anchor in
    /// `anchors` over `g`, given a topological order of `g` (`order` must
    /// list every vertex, parents before children).
    ///
    /// # Panics
    /// Panics if `anchors` is empty or `order.len() != |V|`.
    pub fn compute(&mut self, g: &Cdag, order: &[VertexId], anchors: &[VertexId]) {
        let n = g.num_vertices();
        assert!(!anchors.is_empty(), "BatchReach needs at least one anchor");
        assert_eq!(order.len(), n, "order must cover every vertex");
        let stride = anchors.len().div_ceil(64);
        self.stride = stride;
        self.anchors.clear();
        self.anchors.extend_from_slice(anchors);
        self.anc.clear();
        self.anc.resize(n * stride, 0);
        self.desc.clear();
        self.desc.resize(n * stride, 0);
        self.acc.clear();
        self.acc.resize(stride, 0);
        for (j, x) in anchors.iter().enumerate() {
            self.anc[x.index() * stride + j / 64] |= 1u64 << (j % 64);
            self.desc[x.index() * stride + j / 64] |= 1u64 << (j % 64);
        }
        // Reverse sweep: v reaches x_j iff v == x_j or some successor does.
        for &v in order.iter().rev() {
            let vi = v.index() * stride;
            self.acc.copy_from_slice(&self.anc[vi..vi + stride]);
            for &s in g.successors(v) {
                let si = s.index() * stride;
                crate::bitset::union_words(&mut self.acc, &self.anc[si..si + stride]);
            }
            self.anc[vi..vi + stride].copy_from_slice(&self.acc);
        }
        // Forward sweep: x_j reaches v iff v == x_j or some predecessor is
        // reached.
        for &v in order {
            let vi = v.index() * stride;
            self.acc.copy_from_slice(&self.desc[vi..vi + stride]);
            for &p in g.predecessors(v) {
                let pi = p.index() * stride;
                crate::bitset::union_words(&mut self.acc, &self.desc[pi..pi + stride]);
            }
            self.desc[vi..vi + stride].copy_from_slice(&self.acc);
        }
        // Strip each anchor's own bit: `desc` rows become the strict sink
        // side `Desc(x_j)` (safe post-sweep; seeds were already propagated).
        for (j, x) in anchors.iter().enumerate() {
            self.desc[x.index() * stride + j / 64] &= !(1u64 << (j % 64));
        }
        // Role pass: classify each side's vertices into frontier vs
        // interior, again word-parallel across the batch. A source is
        // *frontier* iff some successor lies outside the source side (so
        // `~AND` over successor rows), a sink is frontier iff some
        // predecessor lies outside the sink side; everything else on a side
        // is interior. [`crate::flow::WarmCut::min_cut_roles`] relies on the
        // flow-equivalence of supplying/draining only the frontier while
        // blocking the interior outright. The same pass tallies the two
        // closure-cut wavefronts behind [`BatchReach::closure_ceiling`]:
        // the supply rows themselves, and the vertices outside the sink
        // side with a successor inside it (`OR` over successor rows).
        self.supply.clear();
        self.supply.resize(n * stride, 0);
        self.drain.clear();
        self.drain.resize(n * stride, 0);
        self.blocked.clear();
        self.blocked.resize(n * stride, 0);
        self.anc_cut.clear();
        self.anc_cut.resize(anchors.len(), 0);
        self.desc_cut.clear();
        self.desc_cut.resize(anchors.len(), 0);
        self.hit.clear();
        self.hit.resize(stride, 0);
        for v in g.vertices() {
            let vi = v.index() * stride;
            self.acc.fill(!0u64);
            self.hit.fill(0);
            for &s in g.successors(v) {
                let si = s.index() * stride;
                crate::bitset::intersect_words(&mut self.acc, &self.anc[si..si + stride]);
                crate::bitset::union_words(&mut self.hit, &self.desc[si..si + stride]);
            }
            for w in 0..stride {
                let a = self.anc[vi + w];
                let supply = a & !self.acc[w];
                self.supply[vi + w] = supply;
                self.blocked[vi + w] = a & self.acc[w];
                tally(&mut self.anc_cut[64 * w..], supply);
                tally(
                    &mut self.desc_cut[64 * w..],
                    self.hit[w] & !self.desc[vi + w],
                );
            }
            self.acc.fill(!0u64);
            for &p in g.predecessors(v) {
                let pi = p.index() * stride;
                crate::bitset::intersect_words(&mut self.acc, &self.desc[pi..pi + stride]);
            }
            for w in 0..stride {
                let d = self.desc[vi + w];
                self.drain[vi + w] = d & !self.acc[w];
                self.blocked[vi + w] |= d & self.acc[w];
            }
        }
    }

    /// Anchors of the most recent [`compute`](BatchReach::compute) batch.
    pub fn anchors(&self) -> &[VertexId] {
        &self.anchors
    }

    /// Upper bound on anchor `j`'s min-cut size: the smaller wavefront of
    /// its two *closure cuts*, `S = {x_j} ∪ Anc(x_j)` (the wavefront is
    /// exactly the supply frontier) and `S = V ∖ Desc(x_j)`. Both cuts
    /// are convex, keep `{x_j} ∪ Anc(x_j)` on the `S` side and `Desc(x_j)`
    /// on the `T` side, so every source→sink path leaves `S` through a
    /// wavefront vertex, none of which is a sink: each wavefront is a
    /// cuttable separator, hence at least the min cut.
    ///
    /// # Panics
    /// Panics if `j` is out of range.
    pub fn closure_ceiling(&self, j: usize) -> usize {
        self.anc_cut[j].min(self.desc_cut[j])
    }

    /// Fills `out` (capacity `|V|`) with `{x_j} ∪ Anc(x_j)` — the source
    /// side of anchor `j`'s split network.
    ///
    /// # Panics
    /// Panics if `j` is out of range or `out` has the wrong capacity.
    pub fn fill_sources(&self, j: usize, out: &mut BitSet) {
        self.fill_column(&self.anc, j, out);
    }

    /// Fills `out` (capacity `|V|`) with the *strict* descendant set
    /// `Desc(x_j)` (the anchor itself excluded) — the sink side of anchor
    /// `j`'s split network.
    ///
    /// # Panics
    /// Panics if `j` is out of range or `out` has the wrong capacity.
    pub fn fill_sinks(&self, j: usize, out: &mut BitSet) {
        self.fill_column(&self.desc, j, out);
    }

    /// Fills `out` (capacity `|V|`) with anchor `j`'s *source frontier*: the
    /// sources with at least one successor outside the source side (always
    /// including the anchor itself when it has descendants). Feeding supply
    /// only here is flow-equivalent to supplying every source, because the
    /// source side has no in-edges from outside and every source reaches the
    /// anchor — so every source→sink path last leaves the source side at a
    /// frontier vertex.
    ///
    /// # Panics
    /// Panics if `j` is out of range or `out` has the wrong capacity.
    pub fn fill_supply(&self, j: usize, out: &mut BitSet) {
        self.fill_column(&self.supply, j, out);
    }

    /// Fills `out` (capacity `|V|`) with anchor `j`'s *sink frontier*: the
    /// sinks with at least one predecessor outside the sink side. Draining
    /// only here is flow-equivalent to draining every sink: the first sink
    /// on any source→sink path is a frontier sink, and sinks are uncuttable,
    /// so paths never need to continue past it. Empty iff the sink side is
    /// empty.
    ///
    /// # Panics
    /// Panics if `j` is out of range or `out` has the wrong capacity.
    pub fn fill_drain(&self, j: usize, out: &mut BitSet) {
        self.fill_column(&self.drain, j, out);
    }

    /// Fills `out` (capacity `|V|`) with anchor `j`'s *interior* vertices:
    /// sources whose successors all stay on the source side plus sinks whose
    /// predecessors are all sinks. The minimal canonical min-cut never
    /// passes through them, so the flow solver removes them from the network
    /// entirely (capacity-0 split arcs), shrinking every BFS phase to the
    /// active region around the cut.
    ///
    /// # Panics
    /// Panics if `j` is out of range or `out` has the wrong capacity.
    pub fn fill_blocked(&self, j: usize, out: &mut BitSet) {
        self.fill_column(&self.blocked, j, out);
    }

    /// Transposes column `j` of a packed row matrix into a vertex bitset.
    fn fill_column(&self, rows: &[u64], j: usize, out: &mut BitSet) {
        assert!(j < self.anchors.len(), "anchor index {j} out of batch");
        let n = rows.len() / self.stride.max(1);
        assert_eq!(out.capacity(), n, "output bitset must be sized to |V|");
        let (jw, jb) = (j / 64, j % 64);
        for block in 0..n.div_ceil(64) {
            let base = block * 64;
            let mut word = 0u64;
            for v in base..(base + 64).min(n) {
                word |= ((rows[v * self.stride + jw] >> jb) & 1) << (v - base);
            }
            out.set_block(block, word);
        }
    }
}

/// Adds one to `counts[b]` for every set bit `b` of `word`.
fn tally(counts: &mut [usize], mut word: u64) {
    while word != 0 {
        counts[word.trailing_zeros() as usize] += 1;
        word &= word - 1;
    }
}

impl Default for BatchReach {
    fn default() -> Self {
        Self::new()
    }
}

#[derive(Clone, Copy)]
enum Direction {
    Forward,
    Backward,
}

fn neighbors(g: &Cdag, v: VertexId, dir: Direction) -> &[VertexId] {
    match dir {
        Direction::Forward => g.successors(v),
        Direction::Backward => g.predecessors(v),
    }
}

fn closure(g: &Cdag, v: VertexId, dir: Direction) -> BitSet {
    let mut out = BitSet::new(g.num_vertices());
    let mut stack = Vec::new();
    closure_into(g, v, dir, &mut out, &mut stack);
    out
}

fn closure_into(
    g: &Cdag,
    v: VertexId,
    dir: Direction,
    out: &mut BitSet,
    stack: &mut Vec<VertexId>,
) {
    assert_eq!(
        out.capacity(),
        g.num_vertices(),
        "closure scratch bitset must be sized to |V|"
    );
    out.clear();
    stack.clear();
    stack.push(v);
    while let Some(u) = stack.pop() {
        for &w in neighbors(g, u, dir) {
            if out.insert(w.index()) {
                stack.push(w);
            }
        }
    }
}

/// All-pairs reachability for small graphs: `result[u]` is the forward
/// closure of `{u}` including `u`. Quadratic memory — intended for the
/// exhaustive validators and tests, not production-size CDAGs.
pub fn all_pairs_reachability(g: &Cdag) -> Vec<BitSet> {
    let n = g.num_vertices();
    let order = crate::topo::topological_order(g);
    let mut reach: Vec<BitSet> = (0..n).map(|_| BitSet::new(n)).collect();
    // Process in reverse topological order so successors are complete.
    for &v in order.iter().rev() {
        let mut r = BitSet::new(n);
        r.insert(v.index());
        for &s in g.successors(v) {
            r.union_with(&reach[s.index()]);
        }
        reach[v.index()] = r;
    }
    reach
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CdagBuilder;

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
    fn ancestors_descendants_diamond() {
        let g = diamond();
        let (a, b, c, d) = (VertexId(0), VertexId(1), VertexId(2), VertexId(3));
        assert!(ancestors(&g, a).is_empty());
        assert_eq!(ancestors(&g, d).iter().count(), 3);
        assert_eq!(descendants(&g, a).iter().count(), 3);
        assert!(descendants(&g, d).is_empty());
        assert_eq!(ancestors(&g, b).iter().collect::<Vec<_>>(), vec![a.index()]);
        assert_eq!(
            descendants(&g, c).iter().collect::<Vec<_>>(),
            vec![d.index()]
        );
    }

    #[test]
    fn into_variants_match_and_reset_scratch() {
        let g = diamond();
        let mut out = BitSet::new(g.num_vertices());
        let mut stack = Vec::new();
        for v in g.vertices() {
            ancestors_into(&g, v, &mut out, &mut stack);
            assert_eq!(out, ancestors(&g, v), "ancestors_into({v})");
            descendants_into(&g, v, &mut out, &mut stack);
            assert_eq!(out, descendants(&g, v), "descendants_into({v})");
        }
    }

    #[test]
    fn reaches_works() {
        let g = diamond();
        let (a, b, c, d) = (VertexId(0), VertexId(1), VertexId(2), VertexId(3));
        assert!(reaches(&g, a, d));
        assert!(reaches(&g, a, a));
        assert!(!reaches(&g, d, a));
        assert!(!reaches(&g, b, c));
    }

    #[test]
    fn reaches_into_matches_reaches() {
        let g = diamond();
        let mut visited = BitSet::new(g.num_vertices());
        let mut stack = Vec::new();
        for u in g.vertices() {
            for v in g.vertices() {
                assert_eq!(
                    reaches_into(&g, u, v, &mut visited, &mut stack),
                    reaches(&g, u, v),
                    "mismatch for {u} -> {v}"
                );
            }
        }
    }

    #[test]
    fn batch_reach_matches_per_anchor_dfs() {
        // Chain with cross-links: enough vertices (> 64) that a full-graph
        // anchor batch needs two words per row, exercising the multi-word
        // union path.
        let mut b = CdagBuilder::new();
        let mut prev = b.add_input("i");
        let mut third = prev;
        for k in 1..90u32 {
            let v = if k % 3 == 0 {
                let v = b.add_op("op", &[prev, third]);
                third = v;
                v
            } else {
                b.add_op("op", &[prev])
            };
            prev = v;
        }
        b.tag_output(prev);
        let g = b.build().unwrap();
        let order = crate::topo::topological_order(&g);
        let anchors: Vec<VertexId> = g.vertices().collect();
        let mut batch = BatchReach::new();
        batch.compute(&g, &order, &anchors);
        let mut src = BitSet::new(g.num_vertices());
        let mut snk = BitSet::new(g.num_vertices());
        let mut expect = BitSet::new(g.num_vertices());
        let mut stack = Vec::new();
        for (j, &x) in anchors.iter().enumerate() {
            batch.fill_sources(j, &mut src);
            ancestors_into(&g, x, &mut expect, &mut stack);
            expect.insert(x.index());
            assert_eq!(src, expect, "sources of anchor {x}");
            batch.fill_sinks(j, &mut snk);
            descendants_into(&g, x, &mut expect, &mut stack);
            assert_eq!(snk, expect, "sinks of anchor {x}");
        }
    }

    #[test]
    fn batch_reach_roles_match_brute_force() {
        let mut b = CdagBuilder::new();
        let mut prev = b.add_input("i");
        let mut third = prev;
        for k in 1..70u32 {
            let v = if k % 4 == 0 {
                let v = b.add_op("op", &[prev, third]);
                third = v;
                v
            } else {
                b.add_op("op", &[prev])
            };
            prev = v;
        }
        b.tag_output(prev);
        let g = b.build().unwrap();
        let n = g.num_vertices();
        let order = crate::topo::topological_order(&g);
        let anchors: Vec<VertexId> = g.vertices().collect();
        let mut batch = BatchReach::new();
        batch.compute(&g, &order, &anchors);
        let mut got = BitSet::new(n);
        let mut sources = BitSet::new(n);
        let mut sinks = BitSet::new(n);
        let mut stack = Vec::new();
        for (j, &x) in anchors.iter().enumerate() {
            ancestors_into(&g, x, &mut sources, &mut stack);
            sources.insert(x.index());
            descendants_into(&g, x, &mut sinks, &mut stack);
            let mut supply = BitSet::new(n);
            let mut drain = BitSet::new(n);
            let mut blocked = BitSet::new(n);
            for v in sources.iter() {
                let frontier = g
                    .successors(VertexId(v as u32))
                    .iter()
                    .any(|s| !sources.contains(s.index()));
                if frontier {
                    supply.insert(v);
                } else {
                    blocked.insert(v);
                }
            }
            for v in sinks.iter() {
                let frontier = g
                    .predecessors(VertexId(v as u32))
                    .iter()
                    .any(|p| !sinks.contains(p.index()));
                if frontier {
                    drain.insert(v);
                } else {
                    blocked.insert(v);
                }
            }
            batch.fill_supply(j, &mut got);
            assert_eq!(got, supply, "supply of anchor {x}");
            batch.fill_drain(j, &mut got);
            assert_eq!(got, drain, "drain of anchor {x}");
            batch.fill_blocked(j, &mut got);
            assert_eq!(got, blocked, "blocked of anchor {x}");
            let lo = crate::cut::ConvexCut::minimal_around(&g, x).wavefront(&g);
            let hi = crate::cut::ConvexCut::maximal_around(&g, x).wavefront(&g);
            assert_eq!(
                lo.len(),
                supply.len(),
                "supply is the minimal cut's wavefront"
            );
            assert_eq!(
                batch.closure_ceiling(j),
                lo.len().min(hi.len()),
                "closure ceiling of anchor {x}"
            );
        }
    }

    #[test]
    fn batch_reach_small_batch_single_word() {
        let g = diamond();
        let order = crate::topo::topological_order(&g);
        let mut batch = BatchReach::new();
        batch.compute(&g, &order, &[VertexId(0), VertexId(3)]);
        let mut s = BitSet::new(4);
        batch.fill_sources(0, &mut s);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0]);
        batch.fill_sinks(0, &mut s);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 2, 3]);
        batch.fill_sources(1, &mut s);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        batch.fill_sinks(1, &mut s);
        assert!(s.is_empty());
    }

    #[test]
    fn all_pairs_matches_reaches() {
        let g = diamond();
        let ap = all_pairs_reachability(&g);
        for u in g.vertices() {
            for v in g.vertices() {
                assert_eq!(
                    ap[u.index()].contains(v.index()),
                    reaches(&g, u, v),
                    "mismatch for {u} -> {v}"
                );
            }
        }
    }
}
