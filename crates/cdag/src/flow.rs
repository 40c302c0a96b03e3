//! Dinic max-flow and vertex min-cuts via vertex splitting.
//!
//! The paper's Section 3.3 lower-bounds I/O by the size of a minimum
//! cardinality *wavefront*, which is a **vertex** min-cut between a vertex's
//! ancestor side and descendant side. Similarly, Hong & Kung's S-partition
//! condition P3 asks for the size of a minimum *dominator set*, again a
//! vertex cut between the CDAG inputs and a vertex set.
//!
//! Both reduce to edge max-flow by the classic vertex-splitting construction:
//! every vertex `v` becomes an arc `v_in → v_out` whose capacity is 1 if the
//! cut may pass through `v` and effectively infinite otherwise; every CDAG
//! edge `(u, v)` becomes an infinite-capacity arc `u_out → v_in`. By the
//! max-flow/min-cut theorem (Menger), the max flow equals the minimum number
//! of cuttable vertices meeting every source→sink path.

use crate::bitset::BitSet;
use crate::graph::{Cdag, VertexId};

/// Effectively-infinite arc capacity (large enough that it can never be the
/// bottleneck of a simple-path decomposition, small enough not to overflow).
const INF: u32 = u32::MAX / 4;

/// A directed flow network with residual arcs, solved by Dinic's algorithm
/// with a phase-saturating blocking flow (see [`FlowNetwork::max_flow`]).
///
/// Arcs are stored in pairs: arc `2k` is the forward arc and `2k+1` its
/// residual twin, so the reverse of arc `a` is `a ^ 1`.
///
/// The network is an *arena*: the arc arrays, the CSR adjacency, and the
/// Dinic scratch (level, iterator, queue, path buffers) are all retained
/// across [`FlowNetwork::reset`] calls, so batched workloads — notably the
/// per-anchor min-cuts of [`crate::engine::WavefrontEngine`] — solve
/// thousands of flows without re-allocating.
pub struct FlowNetwork {
    /// Number of nodes.
    n: usize,
    /// Target node of each arc (`to[a ^ 1]` is the source of arc `a`).
    to: Vec<u32>,
    /// Remaining capacity of each arc.
    cap: Vec<u32>,
    /// CSR offsets: arcs leaving node `v` are
    /// `adj_arcs[adj_off[v]..adj_off[v + 1]]`. Built lazily by `max_flow`.
    adj_off: Vec<u32>,
    /// CSR arc index array (insertion order preserved per node).
    adj_arcs: Vec<u32>,
    /// `true` while `adj_off`/`adj_arcs` reflect the current arc set.
    csr_valid: bool,
    /// Cursor scratch for the counting-sort CSR build.
    cursor: Vec<u32>,
    /// BFS level of each node (Dinic scratch).
    level: Vec<u32>,
    /// Current-arc iterator of each node (Dinic scratch).
    it: Vec<u32>,
    /// BFS queue (Dinic scratch).
    queue: Vec<u32>,
    /// Arc stack of the current augmenting path (Dinic scratch).
    path: Vec<u32>,
}

impl FlowNetwork {
    /// Creates a network with `n` nodes and no arcs.
    pub fn new(n: usize) -> Self {
        FlowNetwork {
            n,
            to: Vec::new(),
            cap: Vec::new(),
            adj_off: Vec::new(),
            adj_arcs: Vec::new(),
            csr_valid: false,
            cursor: Vec::new(),
            level: Vec::new(),
            it: Vec::new(),
            queue: Vec::new(),
            path: Vec::new(),
        }
    }

    /// Clears all arcs and re-sizes to `n` nodes, retaining every buffer's
    /// allocation. After a reset the network behaves exactly like
    /// [`FlowNetwork::new`]`(n)`.
    pub fn reset(&mut self, n: usize) {
        self.n = n;
        self.to.clear();
        self.cap.clear();
        self.csr_valid = false;
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Adds a directed arc `u → v` with capacity `c`; returns the arc index.
    pub fn add_arc(&mut self, u: usize, v: usize, c: u32) -> u32 {
        debug_assert!(u < self.n && v < self.n, "arc endpoint out of range");
        let id = self.to.len() as u32;
        self.to.push(v as u32);
        self.cap.push(c);
        self.to.push(u as u32);
        self.cap.push(0);
        self.csr_valid = false;
        id
    }

    /// Builds the CSR adjacency from the arc endpoint array (counting sort;
    /// per-node arc order matches insertion order).
    fn build_csr(&mut self) {
        let n = self.n;
        self.adj_off.clear();
        self.adj_off.resize(n + 1, 0);
        for a in 0..self.to.len() {
            // Arc `a` leaves the node its twin points back to.
            let u = self.to[a ^ 1] as usize;
            self.adj_off[u + 1] += 1;
        }
        for i in 0..n {
            self.adj_off[i + 1] += self.adj_off[i];
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.adj_off[..n]);
        self.adj_arcs.clear();
        self.adj_arcs.resize(self.to.len(), 0);
        for a in 0..self.to.len() {
            let u = self.to[a ^ 1] as usize;
            self.adj_arcs[self.cursor[u] as usize] = a as u32;
            self.cursor[u] += 1;
        }
        self.csr_valid = true;
    }

    /// Arcs leaving node `u` (requires a built CSR).
    #[inline]
    fn arcs_of(&self, u: usize) -> &[u32] {
        &self.adj_arcs[self.adj_off[u] as usize..self.adj_off[u + 1] as usize]
    }

    /// Computes the maximum `s → t` flow (Dinic's algorithm). Capacities are
    /// consumed in place; [`FlowNetwork::reset`] before reusing the arena
    /// for another flow problem.
    ///
    /// Each phase saturates its level graph in one continuous DFS
    /// (Even–Tarjan style), retiring arcs as they are used. That is correct
    /// for arbitrary capacities and `O(E·√V)` in total on unit-capacity
    /// networks — every *finite* arc of the vertex-split wavefront network
    /// has capacity 1.
    pub fn max_flow(&mut self, s: usize, t: usize) -> u64 {
        assert_ne!(s, t, "source and sink must differ");
        if !self.csr_valid {
            self.build_csr();
        }
        let n = self.n;
        let mut flow = 0u64;
        let mut level = std::mem::take(&mut self.level);
        let mut it = std::mem::take(&mut self.it);
        let mut queue = std::mem::take(&mut self.queue);
        level.resize(n, 0);
        it.resize(n, 0);
        loop {
            // BFS to build the level graph.
            level.fill(u32::MAX);
            level[s] = 0;
            queue.clear();
            queue.push(s as u32);
            let mut head = 0;
            while head < queue.len() {
                let u = queue[head] as usize;
                head += 1;
                // Nodes at or beyond the sink's level cannot lie on a
                // shortest augmenting path; once `t` is labeled, the rest of
                // its level (and everything deeper) needs no expansion.
                if level[u] >= level[t] {
                    break;
                }
                for &a in self.arcs_of(u) {
                    let v = self.to[a as usize];
                    if self.cap[a as usize] > 0 && level[v as usize] == u32::MAX {
                        level[v as usize] = level[u] + 1;
                        queue.push(v);
                    }
                }
            }
            if level[t] == u32::MAX {
                break;
            }
            it.fill(0);
            flow += self.blocking_flow(s, t, &level, &mut it);
        }
        self.level = level;
        self.it = it;
        self.queue = queue;
        flow
    }

    /// Saturates the current level graph in a single continuous DFS
    /// (Even–Tarjan style): after each augmentation the search backs up
    /// only to the tail of the shallowest saturated arc instead of
    /// restarting from `s`, and current-arc iterators retire every arc the
    /// moment it is exhausted. On unit-capacity networks every finite-cap
    /// augmentation removes its whole path from the level graph, giving the
    /// `O(E)` -per-phase / `O(E·√V)` total bound. Returns the flow pushed in
    /// this phase.
    fn blocking_flow(&mut self, s: usize, t: usize, level: &[u32], it: &mut [u32]) -> u64 {
        let mut path = std::mem::take(&mut self.path);
        path.clear();
        let mut flow = 0u64;
        let mut u = s;
        loop {
            if u == t {
                // Bottleneck along the path (1 unless the path is all-INF,
                // which signals an unbounded cut to the caller).
                let mut push = u32::MAX;
                for &a in &path {
                    push = push.min(self.cap[a as usize]);
                }
                for &a in &path {
                    self.cap[a as usize] -= push;
                    self.cap[(a ^ 1) as usize] += push;
                }
                flow += push as u64;
                // Back up to just below the shallowest saturated arc; its
                // tail's current-arc check will skip the dead arc.
                let mut keep = 0;
                while keep < path.len() && self.cap[path[keep] as usize] > 0 {
                    keep += 1;
                }
                path.truncate(keep);
                u = path.last().map_or(s, |&a| self.to[a as usize] as usize);
                continue;
            }
            let mut advanced = false;
            while (it[u] as usize) < self.arcs_of(u).len() {
                let a = self.arcs_of(u)[it[u] as usize];
                let v = self.to[a as usize] as usize;
                if self.cap[a as usize] > 0 && level[v] == level[u] + 1 {
                    path.push(a);
                    u = v;
                    advanced = true;
                    break;
                }
                it[u] += 1;
            }
            if !advanced {
                if u == s {
                    self.path = path;
                    return flow;
                }
                // dmc-lint: allow(s1) -- retreat only runs while the DFS path is non-empty (u != s above); an empty pop is unreachable
                let a = path.pop().expect("retreat with non-empty path");
                let parent = self.to[(a ^ 1) as usize] as usize;
                it[parent] += 1;
                u = parent;
            }
        }
    }

    /// Nodes reachable from `s` in the residual network (used to extract the
    /// min cut after [`FlowNetwork::max_flow`]).
    ///
    /// # Panics
    /// Panics if no flow has been solved on the current arc set (the CSR
    /// adjacency is built by `max_flow`).
    pub fn residual_reachable(&self, s: usize) -> BitSet {
        let mut seen = BitSet::new(self.num_nodes());
        let mut stack = Vec::new();
        self.residual_reachable_into(s, &mut seen, &mut stack);
        seen
    }

    /// Scratch-reusing [`FlowNetwork::residual_reachable`]: clears and fills
    /// `seen` (whose capacity must be `num_nodes()`), reusing `stack`.
    pub fn residual_reachable_into(&self, s: usize, seen: &mut BitSet, stack: &mut Vec<u32>) {
        assert!(
            self.csr_valid,
            "residual_reachable requires a prior max_flow on the current arcs"
        );
        assert_eq!(
            seen.capacity(),
            self.num_nodes(),
            "residual scratch bitset must be sized to the node count"
        );
        seen.clear();
        stack.clear();
        seen.insert(s);
        stack.push(s as u32);
        while let Some(u) = stack.pop() {
            for &a in self.arcs_of(u as usize) {
                if self.cap[a as usize] > 0 {
                    let v = self.to[a as usize] as usize;
                    if seen.insert(v) {
                        stack.push(v as u32);
                    }
                }
            }
        }
    }
}

/// Result of a vertex min-cut computation.
#[derive(Debug, Clone)]
pub struct VertexCut {
    /// Minimum number of cuttable vertices meeting every source→sink path.
    pub size: usize,
    /// One minimum cut: the vertices whose removal disconnects.
    pub vertices: Vec<VertexId>,
}

/// Options for [`vertex_min_cut`].
#[derive(Debug, Clone, Copy)]
pub struct VertexCutOptions {
    /// May the cut pass through source vertices themselves?
    pub sources_cuttable: bool,
    /// May the cut pass through sink vertices themselves?
    pub sinks_cuttable: bool,
}

impl Default for VertexCutOptions {
    fn default() -> Self {
        VertexCutOptions {
            sources_cuttable: true,
            sinks_cuttable: false,
        }
    }
}

/// Computes a minimum vertex cut separating `sources` from `sinks` in `g`.
///
/// Returns `None` when no finite cut exists — i.e. some source→sink path
/// passes only through uncuttable vertices (in particular when a vertex is
/// both a source and a sink while marked uncuttable on either side).
///
/// * Wavefront use (paper §3.3): `sources = {x} ∪ Anc(x)`,
///   `sinks = Desc(x)`, sources cuttable, sinks not — the cut is exactly a
///   minimum schedule wavefront through `x` (including `x` itself when it
///   has descendants).
/// * Dominator use (Hong–Kung P3): `sources = I`, `sinks = V_i`, both
///   cuttable — the cut is a minimum dominator set of `V_i`.
pub fn vertex_min_cut(
    g: &Cdag,
    sources: &BitSet,
    sinks: &BitSet,
    opts: VertexCutOptions,
) -> Option<VertexCut> {
    let n = g.num_vertices();
    if sources.is_empty() || sinks.is_empty() {
        return Some(VertexCut {
            size: 0,
            vertices: Vec::new(),
        });
    }
    // Node layout: v_in = 2v, v_out = 2v + 1, super-source = 2n, sink = 2n+1.
    let (s, t) = (2 * n, 2 * n + 1);
    let mut net = FlowNetwork::new(2 * n + 2);
    for v in 0..n {
        let is_src = sources.contains(v);
        let is_snk = sinks.contains(v);
        let cuttable = (!is_src || opts.sources_cuttable) && (!is_snk || opts.sinks_cuttable);
        net.add_arc(2 * v, 2 * v + 1, if cuttable { 1 } else { INF });
    }
    for (u, v) in g.edges() {
        net.add_arc(2 * u.index() + 1, 2 * v.index(), INF);
    }
    for v in sources.iter() {
        net.add_arc(s, 2 * v, INF);
    }
    for v in sinks.iter() {
        net.add_arc(2 * v + 1, t, INF);
    }
    let flow = net.max_flow(s, t);
    if flow >= INF as u64 {
        return None;
    }
    // Cut vertices: split arcs saturated across the residual reachability
    // frontier (v_in reachable from s, v_out not).
    let reach = net.residual_reachable(s);
    let vertices: Vec<VertexId> = (0..n)
        .filter(|&v| reach.contains(2 * v) && !reach.contains(2 * v + 1))
        .map(|v| VertexId(v as u32))
        .collect();
    debug_assert_eq!(vertices.len() as u64, flow, "cut size must equal max flow");
    Some(VertexCut {
        size: flow as usize,
        vertices,
    })
}

/// Warm-started per-anchor wavefront cuts over a fixed CDAG.
///
/// [`vertex_min_cut`] builds the whole split network — arcs, CSR
/// adjacency, and flow — for every anchor, and every BFS phase of its solve
/// walks the *entire* network, including the deep interior of the source
/// and sink regions where the cut can never pass. `WarmCut` removes both
/// costs. The arc *topology* depends only on the graph, so the network is
/// built **once**; per anchor, the configuration is expressed through three
/// vertex roles ([`crate::reach::BatchReach`] computes them word-parallel):
///
/// * **supply** — frontier sources (a successor leaves the source side):
///   their `s → v_in` arcs open at INF. Supplying only the frontier is
///   flow-equivalent to supplying every source, because every source→sink
///   path last leaves the source side at a frontier vertex.
/// * **drain** — frontier sinks (a predecessor is not a sink): their split
///   and `v_out → t` arcs open at INF. The first sink on any path is a
///   frontier sink, and sinks are uncuttable, so paths never need to pass
///   it.
/// * **blocked** — interior sources and sinks: their split arcs close to 0.
///   The canonical minimal cut never passes through them (any path through
///   an interior source also crosses a frontier source that the cut must
///   contain instead), so removing them leaves both the min-cut value and
///   the canonical witness unchanged while every BFS phase, residual scan,
///   and augmenting walk stays inside the *active* region around the cut.
///
/// Per anchor the solver then:
///
/// 1. diffs the new role sets against the previous anchor's with word-wide
///    XOR scans ([`BitSet::xor_blocks`]),
/// 2. retargets the few affected arc capacities — where a capacity drops
///    below its current flow, the excess units are cancelled by walking the
///    flow decomposition back to the super-source and forward to the super-
///    sink one unit at a time —
/// 3. re-augments the retained flow to a new maximum instead of solving
///    from scratch.
///
/// The reported cut is extracted from residual reachability, which yields
/// the canonical (inclusion-minimal, source-side) minimum cut — invariant
/// across *all* maximum flows of a network. Warm-start history therefore
/// cannot leak into results: every call returns exactly what
/// [`vertex_min_cut`] returns for the same source/sink sets, and debug
/// builds assert that against a from-scratch full-network solve.
///
/// The capacity configuration is fixed to the paper's §3.3 wavefront shape:
/// sources cuttable, sinks not (i.e. [`VertexCutOptions::default`]).
pub struct WarmCut {
    /// The split network; arc topology fixed at construction.
    net: FlowNetwork,
    /// `|V|` of the underlying CDAG.
    n: usize,
    /// `|E|` of the underlying CDAG (for arc-id arithmetic).
    num_edges: usize,
    /// Supply (source-frontier) set of the currently-loaded configuration.
    cur_supply: BitSet,
    /// Drain (sink-frontier) set of the currently-loaded configuration.
    cur_drain: BitSet,
    /// Blocked (interior) set of the currently-loaded configuration.
    cur_blocked: BitSet,
    /// Role scratch for [`WarmCut::min_cut`]'s side scan.
    role_supply: BitSet,
    /// Role scratch for [`WarmCut::min_cut`]'s side scan.
    role_drain: BitSet,
    /// Role scratch for [`WarmCut::min_cut`]'s side scan.
    role_blocked: BitSet,
    /// Value of the currently-held flow.
    flow: u64,
    /// `true` once a configuration has been loaded and solved.
    warm: bool,
    /// Residual-reachability scratch.
    reach: BitSet,
    /// DFS/walk scratch.
    stack: Vec<u32>,
    /// Changed-vertex scratch for the diff patcher.
    changed: Vec<u32>,
}

impl WarmCut {
    /// Builds the fixed-topology split network for `g` (all supply/drain
    /// arcs present but closed) and its CSR adjacency, once.
    pub fn new(g: &Cdag) -> Self {
        let n = g.num_vertices();
        let (s, t) = (2 * n, 2 * n + 1);
        let mut net = FlowNetwork::new(2 * n + 2);
        for v in 0..n {
            net.add_arc(2 * v, 2 * v + 1, 1);
        }
        let mut num_edges = 0usize;
        for (u, v) in g.edges() {
            net.add_arc(2 * u.index() + 1, 2 * v.index(), INF);
            num_edges += 1;
        }
        for v in 0..n {
            net.add_arc(s, 2 * v, 0);
        }
        for v in 0..n {
            net.add_arc(2 * v + 1, t, 0);
        }
        net.build_csr();
        WarmCut {
            net,
            n,
            num_edges,
            cur_supply: BitSet::new(n),
            cur_drain: BitSet::new(n),
            cur_blocked: BitSet::new(n),
            role_supply: BitSet::new(n),
            role_drain: BitSet::new(n),
            role_blocked: BitSet::new(n),
            flow: 0,
            warm: false,
            reach: BitSet::new(2 * n + 2),
            stack: Vec::new(),
            changed: Vec::new(),
        }
    }

    /// Arc id of the `v_in → v_out` split arc (arcs were added in a fixed
    /// order at construction, and arc `k` of the insertion order has id
    /// `2k`).
    #[inline]
    fn split_arc(&self, v: usize) -> usize {
        2 * v
    }

    /// Arc id of the super-source supply arc `s → v_in`.
    #[inline]
    fn src_arc(&self, v: usize) -> usize {
        2 * (self.n + self.num_edges + v)
    }

    /// Arc id of the super-sink drain arc `v_out → t`.
    #[inline]
    fn snk_arc(&self, v: usize) -> usize {
        2 * (2 * self.n + self.num_edges + v)
    }

    /// Computes the minimum wavefront-configuration vertex cut separating
    /// `sources` from `sinks` (sources cuttable, sinks not), warm-starting
    /// from the previously solved configuration when one is loaded.
    ///
    /// Returns `None` when no finite cut exists (a vertex is both source
    /// and sink). Results are identical to
    /// [`vertex_min_cut`]`(g, sources, sinks, VertexCutOptions::default())`.
    ///
    /// # Panics
    /// Panics if `g` or the set capacities disagree with the graph this
    /// solver was built for.
    pub fn min_cut(&mut self, g: &Cdag, sources: &BitSet, sinks: &BitSet) -> Option<VertexCut> {
        assert_eq!(
            g.num_vertices(),
            self.n,
            "WarmCut used with a different graph"
        );
        assert_eq!(sources.capacity(), self.n, "source set capacity mismatch");
        assert_eq!(sinks.capacity(), self.n, "sink set capacity mismatch");
        if sources.is_empty() || sinks.is_empty() {
            return Some(VertexCut {
                size: 0,
                vertices: Vec::new(),
            });
        }
        // An overlapping vertex is an uncuttable sink that is also supplied:
        // the full network always reports such configurations unbounded.
        if sources
            .words()
            .iter()
            .zip(sinks.words())
            .any(|(a, b)| a & b != 0)
        {
            return None;
        }
        // Classify each side into frontier vs interior (the word-parallel
        // batch equivalent is `BatchReach`'s role rows).
        let mut supply = std::mem::replace(&mut self.role_supply, BitSet::new(0));
        let mut drain = std::mem::replace(&mut self.role_drain, BitSet::new(0));
        let mut blocked = std::mem::replace(&mut self.role_blocked, BitSet::new(0));
        supply.clear();
        drain.clear();
        blocked.clear();
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
        let out = self.min_cut_roles(&supply, &drain, &blocked);
        self.role_supply = supply;
        self.role_drain = drain;
        self.role_blocked = blocked;
        #[cfg(debug_assertions)]
        {
            // Cross-check the warm frontier-restricted solve against a
            // from-scratch full-network one: the canonical cut must be
            // bit-identical.
            let fresh = vertex_min_cut(g, sources, sinks, VertexCutOptions::default());
            match (&out, &fresh) {
                (Some(got), Some(want)) => {
                    assert_eq!(want.size, got.size, "warm-start flow diverged");
                    assert_eq!(want.vertices, got.vertices, "warm-start witness diverged");
                }
                (None, None) => {}
                // dmc-lint: allow(s1) -- debug-only cross-check; a bounded/unbounded disagreement between the warm and fresh solvers is a solver bug worth dying loudly on
                (got, want) => panic!("warm {got:?} vs fresh {want:?}"),
            }
        }
        out
    }

    /// [`WarmCut::min_cut`] with the role sets precomputed by the caller —
    /// the engine's hot entry, fed directly from
    /// [`crate::reach::BatchReach::fill_supply`] /
    /// [`fill_drain`](crate::reach::BatchReach::fill_drain) /
    /// [`fill_blocked`](crate::reach::BatchReach::fill_blocked) columns
    /// without materializing the full source/sink sets.
    ///
    /// `supply` and `drain` must be disjoint (guaranteed whenever the
    /// underlying source and sink sets are); results are then identical to
    /// [`vertex_min_cut`] on the full sets. Returns `None` if the network
    /// is unbounded (only possible for overlapping roles).
    ///
    /// # Panics
    /// Panics if a role set's capacity disagrees with the graph this solver
    /// was built for.
    pub fn min_cut_roles(
        &mut self,
        supply: &BitSet,
        drain: &BitSet,
        blocked: &BitSet,
    ) -> Option<VertexCut> {
        assert_eq!(supply.capacity(), self.n, "supply set capacity mismatch");
        assert_eq!(drain.capacity(), self.n, "drain set capacity mismatch");
        assert_eq!(blocked.capacity(), self.n, "blocked set capacity mismatch");
        if supply.is_empty() || drain.is_empty() {
            return Some(VertexCut {
                size: 0,
                vertices: Vec::new(),
            });
        }
        let (s, t) = (2 * self.n, 2 * self.n + 1);
        let changed = if self.warm {
            self.cur_supply
                .xor_blocks(supply)
                .chain(self.cur_drain.xor_blocks(drain))
                .chain(self.cur_blocked.xor_blocks(blocked))
                .map(|(_, w)| w.count_ones() as usize)
                .sum::<usize>()
        } else {
            usize::MAX
        };
        if changed > self.n / 2 {
            // Cold (re)load: cheaper than patching when most roles changed.
            self.load_caps(supply, drain, blocked);
        } else {
            self.patch_caps(supply, drain, blocked);
        }
        self.cur_supply.clear();
        self.cur_supply.union_with(supply);
        self.cur_drain.clear();
        self.cur_drain.union_with(drain);
        self.cur_blocked.clear();
        self.cur_blocked.union_with(blocked);
        self.flow += self.net.max_flow(s, t);
        self.warm = true;
        if self.flow >= INF as u64 {
            // Unbounded: poison the warm state so the next call reloads.
            self.warm = false;
            return None;
        }
        self.net
            .residual_reachable_into(s, &mut self.reach, &mut self.stack);
        let reach = &self.reach;
        // Blocked vertices carry zero-capacity split arcs, so the residual
        // frontier trivially crosses them; they are interior to the source
        // or sink side and never part of the canonical cut. Skip them.
        let vertices: Vec<VertexId> = (0..self.n)
            .filter(|&v| {
                reach.contains(2 * v) && !reach.contains(2 * v + 1) && !blocked.contains(v)
            })
            .map(|v| VertexId(v as u32))
            .collect();
        debug_assert_eq!(
            vertices.len() as u64,
            self.flow,
            "cut size must equal max flow"
        );
        Some(VertexCut {
            size: self.flow as usize,
            vertices,
        })
    }

    /// Overwrites every arc capacity for a fresh role configuration and
    /// drops any held flow.
    fn load_caps(&mut self, supply: &BitSet, drain: &BitSet, blocked: &BitSet) {
        for v in 0..self.n {
            let sp = self.split_arc(v);
            self.net.cap[sp] = if blocked.contains(v) {
                0
            } else if drain.contains(v) {
                INF
            } else {
                1
            };
            self.net.cap[sp ^ 1] = 0;
            let sa = self.src_arc(v);
            self.net.cap[sa] = if supply.contains(v) { INF } else { 0 };
            self.net.cap[sa ^ 1] = 0;
            let ka = self.snk_arc(v);
            self.net.cap[ka] = if drain.contains(v) { INF } else { 0 };
            self.net.cap[ka ^ 1] = 0;
        }
        for k in 0..self.num_edges {
            let ea = 2 * (self.n + k);
            self.net.cap[ea] = INF;
            self.net.cap[ea ^ 1] = 0;
        }
        self.flow = 0;
    }

    /// Patches only the arcs of vertices whose role changed relative to the
    /// loaded configuration, cancelling flow where capacity shrinks.
    fn patch_caps(&mut self, supply: &BitSet, drain: &BitSet, blocked: &BitSet) {
        let mut changed = std::mem::take(&mut self.changed);
        changed.clear();
        for (i, mut w) in self
            .cur_supply
            .xor_blocks(supply)
            .chain(self.cur_drain.xor_blocks(drain))
            .chain(self.cur_blocked.xor_blocks(blocked))
        {
            while w != 0 {
                changed.push((i * 64) as u32 + w.trailing_zeros());
                w &= w - 1;
            }
        }
        changed.sort_unstable();
        changed.dedup();
        for &v in &changed {
            let v = v as usize;
            let split_cap = if blocked.contains(v) {
                0
            } else if drain.contains(v) {
                INF
            } else {
                1
            };
            self.retarget(self.split_arc(v), split_cap);
            self.retarget(self.src_arc(v), if supply.contains(v) { INF } else { 0 });
            self.retarget(self.snk_arc(v), if drain.contains(v) { INF } else { 0 });
        }
        self.changed = changed;
    }

    /// Sets arc `a`'s capacity to `new_cap`, first cancelling whatever part
    /// of the current flow exceeds the new capacity so the residual pair
    /// stays consistent (`cap[a] + flow = new_cap`, `cap[a^1] = flow`).
    fn retarget(&mut self, a: usize, new_cap: u32) {
        let f = self.net.cap[a ^ 1];
        if f > new_cap {
            self.cancel_arc(a, f - new_cap);
        }
        let f = self.net.cap[a ^ 1];
        self.net.cap[a] = new_cap - f;
    }

    /// Cancels `units` units of the flow currently crossing arc `a`, walking
    /// each unit of the flow decomposition backward from the arc's tail to
    /// the super-source and forward from its head to the super-sink.
    fn cancel_arc(&mut self, a: usize, units: u32) {
        let (s, t) = (2 * self.n, 2 * self.n + 1);
        let tail = self.net.to[a ^ 1] as usize;
        let head = self.net.to[a] as usize;
        for _ in 0..units {
            self.net.cap[a] += 1;
            self.net.cap[a ^ 1] -= 1;
            // Absorb the inflow excess at `tail` back to s: repeatedly pick
            // an incoming arc still carrying flow (an odd residual arc with
            // positive capacity) and remove one unit from it. The split
            // network is a DAG, so the walk strictly retreats and must end
            // at s by flow conservation.
            let mut u = tail;
            while u != s {
                let b = self.find_flow_arc(u, true);
                self.net.cap[b] -= 1;
                self.net.cap[b ^ 1] += 1;
                u = self.net.to[b] as usize;
            }
            // Symmetrically absorb the outflow excess at `head` forward to t.
            let mut u = head;
            while u != t {
                let b = self.find_flow_arc(u, false);
                self.net.cap[b ^ 1] -= 1;
                self.net.cap[b] += 1;
                u = self.net.to[b] as usize;
            }
            self.flow -= 1;
        }
    }

    /// Finds an arc at `u` carrying flow: with `incoming`, an odd residual
    /// arc of positive capacity (flow on the forward twin *into* `u`);
    /// otherwise an even forward arc whose twin holds flow (*out of* `u`).
    fn find_flow_arc(&self, u: usize, incoming: bool) -> usize {
        let lo = self.net.adj_off[u] as usize;
        let hi = self.net.adj_off[u + 1] as usize;
        for i in lo..hi {
            let b = self.net.adj_arcs[i] as usize;
            let carries = if incoming {
                b & 1 == 1 && self.net.cap[b] > 0
            } else {
                b & 1 == 0 && self.net.cap[b ^ 1] > 0
            };
            if carries {
                return b;
            }
        }
        // Unreachable by flow conservation: a node with excess always has a
        // flow-carrying arc in the walked direction.
        unreachable!("flow conservation violated at node {u}");
    }
}

/// Brute-force check that removing `cut` disconnects all `sources` from all
/// `sinks` (vertices in `cut` are deleted entirely). Test/validation helper.
pub fn is_separating_vertex_set(
    g: &Cdag,
    sources: &BitSet,
    sinks: &BitSet,
    cut: &[VertexId],
) -> bool {
    let n = g.num_vertices();
    let mut removed = BitSet::new(n);
    for &v in cut {
        removed.insert(v.index());
    }
    let mut visited = BitSet::new(n);
    let mut stack: Vec<VertexId> = Vec::new();
    for sidx in sources.iter() {
        if !removed.contains(sidx) && visited.insert(sidx) {
            stack.push(VertexId(sidx as u32));
        }
    }
    while let Some(u) = stack.pop() {
        if sinks.contains(u.index()) {
            return false;
        }
        for &w in g.successors(u) {
            if !removed.contains(w.index()) && visited.insert(w.index()) {
                stack.push(w);
            }
        }
    }
    // Also ensure no *source* that is itself a sink survives uncut.
    sources
        .iter()
        .all(|v| !sinks.contains(v) || removed.contains(v))
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
    fn simple_max_flow() {
        // s -> a -> t and s -> b -> t, unit caps: flow 2.
        let mut net = FlowNetwork::new(4);
        net.add_arc(0, 1, 1);
        net.add_arc(0, 2, 1);
        net.add_arc(1, 3, 1);
        net.add_arc(2, 3, 1);
        assert_eq!(net.max_flow(0, 3), 2);
    }

    #[test]
    fn bottleneck_max_flow() {
        // Two sources of capacity 3 funneled through a single cap-2 arc.
        let mut net = FlowNetwork::new(4);
        net.add_arc(0, 1, 3);
        net.add_arc(1, 2, 2);
        net.add_arc(2, 3, 5);
        assert_eq!(net.max_flow(0, 3), 2);
    }

    #[test]
    fn flow_with_backtracking_path() {
        // Classic Dinic case requiring a residual reroute.
        let mut net = FlowNetwork::new(6);
        net.add_arc(0, 1, 1);
        net.add_arc(0, 2, 1);
        net.add_arc(1, 3, 1);
        net.add_arc(2, 3, 1);
        net.add_arc(1, 4, 1);
        net.add_arc(3, 5, 1);
        net.add_arc(4, 5, 1);
        assert_eq!(net.max_flow(0, 5), 2);
    }

    #[test]
    fn diamond_vertex_cut_is_one_at_source() {
        let g = diamond();
        // Separate a from d: cheapest is to cut a itself (sources cuttable).
        let s = BitSet::from_indices(4, [0]);
        let t = BitSet::from_indices(4, [3]);
        let cut = vertex_min_cut(&g, &s, &t, VertexCutOptions::default()).unwrap();
        assert_eq!(cut.size, 1);
        assert!(is_separating_vertex_set(&g, &s, &t, &cut.vertices));
    }

    #[test]
    fn diamond_vertex_cut_two_when_source_uncuttable() {
        let g = diamond();
        let s = BitSet::from_indices(4, [0]);
        let t = BitSet::from_indices(4, [3]);
        let opts = VertexCutOptions {
            sources_cuttable: false,
            sinks_cuttable: false,
        };
        let cut = vertex_min_cut(&g, &s, &t, opts).unwrap();
        // Must cut both middle vertices b and c.
        assert_eq!(cut.size, 2);
        assert_eq!(cut.vertices, vec![VertexId(1), VertexId(2)]);
        assert!(is_separating_vertex_set(&g, &s, &t, &cut.vertices));
    }

    #[test]
    fn unbounded_cut_reported_none() {
        let g = diamond();
        let s = BitSet::from_indices(4, [0]);
        let t = BitSet::from_indices(4, [0]); // source == sink
        let opts = VertexCutOptions {
            sources_cuttable: false,
            sinks_cuttable: false,
        };
        assert!(vertex_min_cut(&g, &s, &t, opts).is_none());
    }

    #[test]
    fn parallel_chains_cut_counts_width() {
        // k disjoint chains from k sources to k sinks: min cut = k.
        let k = 7;
        let mut b = CdagBuilder::new();
        let mut srcs = Vec::new();
        let mut snks = Vec::new();
        for i in 0..k {
            let a = b.add_input(format!("s{i}"));
            let m = b.add_op(format!("m{i}"), &[a]);
            let z = b.add_op(format!("t{i}"), &[m]);
            b.tag_output(z);
            srcs.push(a.index());
            snks.push(z.index());
        }
        let g = b.build().unwrap();
        let s = BitSet::from_indices(g.num_vertices(), srcs);
        let t = BitSet::from_indices(g.num_vertices(), snks);
        let opts = VertexCutOptions {
            sources_cuttable: false,
            sinks_cuttable: false,
        };
        let cut = vertex_min_cut(&g, &s, &t, opts).unwrap();
        assert_eq!(cut.size, k);
        assert!(is_separating_vertex_set(&g, &s, &t, &cut.vertices));
    }

    /// A max-flow case: node count, arc list, source, sink, known value.
    type FlowCase = (usize, Vec<(usize, usize, u32)>, usize, usize, u64);

    #[test]
    fn max_flow_matches_known_values_on_small_nets() {
        // Hand-solved networks, non-unit and infinite capacities included;
        // each is solved twice on one arena to pin `reset` too.
        let cases: Vec<FlowCase> = vec![
            (4, vec![(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)], 0, 3, 2),
            (4, vec![(0, 1, 3), (1, 2, 2), (2, 3, 5)], 0, 3, 2),
            (
                6,
                vec![
                    (0, 1, 1),
                    (0, 2, 1),
                    (1, 3, 1),
                    (2, 3, 1),
                    (1, 4, 1),
                    (3, 5, 1),
                    (4, 5, 1),
                ],
                0,
                5,
                2,
            ),
            // CLRS Figure 26.1: maximum flow 23, one augmenting path
            // needing a residual reroute.
            (
                6,
                vec![
                    (0, 1, 16),
                    (0, 2, 13),
                    (2, 1, 4),
                    (1, 3, 12),
                    (3, 2, 9),
                    (2, 4, 14),
                    (4, 3, 7),
                    (3, 5, 20),
                    (4, 5, 4),
                ],
                0,
                5,
                23,
            ),
            // Two infinite paths: the sum exceeds `INF`, which callers
            // read as "no finite cut".
            (
                3,
                vec![(0, 1, INF), (1, 2, INF), (0, 2, INF)],
                0,
                2,
                2 * INF as u64,
            ),
        ];
        let mut net = FlowNetwork::new(0);
        for (n, arcs, s, t, want) in cases {
            for _ in 0..2 {
                net.reset(n);
                for &(u, v, c) in &arcs {
                    net.add_arc(u, v, c);
                }
                assert_eq!(net.max_flow(s, t), want, "{arcs:?}");
            }
        }
    }

    #[test]
    fn warm_cut_matches_fresh_over_anchor_sequence() {
        // Sweep every vertex of the diamond as an anchor, twice (the second
        // pass exercises warm transitions back to earlier configurations).
        let g = diamond();
        let n = g.num_vertices();
        let mut warm = WarmCut::new(&g);
        let order = crate::topo::topological_order(&g);
        let mut src = BitSet::new(n);
        let mut snk = BitSet::new(n);
        let mut stack = Vec::new();
        for _ in 0..2 {
            for &x in &order {
                crate::reach::ancestors_into(&g, x, &mut src, &mut stack);
                src.insert(x.index());
                crate::reach::descendants_into(&g, x, &mut snk, &mut stack);
                let got = warm.min_cut(&g, &src, &snk).unwrap();
                let want = vertex_min_cut(&g, &src, &snk, VertexCutOptions::default()).unwrap();
                assert_eq!(got.size, want.size, "anchor {x}");
                assert_eq!(got.vertices, want.vertices, "anchor {x}");
            }
        }
    }

    #[test]
    fn warm_cut_unbounded_reported_none_and_recovers() {
        let g = diamond();
        let mut warm = WarmCut::new(&g);
        let both = BitSet::from_indices(4, [1]);
        // Vertex 1 as both source and sink: sinks are uncuttable, so the
        // s → 1_in → 1_out → t path is all-INF.
        assert!(warm.min_cut(&g, &both, &both).is_none());
        // The solver recovers with a fresh load afterwards.
        let s = BitSet::from_indices(4, [0]);
        let t = BitSet::from_indices(4, [3]);
        let cut = warm.min_cut(&g, &s, &t).unwrap();
        assert_eq!(cut.size, 1);
    }

    #[test]
    fn empty_sets_give_zero_cut() {
        let g = diamond();
        let e = BitSet::new(4);
        let t = BitSet::from_indices(4, [3]);
        let cut = vertex_min_cut(&g, &e, &t, VertexCutOptions::default()).unwrap();
        assert_eq!(cut.size, 0);
    }
}
