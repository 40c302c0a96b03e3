//! Parallel batched wavefront engine — `w^max` at production scale.
//!
//! Lemma 2 of the paper (§3.3) needs `w^max = max_x |W^min(x)|`, which is
//! one vertex min-cut per anchor `x`. The naive loop solves `|V|`
//! independent Dinic max-flows, each rebuilding the `2n + 2`-node split
//! network and re-deriving the ancestor/descendant bitsets from scratch.
//! Those flows share no state, so the problem is embarrassingly parallel —
//! but a useful engine has to get four things right:
//!
//! 1. **Batched reachability.** Anchors are handed to workers in batches of
//!    up to [`BATCH_WIDTH`]; one pair of word-parallel topological sweeps
//!    ([`BatchReach`]) computes every anchor's ancestor/descendant closure
//!    at once, amortizing the `O(|V| + |E|)` traversal across the batch
//!    instead of running one DFS per anchor.
//! 2. **Warm-started flows.** Within a batch, anchors are visited in
//!    topological order (after one out-of-order first solve, see 4), so
//!    consecutive split networks differ in only a few vertex sides. Each
//!    worker owns one [`WarmCut`] solver that patches those differences
//!    and re-augments the retained flow instead of solving from scratch
//!    (debug builds cross-check every warm solve against a fresh one).
//! 3. **Deterministic merge.** Workers race on a shared batch queue, but
//!    the result is merged by `(cut size, anchor position)` — exactly the
//!    tie-break of the serial baseline's `max_by_key` (last maximum wins) —
//!    and the per-anchor cut witness is the canonical minimal source-side
//!    cut, so the engine returns *bit-identical* results at any thread
//!    count.
//! 4. **Best-so-far pruning.** Anchors are scheduled by a cheap per-depth
//!    *level-cut width* estimate (an upper bound on `|W^min(x)|`, see
//!    [`WavefrontEngine::anchor_estimate`]); the winner is the maximum by
//!    `(cut size, anchor position)`, so an anchor with ceiling `e` at
//!    position `p` can contribute at most `(e, p)` — it is skipped without
//!    touching the flow network whenever `(e, p)` is lexicographically
//!    below the best completed `(size, position)`. A whole batch is
//!    skipped before its reachability sweep when its `(max estimate, max
//!    position)` is dominated; after the sweep each anchor's ceiling
//!    tightens to the smaller of its level estimate and its two
//!    closure-cut wavefronts ([`BatchReach::closure_ceiling`]). Each batch
//!    then solves its lane with the largest `(ceiling, position)` first.
//!    Where that ceiling is tight, this one solve dominates every other
//!    lane, including the rest of its tie class (their positions are
//!    lower); in topological order alone, the adaptive coarse pass on a
//!    ladder or pyramid climbs to the same winner one slightly larger cut
//!    at a time. The remaining lanes keep descending topological order
//!    for the warm starts, and at one thread this never solves an anchor
//!    that topological order alone would skip (see the worker's lane
//!    order). Because only provably-dominated anchors are skipped, pruning
//!    preserves both the maximum and the deterministic tie-break.
//!
//! The engine also hosts the adaptive sampling mode
//! ([`WavefrontEngine::run_adaptive`]): a per-level coarse pass followed by
//! exhaustive refinement of the depth neighbourhood of the best anchor.
//! Both modes have *floored* variants ([`WavefrontEngine::run_above`],
//! [`WavefrontEngine::run_adaptive_above`]) for callers that only care
//! about wavefronts larger than a known floor — e.g. a Lemma-2 bound that
//! must beat an incumbent bound to matter.
//!
//! [`BatchReach`]: crate::reach::BatchReach
//! [`WarmCut`]: crate::flow::WarmCut

use crate::bitset::BitSet;
use crate::cut::MinWavefront;
use crate::flow::{VertexCut, WarmCut};
use crate::graph::{Cdag, VertexId};
use crate::reach::BatchReach;
use crate::topo::{depths, topological_order};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Maximum anchors per worker batch: one `u64` lane per anchor in the
/// word-parallel reachability sweep.
pub const BATCH_WIDTH: usize = 64;

/// Packs a `(cut size, anchor position)` pair into one `u64` whose numeric
/// order is the pair's lexicographic order, so the workers' shared best can
/// live in a single atomic updated with `fetch_max`.
#[inline]
fn pack(size: usize, pos: u32) -> u64 {
    ((size as u64) << 32) | pos as u64
}

/// Result of one engine batch: the winning wavefront plus work accounting.
#[derive(Debug, Clone)]
pub struct EngineRun {
    /// The maximum minimum-wavefront over the batch (`None` for an empty
    /// anchor set). Identical — size, anchor, and witness cut — to the
    /// serial [`crate::cut::max_min_wavefront`] at any thread count. The
    /// floored runs return it only when its size exceeds a non-zero floor
    /// (`None` otherwise), and then it is still that identical maximum.
    pub best: Option<MinWavefront>,
    /// Anchors handed to the engine (adaptive mode: both phases).
    pub anchors_considered: usize,
    /// Max-flows actually solved; the difference to `anchors_considered`
    /// is the number of anchors eliminated by best-so-far pruning. Unlike
    /// `best`, this diagnostic can vary slightly with thread timing: a
    /// worker may start a borderline anchor before another worker
    /// publishes the best-so-far that would have pruned it.
    pub anchors_evaluated: usize,
}

/// Per-worker scratch: one warm-started flow solver plus the batched
/// reachability rows, reused across every batch the worker processes.
struct AnchorScratch {
    warm: WarmCut,
    batch: BatchReach,
    supply: BitSet,
    drain: BitSet,
    blocked: BitSet,
    /// Anchor vertices of the current batch (parallel to the sweep lanes).
    xs: Vec<VertexId>,
}

impl AnchorScratch {
    fn new(g: &Cdag) -> Self {
        let n = g.num_vertices();
        AnchorScratch {
            warm: WarmCut::new(g),
            batch: BatchReach::new(),
            supply: BitSet::new(n),
            drain: BitSet::new(n),
            blocked: BitSet::new(n),
            xs: Vec::new(),
        }
    }

    /// [`crate::cut::min_wavefront`] for lane `j` of the current batch,
    /// warm-started from whatever configuration the solver last held and
    /// restricted to the frontier roles of the batch sweep.
    #[cfg_attr(not(debug_assertions), allow(unused_variables))]
    fn min_wavefront(&mut self, g: &Cdag, j: usize, x: VertexId) -> MinWavefront {
        self.batch.fill_drain(j, &mut self.drain);
        // The drain is empty exactly when the sink side is: every non-empty
        // sink side contains a successor of the anchor, whose predecessor
        // `x` is no sink — a frontier sink.
        if self.drain.is_empty() {
            return MinWavefront {
                anchor: x,
                size: 0,
                cut: VertexCut {
                    size: 0,
                    vertices: Vec::new(),
                },
            };
        }
        self.batch.fill_supply(j, &mut self.supply);
        self.batch.fill_blocked(j, &mut self.blocked);
        let cut = self
            .warm
            .min_cut_roles(&self.supply, &self.drain, &self.blocked)
            // dmc-lint: allow(s1) -- same invariant as cut.rs: all source vertices cuttable, so the anchored min cut exists; pinned by engine-vs-serial tests
            .expect("cut always exists when all source vertices are cuttable");
        #[cfg(debug_assertions)]
        {
            // Cross-check the warm frontier-restricted solve against a
            // from-scratch full-network solve of the same anchor.
            let n = g.num_vertices();
            let mut sources = BitSet::new(n);
            let mut sinks = BitSet::new(n);
            self.batch.fill_sources(j, &mut sources);
            self.batch.fill_sinks(j, &mut sinks);
            let fresh = crate::flow::vertex_min_cut(
                g,
                &sources,
                &sinks,
                crate::flow::VertexCutOptions::default(),
            );
            // dmc-lint: allow(s1) -- debug-only cross-check: the warm solve just proved this anchor's cut finite, so the fresh solve of the same sets is too
            let fresh = fresh.expect("fresh solve bounded while warm solve was");
            assert_eq!(fresh.size, cut.size, "warm-start flow diverged at {x}");
            assert_eq!(
                fresh.vertices, cut.vertices,
                "warm-start witness diverged at {x}"
            );
        }
        MinWavefront {
            anchor: x,
            size: cut.size,
            cut,
        }
    }
}

/// Batched, multi-threaded `max_x |W^min(x)|` solver over a fixed CDAG.
///
/// Construction precomputes the depth levels and the per-level pruning
/// estimates once (`O(|V| + |E|)`); each [`WavefrontEngine::run`] then fans
/// the anchor batch out over scoped worker threads.
///
/// ```
/// use dmc_cdag::builder::CdagBuilder;
/// use dmc_cdag::engine::WavefrontEngine;
///
/// let mut b = CdagBuilder::new();
/// let a = b.add_input("a");
/// let x = b.add_op("x", &[a]);
/// let y = b.add_op("y", &[a]);
/// let d = b.add_op("d", &[x, y]);
/// b.tag_output(d);
/// let g = b.build().unwrap();
///
/// let anchors: Vec<_> = g.vertices().collect();
/// let parallel = WavefrontEngine::new(&g).with_threads(4).run(&anchors);
/// let serial = WavefrontEngine::new(&g).with_threads(1).run(&anchors);
/// // The winning wavefront is identical at any worker count.
/// assert_eq!(
///     parallel.best.as_ref().unwrap().size,
///     serial.best.as_ref().unwrap().size,
/// );
/// assert_eq!(parallel.anchors_considered, 4);
/// ```
pub struct WavefrontEngine<'g> {
    g: &'g Cdag,
    threads: usize,
    depth: Vec<u32>,
    /// `level_cut_width[d]` = size of the wavefront of the depth-`d` level
    /// cut — an upper bound on `|W^min(x)|` for every anchor at depth `d`.
    level_cut_width: Vec<usize>,
    /// A topological order of `g`, shared by every worker's batched
    /// reachability sweeps.
    order: Vec<VertexId>,
    /// Inverse of `order`: `topo_pos[v]` is `v`'s position in it. Batches
    /// visit anchors in this order so consecutive warm-started split
    /// networks differ in as few vertex sides as possible.
    topo_pos: Vec<u32>,
}

impl<'g> WavefrontEngine<'g> {
    /// Builds an engine for `g` with automatic thread count
    /// (`std::thread::available_parallelism`).
    pub fn new(g: &'g Cdag) -> Self {
        let depth = depths(g);
        let max_d = depth.iter().copied().max().unwrap_or(0) as usize;
        // Difference array over depth: a vertex `v` with successors is live
        // across every level cut `d` with `depth(v) <= d < max depth over
        // successors(v)`.
        let mut diff = vec![0i64; max_d + 2];
        for v in g.vertices() {
            let hi = g
                .successors(v)
                .iter()
                .map(|s| depth[s.index()] as usize)
                .max();
            if let Some(hi) = hi {
                diff[depth[v.index()] as usize] += 1;
                diff[hi] -= 1;
            }
        }
        let mut level_cut_width = vec![0usize; max_d + 1];
        let mut acc = 0i64;
        for (d, w) in level_cut_width.iter_mut().enumerate() {
            acc += diff[d];
            *w = acc as usize;
        }
        let order = topological_order(g);
        let mut topo_pos = vec![0u32; g.num_vertices()];
        for (i, v) in order.iter().enumerate() {
            topo_pos[v.index()] = i as u32;
        }
        WavefrontEngine {
            g,
            threads: 0,
            depth,
            level_cut_width,
            order,
            topo_pos,
        }
    }

    /// Sets the worker-thread count; `0` selects
    /// `std::thread::available_parallelism`.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The resolved worker count for a batch of `batch` anchors.
    fn resolved_threads(&self, batch: usize) -> usize {
        let auto = || {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        };
        let t = if self.threads == 0 {
            auto()
        } else {
            self.threads
        };
        t.clamp(1, batch.max(1))
    }

    /// Cheap upper bound on `|W^min(x)|`: the wavefront size of the *level
    /// cut* at `depth(x)` (`S = {v : depth(v) ≤ depth(x)}`). That cut is
    /// convex, its `S` side contains `{x} ∪ Anc(x)`, its `T` side contains
    /// `Desc(x)`, and none of its wavefront vertices lie in `Desc(x)` — so
    /// its wavefront is a valid (cuttable) separating set for the anchored
    /// min-cut problem, hence an upper bound on the min cut.
    pub fn anchor_estimate(&self, x: VertexId) -> usize {
        self.level_cut_width[self.depth[x.index()] as usize]
    }

    /// The widest level cut: an upper bound on `|W^min(x)|` for *every*
    /// anchor (see [`WavefrontEngine::anchor_estimate`]), so no run of this
    /// engine can return a larger wavefront. Free after construction.
    pub fn ceiling(&self) -> usize {
        self.level_cut_width.iter().copied().max().unwrap_or(0)
    }

    /// Computes `max_x |W^min(x)|` over `anchors` — the parallel, pruned
    /// equivalent of [`crate::cut::max_min_wavefront`]. Results (size,
    /// winning anchor, witness cut) are identical to the serial baseline at
    /// any thread count.
    pub fn run(&self, anchors: &[VertexId]) -> EngineRun {
        self.run_above(anchors, 0)
    }

    /// [`WavefrontEngine::run`] for callers that only need wavefronts
    /// larger than `floor`: pruning starts at `(floor, ∞)`, so anchors
    /// whose ceiling is at most `floor` are skipped outright, and `best`
    /// is `None` unless the maximum exceeds `floor` — in which case it is
    /// exactly [`WavefrontEngine::run`]'s result. `floor = 0` is `run`
    /// itself (which still returns a size-0 maximum).
    pub fn run_above(&self, anchors: &[VertexId], floor: usize) -> EngineRun {
        if anchors.is_empty() {
            return EngineRun {
                best: None,
                anchors_considered: 0,
                anchors_evaluated: 0,
            };
        }
        // Schedule positions largest-estimate-first so the global best
        // rises early and pruning bites; the sort is stable, and the merge
        // below is order-independent anyway. The schedule is then chunked
        // into batches of at most `BATCH_WIDTH` anchors; *within* a batch,
        // anchors are reordered by *descending* topological position, so
        // each worker's warm-started solver patches minimal side diffs
        // between consecutive anchors. Once a batch's sweep has tightened
        // the ceilings, the worker solves the lane with the largest
        // `(ceiling, position)` ahead of that order: on graphs whose cuts
        // widen with depth it is the winner, and it dominates the rest of
        // the batch at once (see `worker`). Per-batch maxima let a worker
        // drop a dominated batch before paying for its reachability sweep.
        let mut sched: Vec<u32> = (0..anchors.len() as u32).collect();
        sched.sort_by_key(|&i| std::cmp::Reverse(self.anchor_estimate(anchors[i as usize])));
        let mut batches: Vec<(usize, usize, usize, u32)> = Vec::new();
        for start in (0..sched.len()).step_by(BATCH_WIDTH) {
            let end = (start + BATCH_WIDTH).min(sched.len());
            // The chunk's max estimate is its first entry's (sorted above).
            let max_est = self.anchor_estimate(anchors[sched[start] as usize]);
            let max_pos = sched[start..end].iter().copied().max().unwrap_or(0);
            sched[start..end]
                .sort_by_key(|&i| std::cmp::Reverse(self.topo_pos[anchors[i as usize].index()]));
            batches.push((start, end, max_est, max_pos));
        }
        let sched = sched; // frozen; workers only read
        let next = AtomicUsize::new(0);
        // Shared lexicographic best `(size, position)`, packed so that
        // `fetch_max` is the whole synchronization story. A non-zero floor
        // enters as `(floor, ∞)`, which dominates every anchor whose
        // ceiling merely ties it; floor 0 keeps `(0, 0)` so an all-zero run
        // still finds the serial argmax. Ceilings never exceed `|V| < 2³²`,
        // so clamping the floor there loses nothing.
        let seed = match floor {
            0 => pack(0, 0),
            f => pack(f.min(u32::MAX as usize), u32::MAX),
        };
        let best = AtomicU64::new(seed);
        let evaluated = AtomicUsize::new(0);
        let threads = self.resolved_threads(batches.len());
        let locals: Vec<Option<(usize, MinWavefront)>> = if threads == 1 {
            vec![self.worker(anchors, &sched, &batches, &next, &best, &evaluated)]
        } else {
            // dmc-lint: allow(s2) -- workers share the pruning atomic (best), which fan_out_indexed cannot express; the merge below is a max over unique (size, position) keys, so it is scheduling-independent, and `engine_matches_serial_on_diamond_and_lumpy` pins it
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        scope.spawn(|| {
                            self.worker(anchors, &sched, &batches, &next, &best, &evaluated)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    // dmc-lint: allow(s1) -- a worker panic is a bug in the engine itself; re-raising it on the caller thread is the only sound handling
                    .map(|h| h.join().expect("wavefront worker panicked"))
                    .collect()
            })
        };
        // Deterministic merge: max by (size, anchor position). Matches the
        // serial `max_by_key`, which returns the *last* maximal element.
        let best = locals
            .into_iter()
            .flatten()
            .max_by_key(|(pos, w)| (w.size, *pos))
            .map(|(_, w)| w)
            .filter(|w| floor == 0 || w.size > floor);
        EngineRun {
            best,
            anchors_considered: anchors.len(),
            anchors_evaluated: evaluated.load(Ordering::Relaxed),
        }
    }

    /// One worker: pull anchor *batches* off the shared queue, sweep the
    /// batch's reachability closures word-parallel, then prune and solve
    /// each anchor warm-started, keeping the local `(position, wavefront)`
    /// maximum.
    ///
    /// **Lane order.** After the sweep each lane has a pruning key
    /// `pack(ceiling, position)`. The lane with the largest key is solved
    /// first; the rest follow in the batch's descending topological order,
    /// each skipped while its key is below the shared best. The adaptive
    /// coarse pass has one anchor per depth level, so on a graph whose
    /// level cuts widen toward its middle, descending topological order is
    /// ascending-ceiling order: each solve beats the last by one and
    /// nothing is pruned. Where the top lane's ceiling equals its cut
    /// (ladders, pyramids, GMRES), solving it first prunes the rest of the
    /// batch. Only that one lane leaves topological order: a full sort by
    /// key breaks the locality that warm starts rely on, and where
    /// ceilings are loose (CG) it costs more than it saves.
    ///
    /// **Never more solves at one thread.** With one worker, this order
    /// solves a subset of the anchors that plain descending topological
    /// order solves. By induction over lanes and batches, the packed best
    /// here is never below that order's at the same point (each anchor's
    /// cut size does not depend on the order):
    /// - a lane that order solves before the top lane contributes
    ///   `pack(size, position) ≤ its key < the top key`, so that order
    ///   solves the top lane whenever this one does;
    /// - any other lane solved here has key ≥ the best here ≥ that order's
    ///   best, so that order solves it too;
    /// - the whole-batch skip compares against the same best, so it drops
    ///   at least the batches that order drops.
    ///
    /// With more workers, `anchors_evaluated` stays timing-dependent.
    fn worker(
        &self,
        anchors: &[VertexId],
        sched: &[u32],
        batches: &[(usize, usize, usize, u32)],
        next: &AtomicUsize,
        best: &AtomicU64,
        evaluated: &AtomicUsize,
    ) -> Option<(usize, MinWavefront)> {
        let mut scratch = AnchorScratch::new(self.g);
        let mut local: Option<(usize, MinWavefront)> = None;
        // Each lane's pruning key `pack(ceiling, position)`, reused across
        // batches.
        let mut keys: Vec<u64> = Vec::with_capacity(BATCH_WIDTH);
        loop {
            let k = next.fetch_add(1, Ordering::Relaxed);
            if k >= batches.len() {
                break;
            }
            let (start, end, max_est, max_pos) = batches[k];
            // Whole-batch pruning: `(max estimate, max position)` lex-bounds
            // every anchor's contribution in the batch, so a dominated batch
            // cannot change the argmax and is dropped before its
            // reachability sweep.
            if pack(max_est, max_pos) < best.load(Ordering::Relaxed) {
                continue;
            }
            scratch.xs.clear();
            scratch
                .xs
                .extend(sched[start..end].iter().map(|&i| anchors[i as usize]));
            let xs = std::mem::take(&mut scratch.xs);
            scratch.batch.compute(self.g, &self.order, &xs);
            // Per-anchor best-so-far pruning: the anchor can contribute at
            // most `(ceiling, position)`, with the ceiling the tighter of
            // the level estimate and the sweep's closure cuts; if that is
            // lexicographically below the best completed `(size,
            // position)`, it can neither beat nor tie-win the merge —
            // skipping cannot change the argmax.
            keys.clear();
            for (j, (&x, &i)) in xs.iter().zip(&sched[start..end]).enumerate() {
                let ceiling = self
                    .anchor_estimate(x)
                    .min(scratch.batch.closure_ceiling(j));
                keys.push(pack(ceiling, i));
            }
            // Largest key first, then the rest in the batch's descending
            // topological order (the lane order above). Keys are unique
            // because positions are.
            let top = (0..keys.len()).max_by_key(|&j| keys[j]).unwrap_or(0);
            for j in std::iter::once(top).chain((0..keys.len()).filter(|&j| j != top)) {
                if keys[j] < best.load(Ordering::Relaxed) {
                    continue;
                }
                let (x, i) = (xs[j], sched[start + j]);
                let pos = i as usize;
                let w = scratch.min_wavefront(self.g, j, x);
                evaluated.fetch_add(1, Ordering::Relaxed);
                best.fetch_max(pack(w.size, i), Ordering::Relaxed);
                let better = match &local {
                    None => true,
                    Some((p, b)) => (w.size, pos) > (b.size, *p),
                };
                if better {
                    local = Some((pos, w));
                }
            }
            scratch.xs = xs;
        }
        local
    }

    /// One anchor per depth level (the level midpoint) — the coarse phase
    /// of [`WavefrontEngine::run_adaptive`].
    pub fn per_level_anchors(&self) -> Vec<VertexId> {
        let mut per_level: Vec<Vec<VertexId>> = vec![Vec::new(); self.level_cut_width.len()];
        for v in self.g.vertices() {
            per_level[self.depth[v.index()] as usize].push(v);
        }
        per_level
            .into_iter()
            .filter(|l| !l.is_empty())
            .map(|l| l[l.len() / 2])
            .collect()
    }

    /// Adaptive sampling: a coarse per-level pass locates the most
    /// promising depth, then *every* vertex within one depth level of the
    /// coarse winner is evaluated. Between the per-level pass alone (which
    /// it dominates: that pass is its coarse phase) and all anchors in
    /// both cost and bound quality; the returned `best` is deterministic
    /// at any thread count (only the `anchors_evaluated` diagnostic may
    /// vary).
    pub fn run_adaptive(&self) -> EngineRun {
        self.run_adaptive_above(0)
    }

    /// [`WavefrontEngine::run_adaptive`] with a floor, in the sense of
    /// [`WavefrontEngine::run_above`]: `best` is `None` unless the adaptive
    /// maximum exceeds a non-zero `floor`, and then it is exactly
    /// `run_adaptive`'s result. The coarse pass runs unfloored — it picks
    /// the refinement depth, so it must find its true winner — and the
    /// refinement is floored at the larger of that winner and `floor`.
    /// `anchors_considered` therefore matches `run_adaptive` exactly.
    pub fn run_adaptive_above(&self, floor: usize) -> EngineRun {
        let seeds = self.per_level_anchors();
        let coarse = self.run(&seeds);
        let Some(coarse_best) = coarse.best else {
            return coarse;
        };
        let refine = self.refinement_anchors(&seeds, &coarse_best);
        // Only refinement anchors that beat both the coarse winner and the
        // caller's floor can matter; the rest are dominated.
        let fine = self.run_above(&refine, coarse_best.size.max(floor));
        // The refinement can only improve the bound; ties keep the coarse
        // winner (deterministic: both phases are).
        let best = match fine.best {
            Some(f) if f.size > coarse_best.size => f,
            _ => coarse_best,
        };
        EngineRun {
            best: (floor == 0 || best.size > floor).then_some(best),
            anchors_considered: coarse.anchors_considered + fine.anchors_considered,
            anchors_evaluated: coarse.anchors_evaluated + fine.anchors_evaluated,
        }
    }

    /// The adaptive refinement set: every non-seed vertex within one depth
    /// level of the coarse winner.
    fn refinement_anchors(&self, seeds: &[VertexId], coarse_best: &MinWavefront) -> Vec<VertexId> {
        let mut seed_set = BitSet::new(self.g.num_vertices());
        for s in seeds {
            seed_set.insert(s.index());
        }
        let d_star = self.depth[coarse_best.anchor.index()];
        let lo = d_star.saturating_sub(1);
        let hi = d_star + 1;
        self.g
            .vertices()
            .filter(|v| {
                let d = self.depth[v.index()];
                d >= lo && d <= hi && !seed_set.contains(v.index())
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CdagBuilder;
    use crate::cut::max_min_wavefront;
    use crate::flow::is_separating_vertex_set;
    use crate::reach::{ancestors, descendants};

    fn diamond() -> Cdag {
        let mut b = CdagBuilder::new();
        let a = b.add_input("a");
        let x = b.add_op("b", &[a]);
        let y = b.add_op("c", &[a]);
        let d = b.add_op("d", &[x, y]);
        b.tag_output(d);
        b.build().unwrap()
    }

    /// Widths 1, 3, 2, 3, 1 across five layers — uneven on purpose so the
    /// pruning estimates differ per level.
    fn lumpy() -> Cdag {
        let mut b = CdagBuilder::new();
        let s = b.add_input("s");
        let l1: Vec<_> = (0..3).map(|i| b.add_op(format!("a{i}"), &[s])).collect();
        let l2: Vec<_> = (0..2).map(|i| b.add_op(format!("b{i}"), &l1)).collect();
        let l3: Vec<_> = (0..3).map(|i| b.add_op(format!("c{i}"), &l2)).collect();
        let t = b.add_op("t", &l3);
        b.tag_output(t);
        b.build().unwrap()
    }

    /// A `w × h` dependence ladder: `v(i, j)` reads `v(i − 1, j)` and
    /// `v(i, j − 1)`, so every antidiagonal is a wavefront and anchors on
    /// the same antidiagonal tie.
    fn ladder(w: usize, h: usize) -> Cdag {
        let mut b = CdagBuilder::new();
        let mut ids: Vec<VertexId> = Vec::with_capacity(w * h);
        for i in 0..h {
            for j in 0..w {
                let mut preds = Vec::new();
                if i > 0 {
                    preds.push(ids[(i - 1) * w + j]);
                }
                if j > 0 {
                    preds.push(ids[i * w + j - 1]);
                }
                let v = if preds.is_empty() {
                    b.add_input(format!("v{i}_{j}"))
                } else {
                    b.add_op(format!("v{i}_{j}"), &preds)
                };
                ids.push(v);
            }
        }
        b.tag_output(ids[w * h - 1]);
        b.build().unwrap()
    }

    fn assert_matches_serial(g: &Cdag, threads: usize) {
        let anchors: Vec<VertexId> = g.vertices().collect();
        let serial = max_min_wavefront(g, &anchors);
        let run = WavefrontEngine::new(g).with_threads(threads).run(&anchors);
        match (serial, run.best) {
            (None, None) => {}
            (Some(s), Some(e)) => {
                assert_eq!(e.size, s.size, "size @ {threads} threads");
                assert_eq!(e.anchor, s.anchor, "anchor @ {threads} threads");
                assert_eq!(
                    e.cut.vertices, s.cut.vertices,
                    "witness @ {threads} threads"
                );
            }
            (s, e) => panic!("serial {s:?} vs engine {e:?}"),
        }
    }

    #[test]
    fn engine_matches_serial_on_diamond_and_lumpy() {
        for t in [1usize, 2, 4] {
            assert_matches_serial(&diamond(), t);
            assert_matches_serial(&lumpy(), t);
        }
    }

    #[test]
    fn estimates_upper_bound_every_anchor() {
        let g = lumpy();
        let eng = WavefrontEngine::new(&g);
        for x in g.vertices() {
            let w = crate::cut::min_wavefront(&g, x);
            assert!(
                eng.anchor_estimate(x) >= w.size,
                "estimate {} < cut {} at {x}",
                eng.anchor_estimate(x),
                w.size
            );
        }
    }

    #[test]
    fn pruning_skips_dominated_anchors() {
        let g = lumpy();
        let anchors: Vec<VertexId> = g.vertices().collect();
        let run = WavefrontEngine::new(&g).with_threads(1).run(&anchors);
        assert!(run.anchors_evaluated < run.anchors_considered, "no pruning");
        assert_eq!(run.best.unwrap().size, 3);
    }

    #[test]
    fn witness_cut_separates() {
        let g = lumpy();
        let anchors: Vec<VertexId> = g.vertices().collect();
        let best = WavefrontEngine::new(&g).run(&anchors).best.unwrap();
        let mut sources = ancestors(&g, best.anchor);
        sources.insert(best.anchor.index());
        let sinks = descendants(&g, best.anchor);
        assert!(is_separating_vertex_set(
            &g,
            &sources,
            &sinks,
            &best.cut.vertices
        ));
    }

    #[test]
    fn adaptive_between_per_level_and_all() {
        let g = lumpy();
        let eng = WavefrontEngine::new(&g);
        let all: Vec<VertexId> = g.vertices().collect();
        let b_all = eng.run(&all).best.unwrap().size;
        let b_pl = eng.run(&eng.per_level_anchors()).best.unwrap().size;
        let adaptive = eng.run_adaptive();
        let b_ad = adaptive.best.unwrap().size;
        assert!(b_pl <= b_ad && b_ad <= b_all, "{b_pl} <= {b_ad} <= {b_all}");
        assert!(adaptive.anchors_considered <= all.len() + eng.per_level_anchors().len());
        // Adaptive is deterministic across thread counts.
        for t in [1usize, 2, 4] {
            let r = WavefrontEngine::new(&g).with_threads(t).run_adaptive();
            assert_eq!(r.best.unwrap().size, b_ad);
        }
    }

    #[test]
    fn refinement_floor_skips_ties_with_the_coarse_winner() {
        for (w, h) in [(12, 12), (64, 64)] {
            let g = ladder(w, h);
            let eng = WavefrontEngine::new(&g).with_threads(1);
            let seeds = eng.per_level_anchors();
            let coarse = eng.run(&seeds).best.unwrap();
            let refine = eng.refinement_anchors(&seeds, &coarse);
            // Every refinement anchor's pruning ceiling, as the worker sees it.
            let mut batch = BatchReach::new();
            let top = refine
                .chunks(BATCH_WIDTH)
                .flat_map(|xs| {
                    batch.compute(&g, &eng.order, xs);
                    (0..xs.len())
                        .map(|j| eng.anchor_estimate(xs[j]).min(batch.closure_ceiling(j)))
                        .collect::<Vec<_>>()
                })
                .max()
                .unwrap();
            // On a ladder the refinement can at best tie the coarse winner...
            assert_eq!(top, coarse.size, "ladder({w}, {h})");
            // ...so the adaptive refinement, floored there, solves nothing,
            // while a floor one lower still has the tying anchors to solve.
            assert_eq!(eng.run_above(&refine, top).anchors_evaluated, 0);
            assert!(eng.run_above(&refine, top - 1).anchors_evaluated > 0);
            // The coarse pass climbs the ladder's widening antidiagonals:
            // in descending topological order every solve beats the last by
            // one (12 and 32 solves here), but the middle antidiagonal's
            // ceiling is its cut, so solving the top lane first prunes the
            // rest of its batch and every later batch.
            let adaptive = eng.run_adaptive();
            assert_eq!(adaptive.anchors_evaluated, 1, "ladder({w}, {h})");
            assert_eq!(eng.run(&seeds).anchors_evaluated, 1, "ladder({w}, {h})");
            // The winner is unchanged: the unpruned refinement cannot beat the
            // coarse pass, which the adaptive result keeps.
            assert!(eng.run(&refine).best.unwrap().size <= coarse.size);
            let best = adaptive.best.unwrap();
            assert_eq!(
                (best.size, best.anchor, &best.cut.vertices),
                (coarse.size, coarse.anchor, &coarse.cut.vertices)
            );
        }
    }

    #[test]
    fn floored_runs_return_only_wavefronts_above_the_floor() {
        let g = lumpy();
        let eng = WavefrontEngine::new(&g).with_threads(1);
        let all: Vec<VertexId> = g.vertices().collect();
        let full = eng.run(&all).best.unwrap();
        let adaptive_run = eng.run_adaptive();
        let adaptive = adaptive_run.best.unwrap();
        for floor in 0..=eng.ceiling() + 1 {
            let run = eng.run_above(&all, floor);
            match run.best {
                Some(b) => {
                    assert!(floor == 0 || full.size > floor, "floor {floor}");
                    assert_eq!(
                        (b.anchor, b.cut.vertices),
                        (full.anchor, full.cut.vertices.clone())
                    );
                }
                None => assert!(floor > 0 && full.size <= floor, "floor {floor}"),
            }
            assert_eq!(run.anchors_considered, all.len());
            let run = eng.run_adaptive_above(floor);
            assert_eq!(run.best.is_some(), floor == 0 || adaptive.size > floor);
            if let Some(b) = run.best {
                assert_eq!(b.anchor, adaptive.anchor, "floor {floor}");
            }
            assert_eq!(run.anchors_considered, adaptive_run.anchors_considered);
        }
        assert!(eng.ceiling() >= full.size);
    }

    #[test]
    fn empty_anchor_set_gives_none() {
        let g = diamond();
        let run = WavefrontEngine::new(&g).run(&[]);
        assert!(run.best.is_none());
        assert_eq!(run.anchors_considered, 0);
        assert_eq!(run.anchors_evaluated, 0);
    }
}
