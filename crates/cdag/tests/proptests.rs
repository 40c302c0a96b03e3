//! Property-based tests for the CDAG substrate.
//!
//! Random layered DAGs exercise the structural invariants: CSR consistency,
//! topological validity, reachability agreement, min-cut soundness
//! (max-flow value is achieved by a separating set and matches Menger's
//! bound from brute force on small instances). Random edge lists over
//! permuted ids check the builder's validation, and slow references check
//! the component labelling and the block quotient.

use std::collections::BTreeSet;

use dmc_cdag::bitset::BitSet;
use dmc_cdag::builder::{BuildError, CdagBuilder};
use dmc_cdag::components::{weakly_connected_components, Components};
use dmc_cdag::cut::{
    max_min_wavefront, min_wavefront, peak_schedule_wavefront, schedule_wavefront_sizes, ConvexCut,
};
use dmc_cdag::engine::WavefrontEngine;
use dmc_cdag::flow::{
    is_separating_vertex_set, vertex_min_cut, FlowNetwork, VertexCutOptions, WarmCut,
};
use dmc_cdag::graph::{Cdag, VertexId};
use dmc_cdag::reach::{
    all_pairs_reachability, ancestors_into, descendants_into, reaches_into, BatchReach,
};
use dmc_cdag::subgraph::{decompose, QuotientGraph};
use dmc_cdag::topo::{dfs_topological_order, is_valid_topological_order, topological_order};
use proptest::prelude::*;

/// Strategy: a short label drawn from a palette that is heavy on the text
/// format's metacharacters — `#` (comment marker), `"` (quote), `\`
/// (escape) — plus spaces and ordinary letters.
fn arb_label() -> impl Strategy<Value = String> {
    const PALETTE: [char; 10] = ['#', '"', '\\', ' ', 'a', '#', '"', '\\', 'z', '!'];
    (0usize..8).prop_flat_map(|len| {
        proptest::collection::vec(0usize..PALETTE.len(), len)
            .prop_map(|ix| ix.into_iter().map(|i| PALETTE[i]).collect())
    })
}

/// Strategy: a random DAG as an edge probability matrix over `n` vertices,
/// with edges only from lower to higher index (guaranteeing acyclicity).
fn arb_dag(max_n: usize) -> impl Strategy<Value = Cdag> {
    (2..max_n)
        .prop_flat_map(|n| {
            let pairs: Vec<(usize, usize)> = (0..n)
                .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
                .collect();
            let m = pairs.len();
            (
                Just(n),
                Just(pairs),
                proptest::collection::vec(proptest::bool::weighted(0.3), m),
            )
        })
        .prop_map(|(n, pairs, mask)| {
            let mut b = CdagBuilder::new();
            let ids: Vec<VertexId> = (0..n).map(|i| b.add_vertex(format!("v{i}"))).collect();
            for ((i, j), keep) in pairs.into_iter().zip(mask) {
                if keep {
                    b.add_edge(ids[i], ids[j]);
                }
            }
            let g0 = b.clone().build().unwrap();
            // Tag sources as inputs, sinks as outputs (Hong–Kung form).
            for v in g0.vertices() {
                if g0.in_degree(v) == 0 {
                    b.tag_input(v);
                }
                if g0.out_degree(v) == 0 {
                    b.tag_output(v);
                }
            }
            b.build().unwrap()
        })
}

/// Strategy: a random *layered* DAG — `layers × width` vertices, edges only
/// between adjacent layers, each kept independently. This is the shape the
/// flow core is tuned for (wavefronts sweep layer by layer), so it is where
/// the phase-saturating solver and the warm-started network earn their keep.
fn arb_layered_dag(max_layers: usize, max_width: usize) -> impl Strategy<Value = Cdag> {
    arb_layered_dag_in(2..max_layers, 1..max_width)
}

/// [`arb_layered_dag`] with the layer count drawn from `layers` and the
/// width from `width`.
fn arb_layered_dag_in(
    layers: std::ops::Range<usize>,
    width: std::ops::Range<usize>,
) -> impl Strategy<Value = Cdag> {
    (layers, width)
        .prop_flat_map(|(layers, width)| {
            let m = (layers - 1) * width * width;
            (
                Just(layers),
                Just(width),
                proptest::collection::vec(proptest::bool::weighted(0.4), m),
            )
        })
        .prop_map(|(layers, width, mask)| {
            let mut b = CdagBuilder::new();
            let ids: Vec<VertexId> = (0..layers * width)
                .map(|i| b.add_vertex(format!("v{i}")))
                .collect();
            let mut k = 0;
            for l in 0..layers - 1 {
                for i in 0..width {
                    for j in 0..width {
                        if mask[k] {
                            b.add_edge(ids[l * width + i], ids[(l + 1) * width + j]);
                        }
                        k += 1;
                    }
                }
            }
            let g0 = b.clone().build().unwrap();
            for v in g0.vertices() {
                if g0.in_degree(v) == 0 {
                    b.tag_input(v);
                }
                if g0.out_degree(v) == 0 {
                    b.tag_output(v);
                }
            }
            b.build().unwrap()
        })
}

/// Strategy: a random DAG of up to 80 vertices with every vertex assigned
/// to one of up to 64 blocks (some blocks may stay empty).
fn arb_partitioned_dag() -> impl Strategy<Value = (Cdag, usize, Vec<usize>)> {
    (arb_dag(80), 1usize..65).prop_flat_map(|(g, blocks)| {
        let n = g.num_vertices();
        (
            Just(g),
            Just(blocks),
            proptest::collection::vec(0..blocks, n),
        )
    })
}

/// Effectively-infinite capacity, mirroring the library's split networks.
const INF: u32 = u32::MAX / 4;

/// Builds the vertex-split wavefront network for one source/sink pair into
/// `net` (sources cuttable, sinks not) and returns its max flow.
fn split_network_flow(g: &Cdag, sources: &BitSet, sinks: &BitSet, net: &mut FlowNetwork) -> u64 {
    let n = g.num_vertices();
    let (s, t) = (2 * n, 2 * n + 1);
    net.reset(2 * n + 2);
    for v in 0..n {
        net.add_arc(2 * v, 2 * v + 1, if sinks.contains(v) { INF } else { 1 });
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
    net.max_flow(s, t)
}

/// The size of the smallest subset of `cuttable` that separates `sources`
/// from `sinks`, by exhaustive search (at most 16 cuttable vertices).
fn bruteforce_min_cut(g: &Cdag, sources: &BitSet, sinks: &BitSet, cuttable: &[usize]) -> usize {
    assert!(cuttable.len() <= 16, "brute force needs a small graph");
    let mut best = usize::MAX;
    for mask in 0u32..(1 << cuttable.len()) {
        if mask.count_ones() as usize >= best {
            continue;
        }
        let subset: Vec<VertexId> = cuttable
            .iter()
            .enumerate()
            .filter(|(b, _)| mask & (1 << b) != 0)
            .map(|(_, &v)| VertexId(v as u32))
            .collect();
        if is_separating_vertex_set(g, sources, sinks, &subset) {
            best = subset.len();
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csr_forward_reverse_consistent(g in arb_dag(24)) {
        for (u, v) in g.edges() {
            prop_assert!(g.predecessors(v).contains(&u));
        }
        let fwd: usize = g.vertices().map(|v| g.out_degree(v)).sum();
        let rev: usize = g.vertices().map(|v| g.in_degree(v)).sum();
        prop_assert_eq!(fwd, g.num_edges());
        prop_assert_eq!(rev, g.num_edges());
    }

    #[test]
    fn topological_orders_are_valid(g in arb_dag(24)) {
        prop_assert!(is_valid_topological_order(&g, &topological_order(&g)));
        prop_assert!(is_valid_topological_order(&g, &dfs_topological_order(&g)));
    }

    #[test]
    fn all_pairs_matches_single_source(g in arb_dag(16)) {
        let ap = all_pairs_reachability(&g);
        let mut visited = BitSet::new(g.num_vertices());
        let mut stack = Vec::new();
        for u in g.vertices() {
            for v in g.vertices() {
                prop_assert_eq!(
                    ap[u.index()].contains(v.index()),
                    reaches_into(&g, u, v, &mut visited, &mut stack)
                );
            }
        }
    }

    #[test]
    fn prefix_cuts_are_convex_and_wavefront_matches_incremental(g in arb_dag(20)) {
        let order = topological_order(&g);
        let sizes = schedule_wavefront_sizes(&g, &order);
        for k in 1..=order.len() {
            let cut = ConvexCut::from_prefix(&g, &order[..k]);
            prop_assert!(cut.is_valid(&g));
            let w = cut.wavefront(&g);
            let x = order[k - 1];
            // Incremental size = |boundary ∪ {x}|.
            let expected = if w.vertices.contains(&x) { w.len() } else { w.len() + 1 };
            prop_assert_eq!(sizes[k - 1], expected);
        }
    }

    #[test]
    fn min_cut_is_separating_and_minimal_vs_bruteforce(g in arb_dag(10)) {
        let n = g.num_vertices();
        let sources: BitSet = g.inputs().clone();
        let sinks: BitSet = g.outputs().clone();
        prop_assume!(!sources.is_empty() && !sinks.is_empty());
        prop_assume!(sources.is_disjoint(&sinks));
        // The wavefront shape (sinks uncuttable) and the Hong–Kung
        // dominator shape (both sides cuttable).
        for sinks_cuttable in [false, true] {
            let opts = VertexCutOptions { sources_cuttable: true, sinks_cuttable };
            if let Some(cut) = vertex_min_cut(&g, &sources, &sinks, opts) {
                prop_assert!(is_separating_vertex_set(&g, &sources, &sinks, &cut.vertices));
                prop_assert_eq!(cut.size, cut.vertices.len());
                // Brute force over all subsets of cuttable vertices (n <= 10).
                let cuttable: Vec<usize> =
                    (0..n).filter(|&v| sinks_cuttable || !sinks.contains(v)).collect();
                prop_assert_eq!(
                    cut.size,
                    bruteforce_min_cut(&g, &sources, &sinks, &cuttable),
                    "flow cut must be minimum (sinks cuttable: {})", sinks_cuttable
                );
            }
        }
    }

    /// The text format round-trips labels containing its own
    /// metacharacters: `#` must not be taken for a comment inside quotes,
    /// and `"`/`\` must survive the escape cycle.
    #[test]
    fn textio_round_trips_metacharacter_labels(
        labels in proptest::collection::vec(arb_label(), 4)
    ) {
        let mut b = CdagBuilder::new();
        let mut prev = None;
        for l in &labels {
            let v = match prev {
                None => b.add_vertex(l.clone()),
                Some(p) => {
                    let v = b.add_vertex(l.clone());
                    b.add_edge(p, v);
                    v
                }
            };
            prev = Some(v);
        }
        b.tag_input(VertexId(0));
        b.tag_output(prev.unwrap());
        let g = b.build().unwrap();
        let text = dmc_cdag::textio::to_text(&g);
        let g2 = dmc_cdag::textio::from_text(&text).unwrap();
        prop_assert_eq!(g.num_vertices(), g2.num_vertices());
        prop_assert_eq!(g.edges().collect::<Vec<_>>(), g2.edges().collect::<Vec<_>>());
        for v in g.vertices() {
            prop_assert_eq!(g.label(v), g2.label(v), "label of {}", v);
        }
    }

    /// The max flow of every anchor's wavefront split network equals the
    /// minimum separating set found by brute force (at most 12 vertices).
    #[test]
    fn wavefront_max_flow_equals_bruteforce_min_cut(g in arb_layered_dag(5, 4)) {
        let n = g.num_vertices();
        let mut net = FlowNetwork::new(0);
        let mut sources = BitSet::new(n);
        let mut sinks = BitSet::new(n);
        let mut stack = Vec::new();
        for x in topological_order(&g) {
            ancestors_into(&g, x, &mut sources, &mut stack);
            sources.insert(x.index());
            descendants_into(&g, x, &mut sinks, &mut stack);
            if sinks.is_empty() {
                continue;
            }
            let flow = split_network_flow(&g, &sources, &sinks, &mut net);
            let cuttable: Vec<usize> = (0..n).filter(|&v| !sinks.contains(v)).collect();
            let want = bruteforce_min_cut(&g, &sources, &sinks, &cuttable);
            prop_assert_eq!(flow, want as u64, "anchor {}", x);
        }
    }

    /// The warm-started, frontier-restricted solver agrees with a fresh
    /// from-scratch solve on every anchor of a sweep.
    #[test]
    fn warm_cut_matches_fresh_over_random_sweep(g in arb_layered_dag(6, 5)) {
        warm_cuts_match_fresh_over_every_anchor(&g)?;
    }

    /// The parallel engine returns byte-identical results at 1, 2, and 4
    /// threads: same winning size, same anchor, same witness cut, rendered
    /// identically.
    #[test]
    fn engine_run_identical_across_threads(g in arb_layered_dag(6, 5)) {
        let anchors: Vec<VertexId> = g.vertices().collect();
        let base = WavefrontEngine::new(&g).with_threads(1).run(&anchors);
        let base_text = format!("{:?}", base.best);
        for threads in [2, 4] {
            let run = WavefrontEngine::new(&g).with_threads(threads).run(&anchors);
            prop_assert_eq!(format!("{:?}", run.best), base_text.clone(), "{} threads", threads);
        }
    }

    /// Each lane's closure ceiling is the smaller wavefront of the two
    /// closure cuts around its anchor, and never undercuts the anchor's
    /// min cut — the soundness the engine's pruning rests on.
    #[test]
    fn closure_ceilings_are_closure_cut_wavefronts_above_the_min_cut(g in arb_dag(24)) {
        let order = topological_order(&g);
        let anchors: Vec<VertexId> = g.vertices().collect();
        let mut batch = BatchReach::new();
        batch.compute(&g, &order, &anchors);
        for (j, &x) in anchors.iter().enumerate() {
            let lo = ConvexCut::minimal_around(&g, x).wavefront(&g).len();
            let hi = ConvexCut::maximal_around(&g, x).wavefront(&g).len();
            prop_assert_eq!(batch.closure_ceiling(j), lo.min(hi), "anchor {}", x);
            prop_assert!(
                batch.closure_ceiling(j) >= min_wavefront(&g, x).size,
                "anchor {}: ceiling below the min cut", x
            );
        }
    }

    /// With closure-ceiling pruning and the top-lane-first order, the
    /// engine still returns the serial maximum over every anchor — size,
    /// anchor, and witness — at every floor, at 1, 2, and 4 threads, with
    /// anchor positions in topological order, against it, and shuffled.
    #[test]
    fn engine_matches_serial_max_min_wavefront(g in arb_layered_dag(6, 5), keys in arb_shuffle_keys()) {
        for anchors in anchor_orders(&g, &keys) {
            engine_matches_serial_at_every_floor(&g, &anchors)?;
        }
    }

    /// The content hash is a function of the canonical render alone:
    /// parsing a graph's own text form back and hashing it reproduces the
    /// hash exactly (`hash(from_text(to_text(g))) == hash(g)`).
    /// Every piece of `decompose` is the direct filter of `g` to its
    /// block: the block's vertices in increasing parent id with their
    /// labels and tags, and the block-internal edges in `g.edges()` order.
    #[test]
    fn decompose_pieces_are_direct_filters((g, blocks, assignment) in arb_partitioned_dag()) {
        let pieces = decompose(&g, &assignment, blocks);
        prop_assert_eq!(pieces.len(), blocks);
        for (blk, piece) in pieces.iter().enumerate() {
            let members: Vec<VertexId> =
                g.vertices().filter(|v| assignment[v.index()] == blk).collect();
            prop_assert_eq!(&piece.to_parent, &members, "block {}", blk);
            prop_assert_eq!(piece.cdag.num_vertices(), members.len());
            for (i, &pv) in members.iter().enumerate() {
                let sv = VertexId(i as u32);
                prop_assert_eq!(piece.cdag.label(sv), g.label(pv), "block {}", blk);
                prop_assert_eq!(piece.cdag.is_input(sv), g.is_input(pv), "block {}", blk);
                prop_assert_eq!(piece.cdag.is_output(sv), g.is_output(pv), "block {}", blk);
            }
            let local = |v: VertexId| members.iter().position(|&m| m == v).map(|i| VertexId(i as u32));
            let want: Vec<(VertexId, VertexId)> =
                g.edges().filter_map(|(u, v)| Some((local(u)?, local(v)?))).collect();
            let got: Vec<(VertexId, VertexId)> = piece.cdag.edges().collect();
            prop_assert_eq!(got, want, "block {}", blk);
        }
    }

    #[test]
    fn content_hash_survives_text_round_trip(g in arb_dag(20)) {
        let text = dmc_cdag::textio::to_text(&g);
        let g2 = dmc_cdag::textio::from_text(&text).unwrap();
        prop_assert_eq!(g.content_hash(), g2.content_hash());
        // And the hash really is FNV-1a of the canonical render.
        prop_assert_eq!(g.content_hash(), dmc_cdag::hash::fnv1a_64(text.as_bytes()));
    }

    #[test]
    fn peak_wavefront_at_least_max_indegree_frontier(g in arb_dag(20)) {
        // Any schedule must at some point hold all predecessors of the
        // max-in-degree vertex plus possibly itself: peak >= max in-degree.
        let order = topological_order(&g);
        let peak = peak_schedule_wavefront(&g, &order);
        let max_in = g.vertices().map(|v| g.in_degree(v)).max().unwrap_or(0);
        // Just before the max-in-degree vertex fires, all its predecessors
        // are live; and after the very first fire the wavefront is >= 1.
        prop_assert!(peak >= max_in.max(1));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// [`engine_matches_serial_max_min_wavefront`] on more than 64 anchors,
    /// so the engine splits them into several batches and prunes whole
    /// batches against the best of earlier ones.
    #[test]
    fn engine_matches_serial_across_batches(g in arb_layered_dag_in(8..12, 9..12), keys in arb_shuffle_keys()) {
        for anchors in anchor_orders(&g, &keys) {
            engine_matches_serial_at_every_floor(&g, &anchors)?;
        }
    }

    /// [`warm_cut_matches_fresh_over_random_sweep`] on more than 64
    /// anchors, so the role-fed solver carries its warm flow across
    /// `BatchReach` batches.
    #[test]
    fn warm_cut_matches_fresh_across_batches(g in arb_layered_dag_in(8..12, 9..12)) {
        warm_cuts_match_fresh_over_every_anchor(&g)?;
    }
}

/// Sweeps every anchor in topological order, unpruned, through two
/// warm-started solvers — [`WarmCut::min_cut`] on the full source/sink
/// sets, and [`WarmCut::min_cut_roles`] fed the engine's `BatchReach`
/// role columns, one batch per 64 anchors — and checks each against a
/// fresh [`vertex_min_cut`]: identical cut value, identical witness
/// vertices, and the witness actually separates.
fn warm_cuts_match_fresh_over_every_anchor(g: &Cdag) -> TestCaseResult {
    let n = g.num_vertices();
    let order = topological_order(g);
    let mut warm = WarmCut::new(g);
    let mut warm_roles = WarmCut::new(g);
    let mut batch = BatchReach::new();
    let [mut sources, mut sinks, mut supply, mut drain, mut blocked] =
        std::array::from_fn(|_| BitSet::new(n));
    let mut stack = Vec::new();
    for chunk in order.chunks(64) {
        batch.compute(g, &order, chunk);
        for (j, &x) in chunk.iter().enumerate() {
            ancestors_into(g, x, &mut sources, &mut stack);
            sources.insert(x.index());
            descendants_into(g, x, &mut sinks, &mut stack);
            if sinks.is_empty() {
                continue;
            }
            let want = vertex_min_cut(g, &sources, &sinks, VertexCutOptions::default());
            let got = warm.min_cut(g, &sources, &sinks);
            batch.fill_supply(j, &mut supply);
            batch.fill_drain(j, &mut drain);
            batch.fill_blocked(j, &mut blocked);
            let got_roles = warm_roles.min_cut_roles(&supply, &drain, &blocked);
            for (solver, got) in [("min_cut", &got), ("min_cut_roles", &got_roles)] {
                match (got, &want) {
                    (Some(a), Some(b)) => {
                        prop_assert_eq!(a.size, b.size, "{} anchor {}", solver, x);
                        prop_assert_eq!(&a.vertices, &b.vertices, "{} anchor {}", solver, x);
                        prop_assert!(
                            is_separating_vertex_set(g, &sources, &sinks, &a.vertices),
                            "{} anchor {}: witness does not separate",
                            solver,
                            x
                        );
                    }
                    (None, None) => {}
                    _ => prop_assert!(
                        false,
                        "{} anchor {}: bounded/unbounded disagreement",
                        solver,
                        x
                    ),
                }
            }
        }
    }
    Ok(())
}

/// Strategy: one random sort key per vertex of a graph from either
/// engine family above (at most 11 × 11 vertices), for [`anchor_orders`].
fn arb_shuffle_keys() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..u64::MAX, 121)
}

/// Every vertex as an anchor list three ways: in id order (topological on
/// a layered DAG), reversed, and shuffled by sorting on `keys` — so the
/// anchor positions the engine's tie-break and pruning keys use disagree
/// with the topological order its batches are solved in.
fn anchor_orders(g: &Cdag, keys: &[u64]) -> [Vec<VertexId>; 3] {
    let forward: Vec<VertexId> = g.vertices().collect();
    let reversed = forward.iter().rev().copied().collect();
    let mut shuffled = forward.clone();
    shuffled.sort_by_key(|v| keys[v.index()]);
    [forward, reversed, shuffled]
}

/// `run_above(anchors, f)` for every floor `f` up to one past the ceiling
/// returns the serial maximum over `anchors` (size, anchor, witness)
/// whenever it exceeds `f` — always at `f = 0` — and nothing otherwise,
/// at 1, 2, and 4 threads.
fn engine_matches_serial_at_every_floor(g: &Cdag, anchors: &[VertexId]) -> TestCaseResult {
    let serial = max_min_wavefront(g, anchors).map(|w| (w.size, w.anchor, w.cut.vertices));
    for threads in [1, 2, 4] {
        let eng = WavefrontEngine::new(g).with_threads(threads);
        for floor in 0..=eng.ceiling() + 1 {
            let run = eng.run_above(anchors, floor);
            let engine = run.best.map(|w| (w.size, w.anchor, w.cut.vertices));
            let want = serial
                .clone()
                .filter(|(size, ..)| floor == 0 || *size > floor);
            prop_assert_eq!(&engine, &want, "{} threads, floor {}", threads, floor);
        }
    }
    Ok(())
}

/// Two builders fed the same vertex set but the edge list in a different
/// order (with dedup enabled, which sorts the edge list at build time)
/// produce the same canonical render and therefore the same content
/// hash; a structurally different graph hashes differently.
#[test]
fn content_hash_ignores_edge_insertion_order() {
    let build = |edge_order: &[(u32, u32)]| {
        let mut b = CdagBuilder::new();
        let ids: Vec<VertexId> = (0..4).map(|i| b.add_vertex(format!("v{i}"))).collect();
        b.dedup_edges(true);
        for &(u, v) in edge_order {
            b.add_edge(ids[u as usize], ids[v as usize]);
        }
        b.tag_input(ids[0]);
        b.tag_output(ids[3]);
        b.build().unwrap()
    };
    // The same diamond, edges declared forward and backward.
    let a = build(&[(0, 1), (0, 2), (1, 3), (2, 3)]);
    let b = build(&[(2, 3), (1, 3), (0, 2), (0, 1)]);
    assert_eq!(
        dmc_cdag::textio::to_text(&a),
        dmc_cdag::textio::to_text(&b),
        "canonical renders must agree"
    );
    assert_eq!(a.content_hash(), b.content_hash());
    // A different edge set is a different hash.
    let c = build(&[(0, 1), (1, 3), (0, 2), (2, 3), (0, 3)]);
    assert_ne!(a.content_hash(), c.content_hash());
}

/// Comments and blank lines in an uploaded text form never reach the
/// hash: the render is regenerated from the parsed structure.
#[test]
fn content_hash_is_comment_and_whitespace_invariant() {
    let g = {
        let mut b = CdagBuilder::new();
        let x = b.add_input("x");
        let y = b.add_vertex("y");
        b.add_edge(x, y);
        b.tag_output(y);
        b.build().unwrap()
    };
    let plain = dmc_cdag::textio::to_text(&g);
    let noisy = format!("# uploaded by a client\n\n{}\n# trailing note\n", plain);
    let parsed = dmc_cdag::textio::from_text(&noisy).unwrap();
    assert_eq!(parsed.content_hash(), g.content_hash());
}

/// A raw builder input: the vertex count, the edge list in insertion
/// order, and the vertices tagged as inputs.
type BuilderInput = (u32, Vec<(u32, u32)>, Vec<u32>);

/// A random order of `0..keys.len()`: `ids[p]` is the id given to the
/// vertex at position `p`.
fn permutation(keys: &[u64]) -> Vec<u32> {
    let mut ids: Vec<u32> = (0..keys.len() as u32).collect();
    ids.sort_by_key(|&i| keys[i as usize]);
    ids
}

/// Every position pair `(i, j)`, `i < j < n`, in a fixed order.
fn position_pairs(n: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..n).flat_map(move |i| ((i + 1)..n).map(move |j| (i, j)))
}

/// Strategy: a [`BuilderInput`] over randomly permuted ids. A random DAG
/// on positions (edges from lower to higher position) is renumbered by a
/// random permutation, so its edges run both up and down in id. Then,
/// each in about a third of the cases and at a random place in the list:
/// a planted 2-cycle, a back edge (it closes a cycle exactly when the DAG
/// has a path the other way), a self-loop and a dangling edge. About a
/// fifth of the vertices are tagged inputs, sources or not.
fn arb_builder_input() -> impl Strategy<Value = BuilderInput> {
    (2usize..14)
        .prop_flat_map(|n| {
            (
                Just(n),
                proptest::collection::vec(proptest::bool::weighted(0.25), n * (n - 1) / 2),
                proptest::collection::vec(0u64..u64::MAX, n),
                proptest::collection::vec(0usize..n, 12),
                proptest::collection::vec(proptest::bool::weighted(0.35), 4),
                proptest::collection::vec(proptest::bool::weighted(0.2), n),
            )
        })
        .prop_map(|(n, mask, keys, picks, plant, tagged)| {
            let ids = permutation(&keys);
            let mut edges: Vec<(u32, u32)> = position_pairs(n)
                .zip(mask)
                .filter(|&(_, keep)| keep)
                .map(|((i, j), _)| (ids[i], ids[j]))
                .collect();
            let plant_at = |edges: &mut Vec<(u32, u32)>, at: usize, e: (u32, u32)| {
                edges.insert(at % (edges.len() + 1), e);
            };
            let (a, b) = (picks[0], picks[1]);
            if plant[0] && a != b {
                plant_at(&mut edges, picks[2], (ids[a], ids[b]));
                plant_at(&mut edges, picks[3], (ids[b], ids[a]));
            }
            let (lo, hi) = (picks[4].min(picks[5]), picks[4].max(picks[5]));
            if plant[1] && lo != hi {
                plant_at(&mut edges, picks[6], (ids[hi], ids[lo]));
            }
            if plant[2] {
                plant_at(&mut edges, picks[7], (ids[picks[8]], ids[picks[8]]));
            }
            if plant[3] {
                let (known, unknown) = (ids[picks[9]], (n + picks[10]) as u32);
                let e = if picks[10] % 2 == 0 {
                    (known, unknown)
                } else {
                    (unknown, known)
                };
                plant_at(&mut edges, picks[11], e);
            }
            let inputs = (0..n as u32).filter(|&v| tagged[v as usize]).collect();
            (n as u32, edges, inputs)
        })
}

/// What [`CdagBuilder::build`] must return on a [`BuilderInput`], decided
/// the slow way: endpoint errors in edge order (a dangling endpoint
/// before a self-loop), then Kahn's algorithm peeling one source at a
/// time, reporting a cycle through the lowest vertex it cannot peel, then
/// the first input tag that has a predecessor.
fn reference_build((n, edges, inputs): &BuilderInput) -> Result<(), BuildError> {
    for &(u, v) in edges {
        if u >= *n || v >= *n {
            return Err(BuildError::DanglingEdge(VertexId(u), VertexId(v)));
        }
        if u == v {
            return Err(BuildError::SelfLoop(VertexId(u)));
        }
    }
    let mut peeled = vec![false; *n as usize];
    while let Some(v) = (0..peeled.len()).find(|&v| {
        !peeled[v]
            && edges
                .iter()
                .all(|&(a, b)| b as usize != v || peeled[a as usize])
    }) {
        peeled[v] = true;
    }
    if let Some(v) = peeled.iter().position(|&p| !p) {
        return Err(BuildError::Cycle(VertexId(v as u32)));
    }
    match inputs.iter().find(|&&v| edges.iter().any(|&(_, b)| b == v)) {
        Some(&v) => Err(BuildError::InputWithPredecessor(VertexId(v))),
        None => Ok(()),
    }
}

/// Strategy: a sparse random DAG on randomly permuted ids, each position
/// pair kept with probability `1.2 / n`: most graphs fall into many
/// components with interleaved ids, isolated vertices among them.
fn arb_sparse_permuted_dag() -> impl Strategy<Value = Cdag> {
    (1usize..48)
        .prop_flat_map(|n| {
            (
                Just(n),
                proptest::collection::vec(
                    proptest::bool::weighted((1.2 / n as f64).min(1.0)),
                    n * (n - 1) / 2,
                ),
                proptest::collection::vec(0u64..u64::MAX, n),
            )
        })
        .prop_map(|(n, mask, keys)| {
            let ids = permutation(&keys);
            let mut b = CdagBuilder::new();
            b.add_vertices(n);
            for ((i, j), keep) in position_pairs(n).zip(mask) {
                if keep {
                    b.add_edge(VertexId(ids[i]), VertexId(ids[j]));
                }
            }
            b.build().unwrap()
        })
}

/// The two-direction depth-first search that labelled components before
/// union-find, kept as the reference: each unvisited vertex, in id order,
/// opens the next component and floods it over successors and
/// predecessors.
fn dfs_components(g: &Cdag) -> Components {
    let mut assignment = vec![usize::MAX; g.num_vertices()];
    let mut stack: Vec<VertexId> = Vec::new();
    let mut count = 0;
    for start in g.vertices() {
        if assignment[start.index()] != usize::MAX {
            continue;
        }
        assignment[start.index()] = count;
        stack.push(start);
        while let Some(v) = stack.pop() {
            for &w in g.successors(v).iter().chain(g.predecessors(v)) {
                if assignment[w.index()] == usize::MAX {
                    assignment[w.index()] = count;
                    stack.push(w);
                }
            }
        }
        count += 1;
    }
    Components { assignment, count }
}

/// Strategy: a random DAG with every vertex in one of 2–4 blocks, so
/// consecutive crossing edges sometimes repeat a block pair and
/// sometimes do not.
fn arb_few_block_dag() -> impl Strategy<Value = (Cdag, Vec<usize>)> {
    (arb_dag(30), 2usize..5).prop_flat_map(|(g, blocks)| {
        let n = g.num_vertices();
        (Just(g), proptest::collection::vec(0..blocks, n))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The builder's verdict, on edge lists whose ids run both ways and
    /// may hold a cycle, a self-loop or a dangling edge, is exactly the
    /// reference's: the same error variant and vertex, or success.
    #[test]
    fn build_matches_reference_kahn(input in arb_builder_input()) {
        let (n, edges, inputs) = &input;
        let mut b = CdagBuilder::new();
        b.add_vertices(*n as usize);
        for &(u, v) in edges {
            b.add_edge(VertexId(u), VertexId(v));
        }
        for &v in inputs {
            b.tag_input(VertexId(v));
        }
        let built = b.build();
        prop_assert_eq!(built.as_ref().err().cloned(), reference_build(&input).err());
        if let Ok(g) = built {
            prop_assert_eq!(g.num_edges(), edges.len());
            prop_assert!(is_valid_topological_order(&g, &topological_order(&g)));
        }
    }

    /// Union-find labels every vertex exactly as the depth-first search
    /// did: the same component count, numbered by lowest vertex.
    #[test]
    fn components_match_dfs_reference(g in arb_sparse_permuted_dag()) {
        prop_assert_eq!(weakly_connected_components(&g), dfs_components(&g));
    }

    /// The quotient's edges are every crossing block pair, sorted and
    /// distinct, whatever the repeat filter skipped.
    #[test]
    fn quotient_edges_are_every_crossing_pair((g, assignment) in arb_few_block_dag()) {
        let crossing: BTreeSet<(usize, usize)> = g
            .edges()
            .map(|(u, v)| (assignment[u.index()], assignment[v.index()]))
            .filter(|(a, b)| a != b)
            .collect();
        let q = QuotientGraph::new(&g, &assignment);
        prop_assert_eq!(q.edges, crossing.into_iter().collect::<Vec<_>>());
    }
}
