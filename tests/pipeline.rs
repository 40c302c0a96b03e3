//! End-to-end tests of the unified bound-analysis pipeline: the
//! acceptance scenario on the shipped composite, Theorem-2 additivity on
//! disjoint unions, the two-member, trivial-floored portfolio against
//! every method computed in full on every registry kernel, and property
//! tests on random layered DAGs (RBW sandwich, thread-count invariance,
//! and the 2S-counting bound's domination by the trivial bound).

use dmc::cdag::builder::disjoint_union;
use dmc::cdag::components::weakly_connected_components;
use dmc::cdag::subgraph;
use dmc::cdag::textio::from_text;
use dmc::cdag::Cdag;
use dmc::core::bounds::decompose::{decomposition_sum, untag_inputs, untagging_transfer};
use dmc::core::bounds::mincut::{auto_wavefront_bound_with, AnchorStrategy};
use dmc::core::bounds::{best_lower_bound, IoBound, Method};
use dmc::core::games::optimal::{optimal_io, GameKind};
use dmc::core::pipeline::{partition2s_bound, Analyzer, AnalyzerConfig};
use dmc::kernels::catalog::Registry;
use dmc::kernels::chains;
use dmc::kernels::random::{random_layered, RandomDagConfig};
use proptest::prelude::*;
use std::path::PathBuf;

fn analyzer(sram: u64, threads: usize) -> Analyzer {
    Analyzer::new(AnalyzerConfig {
        sram,
        threads,
        ..AnalyzerConfig::default()
    })
}

fn shipped_composite() -> Cdag {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/graphs/composite.cdag");
    from_text(&std::fs::read_to_string(path).expect("composite.cdag ships with the repo"))
        .expect("composite.cdag parses")
}

/// The PR acceptance scenario: on the shipped two-component composite the
/// per-component Theorem-2 sum strictly beats the best single whole-graph
/// method, and the full report is bit-identical at any thread count.
#[test]
fn composite_acceptance() {
    let g = shipped_composite();
    let base = analyzer(4, 1).analyze(&g);
    assert_eq!(base.component_count, 2);
    let composed = base.composed.as_ref().expect("two components");
    let best_single = base.best_whole_graph.as_ref().expect("baseline on").value;
    assert!(
        composed.value > best_single,
        "Theorem-2 sum {} must strictly beat the single-method best {best_single}",
        composed.value
    );
    assert_eq!(base.bound.value, composed.value);
    // The provenance tree reaches the per-component Lemma-2 leaves.
    assert_eq!(composed.provenance.children.len(), 2);
    for child in &composed.provenance.children {
        assert!(!child.provenance.children.is_empty(), "leaf-only child");
    }
    for threads in [2usize, 4] {
        let r = analyzer(4, threads).analyze(&g);
        assert_eq!(r.to_string(), base.to_string(), "@ {threads} threads");
    }
}

/// Theorem-2 additivity: analyzing a disjoint union equals summing the
/// pipeline's per-kernel results.
#[test]
fn disjoint_union_is_additive() {
    let parts = [chains::ladder(6, 6), chains::binary_reduction(8)];
    let union = disjoint_union(&parts);
    let report = analyzer(3, 2).analyze(&union);
    let composed = report.composed.as_ref().expect("two components");
    let per_piece: f64 = parts
        .iter()
        .map(|g| analyzer(3, 1).analyze(g).bound.value)
        .sum();
    assert_eq!(composed.value, per_piece);
    assert_eq!(report.bound.value, per_piece);
}

/// Every bound method computed in full: trivial, the wavefront member
/// with no incumbent floor, and the 2S-counting bound, which the
/// pipeline does not run.
fn full_portfolio(g: &Cdag, s: u64) -> Vec<IoBound> {
    let wf = auto_wavefront_bound_with(&untag_inputs(g), s, AnchorStrategy::Adaptive, 1);
    vec![
        IoBound::trivial(g),
        if g.num_inputs() > 0 {
            untagging_transfer(&wf)
        } else {
            wf
        },
        partition2s_bound(g, s),
    ]
}

/// The Lemma-2 leaf of a wavefront candidate (under its Theorem-3
/// wrapper on tagged graphs).
fn lemma2_leaf(b: &IoBound) -> &IoBound {
    match b.method {
        Method::Tagging => &b.provenance.children[0],
        _ => b,
    }
}

fn json(b: &IoBound) -> String {
    serde::json::to_string(b)
}

/// Checks one two-member floored candidate list against the three
/// methods computed in full and returns their first-wins winner.
fn check_candidates(got: &[IoBound], full: &[IoBound], what: &str) -> IoBound {
    assert_eq!(got.len(), 2, "{what}: trivial and wavefront only");
    assert_eq!(json(&got[0]), json(&full[0]), "{what}: trivial");
    let note = &lemma2_leaf(&got[1]).provenance.note;
    if note.starts_with("not run:") || note.starts_with("dominated:") {
        // Same shape, value 0, and the skipped bound really cannot win.
        assert_eq!(got[1].method, full[1].method, "{what}: shape");
        assert_eq!(got[1].value, 0.0, "{what}: {note}");
        assert!(
            full[1].value <= full[0].value,
            "{what}: skipped a wavefront {} that beats trivial {}",
            full[1].value,
            full[0].value
        );
    } else {
        assert_eq!(json(&got[1]), json(&full[1]), "{what}: wavefront");
    }
    let expected = best_lower_bound(full.iter().cloned()).expect("three methods");
    let winner = best_lower_bound(got.iter().cloned()).expect("two methods");
    assert_eq!(json(&winner), json(&expected), "{what}: winner");
    expected
}

/// Neither the trivial-incumbent floor nor leaving out the 2S-counting
/// bound changes what the pipeline certifies: on every registry kernel
/// at default parameters and S ∈ {4, 64, 1024}, the final bound's value
/// and method equal the first-wins best of the three methods computed in
/// full (composed over components where the pipeline composes), and
/// every wavefront candidate that is not dominated is byte-equal to the
/// unfloored one.
#[test]
fn incumbent_floor_matches_the_full_portfolio_on_the_registry() {
    let registry = Registry::shared();
    for name in registry.names() {
        let g = registry.defaults(name).expect("default spec").build();
        let comps = weakly_connected_components(&g);
        let pieces = subgraph::decompose(&g, &comps.assignment, comps.count);
        for s in [4u64, 64, 1024] {
            let what = format!("{name} @ S = {s}");
            let report = analyzer(s, 1).analyze(&g);
            let whole = check_candidates(&report.whole_graph, &full_portfolio(&g, s), &what);
            let composed = (!report.components.is_empty()).then(|| {
                let bests: Vec<IoBound> = report
                    .components
                    .iter()
                    .zip(&pieces)
                    .map(|(c, piece)| {
                        let full = full_portfolio(&piece.cdag, s);
                        let what = format!("{what}, component {}", c.index);
                        check_candidates(&c.candidates, &full, &what)
                    })
                    .collect();
                decomposition_sum(&bests)
            });
            let expected = best_lower_bound(composed.into_iter().chain([whole])).expect("bound");
            assert_eq!(report.bound.value, expected.value, "{what}");
            assert_eq!(report.bound.method, expected.method, "{what}");
            let two = analyzer(s, 2).analyze(&g);
            assert_eq!(two.to_string(), report.to_string(), "{what} @ 2 threads");
        }
    }
}

/// An astronomically large `S` saturates the incumbent floor: the engine
/// is skipped on every registry kernel, without overflow or panic.
#[test]
fn huge_sram_skips_the_engine_on_the_registry() {
    let registry = Registry::shared();
    for name in registry.names() {
        let g = registry.defaults(name).expect("default spec").build();
        let report = analyzer(u64::MAX, 1).analyze(&g);
        let wf = lemma2_leaf(&report.whole_graph[1]);
        assert!(
            wf.provenance.note.starts_with("not run: level-cut ceiling"),
            "{name}: {}",
            wf.provenance.note
        );
        let best = report.best_whole_graph.as_ref().expect("baseline on");
        assert_eq!(best.method, Method::Trivial, "{name}");
    }
}

fn arb_cdag() -> impl Strategy<Value = Cdag> {
    (2usize..5, 2usize..6, 0.1f64..0.7, 0u64..1000).prop_map(|(layers, width, p, seed)| {
        random_layered(RandomDagConfig {
            layers,
            width,
            deg: 0,
            edge_prob: p,
            seed,
        })
    })
}

/// Smaller instances for the sandwich test — the exact RBW solver's
/// state space grows exponentially in `|V|`.
fn arb_tiny_cdag() -> impl Strategy<Value = Cdag> {
    (2usize..4, 2usize..4, 0.15f64..0.7, 0u64..1000).prop_map(|(layers, width, p, seed)| {
        random_layered(RandomDagConfig {
            layers,
            width,
            deg: 0,
            edge_prob: p,
            seed,
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// RBW sandwich: the pipeline's certified bound never exceeds the
    /// exact RBW optimum.
    #[test]
    fn pipeline_bound_below_optimal(g in arb_tiny_cdag(), s_extra in 1usize..5) {
        let min_s = g.vertices().map(|v| g.in_degree(v) + 1).max().unwrap_or(1);
        let s = min_s + s_extra;
        let report = analyzer(s as u64, 1).analyze(&g);
        if let Some(opt) = optimal_io(&g, s, GameKind::Rbw) {
            prop_assert!(
                report.bound.value <= opt as f64,
                "pipeline {} > optimal {opt}",
                report.bound.value
            );
        }
    }

    /// The report — text and JSON — is invariant under the thread count.
    #[test]
    fn pipeline_invariant_in_threads(g in arb_cdag(), s in 2u64..6) {
        let base = analyzer(s, 1).analyze(&g);
        for threads in [2usize, 4] {
            let r = analyzer(s, threads).analyze(&g);
            prop_assert_eq!(r.to_string(), base.to_string());
            prop_assert_eq!(serde::json::to_string(&r), serde::json::to_string(&base));
        }
    }

    /// The 2S-counting bound `S·(⌈d/2S⌉ − 1)` is strictly below the
    /// trivial bound or both are 0, at any `S` — the reason the
    /// portfolio does not run it.
    #[test]
    fn partition2s_never_beats_trivial(g in arb_cdag(), s in 1u64..1025) {
        let t = IoBound::trivial(&g).value;
        for s in [1, 2, s, u64::MAX] {
            let p = partition2s_bound(&g, s).value;
            prop_assert!(p < t || (p == 0.0 && t == 0.0), "2S {p} vs trivial {t} at S = {s}");
        }
    }

    /// Composing over a union of two random DAGs equals the sum of their
    /// individual pipeline results.
    #[test]
    fn pipeline_additive_on_unions(a in arb_cdag(), b in arb_cdag(), s in 2u64..6) {
        let union = disjoint_union(&[a.clone(), b.clone()]);
        let whole = analyzer(s, 2).analyze(&union);
        let sum = analyzer(s, 1).analyze(&a).bound.value
            + analyzer(s, 1).analyze(&b).bound.value;
        let composed = whole.composed.as_ref().expect("disjoint parts");
        prop_assert_eq!(composed.value, sum);
    }
}
