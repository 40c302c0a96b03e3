//! End-to-end tests of the unified bound-analysis pipeline: the
//! acceptance scenario on the shipped composite, Theorem-2 additivity on
//! disjoint unions, the two-member, trivial-floored portfolio against
//! every method computed in full on every registry kernel, one
//! S-independent measurement against per-S analysis, and property tests
//! on random layered DAGs (RBW sandwich, thread-count invariance, the
//! 2S-counting bound's domination by the trivial bound, and measurement
//! reuse across S).

use dmc::cdag::builder::disjoint_union;
use dmc::cdag::components::weakly_connected_components;
use dmc::cdag::subgraph;
use dmc::cdag::textio::from_text;
use dmc::cdag::Cdag;
use dmc::core::bounds::decompose::{decomposition_sum, untag_inputs, untagging_transfer};
use dmc::core::bounds::mincut::{auto_wavefront_bound_with, AnchorStrategy};
use dmc::core::bounds::{best_lower_bound, IoBound, Method};
use dmc::core::games::optimal::{optimal_io, GameKind};
use dmc::core::pipeline::{partition2s_bound, AnalysisReport, Analyzer, AnalyzerConfig};
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

/// The report assembled from a measurement is the per-S analysis, in
/// `Display` and JSON (the analyzers here report no verdicts).
fn assert_assembly_matches(got: &AnalysisReport, report: &AnalysisReport, what: &str) {
    assert_eq!(got.to_string(), report.to_string(), "{what}");
    assert_eq!(
        serde::json::to_string(got),
        serde::json::to_string(report),
        "{what}"
    );
}

/// Neither the trivial-incumbent floor nor leaving out the 2S-counting
/// bound changes what the pipeline certifies: on every registry kernel
/// at default parameters and S ∈ {4, 64, 1024}, the final bound's value
/// and method equal the first-wins best of the three methods computed in
/// full (composed over components where the pipeline composes), and
/// every wavefront candidate that is not dominated is byte-equal to the
/// unfloored one. Nor does measuring once: the portfolio assembled at
/// each S from one measurement at S = 4 is the per-S analysis.
#[test]
fn incumbent_floor_matches_the_full_portfolio_on_the_registry() {
    let registry = Registry::shared();
    for name in registry.names() {
        let g = registry.defaults(name).expect("default spec").build();
        let comps = weakly_connected_components(&g);
        let pieces = subgraph::decompose(&g, &comps.assignment, comps.count);
        let measured = analyzer(4, 1).measure_portfolio(&g, 4);
        for s in [4u64, 64, 1024] {
            let what = format!("{name} @ S = {s}");
            let report = analyzer(s, 1).analyze(&g);
            assert_assembly_matches(&measured.assemble(s), &report, &what);
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

/// `cg(n=16,d=2,t=2)` crosses all three wavefront regimes between
/// S = 256 and S = 1,280: the engine's winner (w^max = 1,026) beats the
/// trivial bound through S = 512, it is dominated at 640 and 768, and
/// from 896 on the level-cut ceiling (1,408) rules the engine out. One
/// measurement at S = 256 assembles each S's portfolio exactly as the
/// per-S analysis gives it.
#[test]
fn one_measurement_serves_all_three_wavefront_regimes() {
    let spec = Registry::shared()
        .parse("cg(n=16,d=2,t=2)")
        .expect("valid spec");
    let g = spec.build();
    let measured = analyzer(256, 2).measure_portfolio(&g, 256);
    for s in (256..=1280).step_by(128) {
        let what = format!("S = {s}");
        let report = analyzer(s, 1).analyze(&g);
        assert_assembly_matches(&measured.assemble(s), &report, &what);
        let note = &lemma2_leaf(&report.whole_graph[1]).provenance.note;
        let regime = match s {
            ..=512 => "2·(w^max − S) with w^max = 1026 at anchor",
            640..=768 => "dominated: w^max ≤ floor",
            _ => "not run: level-cut ceiling 1408",
        };
        assert!(note.starts_with(regime), "{what}: {note}");
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

    /// One measurement serves a whole set of capacities: on a union of
    /// three random DAGs, each kept tagged or untagged at random, the
    /// portfolio assembled from one measurement at the set's smallest S
    /// equals the per-S analysis at every S of the set — which holds 1
    /// and `u64::MAX` — and so does one taken at the smallest S above 1.
    #[test]
    fn one_measurement_matches_per_s_analysis(
        parts in proptest::collection::vec(arb_cdag(), 3),
        untag in proptest::collection::vec(0u8..2, 3),
        extra in proptest::collection::vec(2u64..4096, 3)
    ) {
        let parts: Vec<Cdag> = parts
            .iter()
            .zip(&untag)
            .map(|(g, &u)| if u == 1 { untag_inputs(g) } else { g.clone() })
            .collect();
        let g = disjoint_union(&parts);
        let mut srams = vec![1, u64::MAX];
        srams.extend(&extra);
        let reports: Vec<(u64, AnalysisReport)> =
            srams.iter().map(|&s| (s, analyzer(s, 1).analyze(&g))).collect();
        let s_above_1 = extra.iter().copied().min().expect("three extra capacities");
        for s_min in [1, s_above_1] {
            let measured = analyzer(s_min, 2).measure_portfolio(&g, s_min);
            for (s, report) in reports.iter().filter(|(s, _)| *s >= s_min) {
                assert_assembly_matches(&measured.assemble(*s), report, &format!("S = {s}"));
            }
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
