//! End-to-end tests of the hierarchical analysis mode: dominance of the
//! flat pipeline across the whole kernel catalog, RBW-optimum soundness
//! of the composed bound, thread-count invariance of the full hierarchy
//! report, its coarse block at recorded values, and the configurable
//! admission limit behind `repro analyze --max-vertices`.

use dmc::cdag::Cdag;
use dmc::core::games::optimal::{optimal_io, GameKind};
use dmc::core::pipeline::{Analyzer, AnalyzerConfig, HierarchicalOptions};
use dmc::kernels::catalog::Registry;
use dmc::kernels::random::{random_layered, RandomDagConfig};
use proptest::prelude::*;

fn analyzer(sram: u64, threads: usize) -> Analyzer {
    Analyzer::new(AnalyzerConfig {
        sram,
        threads,
        ..AnalyzerConfig::default()
    })
}

/// The hierarchical bound is dominated by the flat bound **by
/// construction** (per-cluster trivial bounds sum to the whole-graph
/// trivial bound and the whole-graph wavefront is shared with the flat
/// portfolio), and both are certified on the same graph. Check the
/// invariant across every catalog kernel at its default spec.
#[test]
fn hierarchical_dominated_by_flat_across_catalog() {
    let registry = Registry::shared();
    for kernel in registry.iter() {
        let spec = registry
            .defaults(kernel.name())
            .expect("every kernel has valid defaults");
        let g = spec.build();
        let flat = analyzer(8, 1).analyze(&g);
        let hier = analyzer(8, 1).analyze_hierarchical(&g, &HierarchicalOptions::default());
        assert!(
            hier.bound.value <= flat.bound.value,
            "{}: hierarchical {} exceeds flat {}",
            kernel.name(),
            hier.bound.value,
            flat.bound.value
        );
        let h = hier.hierarchy.as_ref().expect("hierarchy level present");
        assert!(h.cluster_count >= 1);
        assert_eq!(
            h.clusters.iter().map(|c| c.vertices).sum::<usize>(),
            g.num_vertices(),
            "{}: clusters must partition the vertex set",
            kernel.name()
        );
        assert!(
            h.composed.value <= hier.bound.value,
            "{}: the certified bound folds the composition",
            kernel.name()
        );
    }
}

/// The admission limit is enforced centrally and loudly: a spec whose
/// estimated size exceeds the ceiling is rejected at parse time with an
/// error that names the remedy, and the same spec is admitted when the
/// caller raises the ceiling.
#[test]
fn admission_limit_is_configurable_and_loud() {
    let registry = Registry::shared();
    let spec = "random(layers=64,width=65536,deg=3,seed=7)";
    let err = registry
        .parse_within(spec, 1 << 20)
        .expect_err("4.2M vertices must not pass a 1M ceiling");
    let msg = err.to_string();
    assert!(msg.contains("vertices"), "unhelpful error: {msg}");
    assert!(
        msg.contains("--max-vertices") || msg.contains("parse_within"),
        "error must name the remedy: {msg}"
    );
    assert!(registry.parse_within(spec, 1 << 23).is_ok());
}

/// The report's coarse block — clusters, quotient edges, cut edges — on
/// two Section-5 kernels, at values recorded while the clustering was
/// still contracted into a super-vertex DAG: counting the clusters
/// without building that DAG must not move them.
#[test]
fn coarse_block_matches_recorded_values() {
    let registry = Registry::shared();
    for (spec, clusters, want) in [
        ("cg(n=32,d=2,t=4)", 16, (16, 44, 51_610)),
        ("gmres(n=16,d=2,m=4)", 8, (8, 18, 8_413)),
    ] {
        let parsed = registry.parse(spec).expect("valid spec");
        let opts = HierarchicalOptions {
            clusters: Some(clusters),
        };
        let report = analyzer(64, 1).analyze_kernel_hierarchical(&parsed, &opts);
        let c = &report.hierarchy.as_ref().expect("hierarchy level").coarse;
        assert_eq!((c.clusters, c.edges, c.cut_edges), want, "{spec}");
    }
}

/// Tiny graphs where the exact RBW optimum is computable; the
/// hierarchical bound must stay below it.
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

fn arb_cdag() -> impl Strategy<Value = Cdag> {
    (2usize..6, 2usize..8, 0.1f64..0.7, 0u64..1000).prop_map(|(layers, width, p, seed)| {
        random_layered(RandomDagConfig {
            layers,
            width,
            deg: 0,
            edge_prob: p,
            seed,
        })
    })
}

/// A forced non-trivial cluster count, so the Theorem-2 composition
/// over several clusters is actually exercised.
fn three_clusters() -> HierarchicalOptions {
    HierarchicalOptions { clusters: Some(3) }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Soundness: the hierarchical bound never exceeds the exact RBW
    /// optimum.
    #[test]
    fn hierarchical_bound_below_optimal(g in arb_tiny_cdag(), s_extra in 1usize..5) {
        let min_s = g.vertices().map(|v| g.in_degree(v) + 1).max().unwrap_or(1);
        let s = min_s + s_extra;
        let report = analyzer(s as u64, 1).analyze_hierarchical(&g, &three_clusters());
        if let Some(opt) = optimal_io(&g, s, GameKind::Rbw) {
            prop_assert!(
                report.bound.value <= opt as f64,
                "hierarchical {} > optimal {opt}",
                report.bound.value
            );
        }
    }

    /// The full hierarchy report — text and JSON — is bit-identical at
    /// 1, 2, and 4 threads.
    #[test]
    fn hierarchical_invariant_in_threads(g in arb_cdag(), s in 2u64..6) {
        let base = analyzer(s, 1).analyze_hierarchical(&g, &three_clusters());
        for threads in [2usize, 4] {
            let r = analyzer(s, threads).analyze_hierarchical(&g, &three_clusters());
            prop_assert_eq!(r.to_string(), base.to_string());
            prop_assert_eq!(serde::json::to_string(&r), serde::json::to_string(&base));
        }
    }
}
