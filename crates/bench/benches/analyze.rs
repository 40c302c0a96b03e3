//! E13 — the unified bound-analysis pipeline: prints the kernel table and
//! benchmarks [`Analyzer`] against the equivalent hand-wired analysis
//! (components → per-component portfolio → Theorem-2 sum, written out
//! manually), plus the pipeline's thread scaling on multi-component
//! inputs.

use criterion::{criterion_group, criterion_main, Criterion};
use dmc_cdag::builder::disjoint_union;
use dmc_cdag::components::weakly_connected_components;
use dmc_cdag::subgraph;
use dmc_cdag::Cdag;
use dmc_core::bounds::decompose::{decomposition_sum, untag_inputs, untagging_transfer};
use dmc_core::bounds::mincut::{auto_wavefront_bound_with, AnchorStrategy};
use dmc_core::bounds::{best_lower_bound, IoBound};
use dmc_core::pipeline::{Analyzer, AnalyzerConfig};
use dmc_kernels::chains::ladder;

/// The pre-pipeline wiring every caller used to repeat: find components,
/// induce, run the methods, pick per-piece winners, sum with Theorem 2.
fn hand_wired(g: &Cdag, s: u64) -> f64 {
    let comps = weakly_connected_components(g);
    let pieces = subgraph::decompose(g, &comps.assignment, comps.count);
    let bounds: Vec<IoBound> = pieces
        .iter()
        .map(|p| {
            let wavefront = untagging_transfer(&auto_wavefront_bound_with(
                &untag_inputs(&p.cdag),
                s,
                AnchorStrategy::Adaptive,
                1,
            ));
            best_lower_bound([IoBound::trivial(&p.cdag), wavefront]).expect("two candidates")
        })
        .collect();
    decomposition_sum(&bounds).value
}

fn bench(c: &mut Criterion) {
    println!("{}", dmc_bench::analyze_experiment());
    let s = 4u64;
    let mut group = c.benchmark_group("analyze");
    for w in [6usize, 10, 14] {
        let g = disjoint_union(&[ladder(w, w), ladder(w - 1, w + 1), ladder(w + 1, w - 1)]);
        group.bench_function(format!("hand_wired/3xladder{w}"), |b| {
            b.iter(|| hand_wired(&g, s))
        });
        for t in [1usize, 2, 4] {
            let analyzer = Analyzer::new(AnalyzerConfig {
                sram: s,
                threads: t,
                ..AnalyzerConfig::default()
            });
            group.bench_function(format!("pipeline_t{t}/3xladder{w}"), |b| {
                b.iter(|| analyzer.analyze(&g).bound.value)
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
