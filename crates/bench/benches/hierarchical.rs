//! E16 — flat vs hierarchical pipeline.
//!
//! Benchmarks [`Analyzer::analyze`] (full flat portfolio, dominated by
//! the adaptive wavefront engine) against
//! [`Analyzer::analyze_hierarchical`] on sparse random layered DAGs. Up
//! to 2¹⁷ vertices the hierarchical path runs the flat pipeline's own
//! whole-graph wavefront member, so each pair times the interval
//! clustering and its one counting pass on top of that engine run.
//! Above 2¹⁷ vertices the hierarchical path is composition-only (Kahn
//! order, components, one coarsening pass) — the configuration the
//! 10⁷-vertex scale curve uses — and only it is timed there. The full
//! scale curve to 10⁷+ vertices lives in `repro scale`; criterion
//! iteration counts make those sizes impractical here.

use criterion::{criterion_group, criterion_main, Criterion};
use dmc_core::pipeline::{Analyzer, AnalyzerConfig, HierarchicalOptions};
use dmc_kernels::random::{random_layered, RandomDagConfig};
use std::time::Duration;

fn random_dag(layers: usize, width: usize) -> dmc_cdag::Cdag {
    random_layered(RandomDagConfig {
        layers,
        width,
        deg: 3,
        edge_prob: 0.0,
        seed: 7,
    })
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("hierarchical");
    let opts = HierarchicalOptions::default();
    let small = [(8usize, 64usize), (8, 128), (16, 128)].map(|(l, w)| random_dag(l, w));
    let large = random_dag(16, 16384);
    for t in [1usize, 4] {
        let analyzer = Analyzer::new(AnalyzerConfig {
            sram: 4,
            threads: t,
            ..AnalyzerConfig::default()
        });
        for g in &small {
            let n = g.num_vertices();
            group.bench_function(format!("flat_t{t}/{n}v"), |b| {
                b.iter(|| analyzer.analyze(g).bound.value)
            });
            group.bench_function(format!("hier_t{t}/{n}v"), |b| {
                b.iter(|| analyzer.analyze_hierarchical(g, &opts).bound.value)
            });
        }
        let n = large.num_vertices();
        group.bench_function(format!("hier_t{t}/{n}v"), |b| {
            b.iter(|| analyzer.analyze_hierarchical(&large, &opts).bound.value)
        });
    }
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    targets = bench
);
criterion_main!(benches);
