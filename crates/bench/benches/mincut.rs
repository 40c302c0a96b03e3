//! E11 — §3.3: prints the automated min-cut wavefront tables and
//! benchmarks the Dinic vertex-min-cut on growing CDAGs: anchor-strategy
//! ablation plus the batched [`WavefrontEngine`] against the naive serial
//! loop (fresh network + reachability per anchor).

use criterion::{criterion_group, criterion_main, Criterion};
use dmc_cdag::cut::max_min_wavefront;
use dmc_cdag::engine::WavefrontEngine;
use dmc_cdag::VertexId;
use dmc_core::bounds::decompose::untag_inputs;
use dmc_core::bounds::mincut::{auto_wavefront_bound, AnchorStrategy};
use dmc_kernels::chains::ladder;

fn bench(c: &mut Criterion) {
    println!("{}", dmc_bench::mincut_experiment());
    let mut group = c.benchmark_group("mincut");
    for w in [6usize, 10, 14] {
        let g = untag_inputs(&ladder(w, w));
        group.bench_function(format!("auto_all/ladder{w}"), |b| {
            b.iter(|| auto_wavefront_bound(&g, 2, AnchorStrategy::All).value)
        });
        group.bench_function(format!("auto_adaptive/ladder{w}"), |b| {
            b.iter(|| auto_wavefront_bound(&g, 2, AnchorStrategy::Adaptive).value)
        });
    }
    group.finish();

    // Engine vs the naive serial loop, all anchors. The engine must win
    // via arena reuse + pruning even at 1 thread; the thread sweep shows
    // the parallel scaling on multi-core runners.
    let mut group = c.benchmark_group("mincut_engine");
    for w in [8usize, 16] {
        let g = untag_inputs(&ladder(w, w));
        let anchors: Vec<VertexId> = g.vertices().collect();
        group.bench_function(format!("naive_serial/ladder{w}"), |b| {
            b.iter(|| max_min_wavefront(&g, &anchors).map(|m| m.size))
        });
        for t in [1usize, 2, 4] {
            group.bench_function(format!("engine_t{t}/ladder{w}"), |b| {
                let engine = WavefrontEngine::new(&g).with_threads(t);
                b.iter(|| engine.run(&anchors).best.map(|m| m.size))
            });
        }
    }
    group.finish();

    // Headline comparison (ROADMAP scale target): ladder(64,64) with All
    // anchors — 4096 independent max-flows per iteration. Engine at
    // automatic thread count vs the naive loop.
    let mut group = c.benchmark_group("mincut_engine_ladder64");
    let g = untag_inputs(&ladder(64, 64));
    let anchors: Vec<VertexId> = g.vertices().collect();
    group.bench_function("naive_serial", |b| {
        b.iter(|| max_min_wavefront(&g, &anchors).map(|m| m.size))
    });
    group.bench_function("engine_auto", |b| {
        let engine = WavefrontEngine::new(&g);
        b.iter(|| engine.run(&anchors).best.map(|m| m.size))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(1));
    targets = bench
}
criterion_main!(benches);
