//! E3/E4 — Theorem 8 + §5.2: prints the CG analysis and benchmarks the
//! pieces (CDAG generation and wavefront min-cut).

use criterion::{criterion_group, criterion_main, Criterion};
use dmc_cdag::cut::min_wavefront;
use dmc_kernels::cg::cg_cdag;
use dmc_kernels::grid::Stencil;

fn bench(c: &mut Criterion) {
    println!("{}", dmc_bench::cg_experiment());
    let mut group = c.benchmark_group("cg");
    group.bench_function("cdag_build/n8d1t2", |b| {
        b.iter(|| cg_cdag(8, 1, 2, Stencil::VonNeumann).cdag.num_vertices())
    });
    let cg = cg_cdag(6, 1, 1, Stencil::VonNeumann);
    group.bench_function("wavefront_mincut/n6d1", |b| {
        b.iter(|| min_wavefront(&cg.cdag, cg.marks[0].upsilon_x).size)
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
