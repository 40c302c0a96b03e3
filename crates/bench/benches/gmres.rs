//! E5 — Theorem 9 + §5.3: prints the GMRES ratio sweep and benchmarks the
//! GMRES CDAG build.

use criterion::{criterion_group, criterion_main, Criterion};
use dmc_kernels::gmres::gmres_cdag;
use dmc_kernels::grid::Stencil;

fn bench(c: &mut Criterion) {
    println!("{}", dmc_bench::gmres_experiment());
    let mut group = c.benchmark_group("gmres");
    group.bench_function("cdag_build/n6d1m4", |b| {
        b.iter(|| gmres_cdag(6, 1, 4, Stencil::VonNeumann).cdag.num_vertices())
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
