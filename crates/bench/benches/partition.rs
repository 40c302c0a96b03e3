//! Partition ablation: prints the Theorem-1 vs greedy table and benchmarks
//! partition construction + validation.

use criterion::{criterion_group, criterion_main, Criterion};
use dmc_cdag::topo::topological_order;
use dmc_core::games::executor::execute_rbw;
use dmc_core::partition::construct::{from_trace, greedy_partition};
use dmc_core::partition::validate_rbw;
use dmc_kernels::matmul;
use dmc_sim::CachePolicy;

fn bench(c: &mut Criterion) {
    println!("{}", dmc_bench::partition_experiment());
    let mut group = c.benchmark_group("partition");
    let g = matmul::matmul(5);
    let order = topological_order(&g);
    let game = execute_rbw(&g, 16, &order, CachePolicy::Lru).expect("fits");
    group.bench_function("from_trace/matmul5_s16", |b| {
        b.iter(|| from_trace(&g, &game.trace, 16).partition.num_blocks())
    });
    group.bench_function("greedy/matmul5_s32", |b| {
        b.iter(|| greedy_partition(&g, &order, 32).num_blocks())
    });
    let p = greedy_partition(&g, &order, 32);
    group.bench_function("validate/matmul5_s32", |b| {
        b.iter(|| validate_rbw(&g, &p, 32).is_ok())
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
