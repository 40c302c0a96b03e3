//! E10 — validation sandwich: prints the LB ≤ optimal ≤ heuristic table
//! and benchmarks the game engines (exact solver, recorded-game player
//! under each eviction policy).

use criterion::{criterion_group, criterion_main, Criterion};
use dmc_cdag::topo::topological_order;
use dmc_core::games::executor::certified_upper_bound;
use dmc_core::games::optimal::{optimal_io, GameKind};
use dmc_kernels::{chains, matmul};
use dmc_sim::CachePolicy;

fn bench(c: &mut Criterion) {
    println!("{}", dmc_bench::pebbling_experiment());
    let mut group = c.benchmark_group("pebbling");
    let g = chains::ladder(3, 3);
    group.bench_function("optimal/ladder3x3_s4", |b| {
        b.iter(|| optimal_io(&g, 4, GameKind::Rbw))
    });
    let g = matmul::matmul(6);
    let order = topological_order(&g);
    for policy in [CachePolicy::Lru, CachePolicy::Opt] {
        group.bench_function(format!("executor/matmul6_s32_{policy:?}"), |b| {
            b.iter(|| certified_upper_bound(&g, 32, &order, policy).expect("fits"))
        });
    }
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
