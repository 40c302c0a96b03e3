//! E2 — Section 3 composite example: prints the composite-vs-per-stage
//! table and benchmarks the RBW executor on the composite CDAG.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use dmc_cdag::topo::topological_order;
use dmc_core::games::executor::execute_rbw;
use dmc_sim::CachePolicy;

fn bench(c: &mut Criterion) {
    println!("{}", dmc_bench::sec3_composite(&[2, 4, 8]));
    let mut group = c.benchmark_group("sec3");
    for n in [4usize, 8] {
        let g = dmc_kernels::composite::composite(n);
        let order = topological_order(&g);
        let s = 4 * n + 4;
        group.bench_function(format!("composite_exec/n{n}"), |b| {
            b.iter_batched(
                || (g.clone(), order.clone()),
                |(g, order)| {
                    execute_rbw(&g, s, &order, CachePolicy::Opt)
                        .expect("fits")
                        .io
                },
                BatchSize::SmallInput,
            )
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
