//! E12 — parallel accounting: prints the P-RBW / halo tables and
//! benchmarks the P-RBW executor and the round-robin split.

use criterion::{criterion_group, criterion_main, Criterion};
use dmc_cdag::topo::topological_order;
use dmc_kernels::chains;
use dmc_kernels::grid::Stencil;
use dmc_kernels::jacobi::jacobi_cdag;
use dmc_machine::{Level, MemoryHierarchy};
use dmc_sim::hierarchy_sim::{remote_reads, split_round_robin};
use dmc_sim::schedule;

fn bench(c: &mut Criterion) {
    println!("{}", dmc_bench::parallel_experiment());
    let mut group = c.benchmark_group("parallel");
    let g = chains::ladder(8, 8);
    let h = MemoryHierarchy::new(vec![
        Level::new("regs", 4, 16),
        Level::new("mem", 2, 1 << 20),
    ])
    .expect("valid");
    let order = topological_order(&g);
    let owner: Vec<usize> = (0..g.num_vertices()).map(|i| (i / 16) % 4).collect();
    group.bench_function("prbw_owner_computes/ladder8x8", |b| {
        b.iter(|| {
            dmc_core::games::prbw::execute_owner_computes(&g, &h, &order, &owner)
                .expect("valid")
                .total_horizontal()
        })
    });
    let j = jacobi_cdag(64, 1, 4, Stencil::VonNeumann);
    let owner = schedule::jacobi_block_owner(&j, 4);
    group.bench_function("remote_reads_block_jacobi/n64t4p4", |b| {
        b.iter(|| remote_reads(&j.cdag, &owner))
    });
    group.bench_function("split_round_robin/n64t4p4", |b| {
        b.iter(|| split_round_robin(&j.cdag, 4).remote_reads)
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
