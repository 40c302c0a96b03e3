//! E15 — empirical validation: prints the sandwich table, then
//! benchmarks a plain [`Simulation`] run against the certified upper
//! bound on the same schedules (the same run with its moves recorded,
//! plus the RBW validator's replay), and the S-sweep driver's thread
//! scaling.

use criterion::{criterion_group, criterion_main, Criterion};
use dmc_core::games::executor::certified_upper_bound;
use dmc_kernels::catalog::Registry;
use dmc_sim::simulation::{sweep, CachePolicy, Simulation};

fn bench(c: &mut Criterion) {
    println!("{}", dmc_bench::simulate_experiment());
    let registry = Registry::shared();
    let mut group = c.benchmark_group("simulate");
    for spec_str in ["jacobi(n=32,d=1,t=16)", "matmul(n=6)", "fft(n=64)"] {
        let spec = registry.parse(spec_str).expect("bench specs are valid");
        let g = spec.build();
        let sched = spec.schedule_source(&g, 32);
        let mut sim = Simulation::new();
        group.bench_function(format!("arena_lru/{spec_str}"), |b| {
            b.iter(|| {
                sim.run(&g, &sched.order, CachePolicy::Lru, 32)
                    .expect("feasible")
                    .io()
            })
        });
        group.bench_function(format!("executor_lru/{spec_str}"), |b| {
            b.iter(|| {
                certified_upper_bound(&g, 32, &sched.order, CachePolicy::Lru).expect("feasible")
            })
        });
    }
    // The sweep driver: same points, 1/2/4 workers, identical reports.
    let spec = registry
        .parse("jacobi(n=64,d=1,t=32)")
        .expect("bench specs are valid");
    let g = spec.build();
    let sched = spec.schedule_source(&g, 64);
    let srams: Vec<u64> = (8..72).collect();
    for t in [1usize, 2, 4] {
        group.bench_function(format!("sweep_t{t}/jacobi(n=64,d=1,t=32)"), |b| {
            b.iter(|| sweep(&g, &sched.order, CachePolicy::Lru, &srams, t).len())
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
