//! Flow-core microbenchmarks: the per-anchor wavefront solver fresh and
//! warm-started, side by side on the same anchor sweeps.
//!
//! * `fresh` — per anchor, fresh DFS reachability and a fresh split
//!   network, solved by the phase-saturating `FlowNetwork::max_flow`.
//! * `warm_batched` — the current engine inner loop: one word-parallel
//!   `BatchReach` sweep per 64 anchors plus a single warm-started
//!   `WarmCut` network patched between consecutive anchors.
//!
//! Families: ladder grids (deep, narrow cuts) and a seeded random layered
//! DAG (wide, irregular cuts).

use criterion::{criterion_group, criterion_main, Criterion};
use dmc_cdag::bitset::BitSet;
use dmc_cdag::flow::{FlowNetwork, WarmCut};
use dmc_cdag::reach::{ancestors_into, descendants_into, BatchReach};
use dmc_cdag::topo::topological_order;
use dmc_cdag::{Cdag, VertexId};
use dmc_core::bounds::decompose::untag_inputs;
use dmc_kernels::chains::ladder;
use dmc_kernels::random::{random_layered, RandomDagConfig};

/// Effectively-infinite capacity, mirroring the library's split networks.
const INF: u32 = u32::MAX / 4;

/// Builds the vertex-split wavefront network for one anchor into `net`
/// (sources cuttable, sinks not) and returns the max flow — the historical
/// fresh-per-anchor solve.
fn fresh_cut(g: &Cdag, sources: &BitSet, sinks: &BitSet, net: &mut FlowNetwork) -> u64 {
    let n = g.num_vertices();
    let (s, t) = (2 * n, 2 * n + 1);
    net.reset(2 * n + 2);
    for v in 0..n {
        net.add_arc(2 * v, 2 * v + 1, if sinks.contains(v) { INF } else { 1 });
    }
    for (u, v) in g.edges() {
        net.add_arc(2 * u.index() + 1, 2 * v.index(), INF);
    }
    for v in sources.iter() {
        net.add_arc(s, 2 * v, INF);
    }
    for v in sinks.iter() {
        net.add_arc(2 * v + 1, t, INF);
    }
    net.max_flow(s, t)
}

/// Sweeps every vertex as an anchor with fresh per-anchor reachability and
/// a fresh split network; returns the max cut (the Lemma-2 `w^max`).
fn sweep_fresh(g: &Cdag, order: &[VertexId]) -> u64 {
    let n = g.num_vertices();
    let mut net = FlowNetwork::new(0);
    let mut sources = BitSet::new(n);
    let mut sinks = BitSet::new(n);
    let mut stack = Vec::new();
    let mut best = 0u64;
    for &x in order {
        ancestors_into(g, x, &mut sources, &mut stack);
        sources.insert(x.index());
        descendants_into(g, x, &mut sinks, &mut stack);
        if sinks.is_empty() {
            continue;
        }
        best = best.max(fresh_cut(g, &sources, &sinks, &mut net));
    }
    best
}

/// Sweeps every vertex as an anchor through the engine's inner loop: one
/// `BatchReach` word-parallel sweep per 64 anchors, one warm-started
/// `WarmCut` network patched between consecutive (topologically ordered)
/// anchors.
fn sweep_warm_batched(g: &Cdag, order: &[VertexId]) -> u64 {
    let n = g.num_vertices();
    let mut warm = WarmCut::new(g);
    let mut batch = BatchReach::new();
    let mut supply = BitSet::new(n);
    let mut drain = BitSet::new(n);
    let mut blocked = BitSet::new(n);
    let mut best = 0u64;
    for chunk in order.chunks(64) {
        batch.compute(g, order, chunk);
        for (j, _) in chunk.iter().enumerate() {
            batch.fill_drain(j, &mut drain);
            if drain.is_empty() {
                continue;
            }
            batch.fill_supply(j, &mut supply);
            batch.fill_blocked(j, &mut blocked);
            let cut = warm
                .min_cut_roles(&supply, &drain, &blocked)
                .expect("wavefront cuts are bounded");
            best = best.max(cut.size as u64);
        }
    }
    best
}

fn bench(c: &mut Criterion) {
    let families: Vec<(String, Cdag)> = vec![
        ("ladder16".to_string(), untag_inputs(&ladder(16, 16))),
        ("ladder24".to_string(), untag_inputs(&ladder(24, 24))),
        (
            "random_l24_w24".to_string(),
            random_layered(RandomDagConfig {
                layers: 24,
                width: 24,
                deg: 3,
                edge_prob: 0.0,
                seed: 7,
            }),
        ),
    ];
    let mut group = c.benchmark_group("flowcore");
    for (name, g) in &families {
        let order = topological_order(g);
        // The two sweeps must agree before we time them.
        let want = sweep_fresh(g, &order);
        assert_eq!(want, sweep_warm_batched(g, &order), "{name}: warm diverged");
        group.bench_function(format!("fresh/{name}"), |b| {
            b.iter(|| sweep_fresh(g, &order))
        });
        group.bench_function(format!("warm_batched/{name}"), |b| {
            b.iter(|| sweep_warm_batched(g, &order))
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
