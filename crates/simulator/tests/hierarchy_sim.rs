//! Machine-hierarchy properties of the one simulator: every cache
//! boundary of a [`MemoryHierarchy`] is measured by [`Simulation::run`] at
//! its [`effective_capacities`] entry (the per-level loop of `dmc-core`'s
//! machine validation).
//!
//! * **One level**: a one-cache-level hierarchy built from any
//!   [`MachineSpec`](dmc_machine::MachineSpec) is simulated at `S`
//!   itself, so its measurement is the single-cache simulation.
//! * **Invariants** (property-based): inclusive traffic is monotone down
//!   the hierarchy, growing a level's capacity never increases its LRU
//!   miss count, an effectively infinite top level degenerates to
//!   compulsory misses only, and one arena reused across the levels
//!   matches a fresh arena per level.
//! * **Errors**: every [`HierarchyError`] variant is constructible and
//!   its Display names the offending level.

use dmc_cdag::graph::{Cdag, VertexId};
use dmc_kernels::catalog::Registry;
use dmc_kernels::random::{random_layered, RandomDagConfig};
use dmc_machine::hierarchy::{HierarchyError, Level, MemoryHierarchy};
use dmc_machine::specs::{ibm_bgq, machine_catalog};
use dmc_sim::hierarchy_sim::effective_capacities;
use dmc_sim::simulation::{min_feasible_capacity, CachePolicy, Simulation, Trace};
use dmc_sim::Inclusion;
use proptest::prelude::*;

/// One `Simulation::run` per cache boundary of `h` at its inclusive
/// effective capacity, fastest first, on the reused arena `sim`.
fn per_level(
    sim: &mut Simulation,
    g: &Cdag,
    order: &[VertexId],
    policy: CachePolicy,
    h: &MemoryHierarchy,
) -> Vec<Trace> {
    effective_capacities(h, Inclusion::Inclusive)
        .iter()
        .map(|(name, c)| {
            sim.run(g, order, policy, *c)
                .unwrap_or_else(|e| panic!("{name}: {e}"))
        })
        .collect()
}

/// Every catalog machine's one-cache-level hierarchy of capacity `S` has
/// one boundary, simulated at `S` under either inclusion, at the sweep
/// points of every registry kernel.
#[test]
fn one_level_hierarchy_is_the_single_cache_simulation() {
    let registry = Registry::shared();
    for machine in machine_catalog() {
        for name in registry.names() {
            let spec = registry.defaults(name).expect("registered kernel");
            let req = min_feasible_capacity(&spec.build()) as u64;
            for s in [req, 2 * req, 4 * req] {
                let h = machine.single_level_hierarchy(s);
                for inclusion in [Inclusion::Inclusive, Inclusion::Exclusive] {
                    assert_eq!(
                        effective_capacities(&h, inclusion),
                        [("cache".to_string(), s)],
                        "{name} on {} S={s} {inclusion}",
                        machine.name
                    );
                }
            }
        }
    }
}

/// An effectively infinite top level sees compulsory traffic only:
/// every input is loaded exactly once and every output stored once.
#[test]
fn infinite_top_level_degenerates_to_compulsory_misses() {
    let registry = Registry::shared();
    let mut sim = Simulation::new();
    let h = MemoryHierarchy::new(vec![
        Level::new("cache", 1, u64::MAX / 2),
        Level::new("DRAM", 1, u64::MAX),
    ])
    .expect("valid two-level hierarchy");
    for name in registry.names() {
        let spec = registry.defaults(name).expect("registered kernel");
        let g = spec.build();
        let sched = spec.schedule_source(&g, u64::MAX / 2);
        for policy in [CachePolicy::Lru, CachePolicy::Opt] {
            let levels = per_level(&mut sim, &g, &sched.order, policy, &h);
            assert_eq!(levels.len(), 1, "{name}: one cache boundary");
            let b = &levels[0];
            assert_eq!(
                b.loads as usize,
                g.inputs().len(),
                "{name} {policy:?}: loads beyond the compulsory inputs"
            );
            // Only computed (dirty) outputs are flushed; an output that
            // is also an input stays clean and is never written back.
            let computed_outputs = g
                .vertices()
                .filter(|v| g.outputs().contains(v.index()) && !g.inputs().contains(v.index()))
                .count();
            assert_eq!(
                b.stores as usize, computed_outputs,
                "{name} {policy:?}: stores beyond the final output flush"
            );
            assert_eq!(b.evictions, 0, "{name} {policy:?}: evicted at S = infinity");
        }
    }
}

/// `HierarchyError`: every variant is reachable and its message names
/// the offending level.
#[test]
fn hierarchy_error_variants_are_loud() {
    let cases: Vec<(Vec<Level>, HierarchyError, &str)> = vec![
        (
            vec![Level::new("only", 1, 64)],
            HierarchyError::TooFewLevels,
            "at least two levels",
        ),
        (
            vec![
                Level::new("registers", 2, 64),
                Level::new("DRAM", 4, 1 << 20),
            ],
            HierarchyError::UnitsNotMonotone(2),
            "level 2 has more units than level 1",
        ),
        (
            vec![
                Level::new("registers", 9, 64),
                Level::new("L2", 2, 4096),
                Level::new("DRAM", 1, 1 << 20),
            ],
            HierarchyError::UnitsNotDivisible(1),
            "do not divide",
        ),
        (
            vec![
                Level::new("registers", 0, 64),
                Level::new("DRAM", 1, 1 << 20),
            ],
            HierarchyError::Degenerate(1),
            "zero units or capacity",
        ),
        (
            vec![Level::new("registers", 1, 64), Level::new("DRAM", 1, 0)],
            HierarchyError::Degenerate(2),
            "zero units or capacity",
        ),
    ];
    for (levels, want, needle) in cases {
        let got = MemoryHierarchy::new(levels).expect_err("invalid hierarchy must be rejected");
        assert_eq!(got, want);
        let msg = got.to_string();
        assert!(msg.contains(needle), "{want:?}: {msg:?} lacks {needle:?}");
    }
}

/// A small random layered DAG plus its Kahn order.
fn random_case(layers: usize, width: usize, seed: u64) -> (Cdag, Vec<VertexId>) {
    let g = random_layered(RandomDagConfig {
        layers,
        width,
        deg: 2,
        edge_prob: 0.0,
        seed,
    });
    let order = dmc_cdag::topo::topological_order(&g);
    (g, order)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Inclusive hierarchies with non-decreasing capacities move
    /// monotonically less traffic down the hierarchy: the level-l miss
    /// traffic is at least the level-(l+1) traffic, for both policies.
    #[test]
    fn inclusive_traffic_is_monotone(
        layers in 2usize..6,
        width in 1usize..6,
        seed in 0u64..1000,
        base in 0u64..16,
        step1 in 0u64..32,
        step2 in 0u64..32
    ) {
        let (g, order) = random_case(layers, width, seed);
        let req = min_feasible_capacity(&g) as u64;
        let caps = [req + base, req + base + step1, req + base + step1 + step2];
        let h = MemoryHierarchy::new(vec![
            Level::new("L1", 1, caps[0]),
            Level::new("L2", 1, caps[1]),
            Level::new("L3", 1, caps[2]),
            Level::new("DRAM", 1, u64::MAX),
        ]).expect("valid hierarchy");
        let mut sim = Simulation::new();
        for policy in [CachePolicy::Lru, CachePolicy::Opt] {
            let levels = per_level(&mut sim, &g, &order, policy, &h);
            prop_assert_eq!(levels.len(), 3);
            for (l, w) in levels.windows(2).enumerate() {
                prop_assert!(
                    w[0].io() >= w[1].io(),
                    "{policy:?}: level {} io {} < level {} io {}",
                    l + 1, w[0].io(), l + 2, w[1].io()
                );
            }
        }
    }

    /// LRU is a stack algorithm: growing one level's capacity never
    /// increases that level's miss traffic (no Belady anomaly).
    #[test]
    fn growing_a_level_never_hurts_under_lru(
        layers in 2usize..6,
        width in 1usize..6,
        seed in 0u64..1000,
        slack in 0u64..16,
        growth in 1u64..64
    ) {
        let (g, order) = random_case(layers, width, seed);
        let req = min_feasible_capacity(&g) as u64;
        let small = req + slack;
        let mk = |s1: u64| MemoryHierarchy::new(vec![
            Level::new("L1", 1, s1),
            Level::new("DRAM", 1, u64::MAX),
        ]).expect("valid hierarchy");
        let mut sim = Simulation::new();
        let before = per_level(&mut sim, &g, &order, CachePolicy::Lru, &mk(small))[0];
        let after = per_level(&mut sim, &g, &order, CachePolicy::Lru, &mk(small + growth))[0];
        prop_assert!(
            after.io() <= before.io(),
            "S {} -> {}: io {} -> {}", small, small + growth, before.io(), after.io()
        );
    }

    /// Fresh arenas are the oracle for the reused one: measuring every
    /// level of a machine's node hierarchy on one reset-and-reuse arena,
    /// after an unrelated run, matches a fresh `Simulation` per level.
    #[test]
    fn oracle_holds_on_random_dags(
        layers in 2usize..6,
        width in 1usize..6,
        seed in 0u64..1000,
        slack in 0u64..24
    ) {
        let (g, order) = random_case(layers, width, seed);
        let s1 = min_feasible_capacity(&g) as u64 + slack;
        let h = ibm_bgq().node_hierarchy(s1);
        let mut sim = Simulation::new();
        for policy in [CachePolicy::Lru, CachePolicy::Opt] {
            let _warm_up = sim.run(&g, &order, policy, u64::MAX).expect("feasible");
            let reused = per_level(&mut sim, &g, &order, policy, &h);
            let fresh: Vec<Trace> = effective_capacities(&h, Inclusion::Inclusive)
                .iter()
                .map(|(_, c)| Simulation::new().run(&g, &order, policy, *c).expect("feasible"))
                .collect();
            prop_assert_eq!(reused, fresh);
        }
    }
}
