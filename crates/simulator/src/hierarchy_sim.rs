//! Machine-hierarchy simulation — the P-RBW machine model of Section 5.
//!
//! The single-cache [`Simulation`](crate::Simulation) of the
//! red-blue-white game measures traffic across *one* fast/slow boundary.
//! Real machines (the paper's Table 1) are `(N_l, S_l)` *hierarchies*:
//! `N_1` register files over a shared LLC over node DRAM. This module
//! supplies what it takes to measure one schedule at every boundary of a
//! [`MemoryHierarchy`]:
//!
//! 1. [`effective_capacities`] converts the hierarchy into one aggregate
//!    word capacity per *cache* level (the topmost level is the backing
//!    store and is never simulated). Inclusive hierarchies use `N_l·S_l`
//!    per level; exclusive hierarchies the cumulative sum `Σ_{k≤l}
//!    N_k·S_k`, since a value evicted from a faster level may still live
//!    in the slower one. Both LRU and Belady's OPT are *stack
//!    algorithms* (Mattson's inclusion property): the contents of a cache
//!    of capacity `C` are a superset of any smaller cache on the same
//!    reference stream, so the traffic that crosses boundary `l` of an
//!    inclusive hierarchy is exactly the miss traffic of a standalone
//!    [`Simulation::run`](crate::Simulation::run) at the level's
//!    effective capacity. Write-back accounting falls out of the same
//!    identity: a dirty (unsaved live) value evicted at level `l` is the
//!    `stores` column of that level's [`Trace`](crate::Trace) — the words
//!    written *into* level `l+1`. `dmc-core`'s machine validation runs
//!    that per-level loop.
//! 2. [`split_round_robin`] adds the parallel dimension: a deterministic
//!    P-processor schedule (round-robin over the Kahn wavefronts of the
//!    DAG, barrier between wavefronts) whose cross-processor word count
//!    ([`remote_reads`], defined for any owner map) is comparable
//!    against the Lemma-2 parallel wavefront bound.

use dmc_cdag::topo::levels as kahn_levels;
use dmc_cdag::{Cdag, VertexId};
use dmc_machine::MemoryHierarchy;

/// Whether slower levels replicate the contents of faster ones.
///
/// Determines the aggregate capacity backing each boundary in
/// [`effective_capacities`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inclusion {
    /// Level `l+1` holds a superset of level `l` (the common case; the
    /// BG/Q L2 is inclusive). Boundary `l` sees capacity `N_l · S_l`.
    Inclusive,
    /// Levels hold disjoint contents; a victim of level `l` may still be
    /// resident in `l+1`. Boundary `l` sees capacity `Σ_{k≤l} N_k · S_k`.
    Exclusive,
}

impl std::fmt::Display for Inclusion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Inclusion::Inclusive => write!(f, "inclusive"),
            Inclusion::Exclusive => write!(f, "exclusive"),
        }
    }
}

/// The aggregate word capacity backing each *cache* boundary of `h`.
///
/// Returns one `(level name, effective words)` pair per level `1..L`
/// (1-based, fastest first); the topmost level `L` is the backing store
/// of the simulation and gets no entry. Arithmetic saturates so
/// `u64::MAX` sentinel capacities stay infinite.
///
/// ```
/// use dmc_machine::MemoryHierarchy;
/// use dmc_sim::hierarchy_sim::{effective_capacities, Inclusion};
///
/// let h = MemoryHierarchy::cluster(1, 4, 64, 4_000_000, 2_000_000_000);
/// let caps = effective_capacities(&h, Inclusion::Inclusive);
/// assert_eq!(caps.len(), 2); // registers, LLC — DRAM is the backing store
/// assert_eq!(caps[0], ("registers".to_string(), 4 * 64));
/// assert_eq!(caps[1], ("L2".to_string(), 4_000_000));
/// ```
pub fn effective_capacities(h: &MemoryHierarchy, inclusion: Inclusion) -> Vec<(String, u64)> {
    let mut out = Vec::with_capacity(h.num_levels().saturating_sub(1));
    let mut cumulative: u64 = 0;
    for l in 1..h.num_levels() {
        let level = h.level(l);
        let aggregate = (level.units as u64).saturating_mul(level.capacity_words);
        cumulative = cumulative.saturating_add(aggregate);
        let effective = match inclusion {
            Inclusion::Inclusive => aggregate,
            Inclusion::Exclusive => cumulative,
        };
        out.push((level.name.clone(), effective));
    }
    out
}

/// A deterministic P-processor split of a DAG schedule.
///
/// Built by [`split_round_robin`]: vertices are taken wavefront by
/// wavefront (Kahn depth levels, an implicit barrier between them) and
/// dealt round-robin to processors within each wavefront. Every field is
/// a pure function of the graph, so the split is bit-identical across
/// runs and thread counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParallelSplit {
    /// Number of processors the schedule was dealt across.
    pub procs: usize,
    /// The flattened level-order schedule — a valid topological order,
    /// suitable for [`Simulation::run`](crate::Simulation::run).
    pub order: Vec<VertexId>,
    /// `owner[v]` = processor `v` was dealt to. Inputs are dealt
    /// round-robin within their wavefront like every other vertex, and
    /// their value lives on that processor.
    pub owner: Vec<u32>,
    /// Number of wavefronts, i.e. barrier-separated supersteps.
    pub supersteps: usize,
    /// Non-input vertices executed by each processor.
    pub per_proc_computes: Vec<u64>,
    /// [`remote_reads`] of `owner`: the words that must cross the
    /// network under an owner-computes rule, the measured side of the
    /// Lemma-2 horizontal comparison.
    pub remote_reads: u64,
}

/// Splits `g` across `procs` processors: round-robin within each Kahn
/// wavefront, barrier between wavefronts.
///
/// Vertices in one wavefront share a depth, so no edge connects them and
/// the deal order is irrelevant to correctness; the flattened order is
/// always a valid topological order. `procs` is clamped to at least 1.
///
/// ```
/// use dmc_cdag::topo::is_valid_topological_order;
/// use dmc_kernels::chains::chain;
/// use dmc_sim::hierarchy_sim::split_round_robin;
///
/// let g = chain(6);
/// let split = split_round_robin(&g, 4);
/// assert!(is_valid_topological_order(&g, &split.order));
/// // A chain has no parallelism: every wavefront holds one vertex, so
/// // processor 0 does all the work and every handoff stays local.
/// assert_eq!(split.supersteps, g.num_vertices());
/// assert_eq!(split.remote_reads, 0);
/// ```
pub fn split_round_robin(g: &Cdag, procs: usize) -> ParallelSplit {
    let procs = procs.max(1);
    let wavefronts = kahn_levels(g);
    let n = g.num_vertices();
    let mut order = Vec::with_capacity(n);
    let mut owner = vec![0u32; n];
    let mut per_proc_computes = vec![0u64; procs];
    for wave in &wavefronts {
        for (k, &v) in wave.iter().enumerate() {
            let p = k % procs;
            owner[v.0 as usize] = p as u32;
            if !g.is_input(v) {
                per_proc_computes[p] += 1;
            }
            order.push(v);
        }
    }
    ParallelSplit {
        procs,
        remote_reads: remote_reads(g, &owner),
        order,
        owner,
        supersteps: wavefronts.len(),
        per_proc_computes,
    }
}

/// Words that cross the network when every vertex lives on processor
/// `owner[v]` and is computed there: the distinct `(value, consumer
/// processor)` pairs whose consumer is not the value's home. A value is
/// sent at most once to each processor that reads it remotely, however
/// many of that processor's vertices consume it.
///
/// ```
/// use dmc_kernels::chains::chain;
/// use dmc_sim::hierarchy_sim::remote_reads;
///
/// // A 4-chain split down the middle: one handoff crosses processors.
/// let g = chain(4);
/// assert_eq!(remote_reads(&g, &[0, 0, 1, 1]), 1);
/// assert_eq!(remote_reads(&g, &[0, 1, 0, 1]), 3);
/// ```
///
/// # Panics
///
/// Panics if `owner` has fewer than `|V|` entries.
pub fn remote_reads(g: &Cdag, owner: &[u32]) -> u64 {
    let mut remote = 0u64;
    let mut consumer_owners: Vec<u32> = Vec::new();
    for u in g.vertices() {
        consumer_owners.clear();
        consumer_owners.extend(g.successors(u).iter().map(|&c| owner[c.index()]));
        consumer_owners.sort_unstable();
        consumer_owners.dedup();
        let home = owner[u.index()];
        remote += consumer_owners.iter().filter(|&&p| p != home).count() as u64;
    }
    remote
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulation::{CachePolicy, Simulation, Trace};
    use dmc_cdag::topo::{is_valid_topological_order, topological_order};
    use dmc_kernels::chains::chain;
    use dmc_kernels::grid::Stencil;
    use dmc_kernels::jacobi::jacobi_cdag;
    use dmc_machine::specs;

    #[test]
    fn effective_capacities_inclusive_vs_exclusive() {
        let h = MemoryHierarchy::cluster(1, 4, 8, 100, 1 << 40);
        let inc = effective_capacities(&h, Inclusion::Inclusive);
        let exc = effective_capacities(&h, Inclusion::Exclusive);
        assert_eq!(inc, [("registers".into(), 32), ("L2".into(), 100)]);
        assert_eq!(exc, [("registers".into(), 32), ("L2".into(), 132)]);
    }

    #[test]
    fn effective_capacities_saturate_on_sentinel() {
        let h = MemoryHierarchy::two_level(u64::MAX);
        let inc = effective_capacities(&h, Inclusion::Inclusive);
        assert_eq!(inc.len(), 1);
        assert_eq!(inc[0].1, u64::MAX);
        let exc = effective_capacities(&h, Inclusion::Exclusive);
        assert_eq!(exc[0].1, u64::MAX);
    }

    fn jacobi_1d(n: usize, t: usize) -> Cdag {
        jacobi_cdag(n, 1, t, Stencil::VonNeumann).cdag
    }

    /// The per-level measurement: one `Simulation::run` per cache
    /// boundary at its effective capacity, on one reused arena.
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

    #[test]
    fn single_level_hierarchy_matches_single_cache_sim() {
        // A 1-cache-level hierarchy has one boundary, simulated at S
        // itself: the per-level measurement is the standalone simulation.
        let m = specs::ibm_bgq();
        for s in [1u64, 8, 64, u64::MAX] {
            let h = m.single_level_hierarchy(s);
            for inclusion in [Inclusion::Inclusive, Inclusion::Exclusive] {
                assert_eq!(effective_capacities(&h, inclusion), [("cache".into(), s)]);
            }
        }
    }

    #[test]
    fn inclusive_traffic_is_monotone_down_the_hierarchy() {
        let g = jacobi_1d(32, 8);
        let order = topological_order(&g);
        let h = MemoryHierarchy::cluster(1, 4, 8, 64, 1 << 40);
        let mut sim = Simulation::new();
        for policy in [CachePolicy::Lru, CachePolicy::Opt] {
            let traces = per_level(&mut sim, &g, &order, policy, &h);
            assert_eq!(traces.len(), 2);
            for w in traces.windows(2) {
                assert!(
                    w[0].loads >= w[1].loads,
                    "{policy}: loads not monotone: {traces:?}"
                );
                assert!(w[0].io() >= w[1].io());
            }
        }
    }

    #[test]
    fn arenas_are_reused_across_runs() {
        // One arena measuring every level, twice, matches a fresh arena
        // per level: reset-and-reuse leaks no state between runs.
        let g = chain(12);
        let order = topological_order(&g);
        let h = MemoryHierarchy::cluster(1, 2, 2, 8, 1 << 30);
        let mut sim = Simulation::new();
        let a = per_level(&mut sim, &g, &order, CachePolicy::Lru, &h);
        let b = per_level(&mut sim, &g, &order, CachePolicy::Lru, &h);
        let fresh: Vec<Trace> = effective_capacities(&h, Inclusion::Inclusive)
            .iter()
            .map(|(_, c)| {
                Simulation::new()
                    .run(&g, &order, CachePolicy::Lru, *c)
                    .unwrap()
            })
            .collect();
        assert_eq!(a, b);
        assert_eq!(a, fresh);
    }

    #[test]
    fn round_robin_split_is_deterministic_and_balanced() {
        let g = jacobi_1d(16, 4);
        let a = split_round_robin(&g, 4);
        let b = split_round_robin(&g, 4);
        assert_eq!(a, b);
        assert!(is_valid_topological_order(&g, &a.order));
        assert_eq!(a.per_proc_computes.len(), 4);
        let total: u64 = a.per_proc_computes.iter().sum();
        assert_eq!(total, g.num_compute_vertices() as u64);
        // Round-robin within a 16-wide wavefront keeps the imbalance
        // within one vertex per superstep.
        let max = a.per_proc_computes.iter().max().copied().unwrap_or(0);
        let min = a.per_proc_computes.iter().min().copied().unwrap_or(0);
        assert!(max - min <= a.supersteps as u64);
    }

    #[test]
    fn one_processor_split_has_no_remote_traffic() {
        let g = jacobi_1d(16, 4);
        let s = split_round_robin(&g, 1);
        assert_eq!(s.procs, 1);
        assert_eq!(s.remote_reads, 0);
        assert!(s.owner.iter().all(|&p| p == 0));
    }

    #[test]
    fn remote_reads_count_distinct_value_processor_pairs() {
        // Fan-out: one input feeding 4 compute vertices in one wavefront,
        // dealt to 2 processors. The input (wavefront 0) lives on proc 0;
        // consumers land on procs {0, 1, 0, 1}, so exactly one remote
        // (value, proc) pair exists no matter how many consumers proc 1
        // got.
        let mut b = dmc_cdag::CdagBuilder::new();
        let x = b.add_input("x");
        for i in 0..4 {
            let v = b.add_op(format!("c{i}"), &[x]);
            b.tag_output(v);
        }
        let g = b.build_valid("fan-out");
        let s = split_round_robin(&g, 2);
        assert_eq!(s.supersteps, 2);
        assert_eq!(s.remote_reads, 1);
    }

    #[test]
    fn split_order_grows_no_vertices() {
        let g = jacobi_1d(8, 3);
        for p in [1, 2, 3, 7] {
            let s = split_round_robin(&g, p);
            assert_eq!(s.order.len(), g.num_vertices());
        }
    }
}
