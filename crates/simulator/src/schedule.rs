//! Schedule and ownership builders.
//!
//! The simulator measures a *specific* execution; these helpers build the
//! executions the experiments compare:
//!
//! * plain topological and level-by-level (BFS-by-depth) schedules,
//! * the skewed parallelogram tiling for 1-D Jacobi that keeps a tile of
//!   the space-time trapezoid in cache — the schedule whose I/O matches
//!   the `n·T/(S)`-shape lower bound of Theorem 10,
//! * the block ownership map of a Jacobi grid, for counting halo words
//!   with [`remote_reads`](crate::hierarchy_sim::remote_reads).

use dmc_cdag::topo::{levels, topological_order};
use dmc_cdag::{Cdag, VertexId};
use dmc_kernels::jacobi::JacobiCdag;

/// The default schedule: Kahn topological order.
pub fn plain(g: &Cdag) -> Vec<VertexId> {
    topological_order(g)
}

/// Level-by-level schedule (all of depth 0, then depth 1, …) — for
/// stencils this is the untiled "sweep the whole grid each step" order
/// with working set `n^d`.
pub fn by_level(g: &Cdag) -> Vec<VertexId> {
    levels(g).into_iter().flatten().collect()
}

/// Skewed (slope −1) parallelogram tiling for a 1-D Jacobi CDAG: tiles of
/// `tile_width` points sweep left to right; within a tile all `T` time
/// steps are executed before moving on, shifting one cell left per step so
/// every dependence points into the current or an earlier tile.
///
/// Working set per tile is `O(tile_width + T)`, so with
/// `tile_width ≈ S` the DRAM traffic drops from `Θ(n·T)` (untiled,
/// `n ≫ S`) to `Θ(n·T/S + n)` — the shape Theorem 10 proves optimal.
pub fn tiled_jacobi_1d(j: &JacobiCdag, tile_width: usize) -> Vec<VertexId> {
    assert_eq!(j.grid.d, 1, "this tiling is for 1-D Jacobi");
    // The cell order (and its validity argument) lives in
    // `dmc_kernels::jacobi::skewed_cells_1d`, shared with the catalog's
    // schedule hook; here the cells map through the built ids.
    dmc_kernels::jacobi::skewed_cells_1d(j.grid.n, j.timesteps, tile_width)
        .into_iter()
        .map(|(t, i)| j.ids[t][i])
        .collect()
}

/// Skewed parallelogram tiling for a 2-D Jacobi CDAG (Moore or Von
/// Neumann stencil): cell `(t, i, j)` belongs to tile
/// `(⌊(i+t)/w⌋, ⌊(j+t)/w⌋)`; tiles are emitted in lexicographic order,
/// times ascending within a tile.
///
/// Validity: a dependence of `(t, i, j)` lies at `(t−1, i′, j′)` with
/// `i′ ≤ i+1, j′ ≤ j+1`, so its tile indices satisfy
/// `k₁′ = ⌊(i′+t−1)/w⌋ ≤ ⌊(i+t)/w⌋ = k₁` and likewise `k₂′ ≤ k₂` — it is
/// emitted in an earlier tile, or in the same tile at an earlier time.
pub fn tiled_jacobi_2d(j: &JacobiCdag, tile_width: usize) -> Vec<VertexId> {
    assert_eq!(j.grid.d, 2, "this tiling is for 2-D Jacobi");
    // Shared cell order — see `dmc_kernels::jacobi::skewed_cells_2d`.
    dmc_kernels::jacobi::skewed_cells_2d(j.grid.n, j.timesteps, tile_width)
        .into_iter()
        .map(|(t, linear)| j.ids[t][linear])
        .collect()
}

/// Block (slab) ownership for a Jacobi CDAG: the grid's linear index space
/// is cut into `procs` contiguous slabs; a vertex at any time step belongs
/// to its grid point's slab. This is the block partitioning of the
/// paper's horizontal analyses (ghost-cell exchanges only at slab faces).
pub fn jacobi_block_owner(j: &JacobiCdag, procs: usize) -> Vec<u32> {
    assert!(procs >= 1);
    let npts = j.grid.len();
    let mut owner = vec![0u32; j.cdag.num_vertices()];
    for ids_t in &j.ids {
        for (i, v) in ids_t.iter().enumerate() {
            owner[v.index()] = (i * procs / npts).min(procs - 1) as u32;
        }
    }
    owner
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmc_cdag::topo::is_valid_topological_order;
    use dmc_kernels::grid::Stencil;
    use dmc_kernels::jacobi::jacobi_cdag;

    #[test]
    fn by_level_is_topological() {
        let j = jacobi_cdag(8, 1, 4, Stencil::VonNeumann);
        let order = by_level(&j.cdag);
        assert!(is_valid_topological_order(&j.cdag, &order));
    }

    #[test]
    fn tiled_1d_is_topological() {
        for (n, t, w) in [
            (16usize, 4usize, 4usize),
            (32, 8, 4),
            (10, 10, 3),
            (7, 2, 8),
        ] {
            let j = jacobi_cdag(n, 1, t, Stencil::VonNeumann);
            let order = tiled_jacobi_1d(&j, w);
            assert!(
                is_valid_topological_order(&j.cdag, &order),
                "n={n} t={t} w={w}"
            );
            assert_eq!(order.len(), j.cdag.num_vertices());
        }
    }

    #[test]
    fn tiled_2d_is_topological() {
        for (n, t, w) in [(6usize, 3usize, 2usize), (8, 4, 3), (5, 5, 2)] {
            for stencil in [Stencil::VonNeumann, Stencil::Moore] {
                let j = jacobi_cdag(n, 2, t, stencil);
                let order = tiled_jacobi_2d(&j, w);
                assert!(
                    is_valid_topological_order(&j.cdag, &order),
                    "n={n} t={t} w={w} {stencil:?}"
                );
                assert_eq!(order.len(), j.cdag.num_vertices());
            }
        }
    }

    #[test]
    fn tiled_2d_improves_reads_under_pressure() {
        use crate::simulation::{CachePolicy, Simulation};
        let j = jacobi_cdag(24, 2, 8, Stencil::Moore);
        let mut sim = Simulation::new();
        let mut run = |order: &[VertexId]| sim.run(&j.cdag, order, CachePolicy::Lru, 64).unwrap();
        let untiled = run(&by_level(&j.cdag));
        let tiled = run(&tiled_jacobi_2d(&j, 4));
        assert!(
            tiled.loads < untiled.loads,
            "tiled {tiled:?} !< untiled {untiled:?}"
        );
        assert!(
            tiled.io() < untiled.io(),
            "tiled {tiled:?} !< untiled {untiled:?}"
        );
    }

    #[test]
    fn block_owner_is_contiguous_in_space() {
        let j = jacobi_cdag(12, 1, 2, Stencil::VonNeumann);
        let owner = jacobi_block_owner(&j, 3);
        // Same grid point at different times has the same owner.
        for i in 0..12 {
            let o0 = owner[j.ids[0][i].index()];
            let o2 = owner[j.ids[2][i].index()];
            assert_eq!(o0, o2);
        }
        // Owners are non-decreasing along the grid.
        let per_point: Vec<u32> = (0..12).map(|i| owner[j.ids[0][i].index()]).collect();
        assert!(per_point.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(per_point[0], 0);
        assert_eq!(per_point[11], 2);
    }
}
