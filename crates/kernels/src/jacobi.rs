//! d-dimensional Jacobi stencil CDAGs (paper Section 5.4, Theorem 10).
//!
//! `u^{t+1}(i) = f(u^t(neighbourhood(i)))`: one vertex per grid point per
//! time step. The paper's Theorem 10 treats the 9-point (Moore) 2-D
//! stencil and generalizes to `d` dimensions:
//! `Q ≥ n^d·T / (4·P·(2S)^{1/d})`.

use crate::catalog::{AnalyticBound, Kernel, KernelSchedule, ParamSpec, ParamValues};
use crate::grid::{Grid, Stencil};
use dmc_cdag::{Cdag, CdagBuilder, VertexId};

/// A Jacobi CDAG with its geometry.
#[derive(Debug, Clone)]
pub struct JacobiCdag {
    /// The CDAG: `n^d · T` vertices plus the `n^d` inputs at t = 0.
    pub cdag: Cdag,
    /// Grid geometry.
    pub grid: Grid,
    /// Number of *computed* time steps (excluding the t = 0 inputs).
    pub timesteps: usize,
    /// Stencil shape.
    pub stencil: Stencil,
    /// `ids[t][i]` — vertex of grid point `i` at time `t` (t = 0 inputs).
    pub ids: Vec<Vec<VertexId>>,
}

/// Builds the CDAG of `t` Jacobi sweeps over an `n^d` grid.
///
/// Inputs: the `n^d` initial values. Outputs: the final time step.
/// Each non-initial vertex depends on its own previous value and its
/// stencil neighbours' previous values.
pub fn jacobi_cdag(n: usize, d: usize, t: usize, stencil: Stencil) -> JacobiCdag {
    assert!(t >= 1);
    let grid = Grid::new(n, d);
    let npts = grid.len();
    let stencil_pts = stencil.points(d);
    let mut b = CdagBuilder::with_capacity((t + 1) * npts, t * npts * stencil_pts);
    let mut ids: Vec<Vec<VertexId>> = Vec::with_capacity(t + 1);
    ids.push((0..npts).map(|i| b.add_input(format!("u0_{i}"))).collect());
    for step in 1..=t {
        let prev = &ids[step - 1];
        let cur: Vec<VertexId> = (0..npts)
            .map(|i| {
                let mut preds = vec![prev[i]];
                preds.extend(grid.neighbors(i, stencil).into_iter().map(|j| prev[j]));
                b.add_op(format!("u{step}_{i}"), &preds)
            })
            .collect();
        ids.push(cur);
    }
    // dmc-lint: allow(s1) -- ids holds one layer per sweep and t >= 1 is asserted at entry
    for &v in ids.last().expect("t >= 1") {
        b.tag_output(v);
    }
    let cdag = b.build_valid("Jacobi CDAG is acyclic");
    JacobiCdag {
        cdag,
        grid,
        timesteps: t,
        stencil,
        ids,
    }
}

/// Theorem 10 (generalized): `Q ≥ n^d·T / (4·P·(2S)^{1/d})`.
pub fn jacobi_io_lower_bound(n: usize, d: usize, t: usize, p: usize, s: u64) -> f64 {
    let nd = (n as f64).powi(d as i32);
    nd * t as f64 / (4.0 * p as f64 * (2.0 * s as f64).powf(1.0 / d as f64))
}

/// The matching-shape upper bound achieved by tiled execution: a tile of
/// footprint `S` covers `(2S)^{1/d}`-side blocks and each tile boundary
/// costs `O(tile surface)` I/O — the paper notes the tiled stencil matches
/// the lower bound. The constant here is the naive one-level tiling's.
pub fn jacobi_tiled_upper_bound(n: usize, d: usize, t: usize, p: usize, s: u64) -> f64 {
    let nd = (n as f64).powi(d as i32);
    let tile_side = (2.0 * s as f64).powf(1.0 / d as f64).max(2.0);
    // One load + one store per point per sweep of a tile of height ~ side.
    2.0 * nd * t as f64 / (p as f64 * tile_side)
}

/// `U(C, 2S)` for d-dimensional Jacobi as used in Section 5.4.3:
/// `U = 4·S·(2S)^{1/d}` — the largest 2S-partition block.
pub fn jacobi_largest_partition(d: usize, s: u64) -> f64 {
    4.0 * s as f64 * (2.0 * s as f64).powf(1.0 / d as f64)
}

/// The maximum stencil dimension that is *not* bandwidth-bound on a
/// machine with balance `beta` (words/FLOP) and level capacity `s` words.
///
/// Section 5.4.3 requires `1/(4(2S)^{1/d}) ≤ β`, i.e.
/// `d ≤ log(2S) / log(1/(4β))`. For BG/Q DRAM→L2 (β = 0.052,
/// S₂ = 4 MWords) this evaluates to `d ≤ 10.1`.
///
/// Note: the paper prints the intermediate rule as `d ≤ 0.21·log(2S₂)`
/// and the threshold as `d ≤ 4.83`, which does not follow from its own
/// inequality (see [`jacobi_paper_printed_dimension`]); the qualitative
/// conclusion — practical stencils (`d ≤ 4`) are not vertically
/// bandwidth-bound at DRAM→L2 — is identical under both constants.
pub fn jacobi_max_unbound_dimension(beta: f64, s: u64) -> f64 {
    let denom = (1.0 / (4.0 * beta)).ln();
    if denom <= 0.0 {
        return f64::INFINITY; // balance so high even d → ∞ is fine
    }
    (2.0 * s as f64).ln() / denom
}

/// The paper's *printed* Section-5.4.3 rule `d ≤ 0.21·log₂(2S)`, which
/// yields the reported `d ≤ 4.83` for S₂ = 4 MWords. Kept verbatim so E6
/// and `examples/machine_balance.rs` can report both values side by side.
pub fn jacobi_paper_printed_dimension(s: u64) -> f64 {
    0.21 * (2.0 * s as f64).log2()
}

/// Cell visit order of the skewed (slope −1) 1-D parallelogram tiling:
/// `(time, grid index)` pairs, tiles left to right, all time steps within
/// a tile before moving on, shifting one cell left per step.
///
/// Validity: cell `(t, i)` belongs to tile `k = ⌊(i + t)/w⌋` — an exact
/// partition — and its dependences point at `(t−1, i−1..=i+1)`, whose
/// tile indices are ≤ k, with the critical `(t−1, i+1)` landing in the
/// *same* tile at an earlier time. The single source of truth for the
/// tiling, shared by [`JacobiKernel::schedule_source`] (arithmetic
/// vertex ids) and `dmc_sim::schedule::tiled_jacobi_1d` (ids via
/// [`JacobiCdag::ids`]).
pub fn skewed_cells_1d(n: usize, t_steps: usize, w: usize) -> Vec<(usize, usize)> {
    assert!(w >= 1);
    let mut cells = Vec::with_capacity((t_steps + 1) * n);
    let k_max = (n - 1 + t_steps) / w;
    for k in 0..=k_max {
        for t in 0..=t_steps {
            let lo = (k * w) as i64 - t as i64;
            let hi = (lo + w as i64).clamp(0, n as i64) as usize;
            let lo = lo.clamp(0, n as i64) as usize;
            for i in lo..hi {
                cells.push((t, i));
            }
        }
    }
    debug_assert_eq!(
        cells.len(),
        (t_steps + 1) * n,
        "tiling must cover all cells"
    );
    cells
}

/// 2-D version of [`skewed_cells_1d`]: `(time, linear index j·n + i)`
/// pairs. Cell `(t, i, j)` belongs to tile `(⌊(i+t)/w⌋, ⌊(j+t)/w⌋)`;
/// tiles are emitted in lexicographic order, times ascending within a
/// tile. A dependence at `(t−1, i′ ≤ i+1, j′ ≤ j+1)` has tile indices
/// `≤` in both coordinates, so it is emitted in an earlier tile or in
/// the same tile at an earlier time (valid for both stencils).
pub fn skewed_cells_2d(n: usize, t_steps: usize, w: usize) -> Vec<(usize, usize)> {
    assert!(w >= 1);
    let mut cells = Vec::with_capacity((t_steps + 1) * n * n);
    let k_max = (n - 1 + t_steps) / w;
    for k1 in 0..=k_max {
        for k2 in 0..=k_max {
            for t in 0..=t_steps {
                let lo_i = (k1 * w) as i64 - t as i64;
                let hi_i = (lo_i + w as i64).clamp(0, n as i64) as usize;
                let lo_i = lo_i.clamp(0, n as i64) as usize;
                let lo_j = (k2 * w) as i64 - t as i64;
                let hi_j = (lo_j + w as i64).clamp(0, n as i64) as usize;
                let lo_j = lo_j.clamp(0, n as i64) as usize;
                for jj in lo_j..hi_j {
                    for ii in lo_i..hi_i {
                        cells.push((t, jj * n + ii));
                    }
                }
            }
        }
    }
    debug_assert_eq!(
        cells.len(),
        (t_steps + 1) * n * n,
        "tiling must cover all cells"
    );
    cells
}

/// The skewed tiling as an executable schedule over arithmetic vertex
/// ids (vertex `(t, i)` has id `t·n^d + i` by construction of
/// [`jacobi_cdag`]); tile widths derived from the capacity `s`. `None`
/// for `d ≥ 3` — no tiling shipped, callers fall back to the default.
fn tiled_schedule(n: usize, d: usize, t: usize, s: u64) -> Option<(Vec<VertexId>, String)> {
    let npts = n.pow(d as u32);
    let to_ids = |cells: Vec<(usize, usize)>| {
        cells
            .into_iter()
            .map(|(step, i)| VertexId((step * npts + i) as u32))
            .collect()
    };
    match d {
        1 => {
            let w = ((s.saturating_sub(4) / 2) as usize).max(2);
            Some((
                to_ids(skewed_cells_1d(n, t, w)),
                format!("skewed 1-D parallelogram tiles (w = {w})"),
            ))
        }
        2 => {
            let w = (((s / 2) as f64).sqrt().floor() as usize).max(2);
            Some((
                to_ids(skewed_cells_2d(n, t, w)),
                format!("skewed 2-D parallelogram tiles (w = {w})"),
            ))
        }
        _ => None,
    }
}

/// Catalog entry for the Jacobi family: `jacobi(n,d,t,stencil)` builds
/// [`jacobi_cdag`] and surfaces the Theorem-10 bound, the Section-5.4
/// profile, and the skewed-tiling schedule hook.
pub struct JacobiKernel;

impl Kernel for JacobiKernel {
    fn name(&self) -> &'static str {
        "jacobi"
    }

    fn description(&self) -> &'static str {
        "d-dimensional Jacobi stencil sweeps (Theorem 10, Section 5.4)"
    }

    fn params(&self) -> &'static [ParamSpec] {
        const PARAMS: &[ParamSpec] = &[
            ParamSpec::uint("n", "grid extent per dimension", 1, 4096, 8),
            ParamSpec::uint("d", "grid dimensions", 1, 6, 2),
            ParamSpec::uint("t", "computed time steps", 1, 4096, 4),
            ParamSpec::choice("stencil", "neighbourhood shape", Stencil::CHOICES, "star"),
        ];
        PARAMS
    }

    fn approx_vertices(&self, p: &ParamValues) -> Option<u64> {
        let npts = p.uint("n").checked_pow(p.uint("d") as u32);
        npts.and_then(|v| v.checked_mul(p.uint("t") + 1))
    }

    fn build(&self, p: &ParamValues) -> Cdag {
        // dmc-lint: allow(s1) -- the choice value was validated against the stencil enum by the catalog parser before the factory runs
        let stencil = Stencil::from_choice(p.choice("stencil")).expect("validated choice");
        jacobi_cdag(p.usize("n"), p.usize("d"), p.usize("t"), stencil).cdag
    }

    fn analytic_lower_bound(&self, p: &ParamValues, s: u64) -> Option<AnalyticBound> {
        let (n, d, t) = (p.usize("n"), p.usize("d"), p.usize("t"));
        Some(AnalyticBound::new(
            jacobi_io_lower_bound(n, d, t, 1, s),
            format!("Theorem 10: n^d·T/(4·(2S)^(1/d)) with n = {n}, d = {d}, T = {t}, S = {s}"),
        ))
    }

    // No `analytic_upper_bound` hook: `jacobi_tiled_upper_bound` is an
    // asymptotic-constant formula that omits the compulsory |I| + |O\I|
    // traffic, so for small T it would advertise an "achievable" cost no
    // execution can achieve (below the trivial lower bound). The
    // validation pipeline measures the tiled schedule instead.

    fn schedule_source(&self, p: &ParamValues, g: &Cdag, s: u64) -> KernelSchedule {
        let (n, d, t) = (p.usize("n"), p.usize("d"), p.usize("t"));
        match tiled_schedule(n, d, t, s) {
            Some((order, note)) => {
                debug_assert_eq!(order.len(), g.num_vertices());
                KernelSchedule::new(order, note)
            }
            None => KernelSchedule::default_for(g),
        }
    }

    fn flops_estimate(&self, p: &ParamValues) -> Option<f64> {
        Some((p.uint("n") as f64).powi(p.uint("d") as i32) * p.uint("t") as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_1d() {
        let j = jacobi_cdag(5, 1, 3, Stencil::VonNeumann);
        assert_eq!(j.cdag.num_vertices(), 4 * 5);
        assert_eq!(j.cdag.num_inputs(), 5);
        assert_eq!(j.cdag.num_outputs(), 5);
        assert_eq!(dmc_cdag::topo::critical_path_len(&j.cdag), 4);
    }

    #[test]
    fn shape_2d_moore() {
        let j = jacobi_cdag(3, 2, 1, Stencil::Moore);
        // Center point has 8 neighbours + itself = in-degree 9.
        let center_t1 = j.ids[1][j.grid.index(&[1, 1])];
        assert_eq!(j.cdag.in_degree(center_t1), 9);
        let corner_t1 = j.ids[1][0];
        assert_eq!(j.cdag.in_degree(corner_t1), 4);
    }

    #[test]
    fn information_propagates_one_cell_per_step() {
        let j = jacobi_cdag(7, 1, 3, Stencil::VonNeumann);
        // u^3(0) depends on u^0(0..=3) and nothing further.
        let anc = dmc_cdag::reach::ancestors(&j.cdag, j.ids[3][0]);
        for i in 0..7 {
            let is_anc = anc.contains(j.ids[0][i].index());
            assert_eq!(is_anc, i <= 3, "input {i}");
        }
    }

    #[test]
    fn lower_bound_formula() {
        // 2-D, n=100, T=10, P=1, S=50: n²T/(4√(2S)·P) = 1e5/(4·10) = 2500.
        let q = jacobi_io_lower_bound(100, 2, 10, 1, 50);
        assert!((q - 2500.0).abs() < 1e-9);
        // Parallel: divides by P.
        assert!((jacobi_io_lower_bound(100, 2, 10, 5, 50) - 500.0).abs() < 1e-9);
    }

    #[test]
    fn tiled_upper_bound_sandwiches() {
        for d in 1..=3usize {
            let (n, t, s) = (64, 8, 128u64);
            let lb = jacobi_io_lower_bound(n, d, t, 1, s);
            let ub = jacobi_tiled_upper_bound(n, d, t, 1, s);
            assert!(lb <= ub, "d={d}: lb {lb} > ub {ub}");
            // Same shape: ratio bounded by a constant (8x here).
            assert!(ub / lb <= 8.0 + 1e-9, "d={d}: ratio {}", ub / lb);
        }
    }

    #[test]
    fn bgq_critical_dimension() {
        // Principled rule: d ≤ ln(2S)/ln(1/(4β)) ≈ 10.1 for β = 0.052,
        // S₂ = 4 MWords.
        let d = jacobi_max_unbound_dimension(0.052, 4_000_000);
        assert!((d - 10.12).abs() < 0.1, "got {d}");
        // The paper's printed rule d ≤ 0.21·log₂(2S₂) = 4.82.
        let dp = jacobi_paper_printed_dimension(4_000_000);
        assert!((dp - 4.83).abs() < 0.05, "got {dp}");
        // Either way, practical stencils (d ≤ 4) are not bandwidth-bound.
        assert!(dp > 4.0 && d > 4.0);
    }

    #[test]
    fn l1_critical_dimension_is_large() {
        // Section 5.4.3 reports d ≤ 96 for the L2→L1 level; with a
        // balance near 1/4 the threshold explodes. Use β = 0.23 and a
        // 16 KWord L1 to reproduce the two-digit regime.
        let d = jacobi_max_unbound_dimension(0.23, 16_384);
        assert!(d > 50.0, "got {d}");
    }

    #[test]
    fn largest_partition_formula() {
        assert!((jacobi_largest_partition(2, 50) - 4.0 * 50.0 * 10.0).abs() < 1e-9);
    }

    #[test]
    fn schedule_hook_is_topological_in_every_dimension() {
        use crate::catalog::Registry;
        use dmc_cdag::topo::is_valid_topological_order;
        for (d, stencil) in [
            (1usize, "star"),
            (1, "box"),
            (2, "star"),
            (2, "box"),
            (3, "star"),
        ] {
            for s in [2u64, 16, 64] {
                let spec = Registry::shared()
                    .parse(&format!("jacobi(n=5,d={d},t=3,stencil={stencil})"))
                    .expect("valid spec");
                let g = spec.build();
                let sched = spec.schedule_source(&g, s);
                assert_eq!(sched.order.len(), g.num_vertices());
                assert!(
                    is_valid_topological_order(&g, &sched.order),
                    "d={d} {stencil} S={s}: '{}' not topological",
                    sched.note
                );
                if d <= 2 {
                    assert!(sched.note.contains("tiles"), "{}", sched.note);
                } else {
                    assert!(sched.note.contains("default"), "{}", sched.note);
                }
            }
        }
    }
}
