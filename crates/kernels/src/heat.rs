//! The 1-D heat-equation model problem (Section 5.1, Equation 11).
//!
//! `∂u/∂t = ∂²u/∂x²` on a bar of `n` interior grid points with
//! zero-temperature boundaries, stepped with Crank–Nicolson:
//!
//! ```text
//! −a/2·U(i−1,m+1) + (1+a)·U(i,m+1) − a/2·U(i+1,m+1)
//!   = a/2·U(i−1,m) + (1−a)·U(i,m) + a/2·U(i+1,m),     a = k/h²
//! ```
//!
//! Each time step is three sweeps over the bar:
//!
//! 1. `r_i ← (u_{i−1}, u_i, u_{i+1})` — the right-hand-side stencil, using
//!    only the neighbours that exist;
//! 2. `d_0 ← r_0`, `d_i ← (r_i, d_{i−1})` — the Thomas forward sweep;
//! 3. `x_i ← (d_i, x_{i+1})` for `i = n−2` down to `0`, with
//!    `x_{n−1} = d_{n−1}` — the Thomas backward sweep.
//!
//! The step's new field is `(x_0, …, x_{n−2}, d_{n−1})`. The Thomas
//! coefficients `c′_i` depend only on the mesh ratio `a`, so they are
//! constants rather than vertices, and `a` changes the values but not the
//! graph. The paper gives no closed-form bound for this problem, so the
//! catalog entry carries no analytic hooks.

use crate::catalog::{Kernel, ParamSpec, ParamValues};
use dmc_cdag::{Cdag, CdagBuilder, VertexId};

/// Builds the CDAG of `t` Crank–Nicolson steps on `n` interior points,
/// adding vertices in the order the steps compute them. Inputs: the
/// initial field `u⁰`. Outputs: the field after the last step.
///
/// `|V| = n + t(3n − 1)`, `|E| = t(7n − 5)` and `|I| = |O| = n`.
pub fn heat_cdag(n: usize, t: usize) -> Cdag {
    assert!(n >= 1 && t >= 1);
    let mut b = CdagBuilder::with_capacity(n + t * (3 * n - 1), t * (7 * n - 5));
    let mut u: Vec<VertexId> = (0..n).map(|i| b.add_input(format!("u0_{i}"))).collect();
    for m in 1..=t {
        // u[i−1..=i+1] clipped to the bar: the neighbours that exist.
        let r: Vec<VertexId> = (0..n)
            .map(|i| b.add_op(format!("r{m}_{i}"), &u[i.saturating_sub(1)..n.min(i + 2)]))
            .collect();
        let mut d = Vec::with_capacity(n);
        d.push(b.add_op(format!("d{m}_0"), &[r[0]]));
        for i in 1..n {
            d.push(b.add_op(format!("d{m}_{i}"), &[r[i], d[i - 1]]));
        }
        // The backward sweep overwrites d in place: d[n−1] is already
        // x_{n−1}, and each x_i reads the x_{i+1} written just before it.
        for i in (0..n - 1).rev() {
            d[i] = b.add_op(format!("x{m}_{i}"), &[d[i], d[i + 1]]);
        }
        u = d;
    }
    for &v in &u {
        b.tag_output(v);
    }
    b.build_valid("heat steps only read earlier vertices")
}

/// Catalog entry for the heat equation: `heat(n,t)` builds [`heat_cdag`].
pub struct HeatKernel;

impl Kernel for HeatKernel {
    fn name(&self) -> &'static str {
        "heat"
    }

    fn description(&self) -> &'static str {
        "1-D heat equation: Crank-Nicolson steps with Thomas sweeps (Section 5.1, Eq. 11)"
    }

    fn params(&self) -> &'static [ParamSpec] {
        const PARAMS: &[ParamSpec] = &[
            ParamSpec::uint("n", "interior grid points", 1, 1 << 20, 8),
            ParamSpec::uint("t", "time steps", 1, 4096, 2),
        ];
        PARAMS
    }

    fn approx_vertices(&self, p: &ParamValues) -> Option<u64> {
        // n inputs + t·(n stencil + n forward + (n − 1) backward).
        let n = p.uint("n");
        n.checked_mul(3)
            .and_then(|v| v.checked_sub(1))
            .and_then(|v| v.checked_mul(p.uint("t")))
            .and_then(|v| v.checked_add(n))
    }

    fn build(&self, p: &ParamValues) -> Cdag {
        heat_cdag(p.usize("n"), p.usize("t"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Registry;

    fn preds(g: &Cdag, v: u32) -> Vec<u32> {
        g.predecessors(VertexId(v)).iter().map(|p| p.0).collect()
    }

    #[test]
    fn one_step_on_three_points_by_hand() {
        let g = heat_cdag(3, 1);
        // 0..3 = u⁰, 3..6 = r, 6..9 = d, then x_1 = 9 and x_0 = 10.
        let expected: [&[u32]; 11] = [
            &[],
            &[],
            &[],
            &[0, 1],
            &[0, 1, 2],
            &[1, 2],
            &[3],
            &[4, 6],
            &[5, 7],
            &[7, 8],
            &[6, 9],
        ];
        assert_eq!(g.num_vertices(), expected.len());
        for (v, want) in expected.iter().enumerate() {
            assert_eq!(preds(&g, v as u32), *want, "predecessors of v{v}");
        }
        let inputs: Vec<usize> = g.inputs().iter().collect();
        let outputs: Vec<usize> = g.outputs().iter().collect();
        assert_eq!(inputs, [0, 1, 2]);
        // The new field (x_0, x_1, d_2).
        assert_eq!(outputs, [8, 9, 10]);
    }

    #[test]
    fn counts_match_the_formulas() {
        for (n, t) in [(1, 1), (2, 1), (3, 2), (8, 2), (64, 8)] {
            let g = heat_cdag(n, t);
            assert_eq!(g.num_vertices(), n + t * (3 * n - 1), "|V| of ({n}, {t})");
            assert_eq!(g.num_edges(), t * (7 * n - 5), "|E| of ({n}, {t})");
            assert_eq!(g.num_inputs(), n, "|I| of ({n}, {t})");
            assert_eq!(g.num_outputs(), n, "|O| of ({n}, {t})");
        }
    }

    #[test]
    fn approx_vertices_is_the_built_count() {
        let registry = Registry::shared();
        for spec in ["heat", "heat(n=1,t=1)", "heat(n=3,t=2)", "heat(n=64,t=8)"] {
            let parsed = registry.parse(spec).expect("valid heat spec");
            let approx = parsed.kernel().approx_vertices(parsed.values());
            assert_eq!(approx, Some(parsed.build().num_vertices() as u64), "{spec}");
        }
    }
}
