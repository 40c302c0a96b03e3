//! Per-FLOP data-movement profiles of the paper's analyzed algorithms
//! (Section 5, Equations 9–10).
//!
//! An [`AlgorithmProfile`] characterizes an algorithm's certified and
//! achievable data movement *per FLOP*, already normalized per
//! Equations 9–10 (`bound × N_nodes / |V|`); combining a profile with a
//! machine's balance parameters (`dmc_machine::MachineSpec`) yields the
//! bandwidth-bound verdicts of `dmc_core::analysis::analyze`.
//!
//! The closed-form profiles below are the paper's Section-5 instances,
//! called directly by the E3, E5 and E6 experiments. They are formulas in
//! the problem size, so they evaluate at scales far beyond what a CDAG
//! build could reach (`n = 1000` grids).

/// Per-FLOP data-movement characterization of an algorithm, already
/// normalized per Equations 9–10: `bound × N_nodes / |V|`.
#[derive(Debug, Clone)]
pub struct AlgorithmProfile {
    /// Algorithm name for reports.
    pub name: String,
    /// `LB_vert · N_nodes / |V|` — certified vertical words/FLOP.
    pub vertical_lb_per_flop: Option<f64>,
    /// `UB_vert · N_nodes / |V|` — achievable vertical words/FLOP.
    pub vertical_ub_per_flop: Option<f64>,
    /// `LB_horiz · N_nodes / |V|` — certified horizontal words/FLOP.
    pub horizontal_lb_per_flop: Option<f64>,
    /// `UB_horiz · N_nodes / |V|` — achievable horizontal words/FLOP.
    pub horizontal_ub_per_flop: Option<f64>,
}

/// The paper's CG profile (Section 5.2.3) for a 3-D grid of extent `n` on
/// `nodes` nodes: vertical LB ratio `6/20 = 0.3`, horizontal UB ratio
/// `6·nodes^{1/3} / (20·n)`.
pub fn cg_profile(n: usize, nodes: usize) -> AlgorithmProfile {
    AlgorithmProfile {
        name: format!("CG (3-D, n = {n})"),
        vertical_lb_per_flop: Some(6.0 / 20.0),
        vertical_ub_per_flop: None,
        horizontal_lb_per_flop: None,
        horizontal_ub_per_flop: Some(6.0 * (nodes as f64).powf(1.0 / 3.0) / (20.0 * n as f64)),
    }
}

/// The paper's GMRES profile (Section 5.3.3): vertical LB ratio
/// `6/(m + 20)`, horizontal UB ratio `6·nodes^{1/3}/(n·m)`.
pub fn gmres_profile(n: usize, m: usize, nodes: usize) -> AlgorithmProfile {
    AlgorithmProfile {
        name: format!("GMRES (3-D, n = {n}, m = {m})"),
        vertical_lb_per_flop: Some(6.0 / (m as f64 + 20.0)),
        vertical_ub_per_flop: None,
        horizontal_lb_per_flop: None,
        horizontal_ub_per_flop: Some(6.0 * (nodes as f64).powf(1.0 / 3.0) / (n as f64 * m as f64)),
    }
}

/// The paper's Jacobi profile (Section 5.4.3) for a d-dimensional stencil:
/// vertical LB ratio `S/U(C, 2S) = 1/(4·(2S)^{1/d})` (tight), horizontal
/// UB ratio from ghost cells `4·B·T / |V|`-style surface terms — per FLOP
/// this is `~2d/B` with `B = n/nodes^{1/d}`; we use the per-FLOP form
/// `2d / (flops_per_point · B)` with `flops_per_point` from the stencil.
pub fn jacobi_profile(n: usize, d: usize, nodes: usize, s_words: u64) -> AlgorithmProfile {
    let b = n as f64 / (nodes as f64).powf(1.0 / d as f64);
    let flops_per_point = (3.0f64).powi(d as i32); // Moore-stencil weights
    AlgorithmProfile {
        name: format!("Jacobi ({d}-D, n = {n})"),
        vertical_lb_per_flop: Some(1.0 / (4.0 * (2.0 * s_words as f64).powf(1.0 / d as f64))),
        vertical_ub_per_flop: Some(2.0 / (2.0 * s_words as f64).powf(1.0 / d as f64)),
        horizontal_lb_per_flop: None,
        horizontal_ub_per_flop: Some(2.0 * d as f64 / (flops_per_point * b)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cg_headline_ratio() {
        // Section 5.2.3: the vertical LB ratio is exactly 6/20 = 0.3.
        assert_eq!(cg_profile(1000, 2048).vertical_lb_per_flop, Some(0.3));
    }

    #[test]
    fn gmres_ratio_shrinks_with_m() {
        let small = gmres_profile(1000, 10, 2048).vertical_lb_per_flop.unwrap();
        let large = gmres_profile(1000, 200, 2048).vertical_lb_per_flop.unwrap();
        assert!(small > large);
        assert!((small - 0.2).abs() < 1e-12);
    }

    #[test]
    fn jacobi_lb_ratio_rises_with_dimension() {
        let lb_d1 = jacobi_profile(1000, 1, 2048, 4_000_000)
            .vertical_lb_per_flop
            .unwrap();
        let lb_d6 = jacobi_profile(1000, 6, 2048, 4_000_000)
            .vertical_lb_per_flop
            .unwrap();
        assert!(lb_d6 > lb_d1);
    }
}
