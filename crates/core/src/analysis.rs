//! Machine-balance analysis (Section 5, Equations 4–10).
//!
//! Combines an algorithm's data-movement bounds with a machine's balance
//! parameters to decide, per memory level, whether the algorithm is
//! unavoidably bandwidth-bound (Equation 7 violated), definitely not
//! bandwidth-bound (Equation 8 violated), or inconclusive.
//!
//! The per-algorithm profiles themselves live in
//! [`dmc_kernels::profile`]; [`AlgorithmProfile`] is re-exported here for
//! compatibility.

use dmc_machine::{BandwidthVerdict, Constraint, MachineSpec};
use serde::json::Value;
use serde::Serialize;

pub use dmc_kernels::profile::AlgorithmProfile;

/// The two verdicts of Section 5 for one machine.
#[derive(Debug, Clone)]
pub struct BalanceReport {
    /// Machine name.
    pub machine: String,
    /// The machine's vertical balance (words/FLOP).
    pub vertical_balance: f64,
    /// The machine's horizontal balance (words/FLOP).
    pub horizontal_balance: f64,
    /// Verdict for DRAM↔LLC traffic (Equation 9).
    pub vertical: BandwidthVerdict,
    /// Verdict for inter-node traffic (Equation 10).
    pub horizontal: BandwidthVerdict,
}

impl BalanceReport {
    /// One formatted report line.
    pub fn row(&self) -> String {
        format!(
            "{:<12} vert: {:<22} (balance {:.4})   horiz: {:<22} (balance {:.4})",
            self.machine,
            self.vertical.to_string(),
            self.vertical_balance,
            self.horizontal.to_string(),
            self.horizontal_balance
        )
    }
}

impl Serialize for BalanceReport {
    fn to_json(&self) -> Value {
        Value::object([
            ("machine", self.machine.to_json()),
            ("vertical_balance", self.vertical_balance.to_json()),
            ("horizontal_balance", self.horizontal_balance.to_json()),
            ("vertical", self.vertical.to_string().to_json()),
            ("horizontal", self.horizontal.to_string().to_json()),
        ])
    }
}

/// Applies Equations 9–10 for `profile` on `machine`.
pub fn analyze(profile: &AlgorithmProfile, machine: &MachineSpec) -> BalanceReport {
    let vertical = Constraint {
        lower_words_per_flop: profile.vertical_lb_per_flop,
        upper_words_per_flop: profile.vertical_ub_per_flop,
    }
    .verdict(machine.vertical_balance());
    let horizontal = Constraint {
        lower_words_per_flop: profile.horizontal_lb_per_flop,
        upper_words_per_flop: profile.horizontal_ub_per_flop,
    }
    .verdict(machine.horizontal_balance());
    BalanceReport {
        machine: machine.name.clone(),
        vertical_balance: machine.vertical_balance(),
        horizontal_balance: machine.horizontal_balance(),
        vertical,
        horizontal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmc_kernels::profile::{cg_profile, gmres_profile, jacobi_profile};
    use dmc_machine::specs;

    #[test]
    fn cg_is_vertically_bound_everywhere() {
        // Section 5.2.3: 0.3 words/FLOP exceeds every Table-1 balance.
        let p = cg_profile(1000, 2048);
        for m in specs::table1_machines() {
            let r = analyze(&p, &m);
            assert_eq!(r.vertical, BandwidthVerdict::BandwidthBound, "{}", m.name);
            assert_eq!(
                r.horizontal,
                BandwidthVerdict::NotBandwidthBound,
                "{}",
                m.name
            );
        }
    }

    #[test]
    fn gmres_verdict_depends_on_m() {
        // Small m: vertical ratio 6/(m+20) > 0.052 — bound on BG/Q.
        let bgq = specs::ibm_bgq();
        let r = analyze(&gmres_profile(1000, 10, 2048), &bgq);
        assert_eq!(r.vertical, BandwidthVerdict::BandwidthBound);
        // Large m: ratio below balance; no upper bound given → inconclusive.
        let r = analyze(&gmres_profile(1000, 200, 2048), &bgq);
        assert_eq!(r.vertical, BandwidthVerdict::Inconclusive);
        // Horizontal always clears.
        assert_eq!(r.horizontal, BandwidthVerdict::NotBandwidthBound);
    }

    #[test]
    fn jacobi_3d_not_bound_on_bgq() {
        // Section 5.4.3: 3-D stencil is not DRAM-bandwidth-bound on BG/Q
        // (critical dimension ≈ 5-10).
        let bgq = specs::ibm_bgq();
        let p = jacobi_profile(1000, 3, 2048, bgq.llc_words());
        let r = analyze(&p, &bgq);
        // LB ratio = 1/(4·(8e6)^{1/3}) = 1/800 = 0.00125 < 0.052, and the
        // tiled UB 2/(8e6)^{1/3} = 0.01 < 0.052 → definitely not bound.
        assert_eq!(r.vertical, BandwidthVerdict::NotBandwidthBound);
    }

    #[test]
    fn report_row_formats() {
        let p = cg_profile(1000, 2048);
        let r = analyze(&p, &specs::ibm_bgq());
        let row = r.row();
        assert!(row.contains("IBM BG/Q"));
        assert!(row.contains("bandwidth-bound"));
    }
}
