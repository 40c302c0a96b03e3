//! Cross-crate integration: the bound sandwich
//! `lower bound ≤ exact optimum ≤ heuristic game` must hold on every
//! kernel the workspace can generate, for every method combination.

use dmc::cdag::topo::topological_order;
use dmc::core::bounds::decompose::untag_inputs;
use dmc::core::bounds::mincut::{auto_wavefront_bound, AnchorStrategy};
use dmc::core::games::executor::certified_upper_bound;
use dmc::core::games::optimal::{optimal_io, GameKind};
use dmc::kernels::{chains, fft};
use dmc::sim::CachePolicy;

fn sandwich(g: &dmc::cdag::Cdag, s: usize, label: &str) {
    let wavefront = auto_wavefront_bound(&untag_inputs(g), s as u64, AnchorStrategy::All).value;
    let trivial = dmc::core::bounds::IoBound::trivial(g).value;
    let lb = wavefront.max(trivial);
    let opt = optimal_io(g, s, GameKind::Rbw);
    let order = topological_order(g);
    let ub = certified_upper_bound(g, s, &order, CachePolicy::Opt).ok();
    if let Some(opt) = opt {
        assert!(lb <= opt as f64, "{label} S={s}: LB {lb} > optimal {opt}");
        if let Some(ub) = ub {
            assert!(opt <= ub, "{label} S={s}: optimal {opt} > UB {ub}");
        }
        // Hong–Kung optimum is never above the RBW optimum.
        if let Some(hk) = optimal_io(g, s, GameKind::HongKung) {
            assert!(hk <= opt, "{label} S={s}: HK {hk} > RBW {opt}");
        }
    }
}

#[test]
fn sandwich_on_chains_and_trees() {
    sandwich(&chains::chain(10), 2, "chain(10)");
    sandwich(&chains::chain(10), 4, "chain(10)");
    sandwich(&chains::binary_reduction(8), 3, "reduction(8)");
    sandwich(&chains::binary_reduction(8), 6, "reduction(8)");
}

#[test]
fn sandwich_on_ladders() {
    for s in [4usize, 5, 7] {
        sandwich(&chains::ladder(3, 3), s, "ladder(3,3)");
    }
    sandwich(&chains::ladder(4, 3), 5, "ladder(4,3)");
}

#[test]
fn sandwich_on_fft() {
    for s in [3usize, 4, 6] {
        sandwich(&fft::fft(4), s, "fft(4)");
    }
    sandwich(&fft::fft(8), 4, "fft(8)");
}

#[test]
fn sandwich_on_fanout_shapes() {
    for m in [3usize, 5] {
        sandwich(&chains::two_stage(m), m + 2, "two_stage");
    }
    sandwich(&chains::independent_chains(3, 3), 2, "independent_chains");
    sandwich(&chains::diamond(), 3, "diamond");
}

#[test]
fn executor_policies_all_valid_on_bigger_kernels() {
    // No exact optimum here (too big) — but every policy must produce a
    // validating game and respect the analytic matmul bound.
    let g = dmc::kernels::matmul::matmul(5);
    let order = topological_order(&g);
    for s in [12usize, 24, 48] {
        let analytic = dmc::kernels::matmul::matmul_io_lower_bound(5, s as u64);
        for policy in [CachePolicy::Lru, CachePolicy::Opt] {
            let ub = certified_upper_bound(&g, s, &order, policy).expect("fits");
            assert!(
                analytic <= ub as f64,
                "matmul(5) S={s} {policy:?}: analytic {analytic} > UB {ub}"
            );
        }
    }
}
