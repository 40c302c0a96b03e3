//! The Section-3 motivating example, executed: why per-stage I/O analysis
//! over-estimates composite pipelines, and how the RBW decomposition
//! theorems fix it.
//!
//! ```text
//! cargo run --example composite_pipeline
//! ```

use dmc::cdag::topo::topological_order;
use dmc::core::bounds::decompose::{decomposition_sum, untag_inputs};
use dmc::core::bounds::mincut::{auto_wavefront_bound, AnchorStrategy};
use dmc::core::bounds::IoBound;
use dmc::core::games::executor::certified_upper_bound;
use dmc::kernels::composite::{
    composite, composite_hong_kung_achievable_io, composite_per_stage_io,
};
use dmc::sim::CachePolicy;

fn main() {
    let n = 6;
    let s = (4 * n + 4) as u64;
    let g = composite(n);
    println!(
        "composite CDAG (p·qT, r·sT, A·B, sum) with N = {n}: |V| = {}, |E| = {}",
        g.num_vertices(),
        g.num_edges()
    );

    // Naive per-stage accounting (what Section 3 warns against): the
    // divergence from the achievable 4N+1 is polynomial in N.
    println!("\nN      per-stage sum   HK-achievable 4N+1   ratio");
    for big_n in [16usize, 64, 256, 1024] {
        let s_big = (4 * big_n + 4) as u64;
        let per = composite_per_stage_io(big_n, s_big);
        let ach = composite_hong_kung_achievable_io(big_n) as f64;
        println!("{big_n:<6} {per:<15.0} {ach:<20.0} {:.1}x", per / ach);
    }
    let per_stage = composite_per_stage_io(n, s);

    // A real RBW execution with S = 4N + 4 pebbles. The 4N+1 figure needs
    // Hong–Kung recomputation of A/B elements; RBW forbids it, so the
    // executed game pays spills — the gap is the price of no-recompute.
    let order = topological_order(&g);
    let exec =
        certified_upper_bound(&g, s as usize, &order, CachePolicy::Opt).expect("budget suffices");
    println!(
        "\nexecuted RBW game at N = {n} (no recomputation), S = 4N+4: {exec} I/O\n\
         (HK with recomputation would need only {})",
        composite_hong_kung_achievable_io(n)
    );

    // Sound composite lower bound via Theorem 2: decompose and sum.
    // Blocks: stage A+B multiplies, stage C, the final sum.
    let nn = g.num_vertices();
    let inputs = 4 * n;
    let stage_ab_end = inputs + 2 * n * n;
    let assignment: Vec<usize> = (0..nn)
        .map(|i| {
            if i < stage_ab_end {
                0
            } else if i < nn - (n * n - 1) {
                1
            } else {
                2
            }
        })
        .collect();
    let pieces = dmc::core::bounds::decompose::decompose_cdag(&g, &assignment, 3);
    let bounds: Vec<IoBound> = pieces
        .iter()
        .map(|p| {
            let wavefront =
                auto_wavefront_bound(&untag_inputs(&p.cdag), s, AnchorStrategy::Adaptive);
            let trivial = IoBound::trivial(&p.cdag);
            dmc::core::bounds::best_lower_bound([wavefront, trivial]).expect("two candidates")
        })
        .collect();
    let total = decomposition_sum(&bounds);
    println!(
        "\nTheorem-2 decomposition lower bound (3 stages, best of Lemma-2 and\n\
         trivial per stage): {:.0}",
        total.value
    );
    assert!(
        total.value <= exec as f64,
        "a sound LB cannot exceed a real game"
    );
    println!(
        "\ntakeaway: per-stage accounting ({per_stage:.0} at N = {n}, growing ~N^2.5)\n\
         wildly over-estimates the composite optimum (4N+1 = {}), while the\n\
         Theorem-2 decomposition bound ({:.0}) stays soundly *below* the real\n\
         execution ({exec}) — composable and correct.",
        composite_hong_kung_achievable_io(n),
        total.value
    );
}
