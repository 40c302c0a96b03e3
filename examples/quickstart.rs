//! Quickstart: build a CDAG, bound its data movement, play the games.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use dmc::cdag::topo::topological_order;
use dmc::cdag::CdagBuilder;
use dmc::core::bounds::decompose::untag_inputs;
use dmc::core::bounds::mincut::{auto_wavefront_bound, AnchorStrategy};
use dmc::core::games::executor::certified_upper_bound;
use dmc::core::games::optimal::{optimal_io, GameKind};
use dmc::sim::CachePolicy;

fn main() {
    // 1. Describe a computation as a CDAG: a little 2-stage reduction.
    //    x, y are inputs; four intermediates; one output.
    let mut b = CdagBuilder::new();
    let x = b.add_input("x");
    let y = b.add_input("y");
    let s = b.add_op("x+y", &[x, y]);
    let t = b.add_op("x*y", &[x, y]);
    let u = b.add_op("s^2", &[s]);
    let v = b.add_op("t^2", &[t]);
    let out = b.add_op("u+v", &[u, v]);
    b.tag_output(out);
    let g = b.build().expect("acyclic");
    println!("CDAG: {g:?}");

    // 2. Certified lower bound via the min-cut wavefront method (Lemma 2),
    //    after untagging inputs (Theorem 3 makes the bound transfer).
    let s_budget = 3u64;
    let lb = auto_wavefront_bound(&untag_inputs(&g), s_budget, AnchorStrategy::All);
    println!(
        "Lemma-2 lower bound with S = {s_budget}: {} ({})",
        lb.value, lb.provenance.note
    );

    // 3. Exact optimum by exhaustive search (the graph is tiny).
    let opt = optimal_io(&g, s_budget as usize, GameKind::Rbw).expect("solvable");
    println!("exact optimal RBW I/O: {opt}");

    // 4. Heuristic upper bound: play a real game with Belady eviction.
    let order = topological_order(&g);
    let ub = certified_upper_bound(&g, s_budget as usize, &order, CachePolicy::Opt)
        .expect("budget suffices");
    println!("Belady-executor upper bound: {ub}");

    assert!(lb.value <= opt as f64 && opt <= ub);
    println!("sandwich holds: {} <= {opt} <= {ub}", lb.value);

    // 5. Render the CDAG for inspection.
    println!("\nGraphviz:\n{}", dmc::cdag::dot::to_dot(&g));
}
