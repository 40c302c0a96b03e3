//! The paper's Section-5.1 model problem through the pipeline: the 1-D
//! heat equation (Equation 11), stepped with Crank–Nicolson and solved by
//! the Thomas algorithm, is the catalog kernel `heat(n, t)`. This example
//! certifies its I/O lower bound, then simulates its schedule over a
//! short sweep of fast-memory sizes and checks the measured traffic sits
//! between the certified lower and upper bounds.
//!
//! ```text
//! cargo run --example heat_equation
//! ```

use dmc::core::pipeline::{Analyzer, AnalyzerConfig};

fn main() {
    let spec = "heat(n=64,t=8)";
    let analyzer = Analyzer::new(AnalyzerConfig {
        sram: 4,
        ..AnalyzerConfig::default()
    });

    // 1. The certified lower bound at S = 4, with its derivation tree.
    let report = analyzer
        .analyze_spec(spec)
        .expect("heat is a catalog kernel — see `repro list`");
    println!("{report}");

    // 2. The kernel's schedule on the cache simulator, sandwiched at every
    //    S between the certified lower bound and the validated RBW game.
    let validation = analyzer
        .validate_spec(spec, &[4, 16, 64], None)
        .expect("heat is a catalog kernel — see `repro list`");
    println!("{validation}");
    assert!(
        validation.sandwich_holds(),
        "LB <= OPT and LRU, OPT loads <= LRU loads, LRU == UB must hold at every S"
    );
    println!("the sandwich holds at every S.");
}
