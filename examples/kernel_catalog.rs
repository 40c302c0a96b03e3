//! Kernel catalog: from a spec string to a full pipeline report.
//!
//! ```text
//! cargo run --example kernel_catalog
//! ```

use dmc::core::pipeline::{Analyzer, AnalyzerConfig};
use dmc::kernels::catalog::Registry;
use dmc::kernels::profile::jacobi_profile;

fn main() {
    let registry = Registry::shared();

    // 1. Discover what is available (this is what `repro list` prints).
    println!("registered kernels: {}\n", registry.names().join(", "));

    // 2. One API from spec string to CDAG: parse, inspect, build.
    let spec = registry
        .parse("jacobi(n=8,d=2,t=4)")
        .expect("valid spec — try `repro list` for the grammar");
    println!("canonical spec: {}", spec.render());
    let g = spec.build();
    println!(
        "built CDAG: |V| = {}, |E| = {}",
        g.num_vertices(),
        g.num_edges()
    );

    // 3. Straight into the unified pipeline: the report carries the spec
    //    and the kernel's analytic bounds next to the certified one.
    let report = Analyzer::new(AnalyzerConfig {
        sram: 8,
        ..AnalyzerConfig::default()
    })
    .analyze_kernel(&spec);
    println!("\n{report}");

    // 4. The Section-5 per-FLOP profile (machine-balance input) of the
    //    same stencil on 2,048 nodes with 4 Mwords of fast memory each.
    let profile = jacobi_profile(8, 2, 2048, 4_000_000);
    println!(
        "profile '{}': vertical LB/flop = {:?}",
        profile.name, profile.vertical_lb_per_flop
    );

    // 5. Errors are loud and name the alternatives.
    let err = registry.parse("jacobi(stencil=hex)").unwrap_err();
    println!("\nbad spec rejected: {err}");
}
