//! End-to-end tests of the kernel catalog: the PR acceptance scenario
//! (spec-built kernels produce the same pipeline bound as the hand-wired
//! builders), spec round-trip properties over random valid specs, and
//! the pipeline-vs-analytic-upper-bound sandwich where a kernel provides
//! an achievable schedule.

use dmc::core::pipeline::{Analyzer, AnalyzerConfig};
use dmc::kernels::catalog::{KernelSpec, ParamKind, Registry};
use dmc::kernels::grid::Stencil;
use dmc::kernels::{composite, fft, jacobi, matmul};
use proptest::prelude::*;

fn analyzer(sram: u64, threads: usize) -> Analyzer {
    Analyzer::new(AnalyzerConfig {
        sram,
        threads,
        ..AnalyzerConfig::default()
    })
}

/// PR acceptance: for Jacobi, FFT, matmul, and the composite, `repro
/// analyze --kernel <spec>`'s backend (`Analyzer::analyze_spec`) produces
/// the same certified bound — value and full provenance tree — as the
/// pipeline run on the hand-wired builder output.
#[test]
fn spec_bound_matches_hand_wired_equivalent() {
    let cases: Vec<(&str, dmc::cdag::Cdag)> = vec![
        (
            "jacobi(n=6,d=2,t=3,stencil=star)",
            jacobi::jacobi_cdag(6, 2, 3, Stencil::VonNeumann).cdag,
        ),
        (
            "jacobi(n=4,d=2,t=2,stencil=box)",
            jacobi::jacobi_cdag(4, 2, 2, Stencil::Moore).cdag,
        ),
        ("fft(n=16)", fft::fft(16)),
        ("matmul(n=4)", matmul::matmul(4)),
        (
            "matmul(n=4,accumulate=chain)",
            matmul::matmul_chain_accumulate(4),
        ),
        ("composite(n=3)", composite::composite(3)),
    ];
    let a = analyzer(4, 1);
    for (spec, hand_built) in cases {
        let via_spec = a.analyze_spec(spec).expect("valid spec");
        let via_graph = a.analyze(&hand_built);
        assert_eq!(
            via_spec.bound.value, via_graph.bound.value,
            "{spec}: spec-built bound diverges from hand-wired"
        );
        assert_eq!(
            via_spec.bound.to_string(),
            via_graph.bound.to_string(),
            "{spec}: provenance trees diverge"
        );
        assert_eq!(via_spec.vertices, via_graph.vertices, "{spec}");
        assert_eq!(via_spec.edges, via_graph.edges, "{spec}");
    }
}

/// Every kernel family the experiment tables use is reachable through
/// `Registry::get` and buildable from a bare-name spec.
#[test]
fn registry_covers_the_experiment_families() {
    let registry = Registry::shared();
    for name in [
        "jacobi",
        "cg",
        "gmres",
        "heat",
        "fft",
        "matmul",
        "composite",
        "outer",
        "pyramid",
        "scan",
        "dot",
        "saxpy",
        "chain",
        "diamond",
        "reduction",
        "chains",
        "ladder",
        "two_stage",
        "random",
    ] {
        assert!(registry.get(name).is_some(), "{name} not registered");
        let spec = registry.parse(name).expect("bare name parses");
        assert!(spec.build().num_vertices() >= 1, "{name} builds");
    }
}

/// Draws a random syntactically-valid spec string over the registry:
/// a random kernel with every parameter assigned a value near the bottom
/// of its declared range (so builds stay small). Cross-parameter
/// constraints (power-of-two sizes) are left to `prop_assume` in the
/// consuming tests — the registry's own validation is what's under test.
fn arb_spec_string() -> impl Strategy<Value = String> {
    let n_kernels = Registry::shared().len();
    (0usize..n_kernels, proptest::collection::vec(0u64..64, 8)).prop_map(|(k, raws)| {
        let registry = Registry::shared();
        let kernel = registry.iter().nth(k).expect("index in range");
        let args: Vec<String> = kernel
            .params()
            .iter()
            .zip(&raws)
            .map(|(p, &raw)| {
                let value = match p.kind {
                    ParamKind::UInt { min, max } => {
                        // Span at most 4 values above the minimum.
                        let hi = max.min(min.saturating_add(3));
                        (min + raw % (hi - min + 1)).to_string()
                    }
                    ParamKind::Choice(choices) => choices[raw as usize % choices.len()].to_string(),
                };
                format!("{}={}", p.name, value)
            })
            .collect();
        if args.is_empty() {
            kernel.name().to_string()
        } else {
            format!("{}({})", kernel.name(), args.join(","))
        }
    })
}

/// Parses a generated spec, skipping (via `prop_assume`-style rejection)
/// the ones that violate cross-parameter constraints such as
/// power-of-two sizes.
fn parse_or_reject(spec: &str) -> Result<KernelSpec<'static>, TestCaseError> {
    match Registry::shared().parse(spec) {
        Ok(parsed) => Ok(parsed),
        Err(_) => Err(TestCaseError::reject(&format!(
            "spec '{spec}' fails cross-parameter validation"
        ))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `parse(render(spec)) == spec` for random valid specs: rendering is
    /// canonical and lossless.
    #[test]
    fn parse_render_round_trips(spec_string in arb_spec_string()) {
        let spec = parse_or_reject(&spec_string)?;
        let rendered = spec.render();
        let reparsed = Registry::shared()
            .parse(&rendered)
            .expect("canonical render must parse");
        prop_assert_eq!(&reparsed, &spec, "{} -> {}", spec_string, rendered);
        // Rendering is a fixed point.
        prop_assert_eq!(reparsed.render(), rendered);
    }

    /// Where a kernel provides an achievable schedule
    /// (`analytic_upper_bound`), the pipeline's certified lower bound can
    /// never exceed it: LB ≤ optimal RBW cost ≤ analytic UB.
    #[test]
    fn pipeline_bound_below_analytic_upper(spec_string in arb_spec_string(), s in 2u64..10) {
        let spec = parse_or_reject(&spec_string)?;
        if let Some(upper) = spec.kernel().analytic_upper_bound(spec.values(), s) {
            let report = analyzer(s, 1).analyze_kernel(&spec);
            prop_assert!(
                report.bound.value <= upper.value + 1e-9,
                "{}: pipeline {} > analytic upper {} ({})",
                spec.render(),
                report.bound.value,
                upper.value,
                upper.note
            );
        }
    }

    /// Spec-driven reports stay bit-identical across thread counts (the
    /// catalog context must not break the pipeline's determinism).
    #[test]
    fn spec_reports_invariant_in_threads(spec_string in arb_spec_string()) {
        let spec = parse_or_reject(&spec_string)?;
        let base = analyzer(3, 1).analyze_kernel(&spec);
        for threads in [2, 4] {
            let threaded = analyzer(3, threads).analyze_kernel(&spec);
            prop_assert_eq!(base.to_string(), threaded.to_string());
            prop_assert_eq!(
                serde::json::to_string(&base),
                serde::json::to_string(&threaded)
            );
        }
    }
}
