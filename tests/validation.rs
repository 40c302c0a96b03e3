//! Acceptance tests for the empirical validation subsystem: measured I/O
//! from the cache simulator sandwiched between certified bounds for the
//! catalog kernels, reports byte-identical at any thread count for every
//! registered kernel, and a registry-wide property test of the sandwich
//! invariant.

use dmc::cdag::topo::topological_order;
use dmc::core::job::{Job, JobReport};
use dmc::core::pipeline::{Analyzer, AnalyzerConfig};
use dmc::kernels::catalog::Registry;
use dmc::sim::simulation::{CachePolicy, Simulation};
use proptest::prelude::*;

fn analyzer(threads: usize) -> Analyzer {
    Analyzer::new(AnalyzerConfig {
        threads,
        ..AnalyzerConfig::default()
    })
}

// The four schedule-hook kernels on a 3-point S-sweep each — the same
// table the E15 experiment renders, so the `repro` output and this
// acceptance suite cannot drift apart.
use dmc_bench::E15_CASES as CASES;

#[test]
fn sandwich_holds_for_four_kernels_on_three_point_sweeps() {
    for (spec, srams) in CASES {
        let r = analyzer(1).validate_spec(spec, &srams, None).expect(spec);
        assert_eq!(r.points.len(), 3, "{spec}");
        for p in &r.points {
            assert!(p.infeasible.is_none(), "{spec} S={}", p.sram);
            let (opt, lru) = (
                p.measured_opt.as_ref().expect("measured"),
                p.measured_lru.as_ref().expect("measured"),
            );
            let ub = p.certified_upper.expect("feasible");
            assert!(
                p.certified_lower <= opt.io() as f64
                    && p.certified_lower <= lru.io() as f64
                    && opt.loads <= lru.loads
                    && lru.io() == ub,
                "{spec} S={}: LB {} vs OPT {opt:?}, LRU {lru:?}, UB {ub}",
                p.sram,
                p.certified_lower,
            );
        }
        assert!(r.sandwich_holds(), "{spec}");
    }
}

/// Belady's rule minimizes loads, not loads plus stores, so OPT's I/O can
/// exceed LRU's and the verdict does not ask for OPT(io) ≤ LRU(io). On
/// `cg(n=16,d=2,t=2)`'s schedule OPT spills unsaved values that LRU keeps
/// from S = 1,024 on, yet every row holds: the lower bound is below both
/// measurements, OPT loads no more than LRU, and LRU's I/O is the
/// certified upper bound.
#[test]
fn opt_may_store_more_than_lru_and_the_sandwich_still_holds() {
    let srams: Vec<u64> = (256..=1280).step_by(128).collect();
    let r = analyzer(2)
        .validate_spec("cg(n=16,d=2,t=2)", &srams, None)
        .expect("valid spec");
    assert!(r.sandwich_holds(), "{r}");
    let at_1024 = &r.points[6];
    assert_eq!(at_1024.sram, 1024);
    let (opt, lru) = (
        at_1024.measured_opt.expect("measured"),
        at_1024.measured_lru.expect("measured"),
    );
    assert_eq!(
        (opt.io(), lru.io(), at_1024.certified_upper),
        (2053, 1937, Some(1937))
    );
    assert!(
        opt.loads <= lru.loads && opt.stores > lru.stores,
        "{opt:?} vs {lru:?}"
    );
    let over: Vec<u64> = r
        .points
        .iter()
        .filter(|p| p.measured_opt.map(|t| t.io()) > p.measured_lru.map(|t| t.io()))
        .map(|p| p.sram)
        .collect();
    assert_eq!(over, [1024, 1152, 1280]);
}

/// Every registered kernel's default `repro simulate` job (the 3-point
/// sweep from the schedule's minimum feasible S) renders byte-identical
/// text and JSON at 1, 2 and 4 threads.
#[test]
fn validation_reports_are_byte_identical_at_any_thread_count() {
    let registry = Registry::shared();
    for name in registry.names() {
        let spec = registry.defaults(name).expect("registered");
        let job = Job::sweep(spec, None, None).expect("default sweep");
        let render = |threads| match job.run(threads) {
            JobReport::Sweep(r) => (r.to_string(), JobReport::Sweep(r).to_json_line()),
            _ => unreachable!("a sweep job reports a sweep"),
        };
        let base = render(1);
        for threads in [2usize, 4] {
            assert_eq!(render(threads), base, "{name} @ {threads} threads");
        }
    }
}

/// The schedule hooks earn their keep: under cache pressure the kernel's
/// tiled/blocked schedule moves measurably fewer words than the default
/// Kahn order on the same CDAG — here by more than 2x.
#[test]
fn kernel_schedules_beat_the_default_order_under_pressure() {
    let registry = Registry::shared();
    let mut sim = Simulation::new();
    // (spec, S, required improvement factor ×100): the skewed stencil
    // tiling wins big; the blocked matmul sweep wins a solid fraction.
    for (spec_str, s, factor_pct) in [
        ("jacobi(n=64,d=1,t=16)", 20u64, 200u64),
        ("matmul(n=8)", 18, 125),
    ] {
        let spec = registry.parse(spec_str).expect("valid spec");
        let g = spec.build();
        let tuned = spec.schedule_source(&g, s);
        let tuned_io = sim
            .run(&g, &tuned.order, CachePolicy::Lru, s)
            .expect("feasible")
            .io();
        let default_io = sim
            .run(&g, &topological_order(&g), CachePolicy::Lru, s)
            .expect("feasible")
            .io();
        assert!(
            tuned_io * factor_pct < default_io * 100,
            "{spec_str} S={s}: tuned {tuned_io} ('{}') not {factor_pct}% better \
             than default {default_io}",
            tuned.note
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The sandwich invariant across the whole kernel registry: every
    /// registered kernel at its defaults, at any feasible S, measured
    /// under both policies, lands between the certified bounds.
    #[test]
    fn sandwich_across_the_registry(extra in 0u64..12) {
        let registry = Registry::shared();
        for name in registry.names() {
            let spec = registry.defaults(name).expect("registered");
            let g = spec.build();
            let smin = dmc::sim::simulation::min_feasible_capacity(&g) as u64;
            let s = smin + extra;
            let r = analyzer(1).validate_built(&spec, &g, &[s], None);
            let p = &r.points[0];
            prop_assert!(p.infeasible.is_none(), "{} S={} infeasible", name, s);
            prop_assert_eq!(p.sandwich_ok(), Some(true), "{} S={}: {:?}", name, s, p);
        }
    }
}
