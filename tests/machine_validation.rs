//! Acceptance tests for machine-hierarchy validation: every registry
//! kernel on every catalog machine yields a certified sandwich at every
//! cache boundary — pipeline lower bound ≤ measured per-level traffic ≤
//! RBW upper bound — with byte-identical text and JSON reports at any
//! thread count.

use dmc::core::job::{catalog_machines, Job, JobReport};
use dmc::core::pipeline::{Analyzer, AnalyzerConfig};
use dmc::kernels::catalog::Registry;
use dmc::machine::specs::machine_catalog;
use dmc::sim::simulation::min_feasible_capacity;
use proptest::prelude::*;

fn analyzer(threads: usize) -> Analyzer {
    Analyzer::new(AnalyzerConfig {
        threads,
        ..AnalyzerConfig::default()
    })
}

/// The registry-wide machine sandwich: every kernel at its defaults, on
/// every catalog machine, at the schedule's minimum feasible per-core
/// S1, is sandwiched at every simulated boundary.
#[test]
fn machine_sandwich_holds_across_registry_and_catalog() {
    let registry = Registry::shared();
    let a = analyzer(1);
    for machine in machine_catalog() {
        for name in registry.names() {
            let spec = registry.defaults(name).expect("registered kernel");
            let g = spec.build();
            let s1 = min_feasible_capacity(&g) as u64;
            let r = a.validate_machine_built(&spec, &g, &machine, s1, None);
            assert_eq!(
                r.levels.len(),
                2,
                "{name} on {}: registers + LLC boundaries",
                machine.name
            );
            for p in &r.levels {
                assert!(
                    p.infeasible.is_none(),
                    "{name} on {} level {} infeasible: {:?}",
                    machine.name,
                    p.level,
                    p.infeasible
                );
                assert_eq!(
                    p.sandwich_ok(),
                    Some(true),
                    "{name} on {} level {} ({}): LB {} OPT {:?} LRU {:?} UB {:?}",
                    machine.name,
                    p.level,
                    p.name,
                    p.certified_lower,
                    p.measured_opt.map(|t| t.io()),
                    p.measured_lru.map(|t| t.io()),
                    p.certified_upper
                );
            }
            assert!(r.sandwich_holds(), "{name} on {}:\n{r}", machine.name);
            // Every row carries a roofline verdict; only the DRAM
            // boundary gets a measured balance.
            assert!(
                r.levels.iter().all(|p| !p.verdict.is_empty()),
                "{name} on {}: empty verdict",
                machine.name
            );
            assert!(
                !r.network_verdict.is_empty(),
                "{name} on {}: no network verdict",
                machine.name
            );
        }
    }
}

/// Text and JSON renders are pure functions of (kernel, machine, S1):
/// every registered kernel's `repro simulate --machine all` job, at the
/// schedule's minimum feasible S1, is byte-identical at 1, 2 and 4
/// threads.
#[test]
fn machine_reports_are_byte_identical_across_thread_counts() {
    let registry = Registry::shared();
    let machines = catalog_machines("all").expect("the catalog");
    for name in registry.names() {
        let spec = registry.defaults(name).expect("registered kernel");
        let s1 = min_feasible_capacity(&spec.build()) as u64;
        let job = Job::machine(vec![spec], machines.clone(), Some(s1), None).expect("valid job");
        let render = |threads| match job.run(threads) {
            JobReport::Machine(rs) => (
                rs.iter().map(|r| r.to_string()).collect::<String>(),
                JobReport::Machine(rs).to_json_line(),
            ),
            _ => unreachable!("a machine job reports machine runs"),
        };
        let base = render(1);
        for threads in [2usize, 4] {
            assert_eq!(render(threads), base, "{name} @ {threads} threads");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The sandwich survives S1 slack: any registered kernel, any
    /// catalog machine, any feasible S1 at or above the schedule's
    /// minimum stays sandwiched at every boundary.
    #[test]
    fn machine_sandwich_survives_s1_slack(
        kernel_idx in 0usize..Registry::shared().len(),
        machine_idx in 0usize..3,
        extra in 0u64..12
    ) {
        let registry = Registry::shared();
        let name = registry.names()[kernel_idx];
        let spec = registry.defaults(name).expect("registered kernel");
        let g = spec.build();
        let machine = &machine_catalog()[machine_idx];
        let s1 = min_feasible_capacity(&g) as u64 + extra;
        let r = analyzer(1).validate_machine_built(&spec, &g, machine, s1, None);
        for p in &r.levels {
            prop_assert!(p.infeasible.is_none(), "{} on {} level {}", name, machine.name, p.level);
            prop_assert_eq!(
                p.sandwich_ok(), Some(true),
                "{} on {} level {}: {:?}", name, machine.name, p.level, p
            );
        }
        prop_assert!(r.sandwich_holds());
    }
}
