//! One options → job → report path for `repro analyze|simulate` and
//! `dmc-serve`'s `POST /analyze|/simulate`, so both serve the same bytes.
//!
//! This module alone knows which option applies to which job
//! ([`JobKind::takes`]; each front end rejects the rest), the defaults
//! ([`DEFAULT_SRAM`] with balance verdicts for an analysis,
//! [`DEFAULT_MACHINE_S1`] for a machine run, the minimum feasible
//! capacity ×1, ×2 and ×4 for a sweep), the sweep rule, catalog machine
//! names ([`catalog_machines`]) and the JSON line of every report
//! ([`JobReport::to_json_line`]). A [`Job`] checks its values when it is
//! built, so a bad request fails before any graph is built. Front ends
//! keep argv or query parsing, spec admission, text headers, caching and
//! HTTP.

use crate::machine_validate::MachineValidationReport;
use crate::pipeline::{AnalysisReport, Analyzer, AnalyzerConfig, HierarchicalOptions};
use crate::validate::ValidationReport;
use dmc_cdag::Cdag;
use dmc_kernels::catalog::KernelSpec;
use dmc_machine::{specs, MachineSpec};
use dmc_sim::simulation::min_feasible_capacity;
use dmc_sim::CachePolicy;
use serde::json::Value;
use serde::Serialize;
use std::fmt;

/// Fast-memory capacity `S` (words) of an analysis that is given none.
pub const DEFAULT_SRAM: u64 = 4;

/// Per-core level-1 capacity `S1` (words) of a machine run given none.
pub const DEFAULT_MACHINE_S1: u64 = 64;

/// The most capacities one S-sweep may simulate.
pub const MAX_SWEEP_POINTS: u64 = 256;

/// An option a job may take; `repro` spells it `--`[`name`](Self::name),
/// `dmc-serve` as the query parameter `name`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOption {
    /// S of an analysis, or the per-core S1 of a machine run.
    Sram,
    /// Analyze through partition → portfolio → compose.
    Hierarchical,
    /// The cluster count of a hierarchical analysis.
    Clusters,
    /// The `lo:hi:step` capacities of an S-sweep.
    SramSweep,
    /// Restrict a simulation to one cache policy.
    Policy,
    /// The machines of a machine run.
    Machine,
}

impl JobOption {
    /// Every option.
    pub const ALL: [JobOption; 6] = [
        JobOption::Sram,
        JobOption::Hierarchical,
        JobOption::Clusters,
        JobOption::SramSweep,
        JobOption::Policy,
        JobOption::Machine,
    ];

    /// The option's name, as both front ends spell it.
    pub fn name(self) -> &'static str {
        match self {
            JobOption::Sram => "sram",
            JobOption::Hierarchical => "hierarchical",
            JobOption::Clusters => "clusters",
            JobOption::SramSweep => "sram-sweep",
            JobOption::Policy => "policy",
            JobOption::Machine => "machine",
        }
    }
}

/// The three kinds of job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// The certified lower bound of a spec or a graph.
    Analyze,
    /// A spec's schedule simulated across an S-sweep.
    Sweep,
    /// Specs simulated on machine hierarchies.
    Machine,
}

impl JobKind {
    /// Whether a job of this kind takes `option`; `clusters` is taken
    /// only by a `hierarchical` analysis.
    pub fn takes(self, option: JobOption, hierarchical: bool) -> bool {
        match option {
            JobOption::Sram => self != JobKind::Sweep,
            JobOption::Hierarchical => self == JobKind::Analyze,
            JobOption::Clusters => self == JobKind::Analyze && hierarchical,
            JobOption::SramSweep => self == JobKind::Sweep,
            JobOption::Policy => self != JobKind::Analyze,
            JobOption::Machine => self == JobKind::Machine,
        }
    }
}

/// Why a job cannot be built, as `"{option name} {reason}"`, so each
/// front end can spell the option its own way (`--` for `repro`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobError {
    /// The option at fault.
    pub option: JobOption,
    /// The rest of the sentence that starts with the option's name.
    pub reason: String,
}

impl JobError {
    /// `option` was given to a `kind` job, which does not take it.
    pub fn does_not_apply(option: JobOption, kind: JobKind) -> JobError {
        let reason = match kind {
            JobKind::Analyze if option == JobOption::Clusters => "needs hierarchical",
            JobKind::Analyze => "does not apply to an analysis",
            JobKind::Sweep => "does not apply to an S-sweep simulation",
            JobKind::Machine => "does not apply to a machine simulation",
        };
        JobError {
            option,
            reason: reason.to_string(),
        }
    }
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.option.name(), self.reason)
    }
}

/// What an analysis runs on.
pub enum Input {
    /// An admitted catalog spec, built when the job runs; its report
    /// carries the canonical spec and the kernel's analytic bounds.
    Spec(KernelSpec<'static>),
    /// A graph, e.g. parsed from `.cdag` text.
    Graph(Cdag),
}

/// A job with its values checked and its defaults filled in: build one
/// with [`Job::analyze`], [`Job::sweep`] or [`Job::machine`], then
/// [`run`](Job::run) it. Its `Display` is its canonical form: the input
/// and every resolved value that changes the report, never `threads`.
pub struct Job(Kind);

enum Kind {
    Analyze {
        input: Input,
        sram: u64,
        hierarchical: Option<HierarchicalOptions>,
    },
    Sweep {
        spec: KernelSpec<'static>,
        sweep: Option<(u64, u64, u64)>,
        policy: Option<CachePolicy>,
    },
    Machine {
        specs: Vec<KernelSpec<'static>>,
        machines: Vec<MachineSpec>,
        s1: u64,
        policy: Option<CachePolicy>,
    },
}

/// `given`, or `default`; there is no capacity 0 (`reason` says so).
fn capacity(given: Option<u64>, default: u64, reason: &str) -> Result<u64, JobError> {
    match given.unwrap_or(default) {
        0 => Err(JobError {
            option: JobOption::Sram,
            reason: reason.to_string(),
        }),
        s => Ok(s),
    }
}

impl Job {
    /// An analysis of `input` at `sram` (default [`DEFAULT_SRAM`]), flat
    /// (`hierarchical` = `None`) or hierarchical with `Some(clusters)`
    /// (`None` clusters = automatic).
    pub fn analyze(
        input: Input,
        sram: Option<u64>,
        hierarchical: Option<Option<usize>>,
    ) -> Result<Job, JobError> {
        Ok(Job(Kind::Analyze {
            input,
            sram: capacity(sram, DEFAULT_SRAM, "must be >= 1")?,
            hierarchical: hierarchical.map(|clusters| HierarchicalOptions { clusters }),
        }))
    }

    /// An S-sweep of `spec`'s schedule over `lo:hi:step` (lo ≥ 1, step ≥
    /// 1, hi ≥ lo, at most [`MAX_SWEEP_POINTS`] points; `None` = the
    /// minimum feasible capacity ×1, ×2, ×4), under one cache `policy`
    /// or (`None`) both.
    pub fn sweep(
        spec: KernelSpec<'static>,
        sweep: Option<(u64, u64, u64)>,
        policy: Option<CachePolicy>,
    ) -> Result<Job, JobError> {
        if let Some((lo, hi, step)) = sweep {
            let invalid = |reason| JobError {
                option: JobOption::SramSweep,
                reason,
            };
            if lo == 0 || step == 0 || hi < lo {
                let rule = "needs lo:hi:step with 1 <= lo <= hi and step >= 1";
                return Err(invalid(rule.to_string()));
            }
            let points = (hi - lo) / step + 1;
            if points > MAX_SWEEP_POINTS {
                let limit = format!("(limit {MAX_SWEEP_POINTS}); widen the step");
                return Err(invalid(format!("spans {points} points {limit}")));
            }
        }
        Ok(Job(Kind::Sweep {
            spec,
            sweep,
            policy,
        }))
    }

    /// Every spec of `specs` on every machine of `machines` at S1 = `s1`
    /// (default [`DEFAULT_MACHINE_S1`]), under one cache `policy` or
    /// (`None`) both.
    pub fn machine(
        specs: Vec<KernelSpec<'static>>,
        machines: Vec<MachineSpec>,
        s1: Option<u64>,
        policy: Option<CachePolicy>,
    ) -> Result<Job, JobError> {
        let reason = "(the per-core level-1 capacity) must be >= 1";
        let s1 = capacity(s1, DEFAULT_MACHINE_S1, reason)?;
        Ok(Job(Kind::Machine {
            specs,
            machines,
            s1,
            policy,
        }))
    }

    /// Runs the job with `threads` workers (`0` = all cores); the report
    /// is the same at any thread count.
    pub fn run(&self, threads: usize) -> JobReport {
        let validator = Analyzer::new(AnalyzerConfig {
            threads,
            ..AnalyzerConfig::default()
        });
        match &self.0 {
            Kind::Analyze {
                input,
                sram,
                hierarchical,
            } => {
                let analyzer = Analyzer::new(AnalyzerConfig {
                    sram: *sram,
                    threads,
                    verdicts: true,
                });
                JobReport::Analysis(match (input, hierarchical) {
                    (Input::Spec(spec), None) => analyzer.analyze_kernel(spec),
                    (Input::Spec(spec), Some(h)) => analyzer.analyze_kernel_hierarchical(spec, h),
                    (Input::Graph(g), None) => analyzer.analyze(g),
                    (Input::Graph(g), Some(h)) => analyzer.analyze_hierarchical(g, h),
                })
            }
            Kind::Sweep {
                spec,
                sweep,
                policy,
            } => {
                let g = spec.build();
                let srams: Vec<u64> = match *sweep {
                    Some((lo, hi, step)) => (lo..=hi).step_by(step as usize).collect(),
                    None => {
                        let s = min_feasible_capacity(&g) as u64;
                        vec![s, 2 * s, 4 * s]
                    }
                };
                JobReport::Sweep(validator.validate_built(spec, &g, &srams, *policy))
            }
            Kind::Machine {
                specs,
                machines,
                s1,
                policy,
            } => {
                let mut reports = Vec::new();
                for spec in specs {
                    let g = spec.build();
                    for m in machines {
                        reports.push(validator.validate_machine_built(spec, &g, m, *s1, *policy));
                    }
                }
                JobReport::Machine(reports)
            }
        }
    }
}

impl fmt::Display for Job {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Kind::Analyze {
                input,
                sram,
                hierarchical,
            } => {
                match input {
                    Input::Spec(spec) => write!(f, "analyze spec={}", spec.render())?,
                    Input::Graph(g) => write!(f, "analyze cdag={:016x}", g.content_hash())?,
                }
                let clusters = hierarchical.as_ref().map(|h| h.clusters);
                write!(f, " sram={sram} hierarchical={clusters:?}")
            }
            Kind::Sweep {
                spec,
                sweep,
                policy,
            } => {
                let spec = spec.render();
                write!(
                    f,
                    "sweep spec={spec} sram-sweep={sweep:?} policy={policy:?}"
                )
            }
            Kind::Machine {
                specs,
                machines,
                s1,
                policy,
            } => {
                let specs: Vec<String> = specs.iter().map(KernelSpec::render).collect();
                let machines: Vec<&str> = machines.iter().map(|m| m.name.as_str()).collect();
                write!(f, "machine spec={specs:?} machine={machines:?} ")?;
                write!(f, "sram={s1} policy={policy:?}")
            }
        }
    }
}

/// What [`Job::run`] returns, one variant per [`JobKind`].
// One report per job, consumed right away: boxing buys nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum JobReport {
    /// An analysis report.
    Analysis(AnalysisReport),
    /// An S-sweep's sandwich.
    Sweep(ValidationReport),
    /// One machine sandwich per spec × machine.
    Machine(Vec<MachineValidationReport>),
}

impl JobReport {
    /// The report as one JSON line, newline included: what `repro
    /// --format json` prints and `dmc-serve` answers. A machine run with
    /// more than one report wraps them in a `{"reports":[…]}` envelope.
    pub fn to_json_line(&self) -> String {
        let mut json = match self {
            JobReport::Analysis(r) => serde::json::to_string(r),
            JobReport::Sweep(r) => serde::json::to_string(r),
            JobReport::Machine(reports) => match reports.as_slice() {
                [one] => serde::json::to_string(one),
                _ => serde::json::to_string(&Value::object([("reports", reports.to_json())])),
            },
        };
        json.push('\n');
        json
    }
}

/// The machines a catalog name stands for: `all` or `catalog` (any
/// case) is the whole catalog, any other name one entry matched case
/// insensitively; `None` if there is no such entry.
pub fn catalog_machines(name: &str) -> Option<Vec<MachineSpec>> {
    if name.eq_ignore_ascii_case("all") || name.eq_ignore_ascii_case("catalog") {
        return Some(specs::machine_catalog());
    }
    specs::find_machine(name).map(|m| vec![m])
}

/// Parses `lo:hi:step` (three unsigned integers); [`Job::sweep`] checks
/// the sweep rule.
pub fn parse_sweep(text: &str) -> Option<(u64, u64, u64)> {
    let parts: Vec<Option<u64>> = text.split(':').map(|p| p.parse().ok()).collect();
    match parts.as_slice() {
        [Some(lo), Some(hi), Some(step)] => Some((*lo, *hi, *step)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmc_kernels::catalog::Registry;

    fn spec(text: &str) -> KernelSpec<'static> {
        Registry::shared().parse(text).expect("valid spec")
    }

    #[test]
    fn each_kind_takes_only_its_options() {
        use JobOption::*;
        for (kind, taken) in [
            (JobKind::Analyze, &[Sram, Hierarchical][..]),
            (JobKind::Sweep, &[SramSweep, Policy][..]),
            (JobKind::Machine, &[Sram, Policy, Machine][..]),
        ] {
            for option in JobOption::ALL {
                assert_eq!(
                    kind.takes(option, false),
                    taken.contains(&option),
                    "{kind:?} / {option:?}"
                );
            }
        }
        assert!(JobKind::Analyze.takes(Clusters, true));
        assert!(!JobKind::Sweep.takes(Clusters, true));
        let stray = |option, kind| JobError::does_not_apply(option, kind).to_string();
        assert_eq!(
            stray(Sram, JobKind::Sweep),
            "sram does not apply to an S-sweep simulation"
        );
        assert_eq!(
            stray(Clusters, JobKind::Analyze),
            "clusters needs hierarchical"
        );
        assert_eq!(
            stray(SramSweep, JobKind::Machine),
            "sram-sweep does not apply to a machine simulation"
        );
    }

    #[test]
    fn the_sweep_rule() {
        let sweep = |lo, hi, step| {
            Job::sweep(spec("fft(n=8)"), Some((lo, hi, step)), None)
                .err()
                .map(|e| e.to_string())
        };
        for (lo, hi, step) in [(0, 4, 1), (4, 8, 0), (8, 4, 1)] {
            assert_eq!(
                sweep(lo, hi, step).as_deref(),
                Some("sram-sweep needs lo:hi:step with 1 <= lo <= hi and step >= 1")
            );
        }
        assert_eq!(sweep(1, 256, 1), None);
        assert_eq!(
            sweep(1, 257, 1).as_deref(),
            Some("sram-sweep spans 257 points (limit 256); widen the step")
        );
        assert_eq!(parse_sweep("4:16:4"), Some((4, 16, 4)));
        assert_eq!(parse_sweep("4-16"), None);
        assert_eq!(parse_sweep("4:16:4:1"), None);
    }

    #[test]
    fn defaults_are_filled_in_and_zero_capacities_refused() {
        let job = Job::analyze(Input::Spec(spec("diamond")), None, None).expect("ok");
        assert_eq!(
            job.to_string(),
            "analyze spec=diamond sram=4 hierarchical=None"
        );
        let job = Job::machine(vec![spec("fft(n=8)")], Vec::new(), None, None).expect("ok");
        assert!(job.to_string().contains("sram=64"), "{job}");
        let JobReport::Sweep(r) = Job::sweep(spec("fft(n=8)"), None, None).expect("ok").run(1)
        else {
            panic!("a sweep job reports a sweep")
        };
        let srams: Vec<u64> = r.points.iter().map(|p| p.sram).collect();
        assert_eq!(srams, [3, 6, 12], "minimum feasible capacity x1, x2, x4");
        let zero = Job::machine(vec![spec("fft(n=8)")], Vec::new(), Some(0), None);
        assert_eq!(
            zero.err().map(|e| e.to_string()).as_deref(),
            Some("sram (the per-core level-1 capacity) must be >= 1")
        );
    }

    #[test]
    fn catalog_names_resolve_case_insensitively() {
        assert_eq!(catalog_machines("ALL").map(|m| m.len()), Some(3));
        assert_eq!(catalog_machines("catalog").map(|m| m.len()), Some(3));
        let one = catalog_machines("ibm bg/q").expect("catalog entry");
        assert_eq!(one[0].name, "IBM BG/Q");
        assert!(catalog_machines("bogus").is_none());
    }

    #[test]
    fn machine_runs_wrap_several_reports_in_an_envelope() {
        let run = |name| {
            let machines = catalog_machines(name).expect("catalog");
            let job = Job::machine(vec![spec("fft(n=8)")], machines, None, None).expect("ok");
            job.run(1).to_json_line()
        };
        let one = run("IBM BG/Q");
        assert!(one.starts_with("{\"spec\":\"fft(n=8)\""), "{one}");
        assert!(one.ends_with("}\n"));
        let all = run("all");
        assert!(all.starts_with("{\"reports\":["), "{all}");
        assert!(all.contains(one.trim_end()), "BG/Q is the first report");
    }
}
