//! Machine-level empirical validation: the roofline oracle of Section 5.
//!
//! [`crate::validate`] sandwiches a kernel at a *single* fast-memory
//! capacity; this module judges it against a *machine*. A
//! [`MachineSpec`] induces a node hierarchy (registers → LLC → DRAM, in
//! words via [`MachineSpec::node_hierarchy`]); the kernel's DAG is dealt
//! across the node's cores with
//! [`split_round_robin`]
//! (round-robin over Kahn wavefronts, barrier semantics), and the split
//! schedule is measured at every cache boundary of the hierarchy — one
//! [`Simulation`](dmc_sim::Simulation) run per boundary at its
//! [`effective_capacities`] entry (LRU and OPT are stack algorithms, so
//! that is the traffic crossing the boundary), fanned out over worker
//! threads with an index-ordered merge so reports stay bit-identical at
//! any thread count.
//!
//! Every level row is still a certified sandwich, judged by the same
//! [`sandwich_verdict`] as a sweep point:
//!
//! ```text
//! pipeline LB at C_l  ≤  measured(OPT), measured(LRU)
//! loads(OPT)  ≤  loads(LRU)
//! measured(LRU)  =  RBW UB at C_l
//! ```
//!
//! where the RBW UB is the rule checker's count of the recorded LRU game
//! at `C_l`, exactly as in [`crate::validate`].
//!
//! The lower side is the full portfolio — including the Lemma-2
//! parallel wavefront bound, whose name surfaces in `lower_method` when
//! it wins — so the parallel split's traffic is checked against the
//! paper's parallel lower bound, not just the sequential one. It is
//! measured once per graph, at the smallest effective capacity, and
//! assembled at each level: exact for the reason [`crate::validate`]
//! gives, because the capacity only shifts Lemma 2's value. On top of
//! the sandwich, the report adds the machine verdicts of Equations 7–8:
//! the DRAM boundary's measured words/FLOP against the machine's
//! vertical balance (memory-bound / compute-bound / inconclusive), and
//! the split's cross-processor words against the horizontal balance
//! (network-bound / compute-bound). The network row describes the
//! *concrete* round-robin split — an achievability statement, not a
//! lower bound.

use crate::pipeline::Analyzer;
use crate::validate::{measure_row, sandwich_verdict, trace_json, RowArena};
use dmc_cdag::fanout::fan_out_indexed;
use dmc_cdag::Cdag;
use dmc_kernels::catalog::{KernelSpec, Registry, SpecError};
use dmc_machine::{BandwidthVerdict, Constraint, MachineSpec};
use dmc_sim::hierarchy_sim::{effective_capacities, split_round_robin, Inclusion};
use dmc_sim::simulation::{min_feasible_capacity, CachePolicy, Trace};
use serde::json::Value;
use serde::Serialize;
use std::fmt;

/// One hierarchy boundary of a [`MachineValidationReport`]: the sandwich
/// at that level's aggregate capacity plus, on the DRAM boundary, the
/// Equation-7/8 balance verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineLevelPoint {
    /// 1-based hierarchy level (1 = registers).
    pub level: usize,
    /// Level name from the machine's hierarchy.
    pub name: String,
    /// Units `N_l` in the node.
    pub units: usize,
    /// Per-unit capacity `S_l` in words.
    pub capacity_words: u64,
    /// Aggregate capacity the boundary was simulated at.
    pub effective_words: u64,
    /// The pipeline's certified lower bound at this capacity.
    pub certified_lower: f64,
    /// Which method won the lower-bound portfolio (the Lemma-2 wavefront
    /// bound appears here when it is the binding constraint).
    pub lower_method: String,
    /// Measured boundary traffic under Belady (OPT) replacement.
    pub measured_opt: Option<Trace>,
    /// Measured boundary traffic under LRU replacement.
    pub measured_lru: Option<Trace>,
    /// The certified upper bound for the same schedule: the RBW
    /// validator's count of the recorded LRU game.
    pub certified_upper: Option<u64>,
    /// Machine balance compared at this boundary (words/FLOP) — only the
    /// boundary into DRAM has one; inner boundaries carry `None`.
    pub balance_words_per_flop: Option<f64>,
    /// The Equation-7/8 verdict at this boundary: `memory-bound`,
    /// `compute-bound`, `inconclusive`, or `-` where no balance applies.
    pub verdict: String,
    /// Why the level could not be simulated, `None` when feasible.
    pub infeasible: Option<String>,
}

impl MachineLevelPoint {
    /// The sandwich verdict at this level ([`sandwich_verdict`]): `None`
    /// when nothing was measured (infeasible level).
    pub fn sandwich_ok(&self) -> Option<bool> {
        sandwich_verdict(
            self.certified_lower,
            self.measured_opt.as_ref(),
            self.measured_lru.as_ref(),
            self.certified_upper,
        )
    }
}

impl Serialize for MachineLevelPoint {
    fn to_json(&self) -> Value {
        Value::object([
            ("level", self.level.to_json()),
            ("name", self.name.to_json()),
            ("units", self.units.to_json()),
            ("capacity_words", self.capacity_words.to_json()),
            ("effective_words", self.effective_words.to_json()),
            ("certified_lower", self.certified_lower.to_json()),
            ("lower_method", self.lower_method.to_json()),
            (
                "measured_opt",
                self.measured_opt
                    .as_ref()
                    .map(trace_json)
                    .unwrap_or(Value::Null),
            ),
            (
                "measured_lru",
                self.measured_lru
                    .as_ref()
                    .map(trace_json)
                    .unwrap_or(Value::Null),
            ),
            ("certified_upper", self.certified_upper.to_json()),
            (
                "balance_words_per_flop",
                self.balance_words_per_flop.to_json(),
            ),
            ("verdict", self.verdict.to_json()),
            (
                "infeasible",
                self.infeasible
                    .as_ref()
                    .map(|r| r.to_json())
                    .unwrap_or(Value::Null),
            ),
            ("sandwich_ok", self.sandwich_ok().to_json()),
        ])
    }
}

/// The machine-simulation report of one kernel on one [`MachineSpec`]:
/// a certified sandwich per hierarchy boundary plus the roofline
/// verdicts. Produced by [`Analyzer::validate_machine_spec`] /
/// [`Analyzer::validate_machine_built`].
#[derive(Debug, Clone, PartialEq)]
#[must_use = "machine verdicts must be inspected, not dropped"]
pub struct MachineValidationReport {
    /// Canonical spec string of the validated kernel.
    pub spec: String,
    /// Machine name.
    pub machine: String,
    /// Per-core level-1 capacity the hierarchy was built with (words).
    pub s1: u64,
    /// Processors the schedule was dealt across (the node's cores).
    pub procs: usize,
    /// `|V|` of the built CDAG.
    pub vertices: usize,
    /// `|E|` of the built CDAG.
    pub edges: usize,
    /// `|I|` of the built CDAG.
    pub inputs: usize,
    /// `|O|` of the built CDAG.
    pub outputs: usize,
    /// Provenance of the executed schedule.
    pub schedule_note: String,
    /// Barrier-separated supersteps (Kahn wavefronts) of the split.
    pub supersteps: usize,
    /// Distinct `(value, remote processor)` words crossing the network
    /// under the owner-computes split.
    pub remote_words: u64,
    /// FLOP count the balance verdicts normalize by.
    pub flops: f64,
    /// Where `flops` came from (`kernel estimate` or the compute-vertex
    /// fallback).
    pub flops_note: String,
    /// The machine's vertical (DRAM) balance, words/FLOP.
    pub vertical_balance: f64,
    /// The machine's horizontal (network) balance, words/FLOP.
    pub horizontal_balance: f64,
    /// Network verdict for the concrete split: `network-bound` when the
    /// measured remote words/FLOP exceed the horizontal balance,
    /// `compute-bound` otherwise.
    pub network_verdict: String,
    /// One entry per cache boundary, fastest first.
    pub levels: Vec<MachineLevelPoint>,
}

impl MachineValidationReport {
    /// `true` when every feasible level's sandwich verdict is positive
    /// and at least one level was actually measured.
    pub fn sandwich_holds(&self) -> bool {
        let verdicts: Vec<bool> = self.levels.iter().filter_map(|p| p.sandwich_ok()).collect();
        !verdicts.is_empty() && verdicts.into_iter().all(|ok| ok)
    }

    /// Measured remote words per FLOP of the split.
    pub fn remote_words_per_flop(&self) -> f64 {
        self.remote_words as f64 / self.flops.max(1.0)
    }
}

impl fmt::Display for MachineValidationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "kernel: {} on {} (s1 = {} words/core, P = {})",
            self.spec, self.machine, self.s1, self.procs
        )?;
        writeln!(
            f,
            "CDAG: |V| = {}, |E| = {}, |I| = {}, |O| = {}",
            self.vertices, self.edges, self.inputs, self.outputs
        )?;
        writeln!(
            f,
            "split: {} ({} supersteps, {} remote words); flops = {} ({})",
            self.schedule_note, self.supersteps, self.remote_words, self.flops, self.flops_note
        )?;
        writeln!(
            f,
            "{:<5} {:<10} {:>5} {:>12} {:<13} {:<9} {:<9} {:<13} {:<10} {:<9} verdict",
            "level",
            "name",
            "N",
            "S(words)",
            "LB(cert)",
            "OPT(io)",
            "LRU(io)",
            "UB(cert)",
            "w/F(meas)",
            "balance"
        )?;
        let fmt_trace = |t: &Option<Trace>| {
            t.as_ref()
                .map(|t| t.io().to_string())
                .unwrap_or_else(|| "-".into())
        };
        for p in &self.levels {
            let upper = p
                .certified_upper
                .map(|v| v.to_string())
                .unwrap_or_else(|| "-".into());
            let wpf = p
                .measured_lru
                .as_ref()
                .map(|t| format!("{:.4}", t.io() as f64 / self.flops.max(1.0)))
                .unwrap_or_else(|| "-".into());
            let balance = p
                .balance_words_per_flop
                .map(|b| format!("{b:.4}"))
                .unwrap_or_else(|| "-".into());
            writeln!(
                f,
                "{:<5} {:<10} {:>5} {:>12} {:<13} {:<9} {:<9} {:<13} {:<10} {:<9} {}{}",
                p.level,
                p.name,
                p.units,
                p.capacity_words,
                p.certified_lower,
                fmt_trace(&p.measured_opt),
                fmt_trace(&p.measured_lru),
                upper,
                wpf,
                balance,
                p.verdict,
                p.infeasible
                    .as_ref()
                    .map(|r| format!("  [skipped: {r}]"))
                    .unwrap_or_default(),
            )?;
        }
        writeln!(
            f,
            "{:<5} {:<10} {:>5} {:>12} {:<13} {:<9} {:<9} {:<13} {:<10} {:<9} {}",
            "net",
            "network",
            "-",
            "-",
            "-",
            "-",
            self.remote_words,
            "-",
            format!("{:.4}", self.remote_words_per_flop()),
            format!("{:.4}", self.horizontal_balance),
            self.network_verdict,
        )
    }
}

impl Serialize for MachineValidationReport {
    fn to_json(&self) -> Value {
        Value::object([
            ("spec", self.spec.to_json()),
            ("machine", self.machine.to_json()),
            ("s1", self.s1.to_json()),
            ("procs", self.procs.to_json()),
            ("vertices", self.vertices.to_json()),
            ("edges", self.edges.to_json()),
            ("inputs", self.inputs.to_json()),
            ("outputs", self.outputs.to_json()),
            ("schedule_note", self.schedule_note.to_json()),
            ("supersteps", self.supersteps.to_json()),
            ("remote_words", self.remote_words.to_json()),
            ("flops", self.flops.to_json()),
            ("flops_note", self.flops_note.to_json()),
            ("vertical_balance", self.vertical_balance.to_json()),
            ("horizontal_balance", self.horizontal_balance.to_json()),
            ("network_verdict", self.network_verdict.to_json()),
            ("levels", self.levels.to_json()),
            ("sandwich_holds", self.sandwich_holds().to_json()),
        ])
    }
}

/// Renders a [`BandwidthVerdict`] in the roofline vocabulary of the
/// machine table: memory-bound / compute-bound / inconclusive.
fn roofline_verdict(v: BandwidthVerdict) -> &'static str {
    match v {
        BandwidthVerdict::BandwidthBound => "memory-bound",
        BandwidthVerdict::NotBandwidthBound => "compute-bound",
        BandwidthVerdict::Inconclusive => "inconclusive",
    }
}

impl Analyzer {
    /// Parses `spec` against the shared catalog [`Registry`] and judges
    /// it against `machine`: the DAG is dealt round-robin across the
    /// node's cores, measured at every cache boundary of the machine's
    /// hierarchy (built with `s1` words of level-1 storage per core),
    /// and each boundary is sandwiched between the pipeline's certified
    /// lower bound and the validated recorded LRU game's upper bound. The
    /// DRAM boundary and the network traffic additionally get the
    /// Equation-7/8 roofline verdicts.
    ///
    /// ```
    /// use dmc_core::pipeline::Analyzer;
    /// use dmc_machine::specs;
    ///
    /// let report = Analyzer::with_defaults()
    ///     .validate_machine_spec("fft(n=8)", &specs::ibm_bgq(), 8, None)
    ///     .expect("valid spec");
    /// assert_eq!(report.levels.len(), 2); // registers, LLC
    /// assert!(report.sandwich_holds(), "{report}");
    /// ```
    pub fn validate_machine_spec(
        &self,
        spec: &str,
        machine: &MachineSpec,
        s1: u64,
        policy: Option<CachePolicy>,
    ) -> Result<MachineValidationReport, SpecError> {
        let spec = Registry::shared().parse(spec)?;
        Ok(self.validate_machine_built(&spec, &spec.build(), machine, s1, policy))
    }

    /// [`Analyzer::validate_machine_spec`] for an already-parsed spec
    /// and the graph it builds (`g` must be `spec.build()`).
    pub fn validate_machine_built(
        &self,
        spec: &KernelSpec<'_>,
        g: &Cdag,
        machine: &MachineSpec,
        s1: u64,
        policy: Option<CachePolicy>,
    ) -> MachineValidationReport {
        let procs = machine.cores_per_node.max(1);
        let split = split_round_robin(g, procs);
        let h = machine.node_hierarchy(s1);
        let caps = effective_capacities(&h, Inclusion::Inclusive);
        let (flops, flops_note) = match spec.kernel().flops_estimate(spec.values()) {
            Some(fl) => (fl, "kernel estimate".to_string()),
            None => (
                g.num_compute_vertices() as f64,
                "compute-vertex count".to_string(),
            ),
        };
        let dram_boundary = caps.len();
        // The certified lower side: measured once for every level, with
        // the full thread budget (the result does not depend on it), and
        // assembled per level.
        let lower = caps
            .iter()
            .map(|&(_, effective)| effective)
            .min()
            .map(|s_min| self.measure_portfolio(g, s_min));
        let required = min_feasible_capacity(g) as u64;
        let workers = self.resolved_threads(caps.len());
        let levels = match &lower {
            None => Vec::new(),
            Some(lower) => fan_out_indexed(caps.len(), workers, RowArena::default, |arena, i| {
                let (name, effective) = &caps[i];
                let level = i + 1;
                let bound = lower.assemble(*effective).bound;
                let mut point = MachineLevelPoint {
                    level,
                    name: name.to_string(),
                    units: h.units(level),
                    capacity_words: h.capacity(level),
                    effective_words: *effective,
                    certified_lower: bound.value,
                    lower_method: bound.method.to_string(),
                    measured_opt: None,
                    measured_lru: None,
                    certified_upper: None,
                    balance_words_per_flop: (level == dram_boundary)
                        .then(|| machine.vertical_balance()),
                    verdict: "-".to_string(),
                    infeasible: None,
                };
                measure_level(g, &split.order, &mut point, required, flops, policy, arena);
                point
            }),
        };
        let rpf = split.remote_reads as f64 / flops.max(1.0);
        let network_verdict = if rpf > machine.horizontal_balance() {
            "network-bound".to_string()
        } else {
            "compute-bound".to_string()
        };
        MachineValidationReport {
            spec: spec.render(),
            machine: machine.name.clone(),
            s1,
            procs,
            vertices: g.num_vertices(),
            edges: g.num_edges(),
            inputs: g.num_inputs(),
            outputs: g.num_outputs(),
            schedule_note: format!("round-robin wavefront split, P = {procs}"),
            supersteps: split.supersteps,
            remote_words: split.remote_reads,
            flops,
            flops_note,
            vertical_balance: machine.vertical_balance(),
            horizontal_balance: machine.horizontal_balance(),
            network_verdict,
            levels,
        }
    }
}

/// Fills the measured side of `point` (its lower side already set): the
/// sandwich at its effective capacity unless the schedule needs more
/// than that (`required` words), and on the DRAM boundary the
/// Equation-7/8 verdict.
fn measure_level(
    g: &Cdag,
    order: &[dmc_cdag::VertexId],
    point: &mut MachineLevelPoint,
    required: u64,
    flops: f64,
    policy: Option<CachePolicy>,
    arena: &mut RowArena,
) {
    let effective = point.effective_words;
    if required > effective {
        point.infeasible = Some(format!(
            "aggregate capacity < {required} words (largest in-degree + 1 of the schedule)"
        ));
        return;
    }
    (
        point.measured_opt,
        point.measured_lru,
        point.certified_upper,
    ) = measure_row(g, order, effective, policy, arena);
    if let Some(b) = point.balance_words_per_flop {
        // Equations 7–8 at this boundary: certified LB/FLOP on the
        // lower side, the *measured* LRU traffic (an achieved
        // schedule, hence a valid upper bound) on the upper side.
        let measured = point
            .measured_lru
            .as_ref()
            .or(point.measured_opt.as_ref())
            .map(|t| t.io() as f64 / flops.max(1.0));
        let c = Constraint {
            lower_words_per_flop: Some(point.certified_lower / flops.max(1.0)),
            upper_words_per_flop: measured,
        };
        point.verdict = roofline_verdict(c.verdict(b)).to_string();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::AnalyzerConfig;
    use dmc_machine::specs;
    use dmc_sim::Simulation;

    fn analyzer(threads: usize) -> Analyzer {
        Analyzer::new(AnalyzerConfig {
            threads,
            ..AnalyzerConfig::default()
        })
    }

    #[test]
    fn machine_sandwich_holds_on_bgq() {
        let r = analyzer(1)
            .validate_machine_spec("jacobi(n=8,d=1,t=8)", &specs::ibm_bgq(), 8, None)
            .expect("valid spec");
        assert_eq!(r.levels.len(), 2, "registers + LLC boundaries");
        assert_eq!(r.procs, 16);
        for p in &r.levels {
            assert!(p.infeasible.is_none(), "{:?}", p);
            assert_eq!(p.sandwich_ok(), Some(true), "level {}: {p:?}", p.level);
        }
        assert!(r.sandwich_holds(), "{r}");
    }

    #[test]
    fn measured_levels_match_hierarchy_simulation() {
        // The report's per-level measurement, fanned out over workers, is
        // a direct `Simulation::run` of the split schedule at every
        // boundary's effective capacity, level by level.
        let spec = Registry::shared().parse("fft(n=8)").expect("valid");
        let g = spec.build();
        let m = specs::ibm_bgq();
        let s1 = 8;
        let split = split_round_robin(&g, m.cores_per_node);
        let caps = effective_capacities(&m.node_hierarchy(s1), Inclusion::Inclusive);
        let mut sim = Simulation::new();
        for threads in [1, 2] {
            let r = analyzer(threads).validate_machine_built(&spec, &g, &m, s1, None);
            assert_eq!(r.levels.len(), caps.len());
            for (p, (name, c)) in r.levels.iter().zip(&caps) {
                let mut direct = |policy| sim.run(&g, &split.order, policy, *c).ok();
                assert_eq!(
                    p.measured_lru,
                    direct(CachePolicy::Lru),
                    "level {}",
                    p.level
                );
                assert_eq!(
                    p.measured_opt,
                    direct(CachePolicy::Opt),
                    "level {}",
                    p.level
                );
                assert_eq!((&p.name, p.effective_words), (name, *c));
            }
        }
    }

    #[test]
    fn only_the_dram_boundary_gets_a_balance_verdict() {
        let r = analyzer(1)
            .validate_machine_spec("matmul(n=4)", &specs::ibm_bgq(), 8, None)
            .expect("valid spec");
        assert!(r.levels[0].balance_words_per_flop.is_none());
        assert_eq!(r.levels[0].verdict, "-");
        assert!(r.levels[1].balance_words_per_flop.is_some());
        assert_ne!(r.levels[1].verdict, "-");
        assert!(
            ["memory-bound", "compute-bound", "inconclusive"]
                .contains(&r.levels[1].verdict.as_str()),
            "{}",
            r.levels[1].verdict
        );
        assert!(
            ["network-bound", "compute-bound"].contains(&r.network_verdict.as_str()),
            "{}",
            r.network_verdict
        );
    }

    #[test]
    fn infeasible_register_level_is_reported_not_dropped() {
        // s1 = 1 on a 1-core toy machine: the register boundary cannot
        // hold any compute vertex's operands.
        let toy = MachineSpec {
            name: "Toy".into(),
            nodes: 1,
            cores_per_node: 1,
            gflops_per_core: 1.0,
            memory_gb: 1.0,
            llc_mb: 1.0,
            dram_bandwidth_gbs: 10.0,
            network_bandwidth_gbs: 5.0,
            word_bytes: 8.0,
        };
        let r = analyzer(1)
            .validate_machine_spec("jacobi(n=8,d=1,t=8)", &toy, 1, None)
            .expect("valid spec");
        assert!(r.levels[0].infeasible.is_some());
        assert!(r.levels[1].infeasible.is_none());
        assert!(r.sandwich_holds(), "feasible levels still judged");
        assert!(r.to_string().contains("skipped"));
    }

    #[test]
    fn machine_report_is_bit_identical_across_thread_counts() {
        let m = specs::cray_xt5();
        let base = analyzer(1)
            .validate_machine_spec("composite(n=3)", &m, 8, None)
            .expect("valid");
        for threads in [2usize, 4] {
            let r = analyzer(threads)
                .validate_machine_spec("composite(n=3)", &m, 8, None)
                .expect("valid");
            assert_eq!(r, base, "@ {threads} threads");
            assert_eq!(r.to_string(), base.to_string(), "@ {threads} threads");
            assert_eq!(
                serde::json::to_string(&r),
                serde::json::to_string(&base),
                "@ {threads} threads"
            );
        }
    }

    #[test]
    fn bad_spec_is_loud() {
        let err = analyzer(1)
            .validate_machine_spec("warp_drive(n=4)", &specs::ibm_bgq(), 8, None)
            .unwrap_err();
        assert!(err.to_string().contains("unknown kernel"), "{err}");
    }
}
