//! Empirical validation: measured I/O sandwiched between certified bounds.
//!
//! The paper's central claim is that its lower bounds and schedule-derived
//! upper bounds *bracket* the data movement a real memory hierarchy
//! performs. This module closes that loop for every kernel in the catalog:
//!
//! 1. the kernel's [`schedule_source`](dmc_kernels::catalog::Kernel::schedule_source)
//!    hook emits an executable topological schedule (tiled where the
//!    family has a known cache-friendly traversal, the deterministic Kahn
//!    order otherwise);
//! 2. the `dmc-sim` [`Simulation`] measures that schedule at each `S` of a
//!    sweep under both [`CachePolicy::Opt`] (Belady replacement) and
//!    [`CachePolicy::Lru`];
//! 3. the bound machinery supplies the two certified sides: the
//!    [`Analyzer`] pipeline's lower bound at the same `S`, and the upper
//!    bound of the *same schedule*: the LRU run is recorded move by move
//!    ([`Simulation::run_recorded`]) and replayed through the independent
//!    RBW rule checker
//!    [`rbw::validate`](crate::games::rbw::validate), whose count is the
//!    certified upper bound. The lower side is measured once per graph,
//!    at the sweep's smallest `S` ([`Analyzer::measure_portfolio`]), and
//!    assembled at each point ([`PortfolioMeasurement::assemble`]). That
//!    is exact, not an approximation: the trivial bound does not depend
//!    on `S`, and `S` only shifts Lemma 2's value `2·(w − S)`, so one
//!    engine run floored at the smallest `S` gives the wavefront member
//!    at every larger one (see [`crate::bounds::mincut`]).
//!
//! Every simulated run is a valid RBW game, and both runs play the same
//! schedule, so at every feasible sweep point
//!
//! ```text
//! certified lower ≤ measured(OPT), measured(LRU)
//! loads(OPT) ≤ loads(LRU)                      (Belady's MIN)
//! measured(LRU) = certified upper              (the replayed LRU game)
//! ```
//!
//! must hold ([`sandwich_verdict`]). OPT's loads plus stores may exceed
//! LRU's, so `measured(OPT) ≤ measured(LRU)` is not part of it.
//! [`ValidationReport`] records the verdict per point (text and JSON) and
//! [`ValidationReport::sandwich_holds`] asserts it wholesale. The
//! kernel's closed-form analytic upper bound is rendered next to the
//! measurements when the catalog provides one, but — like the analytic
//! lower bound in [`crate::pipeline`] — it is never merged into the
//! certified sandwich.
//!
//! [`PortfolioMeasurement::assemble`]: crate::pipeline::PortfolioMeasurement::assemble
//!
//! Sweep points fan out over `std::thread::scope` workers (one simulator
//! arena per worker) with an index-ordered merge, so reports are
//! **bit-identical at any thread count**.

use crate::bounds::IoBound;
use crate::games::executor::certify;
use crate::games::GameTrace;
use crate::pipeline::Analyzer;
use dmc_cdag::fanout::fan_out_indexed;
use dmc_cdag::topo::is_valid_topological_order;
use dmc_cdag::{Cdag, VertexId};
use dmc_kernels::catalog::{KernelSpec, Registry, SpecError};
use dmc_sim::simulation::{min_feasible_capacity, CachePolicy, Simulation, Trace};
use serde::json::Value;
use serde::Serialize;
use std::fmt;

/// One sweep point of a [`ValidationReport`]: everything the sandwich
/// needs at a single fast-memory capacity.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationPoint {
    /// Fast-memory capacity `S` in words.
    pub sram: u64,
    /// The pipeline's certified lower bound at this `S`.
    pub certified_lower: f64,
    /// Which method won the lower-bound portfolio.
    pub lower_method: String,
    /// Measured traffic under Belady (OPT) replacement, when measured
    /// and feasible.
    pub measured_opt: Option<Trace>,
    /// Measured traffic under LRU replacement, when measured and
    /// feasible.
    pub measured_lru: Option<Trace>,
    /// The certified upper bound for the same schedule: the RBW
    /// validator's count of the recorded LRU game.
    pub certified_upper: Option<u64>,
    /// The kernel's closed-form achievable bound at this `S`, when the
    /// catalog provides one (displayed, never part of the sandwich).
    pub analytic_upper: Option<f64>,
    /// Which schedule was executed (the hook's provenance note; tilings
    /// may pick different parameters at different `S`).
    pub schedule_note: String,
    /// Why the point could not be simulated (`S` below the schedule's
    /// minimum footprint), `None` when feasible.
    pub infeasible: Option<String>,
}

impl ValidationPoint {
    /// The sandwich verdict at this point ([`sandwich_verdict`]): `None`
    /// when nothing was measured (infeasible `S`).
    pub fn sandwich_ok(&self) -> Option<bool> {
        sandwich_verdict(
            self.certified_lower,
            self.measured_opt.as_ref(),
            self.measured_lru.as_ref(),
            self.certified_upper,
        )
    }
}

/// The sandwich verdict of one measured row — a sweep point or a machine
/// level: `None` when neither policy was measured, otherwise whether
/// every link whose two sides were measured holds:
///
/// 1. `lower ≤ io` for each measured trace. Every simulated run is a
///    valid RBW game on the same CDAG, and `lower` bounds every such game.
/// 2. `LRU(io) = upper`. The upper bound is the RBW validator's count of
///    the recorded LRU game, which is the LRU run itself.
/// 3. `OPT(loads) ≤ LRU(loads)`. Both runs play the same schedule in the
///    same capacity, so they see the same sequence of reads: each step
///    reads its predecessors, pinned together while it fires. A load is
///    a miss on one of those reads or an input's first fire, which every
///    policy pays alike; a computed value's first fire costs none, and a
///    free delete only drops a value that is never read again. OPT
///    evicts the resident whose next read is furthest away (the pinned
///    predecessors' is the current step, the nearest). Belady's MIN
///    argument shows that this rule misses least among all eviction
///    rules on a fixed sequence of reads.
///
/// `OPT(io) ≤ LRU(io)` is *not* checked, because it is not a theorem.
/// MIN minimizes loads, not loads plus stores. It may evict an unsaved
/// live value, paying a store that LRU, keeping the value, would not
/// pay. For example, `cg(n=16,d=2,t=2)` on its kernel schedule at
/// S = 1,024 measures OPT at 2,053 words against LRU's 1,937.
pub fn sandwich_verdict(
    lower: f64,
    opt: Option<&Trace>,
    lru: Option<&Trace>,
    upper: Option<u64>,
) -> Option<bool> {
    if opt.is_none() && lru.is_none() {
        return None;
    }
    let mut ok = [opt, lru]
        .into_iter()
        .flatten()
        .all(|t| lower <= t.io() as f64);
    if let (Some(l), Some(ub)) = (lru, upper) {
        ok &= l.io() == ub;
    }
    if let (Some(o), Some(l)) = (opt, lru) {
        ok &= o.loads <= l.loads;
    }
    Some(ok)
}

/// Per-worker scratch of the sandwich measurements: the simulator arena
/// and the buffer its recorded LRU game is written into.
#[derive(Debug, Default)]
pub(crate) struct RowArena {
    sim: Simulation,
    game: GameTrace,
}

/// The measured side of one sandwich row at capacity `s`, as
/// `(OPT, LRU, certified upper)`: OPT when `policy` wants it, then one
/// recorded LRU game — its trace is the LRU column when wanted, and the
/// validator's count of its moves is the certified upper bound either
/// way.
///
/// `order` must be a topological order of `g` and `s` at least
/// [`min_feasible_capacity`]; callers check both first.
pub(crate) fn measure_row(
    g: &Cdag,
    order: &[VertexId],
    s: u64,
    policy: Option<CachePolicy>,
    arena: &mut RowArena,
) -> (Option<Trace>, Option<Trace>, Option<u64>) {
    let want = |p: CachePolicy| policy.is_none() || policy == Some(p);
    let opt = want(CachePolicy::Opt).then(|| {
        arena
            .sim
            .run(g, order, CachePolicy::Opt, s)
            // dmc-lint: allow(s1) -- the caller checked the order and this capacity's feasibility before measuring
            .expect("feasibility pre-checked")
    });
    let lru = arena
        .sim
        .run_recorded(g, order, CachePolicy::Lru, s, &mut arena.game.moves)
        // dmc-lint: allow(s1) -- the caller checked the order and this capacity's feasibility before measuring
        .expect("feasibility pre-checked");
    let upper = certify(g, usize::try_from(s).unwrap_or(usize::MAX), &arena.game);
    (opt, want(CachePolicy::Lru).then_some(lru), Some(upper))
}

pub(crate) fn trace_json(t: &Trace) -> Value {
    Value::object([
        ("loads", t.loads.to_json()),
        ("stores", t.stores.to_json()),
        ("hits", t.hits.to_json()),
        ("evictions", t.evictions.to_json()),
        ("io", t.io().to_json()),
    ])
}

impl Serialize for ValidationPoint {
    fn to_json(&self) -> Value {
        Value::object([
            ("sram", self.sram.to_json()),
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
            ("analytic_upper", self.analytic_upper.to_json()),
            ("schedule_note", self.schedule_note.to_json()),
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

/// The empirical-validation report of one kernel spec: measured I/O per
/// sweep point, sandwiched between the certified lower and upper bounds.
/// Produced by [`Analyzer::validate_spec`] / [`Analyzer::validate_built`].
#[derive(Debug, Clone, PartialEq)]
#[must_use = "validation verdicts must be inspected, not dropped"]
pub struct ValidationReport {
    /// Canonical spec string of the validated kernel.
    pub spec: String,
    /// `|V|` of the built CDAG.
    pub vertices: usize,
    /// `|E|` of the built CDAG.
    pub edges: usize,
    /// `|I|` of the built CDAG.
    pub inputs: usize,
    /// `|O|` of the built CDAG.
    pub outputs: usize,
    /// One entry per requested `S`, in request order.
    pub points: Vec<ValidationPoint>,
}

impl ValidationReport {
    /// `true` when every feasible point's sandwich verdict is positive
    /// and at least one point was actually measured.
    pub fn sandwich_holds(&self) -> bool {
        let verdicts: Vec<bool> = self.points.iter().filter_map(|p| p.sandwich_ok()).collect();
        !verdicts.is_empty() && verdicts.into_iter().all(|ok| ok)
    }
}

impl fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "kernel: {}", self.spec)?;
        writeln!(
            f,
            "CDAG: |V| = {}, |E| = {}, |I| = {}, |O| = {}",
            self.vertices, self.edges, self.inputs, self.outputs
        )?;
        writeln!(
            f,
            "sandwich: certified LB <= measured OPT, LRU; OPT loads <= LRU loads (MIN); \
             LRU == certified UB (RBW executor, same schedule)"
        )?;
        writeln!(
            f,
            "{:<8} {:<13} {:<9} {:<9} {:<13} {:<12} {:<4} schedule",
            "S", "LB(cert)", "OPT(io)", "LRU(io)", "UB(cert)", "UB(analytic)", "ok"
        )?;
        for p in &self.points {
            let fmt_trace = |t: &Option<Trace>| {
                t.as_ref()
                    .map(|t| t.io().to_string())
                    .unwrap_or_else(|| "-".into())
            };
            let ok = match p.sandwich_ok() {
                Some(true) => "yes",
                Some(false) => "NO",
                None => "-",
            };
            let analytic = p
                .analytic_upper
                .map(|v| format!("{v:.1}"))
                .unwrap_or_else(|| "-".into());
            let upper = p
                .certified_upper
                .map(|v| v.to_string())
                .unwrap_or_else(|| "-".into());
            writeln!(
                f,
                "{:<8} {:<13} {:<9} {:<9} {:<13} {:<12} {:<4} {}{}",
                p.sram,
                p.certified_lower,
                fmt_trace(&p.measured_opt),
                fmt_trace(&p.measured_lru),
                upper,
                analytic,
                ok,
                p.schedule_note,
                p.infeasible
                    .as_ref()
                    .map(|r| format!("  [skipped: {r}]"))
                    .unwrap_or_default(),
            )?;
        }
        Ok(())
    }
}

impl Serialize for ValidationReport {
    fn to_json(&self) -> Value {
        Value::object([
            ("spec", self.spec.to_json()),
            ("vertices", self.vertices.to_json()),
            ("edges", self.edges.to_json()),
            ("inputs", self.inputs.to_json()),
            ("outputs", self.outputs.to_json()),
            ("points", self.points.to_json()),
            ("sandwich_holds", self.sandwich_holds().to_json()),
        ])
    }
}

impl Analyzer {
    /// Parses `spec` against the shared catalog [`Registry`], builds the
    /// CDAG once, and validates it empirically at every capacity in
    /// `srams`: the kernel's schedule is simulated under the requested
    /// cache policies and sandwiched between this analyzer's certified
    /// lower bound and the RBW validator's count of the recorded LRU
    /// game (filled under either policy filter).
    ///
    /// `policy` restricts the measurement (`None` = both policies — the
    /// full sandwich). Sweep points fan out over the analyzer's
    /// configured worker threads; the report is bit-identical at any
    /// thread count.
    ///
    /// ```
    /// use dmc_core::pipeline::Analyzer;
    ///
    /// let report = Analyzer::with_defaults()
    ///     .validate_spec("fft(n=8)", &[3, 6, 12], None)
    ///     .expect("valid spec");
    /// assert_eq!(report.points.len(), 3);
    /// assert!(report.sandwich_holds(), "{report}");
    /// ```
    pub fn validate_spec(
        &self,
        spec: &str,
        srams: &[u64],
        policy: Option<CachePolicy>,
    ) -> Result<ValidationReport, SpecError> {
        let spec = Registry::shared().parse(spec)?;
        Ok(self.validate_built(&spec, &spec.build(), srams, policy))
    }

    /// [`Analyzer::validate_spec`] for an already-parsed catalog spec and
    /// the graph it builds (`g` must be `spec.build()`).
    ///
    /// # Panics
    ///
    /// Panics if the kernel's
    /// [`schedule_source`](dmc_kernels::catalog::Kernel::schedule_source)
    /// hook emits an order that is not a topological order of its own
    /// CDAG — that is a kernel implementation bug, not an input error.
    pub fn validate_built(
        &self,
        spec: &KernelSpec<'_>,
        g: &Cdag,
        srams: &[u64],
        policy: Option<CachePolicy>,
    ) -> ValidationReport {
        // The certified lower side: measured once for the whole sweep,
        // with the full thread budget (the result does not depend on it),
        // and assembled per point.
        let lower = srams
            .iter()
            .min()
            .map(|&s_min| self.measure_portfolio(g, s_min));
        let required = min_feasible_capacity(g) as u64;
        let workers = self.resolved_threads(srams.len());
        let points = match &lower {
            None => Vec::new(),
            Some(lower) => fan_out_indexed(srams.len(), workers, RowArena::default, |arena, i| {
                let s = srams[i];
                validation_point(spec, g, s, lower.assemble(s).bound, required, policy, arena)
            }),
        };
        ValidationReport {
            spec: spec.render(),
            vertices: g.num_vertices(),
            edges: g.num_edges(),
            inputs: g.num_inputs(),
            outputs: g.num_outputs(),
            points,
        }
    }
}

/// One sweep point at capacity `s` with certified lower bound `lower`;
/// the schedule cannot run below `required` words.
fn validation_point(
    spec: &KernelSpec<'_>,
    g: &Cdag,
    s: u64,
    lower: IoBound,
    required: u64,
    policy: Option<CachePolicy>,
    arena: &mut RowArena,
) -> ValidationPoint {
    let sched = spec.schedule_source(g, s);
    assert!(
        is_valid_topological_order(g, &sched.order),
        "kernel '{}' emitted a schedule ('{}') that is not a topological order",
        spec.render(),
        sched.note
    );
    let analytic_upper = spec
        .kernel()
        .analytic_upper_bound(spec.values(), s)
        .map(|a| a.value);
    let mut point = ValidationPoint {
        sram: s,
        certified_lower: lower.value,
        lower_method: lower.method.to_string(),
        measured_opt: None,
        measured_lru: None,
        certified_upper: None,
        analytic_upper,
        schedule_note: sched.note,
        infeasible: None,
    };
    if required > s {
        point.infeasible = Some(format!(
            "S < {required} words (largest in-degree + 1 of the schedule)"
        ));
        return point;
    }
    (
        point.measured_opt,
        point.measured_lru,
        point.certified_upper,
    ) = measure_row(g, &sched.order, s, policy, arena);
    point
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::games::rbw;
    use crate::pipeline::AnalyzerConfig;

    fn analyzer(threads: usize) -> Analyzer {
        Analyzer::new(AnalyzerConfig {
            threads,
            ..AnalyzerConfig::default()
        })
    }

    #[test]
    fn sandwich_holds_on_the_four_schedule_kernels() {
        // Crate-local smoke of the invariant; the canonical shared case
        // table (E15_CASES) lives in dmc-bench, which depends on this
        // crate and so cannot be imported here.
        for (spec, srams) in [
            ("jacobi(n=8,d=1,t=8)", [6u64, 12, 24]),
            ("matmul(n=4)", [4, 8, 16]),
            ("fft(n=8)", [3, 6, 12]),
            ("composite(n=3)", [4, 8, 16]),
        ] {
            let r = analyzer(1).validate_spec(spec, &srams, None).expect(spec);
            assert_eq!(r.points.len(), 3);
            for p in &r.points {
                assert!(p.infeasible.is_none(), "{spec} S={}: {:?}", p.sram, p);
                assert_eq!(p.sandwich_ok(), Some(true), "{spec} S={}: {p:?}", p.sram);
            }
            assert!(r.sandwich_holds());
        }
    }

    #[test]
    fn recorded_games_validate_to_their_measured_io() {
        // Every default kernel's schedule, both policies, from the
        // minimum feasible S to |V| + 1 (no evictions): the simulator's
        // recorded game replays cleanly through the RBW rule checker,
        // which counts exactly the I/O the simulator measured.
        let registry = Registry::shared();
        let mut sim = Simulation::new();
        let mut game = GameTrace::default();
        for name in registry.names() {
            let spec = registry.defaults(name).expect("registered");
            let g = spec.build();
            let min_s = min_feasible_capacity(&g) as u64;
            let srams = [min_s, 8, 16, 64, 1024, g.num_vertices() as u64 + 1];
            for s in srams.into_iter().filter(|&s| s >= min_s) {
                let order = spec.schedule_source(&g, s).order;
                for policy in [CachePolicy::Lru, CachePolicy::Opt] {
                    let t = sim
                        .run_recorded(&g, &order, policy, s, &mut game.moves)
                        .expect("feasible");
                    assert_eq!(
                        rbw::validate(&g, s as usize, &game),
                        Ok(t.io()),
                        "{name} @ S={s} {policy}"
                    );
                    assert_eq!(sim.run(&g, &order, policy, s), Ok(t), "{name} @ S={s}");
                }
            }
        }
    }

    #[test]
    fn infeasible_points_are_reported_not_dropped() {
        // jacobi d=2 star stencil: interior in-degree 5 → S must be ≥ 6.
        let r = analyzer(1)
            .validate_spec("jacobi(n=4,d=2,t=2)", &[2, 4, 16], None)
            .expect("valid spec");
        assert_eq!(r.points.len(), 3);
        assert!(r.points[0].infeasible.is_some());
        assert!(r.points[1].infeasible.is_some());
        assert_eq!(r.points[2].sandwich_ok(), Some(true));
        assert!(r.sandwich_holds(), "feasible points still judged");
        let text = r.to_string();
        assert!(text.contains("skipped"), "{text}");
    }

    #[test]
    fn policy_filter_restricts_measurement() {
        let a = analyzer(1);
        let lru_only = a
            .validate_spec("fft(n=8)", &[6], Some(CachePolicy::Lru))
            .expect("valid");
        assert!(lru_only.points[0].measured_opt.is_none());
        assert!(lru_only.points[0].measured_lru.is_some());
        assert_eq!(lru_only.points[0].sandwich_ok(), Some(true));
        let opt_only = a
            .validate_spec("fft(n=8)", &[6], Some(CachePolicy::Opt))
            .expect("valid");
        assert!(opt_only.points[0].measured_opt.is_some());
        assert!(opt_only.points[0].measured_lru.is_none());
        // UB is the recorded LRU game's certified count, so it is filled
        // whichever columns are measured.
        let lru_io = lru_only.points[0].measured_lru.map(|t| t.io());
        assert!(lru_io.is_some());
        assert_eq!(lru_only.points[0].certified_upper, lru_io);
        assert_eq!(opt_only.points[0].certified_upper, lru_io);
    }

    #[test]
    fn report_is_bit_identical_across_thread_counts() {
        let base = analyzer(1)
            .validate_spec("jacobi(n=8,d=1,t=8)", &[6, 8, 12, 16, 24], None)
            .expect("valid");
        for threads in [2usize, 4, 5] {
            let r = analyzer(threads)
                .validate_spec("jacobi(n=8,d=1,t=8)", &[6, 8, 12, 16, 24], None)
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
    fn the_verdict_checks_three_links() {
        let trace = |loads, stores| Trace {
            loads,
            stores,
            ..Trace::default()
        };
        let (opt, lru) = (trace(5, 3), trace(5, 2));
        // OPT's I/O above LRU's is no violation; equal loads are fine.
        assert_eq!(
            sandwich_verdict(7.0, Some(&opt), Some(&lru), Some(7)),
            Some(true)
        );
        // Each link on its own: LB above a measurement, LRU(io) off the
        // certified count, OPT loading more than LRU.
        assert_eq!(
            sandwich_verdict(7.5, Some(&opt), Some(&lru), Some(7)),
            Some(false)
        );
        assert_eq!(
            sandwich_verdict(7.0, Some(&opt), Some(&lru), Some(8)),
            Some(false)
        );
        let greedy = trace(6, 0);
        assert_eq!(
            sandwich_verdict(6.0, Some(&greedy), Some(&lru), Some(7)),
            Some(false)
        );
        // Only the links whose sides were measured are judged.
        assert_eq!(sandwich_verdict(7.0, Some(&opt), None, Some(2)), Some(true));
        assert_eq!(sandwich_verdict(7.0, None, None, Some(7)), None);
    }

    #[test]
    fn bad_spec_is_loud() {
        let err = analyzer(1)
            .validate_spec("warp_drive(n=4)", &[4], None)
            .unwrap_err();
        assert!(err.to_string().contains("unknown kernel"), "{err}");
    }
}
