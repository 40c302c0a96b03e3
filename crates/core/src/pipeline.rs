//! The unified bound-analysis pipeline.
//!
//! Everything the crate knows how to do to a CDAG, wired together and
//! applied automatically (the by-hand version of this wiring is what
//! every caller used to repeat):
//!
//! 1. find the weakly-connected components
//!    ([`dmc_cdag::components`]) and extract each as an induced sub-CDAG
//!    ([`dmc_cdag::subgraph::decompose`]);
//! 2. run the fixed *method portfolio* on every component — the trivial
//!    counting bound, then Lemma 2 wavefronts on the shared
//!    [`WavefrontEngine`] (after a Theorem-3 untagging transfer) with the
//!    trivial bound as incumbent, so wavefronts that cannot beat it are
//!    never solved — fanning components out across `std::thread::scope`
//!    workers with a deterministic merge (bit-identical at any thread
//!    count). The Lemma-1 counting bound is not a member: it never beats
//!    the trivial bound (see [`partition2s_bound`]);
//! 3. compose the per-component winners with
//!    [`decomposition_sum`] (Theorem 2);
//! 4. compare against the best *single whole-graph* method, which the
//!    composed bound dominates up to anchor sampling (Section 3's
//!    composite point), and keep the larger;
//! 5. optionally normalize the result per FLOP (Equation 9 with one
//!    node) and ask [`crate::analysis`] for machine-balance verdicts.
//!
//! The result is an [`AnalysisReport`] whose bounds carry full
//! [`Provenance`](crate::bounds::Provenance) trees: every node records
//! which theorem was applied with which parameters, and composed nodes
//! hold their sub-bounds as children.
//!
//! # Measurement and assembly
//!
//! Steps 1–2 are split by whether they depend on `S`.
//! [`Analyzer::measure_portfolio`] does everything that does not, once
//! per graph, for every `S` at or above a given smallest one: the
//! components and their pieces, each piece's trivial bound (which has no
//! `S` in it), and each wavefront member's
//! `WavefrontMeasurement` ([`crate::bounds::mincut`]):
//! the untagged engine's level-cut ceiling and one engine run floored at
//! the smallest `S`. [`PortfolioMeasurement::assemble`] does the rest at
//! one `S`: the Lemma-2 notes and values, the Theorem-3 wrappers, the
//! Theorem-2 composition and the first-wins choice. The floor
//! `⌊trivial/2⌋ + S` only grows with `S`, and a floored run returns the
//! unfloored winner whenever that winner clears the floor, so the
//! assembly at any larger `S` is byte for byte the analysis at that `S`.
//! [`Analyzer::analyze`] is the two at its own `S`; the validators
//! measure once per sweep or machine and assemble per row.
//!
//! # Hierarchical mode
//!
//! [`Analyzer::analyze_hierarchical`] is the pipeline's scale path for
//! CDAGs too large to sweep with whole-graph wavefronts (10⁷–10⁸
//! vertices): it splits the Kahn order into `K` contiguous interval
//! clusters ([`topological_clusters`]), counts every cluster in one
//! linear pass ([`mod@dmc_cdag::coarsen`]: vertices, boundaries, tagged
//! inputs and outputs, plus the crossing edges and the distinct cluster
//! pairs they join, reported as a structural diagnostic), and composes
//! the per-cluster trivial bounds built from those counts with Theorem 2
//! — sound for *any* total disjoint vertex partition, crossing edges
//! included. No cluster graph or sub-CDAG is built. Up to
//! 2¹⁷ vertices the flat pipeline's whole-graph wavefront member is
//! folded in as well; beyond that every stage is linear-time.
//!
//! [`WavefrontEngine`]: dmc_cdag::engine::WavefrontEngine
//! [`decomposition_sum`]: crate::bounds::decompose::decomposition_sum

use crate::analysis::{analyze, AlgorithmProfile, BalanceReport};
use crate::bounds::decompose::{decomposition_sum, untag_inputs, untagging_transfer};
use crate::bounds::mincut::{AnchorStrategy, WavefrontMeasurement};
use crate::bounds::{best_lower_bound, lemma1_lower_bound, IoBound, Method};
use crate::partition::construct::{greedy_partition, topological_clusters};
use dmc_cdag::coarsen::coarsen;
use dmc_cdag::components::weakly_connected_components;
use dmc_cdag::fanout::fan_out_indexed;
use dmc_cdag::subgraph::{self, InducedSubCdag};
use dmc_cdag::topo::topological_order;
use dmc_cdag::{Cdag, VertexId};
use dmc_kernels::catalog::{AnalyticBound, KernelSpec, Registry, SpecError};
use dmc_machine::specs;
use serde::json::Value;
use serde::Serialize;
use std::fmt::Write as _;

/// Configuration of an [`Analyzer`].
#[derive(Debug, Clone)]
pub struct AnalyzerConfig {
    /// Fast-memory capacity `S` in words.
    pub sram: u64,
    /// Worker-thread budget for both the component fan-out and the
    /// wavefront engine (`0` = `std::thread::available_parallelism`).
    pub threads: usize,
    /// Also report machine-balance verdicts (Equations 7–10) for the
    /// Table-1 machines, using the final bound normalized per FLOP.
    pub verdicts: bool,
}

impl Default for AnalyzerConfig {
    fn default() -> Self {
        AnalyzerConfig {
            sram: crate::job::DEFAULT_SRAM,
            threads: 0,
            verdicts: false,
        }
    }
}

/// Per-component slice of an [`AnalysisReport`].
#[derive(Debug, Clone)]
pub struct ComponentReport {
    /// Component index (numbered by lowest parent vertex id).
    pub index: usize,
    /// Parent-CDAG id of the component's first vertex (for locating the
    /// component in the original graph).
    pub first_vertex: VertexId,
    /// `|V|` of the component.
    pub vertices: usize,
    /// `|E|` of the component.
    pub edges: usize,
    /// Every portfolio result, trivial then wavefront.
    pub candidates: Vec<IoBound>,
    /// The strongest candidate (first-wins tie-break).
    pub best: IoBound,
}

impl Serialize for ComponentReport {
    fn to_json(&self) -> Value {
        Value::object([
            ("index", self.index.to_json()),
            ("first_vertex", self.first_vertex.index().to_json()),
            ("vertices", self.vertices.to_json()),
            ("edges", self.edges.to_json()),
            ("candidates", self.candidates.to_json()),
            ("best", self.best.to_json()),
        ])
    }
}

/// Catalog context attached to reports produced via
/// [`Analyzer::analyze_spec`] / [`Analyzer::analyze_kernel`]: the
/// canonical kernel spec plus the kernel's analytic bounds, rendered
/// next to the pipeline bounds in both text and JSON.
///
/// The analytic lower bound is *reported*, never merged into
/// [`AnalysisReport::bound`]: the paper's closed forms use asymptotic
/// constants (e.g. Theorem 9's `n ≫ S` regime) that are not certified
/// at every finite parameter point the pipeline handles.
#[derive(Debug, Clone)]
pub struct KernelReport {
    /// Canonical spec string (`KernelSpec::render`).
    pub spec: String,
    /// The kernel's closed-form lower bound at the report's `S`.
    pub analytic_lower: Option<IoBound>,
    /// The kernel's achievable upper bound at the report's `S` (only
    /// when the schedule behind the formula is feasible at that `S`).
    pub analytic_upper: Option<AnalyticBound>,
    /// The kernel's FLOP-count estimate.
    pub flops_estimate: Option<f64>,
}

impl Serialize for KernelReport {
    fn to_json(&self) -> Value {
        Value::object([
            ("spec", self.spec.to_json()),
            ("analytic_lower", self.analytic_lower.to_json()),
            (
                "analytic_upper",
                self.analytic_upper
                    .as_ref()
                    .map(|u| {
                        Value::object([("value", u.value.to_json()), ("note", u.note.to_json())])
                    })
                    .unwrap_or(Value::Null),
            ),
            ("flops_estimate", self.flops_estimate.to_json()),
        ])
    }
}

/// Options of [`Analyzer::analyze_hierarchical`].
#[derive(Debug, Clone, Default)]
pub struct HierarchicalOptions {
    /// Number of interval clusters (`None` = auto:
    /// `⌈|V| / 2¹⁶⌉` clamped to `2..=1024`). Clamped to `1..=|V|`.
    pub clusters: Option<usize>,
}

/// Per-cluster slice of a [`HierarchyReport`]: the cluster's census
/// plus its bound.
#[derive(Debug, Clone)]
pub struct ClusterSummary {
    /// Cluster index (= interval position in the Kahn order).
    pub index: usize,
    /// Lowest original vertex id in the cluster.
    pub first_vertex: VertexId,
    /// Number of original vertices in the cluster.
    pub vertices: usize,
    /// Number of original edges internal to the cluster.
    pub internal_edges: usize,
    /// Cluster vertices with a predecessor outside the cluster.
    pub in_boundary: usize,
    /// Cluster vertices with a successor outside the cluster.
    pub out_boundary: usize,
    /// The trivial bound of the cluster's induced sub-CDAG (which keeps
    /// the original graph's tags), from the coarsening's tag counts.
    pub best: IoBound,
}

impl Serialize for ClusterSummary {
    fn to_json(&self) -> Value {
        Value::object([
            ("index", self.index.to_json()),
            ("first_vertex", self.first_vertex.index().to_json()),
            ("vertices", self.vertices.to_json()),
            ("internal_edges", self.internal_edges.to_json()),
            ("in_boundary", self.in_boundary.to_json()),
            ("out_boundary", self.out_boundary.to_json()),
            ("best", self.best.to_json()),
        ])
    }
}

/// Structural summary of the cluster quotient (one node per cluster,
/// one edge per distinct ordered pair of clusters joined by a crossing
/// edge), counted without building it.
///
/// Everything here is a *diagnostic*: cluster-granularity cuts do not
/// certify original-graph wavefronts (a quotient path only witnesses an
/// original path when every intermediate cluster internally connects
/// its boundaries — see the soundness note in [`mod@dmc_cdag::coarsen`]),
/// so nothing from the quotient is ever folded into
/// [`AnalysisReport::bound`].
#[derive(Debug, Clone)]
pub struct CoarseSummary {
    /// Quotient node count (= cluster count).
    pub clusters: usize,
    /// Quotient edge count: distinct ordered cluster pairs joined by a
    /// crossing edge.
    pub edges: usize,
    /// Original edges crossing clusters (before deduplication).
    pub cut_edges: usize,
}

impl Serialize for CoarseSummary {
    fn to_json(&self) -> Value {
        Value::object([
            ("clusters", self.clusters.to_json()),
            ("edges", self.edges.to_json()),
            ("cut_edges", self.cut_edges.to_json()),
            (
                "note",
                "structural diagnostic, never folded into the certified bound".to_json(),
            ),
        ])
    }
}

/// The hierarchy level of an [`AnalysisReport`] produced by
/// [`Analyzer::analyze_hierarchical`]: cluster count, per-cluster
/// bounds, the Theorem-2 composition, the optional whole-graph
/// wavefront and the cluster-quotient diagnostics.
#[derive(Debug, Clone)]
pub struct HierarchyReport {
    /// The requested (or auto-chosen) cluster count before clamping.
    pub cluster_target: usize,
    /// The actual cluster count (`min(target, |V|)`).
    pub cluster_count: usize,
    /// Per-cluster annotations and bounds, in cluster order.
    pub clusters: Vec<ClusterSummary>,
    /// The Theorem-2 composition of the per-cluster bounds.
    pub composed: IoBound,
    /// The sound whole-graph wavefront pass (`None` above 2¹⁷
    /// vertices).
    pub whole_wavefront: Option<IoBound>,
    /// Structural summary of the cluster quotient.
    pub coarse: CoarseSummary,
}

impl Serialize for HierarchyReport {
    fn to_json(&self) -> Value {
        Value::object([
            ("cluster_target", self.cluster_target.to_json()),
            ("cluster_count", self.cluster_count.to_json()),
            ("clusters", self.clusters.to_json()),
            ("composed", self.composed.to_json()),
            ("whole_wavefront", self.whole_wavefront.to_json()),
            ("coarse", self.coarse.to_json()),
        ])
    }
}

/// The pipeline's output: a provenance *tree* over the whole analysis,
/// not a flat number.
#[derive(Debug, Clone)]
#[must_use = "the analysis is pure; the report is its only product"]
pub struct AnalysisReport {
    /// `|V|` of the analyzed CDAG.
    pub vertices: usize,
    /// `|E|` of the analyzed CDAG.
    pub edges: usize,
    /// `|I|` of the analyzed CDAG.
    pub inputs: usize,
    /// `|O|` of the analyzed CDAG.
    pub outputs: usize,
    /// The `S` the bounds were computed for.
    pub sram: u64,
    /// Number of weakly-connected components.
    pub component_count: usize,
    /// Per-component analyses (empty for connected graphs and in
    /// hierarchical reports).
    pub components: Vec<ComponentReport>,
    /// Every whole-graph portfolio result, trivial then wavefront (the
    /// baseline the composed bound is compared against; empty in
    /// hierarchical reports).
    pub whole_graph: Vec<IoBound>,
    /// The strongest single whole-graph method (`None` in hierarchical
    /// reports).
    pub best_whole_graph: Option<IoBound>,
    /// The Theorem-2 composition of per-component winners (`None` for
    /// connected graphs and in hierarchical reports).
    pub composed: Option<IoBound>,
    /// The pipeline's final certified lower bound: the larger of the
    /// composed bound (when available) and the whole-graph best, composed
    /// first on ties.
    pub bound: IoBound,
    /// Machine-balance verdicts (empty unless
    /// [`AnalyzerConfig::verdicts`]).
    pub balance: Vec<BalanceReport>,
    /// Kernel-catalog context (`None` unless the report came from
    /// [`Analyzer::analyze_spec`] / [`Analyzer::analyze_kernel`]).
    pub kernel: Option<KernelReport>,
    /// Hierarchy level (`None` unless the report came from
    /// [`Analyzer::analyze_hierarchical`]).
    pub hierarchy: Option<HierarchyReport>,
}

impl AnalysisReport {
    /// The final bound normalized per FLOP (Equation 9 with one node):
    /// `bound / |V − I|`; `None` for input-only CDAGs.
    pub fn words_per_flop(&self) -> Option<f64> {
        let work = (self.vertices - self.inputs) as f64;
        (work > 0.0).then(|| self.bound.value / work)
    }
}

impl std::fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if let Some(k) = &self.kernel {
            writeln!(f, "kernel: {}", k.spec)?;
        }
        writeln!(
            f,
            "CDAG: |V| = {}, |E| = {}, |I| = {}, |O| = {}, S = {}",
            self.vertices, self.edges, self.inputs, self.outputs, self.sram
        )?;
        writeln!(f, "weakly-connected components: {}", self.component_count)?;
        for c in &self.components {
            writeln!(
                f,
                "\ncomponent {} (first vertex {}, |V| = {}, |E| = {}):",
                c.index, c.first_vertex, c.vertices, c.edges
            )?;
            for cand in &c.candidates {
                writeln!(f, "  candidate >= {:<8} {}", cand.value, cand.method)?;
            }
            write!(f, "  best:\n{}", indent(&c.best.to_string(), 2))?;
        }
        if let Some(best_whole) = &self.best_whole_graph {
            writeln!(f, "\nwhole-graph baseline (best single method):")?;
            write!(f, "{}", indent(&best_whole.to_string(), 1))?;
        }
        if let Some(composed) = &self.composed {
            writeln!(f, "\ncomposed per-component bound (Theorem 2):")?;
            write!(f, "{}", indent(&composed.to_string(), 1))?;
        }
        if let Some(h) = &self.hierarchy {
            writeln!(
                f,
                "\nhierarchical analysis: {} clusters (target {}, interval clustering of the Kahn order)",
                h.cluster_count, h.cluster_target
            )?;
            const SHOWN_CLUSTERS: usize = 8;
            for c in h.clusters.iter().take(SHOWN_CLUSTERS) {
                writeln!(
                    f,
                    "  cluster {} (first vertex {}, |V| = {}, |E_int| = {}, boundary in/out = {}/{}): best >= {} {}",
                    c.index,
                    c.first_vertex,
                    c.vertices,
                    c.internal_edges,
                    c.in_boundary,
                    c.out_boundary,
                    c.best.value,
                    c.best.method
                )?;
            }
            if h.clusters.len() > SHOWN_CLUSTERS {
                writeln!(
                    f,
                    "  ... {} more clusters",
                    h.clusters.len() - SHOWN_CLUSTERS
                )?;
            }
            writeln!(f, "  composed per-cluster bound (Theorem 2):")?;
            write!(f, "{}", indent(&h.composed.to_string(), 2))?;
            if let Some(wf) = &h.whole_wavefront {
                writeln!(f, "  whole-graph wavefront (Lemma 2 + Theorem 3):")?;
                write!(f, "{}", indent(&wf.to_string(), 2))?;
            }
            writeln!(
                f,
                "  coarse super-DAG: {} super-vertices, {} edges, {} cut edges — structural diagnostic, never folded into the bound",
                h.coarse.clusters, h.coarse.edges, h.coarse.cut_edges
            )?;
        }
        writeln!(f, "\nfinal certified lower bound: >= {}", self.bound.value)?;
        if let Some(k) = &self.kernel {
            if k.analytic_lower.is_some() || k.analytic_upper.is_some() {
                writeln!(f, "\nanalytic bounds (kernel catalog, not merged):")?;
            }
            if let Some(lower) = &k.analytic_lower {
                write!(f, "{}", indent(&lower.to_string(), 1))?;
            }
            if let Some(upper) = &k.analytic_upper {
                writeln!(f, "  <= {:<8} achievable — {}", upper.value, upper.note)?;
            }
            if let Some(flops) = k.flops_estimate {
                writeln!(f, "flops estimate: {flops:.0}")?;
            }
        }
        if let Some(ratio) = self.words_per_flop() {
            writeln!(f, "normalized (Eq. 9, 1 node): {ratio:.6} words/FLOP")?;
        }
        if !self.balance.is_empty() {
            writeln!(f, "machine-balance verdicts (Table 1):")?;
            for r in &self.balance {
                writeln!(f, "  {}", r.row())?;
            }
        }
        Ok(())
    }
}

fn indent(text: &str, levels: usize) -> String {
    let pad = "  ".repeat(levels);
    let mut out = String::with_capacity(text.len() + 2 * levels);
    for line in text.lines() {
        let _ = writeln!(out, "{pad}{line}");
    }
    out
}

impl Serialize for AnalysisReport {
    fn to_json(&self) -> Value {
        Value::object([
            ("vertices", self.vertices.to_json()),
            ("edges", self.edges.to_json()),
            ("inputs", self.inputs.to_json()),
            ("outputs", self.outputs.to_json()),
            ("sram", self.sram.to_json()),
            ("component_count", self.component_count.to_json()),
            ("components", self.components.to_json()),
            ("whole_graph", self.whole_graph.to_json()),
            ("best_whole_graph", self.best_whole_graph.to_json()),
            (
                "composed",
                self.composed
                    .as_ref()
                    .map(Serialize::to_json)
                    .unwrap_or(Value::Null),
            ),
            ("bound", self.bound.to_json()),
            ("words_per_flop", self.words_per_flop().to_json()),
            ("balance", self.balance.to_json()),
            ("kernel", self.kernel.to_json()),
            ("hierarchy", self.hierarchy.to_json()),
        ])
    }
}

/// The `S`-independent half of the fixed portfolio on one CDAG, from
/// [`Analyzer::measure_portfolio`]: everything [`Analyzer::analyze`]
/// computes from the graph, measured once for every `S ≥ s_min`.
/// [`PortfolioMeasurement::assemble`] is the per-`S` half.
#[derive(Debug, Clone)]
pub struct PortfolioMeasurement {
    /// `|V|`, `|E|`, `|I|` and `|O|` of the measured graph.
    counts: [usize; 4],
    component_count: usize,
    whole: Members,
    /// Empty for connected graphs.
    components: Vec<ComponentMeasurement>,
}

impl PortfolioMeasurement {
    /// The report [`Analyzer::analyze`] gives at `s` — every candidate,
    /// note and provenance tree, byte for byte (see
    /// [`crate::bounds::mincut`] for why one measurement serves every
    /// `S`) — except that it carries no machine-balance verdicts.
    ///
    /// # Panics
    ///
    /// Panics if `s` is below the `s_min` the graph was measured for.
    pub fn assemble(&self, s: u64) -> AnalysisReport {
        let whole_graph = self.whole.candidates_at(s);
        let best_whole_graph = best_lower_bound(whole_graph.iter().cloned());
        let components: Vec<ComponentReport> =
            self.components.iter().map(|c| c.report_at(s)).collect();
        let composed = (!components.is_empty()).then(|| {
            decomposition_sum(
                &components
                    .iter()
                    .map(|c| c.best.clone())
                    .collect::<Vec<_>>(),
            )
        });
        // The composed bound dominates the baseline on the same anchors
        // (the trivial bound is additive across components and a
        // wavefront never spans them), but the adaptive sampler picks its
        // anchors per graph, so the whole-graph wavefront can still find
        // a wider one than its component did: take the best, composed
        // first on ties.
        let bound = best_lower_bound(
            composed
                .iter()
                .cloned()
                .chain(best_whole_graph.iter().cloned()),
        )
        // dmc-lint: allow(s1) -- the whole-graph portfolio is never empty, so a best element exists
        .expect("composed or whole-graph best always exists");
        let [vertices, edges, inputs, outputs] = self.counts;
        AnalysisReport {
            vertices,
            edges,
            inputs,
            outputs,
            sram: s,
            component_count: self.component_count,
            components,
            whole_graph,
            best_whole_graph,
            composed,
            bound,
            balance: Vec::new(),
            kernel: None,
            hierarchy: None,
        }
    }
}

/// One component's measured members plus where it sits in the parent.
#[derive(Debug, Clone)]
struct ComponentMeasurement {
    index: usize,
    first_vertex: VertexId,
    vertices: usize,
    edges: usize,
    members: Members,
}

impl ComponentMeasurement {
    fn report_at(&self, s: u64) -> ComponentReport {
        let candidates = self.members.candidates_at(s);
        let best = best_lower_bound(candidates.iter().cloned())
            // dmc-lint: allow(s1) -- the portfolio always has its two members
            .expect("portfolio is non-empty by construction");
        ComponentReport {
            index: self.index,
            first_vertex: self.first_vertex,
            vertices: self.vertices,
            edges: self.edges,
            candidates,
            best,
        }
    }
}

/// The fixed portfolio's two members on one CDAG (the whole graph or one
/// component): the trivial bound, then the wavefront member.
#[derive(Debug, Clone)]
struct Members {
    trivial: IoBound,
    wavefront: WavefrontMember,
}

impl Members {
    /// The trivial bound comes first and so wins every tie, which makes
    /// it the wavefront's incumbent (see [`wavefront_bound_above`]): a
    /// wavefront that cannot strictly beat it is reported as a value-0
    /// candidate instead of being solved. The winner is the one the
    /// unfloored wavefront would give.
    ///
    /// [`wavefront_bound_above`]: crate::bounds::mincut::wavefront_bound_above
    fn measure(g: &Cdag, s_min: u64, engine_threads: usize) -> Self {
        let trivial = IoBound::trivial(g);
        let wavefront = WavefrontMember::measure(g, s_min, engine_threads, Some(&trivial));
        Members { trivial, wavefront }
    }

    fn candidates_at(&self, s: u64) -> Vec<IoBound> {
        vec![self.trivial.clone(), self.wavefront.bound_at(s)]
    }
}

/// Lemma 2 on the untagged CDAG; when the graph had tagged inputs the
/// result is wrapped in the Theorem-3 untagging transfer that makes it
/// valid for the tagged graph.
#[derive(Debug, Clone)]
struct WavefrontMember {
    lemma2: WavefrontMeasurement,
    tagged: bool,
}

impl WavefrontMember {
    /// `incumbent` is a bound on `g` that wins ties against this one (see
    /// `wavefront_bound_above`).
    fn measure(g: &Cdag, s_min: u64, engine_threads: usize, incumbent: Option<&IoBound>) -> Self {
        WavefrontMember {
            lemma2: WavefrontMeasurement::measure(
                &untag_inputs(g),
                s_min,
                AnchorStrategy::Adaptive,
                engine_threads,
                incumbent,
            ),
            tagged: g.num_inputs() > 0,
        }
    }

    fn bound_at(&self, s: u64) -> IoBound {
        let wf = self.lemma2.bound_at(s);
        if self.tagged {
            untagging_transfer(&wf)
        } else {
            wf
        }
    }
}

/// The unified analysis pipeline over arbitrary CDAGs.
///
/// # Example
///
/// ```
/// use dmc_core::pipeline::{Analyzer, AnalyzerConfig};
///
/// // Two independent chains: the pipeline finds both components, bounds
/// // each, and composes with Theorem 2 — 2 words of I/O per chain.
/// let g = dmc_kernels::chains::independent_chains(2, 3);
/// let report = Analyzer::new(AnalyzerConfig {
///     sram: 2,
///     ..AnalyzerConfig::default()
/// })
/// .analyze(&g);
/// assert_eq!(report.component_count, 2);
/// assert_eq!(report.bound.value, 4.0);
/// // The report is deterministic at any thread count.
/// let one_thread = Analyzer::new(AnalyzerConfig {
///     sram: 2,
///     threads: 1,
///     ..AnalyzerConfig::default()
/// })
/// .analyze(&g);
/// assert_eq!(report.to_string(), one_thread.to_string());
/// ```
#[derive(Debug, Clone)]
pub struct Analyzer {
    config: AnalyzerConfig,
}

impl Analyzer {
    /// Builds an analyzer with the given configuration.
    pub fn new(config: AnalyzerConfig) -> Self {
        assert!(config.sram >= 1, "S must be at least 1");
        Analyzer { config }
    }

    /// Analyzer with the default configuration.
    pub fn with_defaults() -> Self {
        Analyzer::new(AnalyzerConfig::default())
    }

    /// The configuration this analyzer runs.
    pub fn config(&self) -> &AnalyzerConfig {
        &self.config
    }

    /// Runs the full pipeline on `g`: [`Analyzer::measure_portfolio`] at
    /// this analyzer's `S`, then [`PortfolioMeasurement::assemble`] there.
    pub fn analyze(&self, g: &Cdag) -> AnalysisReport {
        let s = self.config.sram;
        let mut report = self.measure_portfolio(g, s).assemble(s);
        report.balance = self.balance_verdicts(g, report.bound.value);
        report
    }

    /// Measures everything the fixed portfolio needs from `g` that does
    /// not depend on `S`, once, for every `S ≥ s_min`: the
    /// weakly-connected components and their induced pieces, and for the
    /// whole graph and each piece the trivial bound and the wavefront
    /// member's Lemma-2 measurement (the engine's ceiling and one run
    /// floored at `s_min`; see [`crate::bounds::mincut`]).
    /// [`PortfolioMeasurement::assemble`] then gives the portfolio at any
    /// such `S` without touching the graph.
    ///
    /// The whole-graph member gets this analyzer's full thread budget
    /// (the engine parallelizes internally); components fan out over
    /// scoped workers that split it. No result depends on the budget.
    ///
    /// ```
    /// use dmc_core::pipeline::{Analyzer, AnalyzerConfig};
    ///
    /// let g = dmc_kernels::chains::independent_chains(2, 3);
    /// let m = Analyzer::with_defaults().measure_portfolio(&g, 2);
    /// for s in [2, 3, 64] {
    ///     let per_s = Analyzer::new(AnalyzerConfig { sram: s, ..AnalyzerConfig::default() });
    ///     assert_eq!(m.assemble(s).bound.to_string(), per_s.analyze(&g).bound.to_string());
    /// }
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `s_min` is 0.
    pub fn measure_portfolio(&self, g: &Cdag, s_min: u64) -> PortfolioMeasurement {
        assert!(s_min >= 1, "S must be at least 1");
        let comps = weakly_connected_components(g);
        let whole = Members::measure(g, s_min, self.config.threads);
        let components = if comps.count > 1 {
            let pieces = subgraph::decompose(g, &comps.assignment, comps.count);
            self.measure_components(&pieces, s_min)
        } else {
            Vec::new()
        };
        PortfolioMeasurement {
            counts: [
                g.num_vertices(),
                g.num_edges(),
                g.num_inputs(),
                g.num_outputs(),
            ],
            component_count: comps.count,
            whole,
            components,
        }
    }

    /// Parses `spec` against the shared kernel [`Registry`], builds the
    /// CDAG, and runs the pipeline on it. The report carries the
    /// canonical spec and the kernel's analytic bounds (rendered next to
    /// the pipeline bounds, never merged into the certified bound).
    ///
    /// ```
    /// use dmc_core::pipeline::Analyzer;
    ///
    /// let report = Analyzer::with_defaults()
    ///     .analyze_spec("chains(k=3,len=4)")
    ///     .expect("valid spec");
    /// assert_eq!(report.component_count, 3);
    /// assert_eq!(report.kernel.unwrap().spec, "chains(k=3,len=4)");
    /// ```
    pub fn analyze_spec(&self, spec: &str) -> Result<AnalysisReport, SpecError> {
        Ok(self.analyze_kernel(&Registry::shared().parse(spec)?))
    }

    /// Runs the pipeline on an already-parsed catalog spec (see
    /// [`Analyzer::analyze_spec`]).
    pub fn analyze_kernel(&self, spec: &KernelSpec<'_>) -> AnalysisReport {
        let g = spec.build();
        let mut report = self.analyze(&g);
        self.attach_kernel_context(&mut report, spec);
        report
    }

    /// Runs the **hierarchical** pipeline on `g`: interval-cluster the
    /// Kahn order, count every cluster and the crossing edges (a
    /// structural diagnostic), bound every cluster by its trivial
    /// bound, compose those with Theorem 2, and fold in the sound
    /// whole-graph wavefront pass on graphs of at most 2¹⁷ vertices.
    ///
    /// Soundness: the clusters are a *total* disjoint partition of `V`
    /// (inputs included), and for any such partition an optimal RBW game
    /// on `g`, restricted to the moves touching one cluster, is a valid
    /// complete game on the induced sub-CDAG — so the per-cluster I/O
    /// counts partition the whole game's I/O and Theorem 2's sum is a
    /// certified lower bound, crossing edges notwithstanding. Each
    /// cluster's bound is [`IoBound::trivial`] of its induced sub-CDAG,
    /// built from the tag counts [`coarsen`] takes without building the
    /// sub-CDAG. The whole-graph wavefront pass is the flat pipeline's own
    /// Lemma-2 + Theorem-3 member. Nothing derived from the cluster
    /// quotient is ever folded into the bound (see
    /// [`mod@dmc_cdag::coarsen`] for why that would be unsound).
    ///
    /// The per-cluster trivial bounds sum to the whole-graph trivial
    /// bound, so the result is dominated by the flat pipeline's bound.
    ///
    /// ```
    /// use dmc_core::pipeline::{Analyzer, HierarchicalOptions};
    ///
    /// let g = dmc_kernels::matmul::matmul(6);
    /// let opts = HierarchicalOptions { clusters: Some(4) };
    /// let analyzer = Analyzer::with_defaults();
    /// let report = analyzer.analyze_hierarchical(&g, &opts);
    /// let h = report.hierarchy.as_ref().expect("hierarchical report");
    /// assert_eq!(h.cluster_count, 4);
    /// // Dominated by (here equal to) the flat bound.
    /// assert!(report.bound.value <= analyzer.analyze(&g).bound.value);
    /// ```
    pub fn analyze_hierarchical(&self, g: &Cdag, opts: &HierarchicalOptions) -> AnalysisReport {
        let n = g.num_vertices();
        if n == 0 {
            // Degenerate: nothing to cluster; the flat report (with no
            // hierarchy level) is the honest answer.
            return self.analyze(g);
        }
        let comps = weakly_connected_components(g);
        let order = topological_order(g);
        let target = opts
            .clusters
            .unwrap_or_else(|| n.div_ceil(DEFAULT_CLUSTER_SIZE).clamp(2, MAX_AUTO_CLUSTERS))
            .max(1);
        let assignment = topological_clusters(g, &order, target);
        let cluster_count = assignment.iter().max().map_or(0, |&m| m + 1);
        let coarse = coarsen(g, &assignment, cluster_count)
            // dmc-lint: allow(s1) -- topological_clusters numbers every vertex into contiguous non-empty clusters
            .expect("topological interval clustering covers every vertex with non-empty clusters");
        let clusters: Vec<ClusterSummary> = coarse
            .clusters
            .iter()
            .enumerate()
            .map(|(index, info)| ClusterSummary {
                index,
                first_vertex: info.first_vertex,
                vertices: info.vertices,
                internal_edges: info.internal_edges,
                in_boundary: info.in_boundary,
                out_boundary: info.out_boundary,
                best: IoBound::trivial_counts(info.inputs, info.pure_outputs),
            })
            .collect();
        let composed =
            decomposition_sum(&clusters.iter().map(|c| c.best.clone()).collect::<Vec<_>>());
        let whole_wavefront = (n <= WHOLE_WAVEFRONT_LIMIT).then(|| {
            let threads = self.resolved_threads(usize::MAX);
            let s = self.config.sram;
            WavefrontMember::measure(g, s, threads, None).bound_at(s)
        });
        let bound = best_lower_bound(
            std::iter::once(composed.clone()).chain(whole_wavefront.iter().cloned()),
        )
        // dmc-lint: allow(s1) -- the composed bound is always present
        .expect("the Theorem-2 composition always exists");
        let balance = self.balance_verdicts(g, bound.value);

        AnalysisReport {
            vertices: n,
            edges: g.num_edges(),
            inputs: g.num_inputs(),
            outputs: g.num_outputs(),
            sram: self.config.sram,
            component_count: comps.count,
            components: Vec::new(),
            whole_graph: Vec::new(),
            best_whole_graph: None,
            composed: None,
            bound,
            balance,
            kernel: None,
            hierarchy: Some(HierarchyReport {
                cluster_target: target,
                cluster_count,
                clusters,
                composed,
                whole_wavefront,
                coarse: CoarseSummary {
                    clusters: coarse.clusters.len(),
                    edges: coarse.coarse_edges,
                    cut_edges: coarse.cut_edges,
                },
            }),
        }
    }

    /// Runs the hierarchical pipeline on an already-parsed catalog spec.
    pub fn analyze_kernel_hierarchical(
        &self,
        spec: &KernelSpec<'_>,
        opts: &HierarchicalOptions,
    ) -> AnalysisReport {
        let g = spec.build();
        let mut report = self.analyze_hierarchical(&g, opts);
        self.attach_kernel_context(&mut report, spec);
        report
    }

    /// Attaches the kernel-catalog context (canonical spec, analytic
    /// bounds, FLOP estimate) to a finished report.
    fn attach_kernel_context(&self, report: &mut AnalysisReport, spec: &KernelSpec<'_>) {
        let (kernel, values) = (spec.kernel(), spec.values());
        report.kernel = Some(KernelReport {
            spec: spec.render(),
            analytic_lower: kernel
                .analytic_lower_bound(values, self.config.sram)
                .map(|a| IoBound::new(a.value, Method::Analytic, a.note)),
            analytic_upper: kernel.analytic_upper_bound(values, self.config.sram),
            flops_estimate: kernel.flops_estimate(values),
        });
    }

    /// Machine-balance verdicts for the final bound (empty unless
    /// [`AnalyzerConfig::verdicts`]).
    fn balance_verdicts(&self, g: &Cdag, bound_value: f64) -> Vec<BalanceReport> {
        if !self.config.verdicts {
            return Vec::new();
        }
        let work = g.num_compute_vertices() as f64;
        let profile = AlgorithmProfile {
            name: "pipeline".to_string(),
            vertical_lb_per_flop: (work > 0.0).then(|| bound_value / work),
            vertical_ub_per_flop: None,
            horizontal_lb_per_flop: None,
            horizontal_ub_per_flop: None,
        };
        specs::table1_machines()
            .iter()
            .map(|m| analyze(&profile, m))
            .collect()
    }

    /// Fans the per-component measurements out over scoped workers
    /// ([`fan_out_indexed`]); the index-ordered merge keeps every
    /// assembly bit-identical at any thread count.
    fn measure_components(
        &self,
        pieces: &[InducedSubCdag],
        s_min: u64,
    ) -> Vec<ComponentMeasurement> {
        let total = self.resolved_threads(usize::MAX);
        let workers = total.clamp(1, pieces.len());
        // Split the budget: more threads than components means each
        // worker's wavefront engine gets a share instead of idling the
        // surplus. The engine's result is thread-count-invariant, so the
        // bit-identical-report guarantee is unaffected.
        let engine_threads = (total / pieces.len()).max(1);
        fan_out_indexed(
            pieces.len(),
            workers,
            || (),
            |_, i| {
                let piece = &pieces[i];
                ComponentMeasurement {
                    index: i,
                    first_vertex: piece.parent_of(VertexId(0)),
                    vertices: piece.cdag.num_vertices(),
                    edges: piece.cdag.num_edges(),
                    members: Members::measure(&piece.cdag, s_min, engine_threads),
                }
            },
        )
    }

    pub(crate) fn resolved_threads(&self, work_items: usize) -> usize {
        let t = if self.config.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.config.threads
        };
        t.clamp(1, work_items.max(1))
    }
}

/// Above this size the greedy 2S-partition diagnostic (quadratic in the
/// worst case) is skipped; the certified counting bound is unaffected.
const GREEDY_DIAGNOSTIC_LIMIT: usize = 2048;

/// Target cluster size when [`HierarchicalOptions::clusters`] is `None`:
/// the auto cluster count is `⌈|V| / 2¹⁶⌉`, clamped to
/// `2..=`[`MAX_AUTO_CLUSTERS`].
const DEFAULT_CLUSTER_SIZE: usize = 1 << 16;

/// Upper clamp of the auto-chosen cluster count (bounds the report's
/// per-cluster list at 10⁸ vertices).
const MAX_AUTO_CLUSTERS: usize = 1024;

/// Largest graph (in vertices) on which the hierarchical pipeline also
/// runs the flat pipeline's whole-graph wavefront member and folds it
/// into the certified bound.
const WHOLE_WAVEFRONT_LIMIT: usize = 1 << 17;

/// Lemma 1 through a *counting relaxation* of the minimum 2S-partition
/// block count, decorated with a greedy 2S-partition diagnostic.
///
/// Soundness: in any valid 2S-partition (Definition 5) every tagged
/// output outside `I` lies in exactly one block's `Out` set and every
/// tagged input with a successor appears in at least one block's `In`
/// set, while `|In|, |Out| ≤ 2S` per block — so
/// `h_min ≥ ⌈max(|O∖I|, |I_used|)/2S⌉` and Lemma 1 gives
/// `Q ≥ S·(h_min − 1)`. The greedy partition's block count *over*-counts
/// `h_min` and is reported only as a diagnostic, never used as a bound.
///
/// Domination: write `d = max(|O∖I|, |I_used|)`. For `d > 0` the value
/// `S·(⌈d/2S⌉ − 1)` is below `S·d/2S = d/2 ≤ |I| + |O∖I|`, and for
/// `d = 0` it is 0. So it is strictly below [`IoBound::trivial`] or both
/// are 0, and the trivial bound wins every tie by coming first — which is
/// why the [`Analyzer`] portfolio does not run this method.
pub fn partition2s_bound(g: &Cdag, s: u64) -> IoBound {
    assert!(s >= 1, "S must be at least 1");
    // Saturating: `2 * s` must not wrap for absurd S (that would *shrink*
    // the divisor and overclaim the certified bound, or divide by zero).
    let two_s = s.saturating_mul(2);
    let mut pure_outputs = g.outputs().clone();
    pure_outputs.difference_with(g.inputs());
    let used_inputs = g
        .inputs()
        .iter()
        .filter(|&i| g.out_degree(VertexId(i as u32)) > 0)
        .count();
    let demand = pure_outputs.len().max(used_inputs);
    // `h_lb ≤ demand ≤ |V|` fits comfortably in usize.
    let h_lb = (demand as u64).div_ceil(two_s) as usize;
    let value = lemma1_lower_bound(s as usize, h_lb) as f64;
    let mut note = format!(
        "S·(h_min − 1) with h_min ≥ ⌈max(|O∖I| = {}, |I_used| = {used_inputs})/2S⌉ = {h_lb}",
        pure_outputs.len()
    );
    // The greedy partition cannot place a vertex whose in-degree alone
    // exceeds 2S; skip the diagnostic when no valid 2S-partition exists
    // (or the graph is too large for a quadratic diagnostic).
    let two_s_blocks = usize::try_from(two_s).unwrap_or(usize::MAX);
    let partitionable = g.num_vertices() <= GREEDY_DIAGNOSTIC_LIMIT
        && g.vertices()
            .filter(|&v| !g.is_input(v))
            .all(|v| g.in_degree(v) <= two_s_blocks);
    if partitionable {
        let p = greedy_partition(g, &topological_order(g), two_s_blocks);
        let _ = write!(
            note,
            "; greedy 2S-partition: h = {}, largest block = {} (diagnostic)",
            p.num_blocks(),
            p.largest_block()
        );
    }
    IoBound::new(value, Method::HongKung2S, note)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::games::optimal::{optimal_io, GameKind};
    use dmc_kernels::chains;

    fn analyzer(sram: u64, threads: usize) -> Analyzer {
        Analyzer::new(AnalyzerConfig {
            sram,
            threads,
            ..AnalyzerConfig::default()
        })
    }

    #[test]
    fn connected_graph_skips_decomposition() {
        let g = chains::ladder(4, 4);
        let r = analyzer(2, 1).analyze(&g);
        assert_eq!(r.component_count, 1);
        assert!(r.composed.is_none());
        assert!(r.components.is_empty());
        assert_eq!(r.bound.value, r.best_whole_graph.as_ref().unwrap().value);
    }

    #[test]
    fn disjoint_chains_compose_exactly() {
        // 3 chains, optimal I/O 2 each: composed bound is exactly 6.
        let g = chains::independent_chains(3, 4);
        let r = analyzer(2, 2).analyze(&g);
        assert_eq!(r.component_count, 3);
        assert_eq!(r.components.len(), 3);
        let composed = r.composed.as_ref().expect("multi-component");
        assert_eq!(composed.value, 6.0);
        assert_eq!(composed.provenance.children.len(), 3);
        assert_eq!(r.bound.value, 6.0);
        // Sound vs the exact optimum.
        let opt = optimal_io(&g, 2, GameKind::Rbw).unwrap();
        assert!(r.bound.value <= opt as f64);
    }

    #[test]
    fn report_is_bit_identical_across_thread_counts() {
        let g = chains::independent_chains(4, 5);
        let base = analyzer(2, 1).analyze(&g);
        for threads in [2usize, 4] {
            let r = analyzer(2, threads).analyze(&g);
            assert_eq!(r.to_string(), base.to_string(), "@ {threads} threads");
            assert_eq!(
                serde::json::to_string(&r),
                serde::json::to_string(&base),
                "@ {threads} threads"
            );
        }
    }

    #[test]
    fn partition2s_bound_survives_huge_sram() {
        // Regression: `2 * s` used to wrap for S > u64::MAX/2, shrinking
        // the divisor (overclaimed bound) or panicking on div-by-zero.
        let g = chains::binary_reduction(8);
        for s in [u64::MAX / 2, u64::MAX / 2 + 1, u64::MAX] {
            let b = partition2s_bound(&g, s);
            assert_eq!(b.value, 0.0, "S = {s}");
        }
    }

    #[test]
    fn partition2s_bound_is_sound_and_annotated() {
        let g = chains::binary_reduction(8);
        let b = partition2s_bound(&g, 2);
        assert_eq!(b.method, Method::HongKung2S);
        assert!(b.provenance.note.contains("greedy 2S-partition"));
        if let Some(opt) = optimal_io(&g, 2, GameKind::Rbw) {
            assert!(b.value <= opt as f64);
        }
    }

    #[test]
    fn verdicts_populated_on_request() {
        let g = chains::ladder(3, 3);
        let r = Analyzer::new(AnalyzerConfig {
            sram: 2,
            threads: 1,
            verdicts: true,
        })
        .analyze(&g);
        assert_eq!(r.balance.len(), specs::table1_machines().len());
        assert!(r.to_string().contains("machine-balance verdicts"));
    }

    #[test]
    fn analyze_spec_attaches_kernel_context() {
        let r = analyzer(4, 1)
            .analyze_spec("jacobi(n=4,d=2,t=3)")
            .expect("valid spec");
        let k = r.kernel.as_ref().expect("spec-driven report");
        assert_eq!(k.spec, "jacobi(n=4,d=2,t=3,stencil=star)");
        let analytic = k.analytic_lower.as_ref().expect("Theorem 10");
        assert_eq!(analytic.method, Method::Analytic);
        assert!(analytic.provenance.note.contains("Theorem 10"));
        assert!(k.flops_estimate.is_some());
        let text = r.to_string();
        assert!(text.starts_with("kernel: jacobi("), "{text}");
        assert!(text.contains("analytic bounds (kernel catalog"), "{text}");
        let json = serde::json::to_string(&r);
        assert!(json.contains(r#""kernel":{"spec":"jacobi("#), "{json}");
    }

    #[test]
    fn analyze_spec_matches_plain_analyze_on_the_same_graph() {
        use dmc_kernels::grid::Stencil;
        let hand = dmc_kernels::jacobi::jacobi_cdag(4, 1, 3, Stencil::VonNeumann).cdag;
        let a = analyzer(3, 1);
        let via_spec = a.analyze_spec("jacobi(n=4,d=1,t=3)").expect("valid");
        let via_graph = a.analyze(&hand);
        assert_eq!(via_spec.bound.value, via_graph.bound.value);
        assert_eq!(via_spec.bound.to_string(), via_graph.bound.to_string());
    }

    #[test]
    fn analyze_spec_bad_spec_is_loud() {
        let err = analyzer(4, 1).analyze_spec("warp_drive(n=4)").unwrap_err();
        assert!(err.to_string().contains("unknown kernel"), "{err}");
    }

    #[test]
    fn hierarchical_default_is_dominated_by_flat() {
        // The hierarchical bound never exceeds the flat pipeline's bound:
        // per-cluster trivial bounds sum to the whole-graph trivial
        // bound and the whole-graph wavefront member is shared.
        for (g, s) in [
            (dmc_kernels::matmul::matmul(5), 4),
            (chains::ladder(6, 6), 4),
            (dmc_kernels::fft::fft(16), 4),
            (chains::independent_chains(3, 5), 2),
        ] {
            let a = analyzer(s, 2);
            let opts = HierarchicalOptions { clusters: Some(3) };
            let hier = a.analyze_hierarchical(&g, &opts);
            let flat = a.analyze(&g);
            assert!(
                hier.bound.value <= flat.bound.value,
                "hier {} > flat {} on |V| = {}",
                hier.bound.value,
                flat.bound.value,
                g.num_vertices()
            );
        }
    }

    #[test]
    fn cluster_bounds_equal_the_trivial_bounds_of_the_induced_pieces() {
        // The reference is the induced sub-CDAG the counts stand for:
        // each cluster's bound is `IoBound::trivial` of its piece, value
        // and note, and the composition is the whole-graph trivial bound.
        let registry = Registry::shared();
        for name in registry.names() {
            let spec = registry.defaults(name).expect("registered kernel");
            let g = spec.build();
            let n = g.num_vertices();
            let order = topological_order(&g);
            for k in [1, 3, 7, n] {
                let r = analyzer(4, 1)
                    .analyze_hierarchical(&g, &HierarchicalOptions { clusters: Some(k) });
                let h = r.hierarchy.as_ref().expect("hierarchy level");
                let assignment = topological_clusters(&g, &order, k);
                let pieces = subgraph::decompose(&g, &assignment, h.cluster_count);
                assert_eq!(h.clusters.len(), pieces.len(), "{name} K={k}");
                for (c, piece) in h.clusters.iter().zip(&pieces) {
                    let want = IoBound::trivial(&piece.cdag);
                    assert_eq!(c.best.value, want.value, "{name} K={k} cluster {}", c.index);
                    assert_eq!(c.best.to_string(), want.to_string(), "{name} K={k}");
                    assert_eq!(c.first_vertex, piece.parent_of(VertexId(0)), "{name} K={k}");
                }
                assert_eq!(h.composed.value, IoBound::trivial(&g).value, "{name} K={k}");
            }
        }
    }

    #[test]
    fn hierarchical_clusters_cover_every_vertex() {
        let g = dmc_kernels::matmul::matmul(4);
        let opts = HierarchicalOptions { clusters: Some(5) };
        let r = analyzer(4, 1).analyze_hierarchical(&g, &opts);
        let h = r.hierarchy.as_ref().expect("hierarchy level");
        assert_eq!(h.cluster_count, 5);
        assert_eq!(h.clusters.len(), 5);
        let covered: usize = h.clusters.iter().map(|c| c.vertices).sum();
        assert_eq!(covered, g.num_vertices(), "Theorem 2 needs a total cover");
        let internal: usize = h.clusters.iter().map(|c| c.internal_edges).sum();
        assert_eq!(internal + h.coarse.cut_edges, g.num_edges());
        // The Theorem-2 composition has one child per cluster.
        assert_eq!(h.composed.provenance.children.len(), 5);
    }

    #[test]
    fn hierarchical_report_is_bit_identical_across_thread_counts() {
        let g = dmc_kernels::matmul::matmul(5);
        let opts = HierarchicalOptions { clusters: Some(4) };
        let base = analyzer(4, 1).analyze_hierarchical(&g, &opts);
        for threads in [2usize, 4] {
            let r = analyzer(4, threads).analyze_hierarchical(&g, &opts);
            assert_eq!(r.to_string(), base.to_string(), "@ {threads} threads");
            assert_eq!(
                serde::json::to_string(&r),
                serde::json::to_string(&base),
                "@ {threads} threads"
            );
        }
    }

    #[test]
    fn hierarchical_bound_is_below_the_optimum() {
        // Theorem 2 soundness of the composed bound, whole-graph
        // wavefront folded in, against the exact optimum.
        let g = chains::ladder(3, 4);
        let opts = HierarchicalOptions { clusters: Some(2) };
        let r = analyzer(3, 1).analyze_hierarchical(&g, &opts);
        let opt = optimal_io(&g, 3, GameKind::Rbw).expect("small instance");
        assert!(
            r.bound.value <= opt as f64,
            "hierarchical {} > optimal {opt}",
            r.bound.value
        );
    }

    #[test]
    fn hierarchical_text_and_json_carry_the_hierarchy_level() {
        let opts = HierarchicalOptions { clusters: Some(3) };
        let spec = Registry::shared().parse("matmul(n=4)").expect("valid spec");
        let r = analyzer(4, 1).analyze_kernel_hierarchical(&spec, &opts);
        assert!(r.kernel.is_some(), "kernel context attached");
        let text = r.to_string();
        assert!(text.contains("hierarchical analysis: 3 clusters"), "{text}");
        assert!(
            text.contains("composed per-cluster bound (Theorem 2)"),
            "{text}"
        );
        assert!(text.contains("coarse super-DAG:"), "{text}");
        // The flat re-run and the coarse-DAG engine sweep are gone.
        assert!(!text.contains("flat-pipeline comparison"), "{text}");
        assert!(!text.contains("coarse w^max"), "{text}");
        let json = serde::json::to_string(&r);
        assert!(
            json.contains(r#""hierarchy":{"cluster_target":3,"cluster_count":3,"clusters":["#),
            "{json}"
        );
        assert!(json.contains(r#""coarse":{"clusters":3"#), "{json}");
        for removed in [r#""cluster_wavefront_limit""#, r#""flat""#, r#""w_max""#] {
            assert!(!json.contains(removed), "{removed} in {json}");
        }
        // Flat reports serialize the level as null.
        let flat = analyzer(4, 1).analyze_spec("matmul(n=4)").expect("valid");
        assert!(serde::json::to_string(&flat).contains(r#""hierarchy":null"#));
    }

    #[test]
    fn hierarchical_auto_cluster_count_scales_with_size() {
        // Small graphs get the floor of 2 clusters.
        let g = chains::ladder(4, 4);
        let r = analyzer(2, 1).analyze_hierarchical(&g, &HierarchicalOptions::default());
        let h = r.hierarchy.as_ref().expect("hierarchy level");
        assert_eq!(h.cluster_target, 2);
        assert_eq!(h.cluster_count, 2);
        // A cluster target above |V| clamps to |V| singleton clusters.
        let tiny = chains::independent_chains(1, 3);
        let opts = HierarchicalOptions {
            clusters: Some(100),
        };
        let r = analyzer(2, 1).analyze_hierarchical(&tiny, &opts);
        let h = r.hierarchy.as_ref().expect("hierarchy level");
        assert_eq!(h.cluster_count, tiny.num_vertices());
    }

    #[test]
    fn wavefront_candidate_records_theorem3_transfer() {
        let g = chains::ladder(4, 4);
        let r = analyzer(1, 1).analyze(&g);
        let wf = &r.whole_graph[1];
        assert_eq!(wf.method, Method::Tagging);
        assert_eq!(wf.provenance.children.len(), 1);
        assert_eq!(wf.provenance.children[0].method, Method::Wavefront);
    }
}
