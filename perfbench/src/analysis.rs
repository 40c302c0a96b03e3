//! The three `repro`-command workloads: `flat-analyze`, `validate-sweep`
//! and `hier-scale`.
//!
//! Every job is one `repro analyze` or `repro simulate` command, run
//! through the `dmc_bench` function that `repro` dispatches to, in a
//! fresh process of the benchmark binary, as `repro` runs it.
//! The traced run replays each job as the same sequence of public calls
//! that entry function makes (admission, build, analysis, JSON render),
//! with a span around each (a test checks that the replay reproduces the
//! entry point's bytes), and then times each layer's own public calls on
//! the job's inputs ("probes").

use crate::json::Json;
use crate::refs;
use crate::trace::Tracer;
use dmc_bench::{AnalyzeOptions, ReportFormat};
use dmc_core::bounds::{IoBound, Method};
use dmc_core::pipeline::{partition2s_bound, AnalysisReport, Analyzer, AnalyzerConfig};
use dmc_kernels::catalog::{KernelSpec, Registry, DEFAULT_MAX_BUILD_VERTICES};
use serde::json::Value;
use serde::Serialize as _;

/// Worker threads per job (`--threads 1`). With one thread a job's time
/// follows its work alone; with two on a two-core machine the wavefront
/// engine's pruning order and the validator's fan-out follow thread
/// timing, which moved a `validate-sweep` pass by up to 20% within a run.
pub const THREADS: usize = 1;

/// Threads of the traced run's two-thread engine probe (`cdag.engine_s`);
/// `cdag.engine_t1_s` is the same call at one thread.
pub const PROBE_THREADS: usize = 2;

/// `repro analyze`'s default `--sram`.
pub const ANALYZE_SRAM: u64 = 4;

/// One `repro` command.
#[derive(Debug, Clone)]
pub enum Job {
    Analyze {
        spec: String,
        hierarchical: bool,
    },
    Sweep {
        spec: &'static str,
        sweep: (u64, u64, u64),
    },
    Machine {
        machine: &'static str,
        spec: &'static str,
        s1: u64,
    },
}

/// The `flat-analyze` jobs. The first three are won by the trivial
/// bound (the wavefront engine's work is discarded), the last four by
/// the engine.
pub fn flat_jobs() -> Vec<Job> {
    refs::FLAT
        .iter()
        .map(|r| Job::Analyze {
            spec: r.spec.to_string(),
            hierarchical: false,
        })
        .collect()
}

/// The `validate-sweep` jobs: two S-sweeps, then two BG/Q machine runs.
pub fn validate_jobs() -> Vec<Job> {
    let sweeps = refs::SWEEPS.iter().map(|r| Job::Sweep {
        spec: r.spec,
        sweep: refs::SWEEP,
    });
    let machines = refs::MACHINES.iter().map(|r| Job::Machine {
        machine: refs::MACHINE,
        spec: r.spec,
        s1: refs::MACHINE_S1,
    });
    sweeps.chain(machines).collect()
}

/// The `hier-scale` job: one 4,194,304-vertex sparse random DAG whose
/// generator seed is the workload seed.
pub fn hier_jobs(seed: u64) -> Vec<Job> {
    vec![Job::Analyze {
        spec: refs::hier_spec(seed),
        hierarchical: true,
    }]
}

impl Job {
    /// The `repro` command line this job reproduces.
    pub fn repro_command(&self) -> String {
        match self {
            Job::Analyze { spec, hierarchical } => format!(
                "repro analyze --kernel '{spec}'{} --threads {THREADS} --format json",
                if *hierarchical { " --hierarchical" } else { "" }
            ),
            Job::Sweep {
                spec,
                sweep: (lo, hi, step),
            } => format!(
                "repro simulate --kernel '{spec}' --sram-sweep {lo}:{hi}:{step} --threads {THREADS} --format json"
            ),
            Job::Machine { machine, spec, s1 } => format!(
                "repro simulate --machine '{machine}' --kernel '{spec}' --sram {s1} --threads {THREADS} --format json"
            ),
        }
    }

    fn spec(&self) -> &str {
        match self {
            Job::Analyze { spec, .. } => spec,
            Job::Sweep { spec, .. } | Job::Machine { spec, .. } => spec,
        }
    }

    /// Set-up work `repro` does before computing: spec admission against
    /// the shared registry and, for machine jobs, machine resolution.
    /// Returns the admitted spec.
    pub fn admit(&self) -> Result<KernelSpec<'static>, String> {
        let spec = admit_spec(self.spec())?;
        if let Job::Machine { machine, .. } = self {
            dmc_bench::resolve_machines(machine)?;
        }
        Ok(spec)
    }

    /// Runs the job through the entry point `repro` dispatches to and
    /// returns its stdout.
    pub fn run(&self) -> Result<String, String> {
        match self {
            Job::Analyze { spec, hierarchical } => dmc_bench::analyze_kernel_spec_with(
                spec,
                ANALYZE_SRAM,
                THREADS,
                ReportFormat::Json,
                AnalyzeOptions {
                    hierarchical: *hierarchical,
                    ..AnalyzeOptions::default()
                },
            ),
            Job::Sweep { spec, sweep } => dmc_bench::simulate_kernel_spec(
                spec,
                Some(*sweep),
                None,
                THREADS,
                ReportFormat::Json,
            ),
            Job::Machine { machine, spec, s1 } => dmc_bench::simulate_machine(
                machine,
                Some(spec),
                *s1,
                None,
                THREADS,
                ReportFormat::Json,
            ),
        }
    }
}

/// Output checks that span passes: `hier-scale` reports must also be
/// byte-identical from pass to pass (the determinism contract), which is
/// the check left when the seed has no recorded reference.
#[derive(Default)]
pub struct Checker {
    first: Vec<Option<String>>,
}

impl Checker {
    /// Checks job `index`'s stdout against its references and invariants.
    pub fn check(&mut self, index: usize, job: &Job, seed: u64, out: &str) -> Result<(), String> {
        let doc = Json::parse(out).map_err(|e| format!("unparseable report: {e}"))?;
        match job {
            Job::Analyze {
                spec,
                hierarchical: false,
            } => {
                let r = refs::FLAT
                    .iter()
                    .find(|r| r.spec == spec)
                    .ok_or_else(|| format!("no reference for {spec}"))?;
                check_analyze(&doc, r.vertices, r.bound, r.method)
            }
            Job::Analyze {
                hierarchical: true, ..
            } => {
                check_hier(&doc)?;
                if let Some(r) = refs::HIER.iter().find(|r| r.seed == seed) {
                    check_analyze(&doc, refs::HIER_VERTICES, r.bound, r.method)?;
                    let clusters = doc.num_at(&["hierarchy", "cluster_count"])?;
                    if clusters != r.clusters {
                        return Err(format!("{clusters} clusters, recorded {}", r.clusters));
                    }
                }
                if self.first.len() <= index {
                    self.first.resize(index + 1, None);
                }
                match &self.first[index] {
                    Some(first) if first != out => {
                        Err("report bytes differ from the first pass".to_string())
                    }
                    Some(_) => Ok(()),
                    None => {
                        self.first[index] = Some(out.to_string());
                        Ok(())
                    }
                }
            }
            Job::Sweep { spec, .. } => {
                let r = refs::SWEEPS
                    .iter()
                    .find(|r| r.spec == *spec)
                    .ok_or_else(|| format!("no reference for {spec}"))?;
                check_sandwich(&doc, "points", "sram", r.points)
            }
            Job::Machine { spec, .. } => {
                let r = refs::MACHINES
                    .iter()
                    .find(|r| r.spec == *spec)
                    .ok_or_else(|| format!("no reference for {spec}"))?;
                let remote = doc.num_at(&["remote_words"])?;
                if remote != r.remote_words {
                    return Err(format!(
                        "remote_words {remote}, recorded {}",
                        r.remote_words
                    ));
                }
                check_sandwich(&doc, "levels", "effective_words", r.levels)
            }
        }
    }
}

/// Bound value, winning method and graph size against a reference.
pub fn check_analyze(doc: &Json, vertices: f64, bound: f64, method: &str) -> Result<(), String> {
    let got_v = doc.num_at(&["vertices"])?;
    let got_b = doc.num_at(&["bound", "value"])?;
    let got_m = doc.str_at(&["bound", "method"])?;
    if got_v != vertices || got_b != bound || got_m != method {
        return Err(format!(
            "got |V|={got_v} bound={got_b} via {got_m:?}, recorded |V|={vertices} bound={bound} via {method:?}"
        ));
    }
    Ok(())
}

/// Invariants of any hierarchical report, recomputed here: the composed
/// bound is the Theorem-2 sum of the cluster winners, and the final bound
/// is the larger of it and the whole-graph wavefront pass.
fn check_hier(doc: &Json) -> Result<(), String> {
    let h = doc.get("hierarchy").ok_or("no hierarchy section")?;
    let clusters = h.get("clusters").map(Json::arr).unwrap_or_default();
    if clusters.len() as f64 != h.num_at(&["cluster_count"])? || clusters.is_empty() {
        return Err("cluster list does not match cluster_count".to_string());
    }
    let sum: f64 = clusters
        .iter()
        .map(|c| c.num_at(&["best", "value"]))
        .sum::<Result<f64, String>>()?;
    let composed = h.num_at(&["composed", "value"])?;
    if sum != composed {
        return Err(format!(
            "cluster bounds sum to {sum}, composed reads {composed}"
        ));
    }
    let whole = h.at(&["whole_wavefront", "value"]).and_then(Json::num);
    let expect = whole.map_or(composed, |w| w.max(composed));
    let bound = doc.num_at(&["bound", "value"])?;
    if bound != expect {
        return Err(format!(
            "bound {bound}, but max(composed, whole wavefront) = {expect}"
        ));
    }
    Ok(())
}

/// The sandwich `LB ≤ OPT ≤ LRU ≤ UB` at every measured row, recomputed
/// by this code rather than read from the report, plus the report's own
/// verdict and the recorded numbers (`digest`, see [`sandwich_digest`]).
pub fn check_sandwich(doc: &Json, rows: &str, capacity: &str, digest: &str) -> Result<(), String> {
    if doc.get("sandwich_holds").and_then(Json::bool) != Some(true) {
        return Err("report says the sandwich does not hold".to_string());
    }
    for row in doc.get(rows).map(Json::arr).unwrap_or_default() {
        let lb = row.num_at(&["certified_lower"])?;
        let opt = row.at(&["measured_opt", "io"]).and_then(Json::num);
        let lru = row.at(&["measured_lru", "io"]).and_then(Json::num);
        let ub = row.get("certified_upper").and_then(Json::num);
        if let (Some(opt), Some(lru), Some(ub)) = (opt, lru, ub) {
            if !(lb <= opt && opt <= lru && lru <= ub) {
                return Err(format!(
                    "sandwich broken at {capacity}={}: {lb} <= {opt} <= {lru} <= {ub}",
                    row.num_at(&[capacity])?
                ));
            }
        }
    }
    let got = sandwich_digest(doc, rows, capacity)?;
    if got != digest {
        return Err(format!("numbers {got:?}, recorded {digest:?}"));
    }
    Ok(())
}

/// `capacity:LB:OPT:LRU:UB` per row, `;`-joined (`-` where a row has no
/// measurement): the recorded form of a validation report's numbers.
pub fn sandwich_digest(doc: &Json, rows: &str, capacity: &str) -> Result<String, String> {
    let fmt = |v: Option<f64>| v.map_or("-".to_string(), |v| v.to_string());
    doc.get(rows)
        .map(Json::arr)
        .unwrap_or_default()
        .iter()
        .map(|row| {
            Ok(format!(
                "{}:{}:{}:{}:{}",
                row.num_at(&[capacity])?,
                row.num_at(&["certified_lower"])?,
                fmt(row.at(&["measured_opt", "io"]).and_then(Json::num)),
                fmt(row.at(&["measured_lru", "io"]).and_then(Json::num)),
                fmt(row.get("certified_upper").and_then(Json::num)),
            ))
        })
        .collect::<Result<Vec<_>, String>>()
        .map(|v| v.join(";"))
}

fn admit_spec(spec: &str) -> Result<KernelSpec<'static>, String> {
    Registry::shared()
        .parse_within(spec, DEFAULT_MAX_BUILD_VERTICES)
        .map_err(|e| format!("{spec}: {e}"))
}

fn render(tr: &mut Tracer, report: &impl serde::Serialize) -> String {
    let mut json = tr.leaf("core.serialize", || serde::json::to_string(report));
    json.push('\n');
    tr.count("core.serialize.bytes", json.len() as f64);
    json
}

/// Is `b` the wavefront member of the portfolio (directly, or through
/// the Theorem-3 untagging transfer that wraps it on tagged graphs)?
fn is_wavefront(b: &IoBound) -> bool {
    matches!(b.method, Method::Wavefront | Method::Tagging)
}

fn count_wavefront(tr: &mut Tracer, report: &AnalysisReport) {
    let lists = std::iter::once((&report.whole_graph, report.best_whole_graph.as_ref())).chain(
        report
            .components
            .iter()
            .map(|c| (&c.candidates, Some(&c.best))),
    );
    for (candidates, best) in lists {
        let runs = candidates.iter().filter(|b| is_wavefront(b)).count();
        tr.count("core.wavefront.runs", runs as f64);
        if runs > 0 && best.is_some_and(is_wavefront) {
            tr.count("core.wavefront.wins", 1.0);
        }
    }
}

/// Replays one job with spans: first the entry point's own call
/// sequence (under a `repro.*` span, whose duration is the traced job
/// time), then the layer probes. Returns the replayed stdout and the
/// job's details.
pub fn traced(job: &Job, tr: &mut Tracer) -> Result<(String, Value), String> {
    match job {
        Job::Analyze {
            spec,
            hierarchical: false,
        } => traced_flat(spec, tr),
        Job::Analyze {
            spec,
            hierarchical: true,
        } => traced_hier(spec, tr),
        Job::Sweep { spec, sweep } => traced_sweep(spec, *sweep, tr),
        Job::Machine { machine, spec, s1 } => traced_machine(machine, spec, *s1, tr),
    }
}

fn analyze_config() -> AnalyzerConfig {
    AnalyzerConfig {
        sram: ANALYZE_SRAM,
        threads: THREADS,
        verdicts: true,
        ..AnalyzerConfig::default()
    }
}

fn traced_flat(spec: &str, tr: &mut Tracer) -> Result<(String, Value), String> {
    use dmc_cdag::engine::WavefrontEngine;
    // The body of `dmc_bench::analyze_kernel_spec_with` (JSON format).
    let entry = tr.enter("repro.analyze");
    let parsed = tr.leaf("kernels.admit", || admit_spec(spec))?;
    let analyzer = Analyzer::new(analyze_config());
    let report = tr.leaf("core.analyze", || analyzer.analyze_kernel(&parsed));
    let out = render(tr, &report);
    tr.exit(entry);
    count_wavefront(tr, &report);

    let probes = tr.enter("perfbench.probes");
    let g = tr.leaf("kernels.build", || parsed.build());
    tr.count("kernels.vertices", g.num_vertices() as f64);
    tr.count("kernels.edges", g.num_edges() as f64);
    tr.leaf("cdag.components", || {
        dmc_cdag::components::weakly_connected_components(&g)
    });
    let untagged = tr.leaf("core.untag", || {
        dmc_core::bounds::decompose::untag_inputs(&g)
    });
    let two = tr.leaf("cdag.engine", || {
        WavefrontEngine::new(&untagged)
            .with_threads(PROBE_THREADS)
            .run_adaptive()
    });
    // The 1-thread run is the single-thread baseline and the only run
    // whose evaluated-anchor count is deterministic.
    let one = tr.leaf("cdag.engine_t1", || {
        WavefrontEngine::new(&untagged)
            .with_threads(1)
            .run_adaptive()
    });
    tr.count(
        "cdag.engine.anchors_considered",
        one.anchors_considered as f64,
    );
    tr.count(
        "cdag.engine.anchors_evaluated",
        one.anchors_evaluated as f64,
    );
    let _ = tr.leaf("core.partition2s", || partition2s_bound(&g, ANALYZE_SRAM));
    tr.exit(probes);

    let w_max = one.best.as_ref().map_or(0, |w| w.size);
    let details = Value::object([
        ("spec", spec.to_json()),
        ("vertices", g.num_vertices().to_json()),
        ("w_max", w_max.to_json()),
        ("anchors_considered", one.anchors_considered.to_json()),
        ("anchors_evaluated_t1", one.anchors_evaluated.to_json()),
        ("anchors_evaluated_t2", two.anchors_evaluated.to_json()),
        (
            "lemma2_value",
            dmc_core::bounds::mincut::lemma2_bound(w_max, ANALYZE_SRAM).to_json(),
        ),
        ("trivial_value", IoBound::trivial(&g).value.to_json()),
        ("bound", report.bound.value.to_json()),
        ("winner", report.bound.method.to_string().to_json()),
    ]);
    Ok((out, details))
}

fn traced_hier(spec: &str, tr: &mut Tracer) -> Result<(String, Value), String> {
    use dmc_cdag::{coarsen, subgraph, topo};
    use dmc_core::pipeline::HierarchicalOptions;
    // The body of `dmc_bench::analyze_kernel_spec_with` with
    // `--hierarchical` (JSON format).
    let entry = tr.enter("repro.analyze");
    let parsed = tr.leaf("kernels.admit", || admit_spec(spec))?;
    let analyzer = Analyzer::new(analyze_config());
    let report = tr.leaf("core.hier", || {
        analyzer.analyze_kernel_hierarchical(&parsed, &HierarchicalOptions::default())
    });
    let out = render(tr, &report);
    tr.exit(entry);
    let clusters = report.hierarchy.as_ref().map_or(0, |h| h.cluster_count);
    tr.count("core.hier.clusters", clusters as f64);
    let details = Value::object([
        ("spec", spec.to_json()),
        ("vertices", report.vertices.to_json()),
        ("edges", report.edges.to_json()),
        ("clusters", clusters.to_json()),
        ("bound", report.bound.value.to_json()),
        ("winner", report.bound.method.to_string().to_json()),
    ]);
    drop(report);

    // The hierarchical pipeline's graph stages, on an interval clustering
    // of the Kahn order with the report's cluster count.
    let probes = tr.enter("perfbench.probes");
    let g = tr.leaf("kernels.build", || parsed.build());
    tr.count("kernels.vertices", g.num_vertices() as f64);
    tr.count("kernels.edges", g.num_edges() as f64);
    tr.leaf("cdag.components", || {
        dmc_cdag::components::weakly_connected_components(&g)
    });
    let order = tr.leaf("cdag.topo", || topo::topological_order(&g));
    let assignment = tr.leaf("core.cluster", || {
        dmc_core::partition::construct::topological_clusters(&g, &order, clusters.max(1))
    });
    drop(order);
    let k = assignment.iter().max().map_or(0, |&m| m + 1);
    tr.leaf("cdag.coarsen", || {
        coarsen(&g, &assignment, k).map(|c| c.cut_edges)
    })
    .map_err(|e| format!("coarsen failed: {e:?}"))?;
    tr.leaf("cdag.decompose", || {
        subgraph::decompose(&g, &assignment, k).len()
    });
    tr.exit(probes);
    Ok((out, details))
}

/// The per-capacity layer probes shared by sweep points and machine
/// levels: the pipeline's lower bound at `s` (1 thread, as the validator
/// runs it), both simulator policies, and the RBW executor plus its
/// independent validator.
fn probe_capacity(
    g: &dmc_cdag::Cdag,
    order: &[dmc_cdag::VertexId],
    s: u64,
    sim: &mut dmc_sim::Simulation,
    tr: &mut Tracer,
) -> Result<Value, String> {
    use dmc_core::games::executor::{execute_rbw, EvictionPolicy};
    use dmc_sim::CachePolicy;
    let t = tr.spans().len();
    let _ = tr.leaf("core.lower", || {
        Analyzer::new(AnalyzerConfig {
            sram: s,
            threads: 1,
            ..AnalyzerConfig::default()
        })
        .analyze(g)
    });
    tr.count("core.lower.calls", 1.0);
    if dmc_sim::simulation::min_feasible_capacity(g) as u64 <= s {
        for (name, policy) in [("sim.opt", CachePolicy::Opt), ("sim.lru", CachePolicy::Lru)] {
            let trace = tr
                .leaf(name, || sim.run(g, order, policy, s))
                .map_err(|e| format!("{name} at S={s}: {e:?}"))?;
            tr.count("sim.loads", trace.loads as f64);
            tr.count("sim.stores", trace.stores as f64);
            tr.count("sim.hits", trace.hits as f64);
            tr.count("sim.evictions", trace.evictions as f64);
        }
        let words = usize::try_from(s).unwrap_or(usize::MAX);
        let game = tr
            .leaf("core.games.execute", || {
                execute_rbw(g, words, order, EvictionPolicy::Lru)
            })
            .map_err(|e| format!("executor at S={s}: {e}"))?;
        tr.count("core.games.moves", game.trace.moves.len() as f64);
        tr.leaf("core.games.validate", || {
            dmc_core::games::rbw::validate(g, words, &game.trace)
        })
        .map_err(|e| format!("validator at S={s}: {e}"))?;
    }
    let secs = |name: &str| -> f64 {
        tr.spans()[t..]
            .iter()
            .filter(|sp| sp.name == name)
            .map(|sp| sp.secs())
            .sum()
    };
    Ok(Value::object([
        ("capacity", s.to_json()),
        ("core.lower_s", secs("core.lower").to_json()),
        ("sim.opt_s", secs("sim.opt").to_json()),
        ("sim.lru_s", secs("sim.lru").to_json()),
        ("core.games.execute_s", secs("core.games.execute").to_json()),
    ]))
}

fn traced_sweep(
    spec: &str,
    (lo, hi, step): (u64, u64, u64),
    tr: &mut Tracer,
) -> Result<(String, Value), String> {
    // The body of `dmc_bench::simulate_kernel_spec` (JSON format).
    let entry = tr.enter("repro.simulate");
    let parsed = tr.leaf("kernels.admit", || admit_spec(spec))?;
    let g = tr.leaf("kernels.build", || parsed.build());
    let srams: Vec<u64> = (lo..=hi).step_by(step as usize).collect();
    let analyzer = Analyzer::new(AnalyzerConfig {
        threads: THREADS,
        ..AnalyzerConfig::default()
    });
    let report = tr.leaf("core.validate", || {
        analyzer.validate_built(&parsed, &g, &srams, None)
    });
    let out = render(tr, &report);
    tr.exit(entry);
    tr.count("kernels.vertices", g.num_vertices() as f64);
    tr.count("kernels.edges", g.num_edges() as f64);

    let probes = tr.enter("perfbench.probes");
    let mut sim = dmc_sim::Simulation::new();
    let mut points = Vec::new();
    for &s in &srams {
        let sched = tr.leaf("kernels.schedule", || parsed.schedule_source(&g, s));
        points.push(probe_capacity(&g, &sched.order, s, &mut sim, tr)?);
    }
    tr.exit(probes);
    let details = Value::object([
        ("spec", spec.to_json()),
        ("vertices", g.num_vertices().to_json()),
        ("points", Value::Array(points)),
    ]);
    Ok((out, details))
}

/// The simulator-cost reading of `validate-sweep`'s traced run, outside
/// every span: seconds of one OPT simulation of [`refs::READING_SPEC`]'s
/// schedule at each of [`refs::READING_CAPACITIES`].
pub fn opt_cost_reading() -> Result<Value, String> {
    let parsed = admit_spec(refs::READING_SPEC)?;
    let g = parsed.build();
    let mut sim = dmc_sim::Simulation::new();
    let mut points = Vec::new();
    for s in refs::READING_CAPACITIES {
        let sched = parsed.schedule_source(&g, s);
        let t = std::time::Instant::now();
        let _ = sim
            .run(&g, &sched.order, dmc_sim::CachePolicy::Opt, s)
            .map_err(|e| format!("OPT at S={s}: {e:?}"))?;
        points.push(Value::object([
            ("capacity", s.to_json()),
            ("seconds", t.elapsed().as_secs_f64().to_json()),
        ]));
    }
    Ok(Value::object([
        ("spec", refs::READING_SPEC.to_json()),
        ("sim.opt_s", Value::Array(points)),
    ]))
}

fn traced_machine(
    machine: &str,
    spec: &str,
    s1: u64,
    tr: &mut Tracer,
) -> Result<(String, Value), String> {
    use dmc_sim::hierarchy_sim::{effective_capacities, split_round_robin, Inclusion};
    // The body of `dmc_bench::simulate_machine` for one kernel on one
    // machine (JSON format).
    let entry = tr.enter("repro.simulate");
    let machines = dmc_bench::resolve_machines(machine)?;
    let m = machines.first().ok_or("no machine resolved")?;
    let parsed = tr.leaf("kernels.admit", || admit_spec(spec))?;
    let g = tr.leaf("kernels.build", || parsed.build());
    let analyzer = Analyzer::new(AnalyzerConfig {
        threads: THREADS,
        ..AnalyzerConfig::default()
    });
    let report = tr.leaf("core.validate_machine", || {
        analyzer.validate_machine_built(&parsed, &g, m, s1, None)
    });
    let out = render(tr, &report);
    tr.exit(entry);
    tr.count("kernels.vertices", g.num_vertices() as f64);
    tr.count("kernels.edges", g.num_edges() as f64);

    let probes = tr.enter("perfbench.probes");
    let split = tr.leaf("sim.split", || {
        split_round_robin(&g, m.cores_per_node.max(1))
    });
    tr.count("sim.remote_words", split.remote_reads as f64);
    let caps = effective_capacities(&m.node_hierarchy(s1), Inclusion::Inclusive);
    let mut sim = dmc_sim::Simulation::new();
    let mut levels = Vec::new();
    for (_, words) in &caps {
        levels.push(probe_capacity(&g, &split.order, *words, &mut sim, tr)?);
    }
    tr.exit(probes);
    let details = Value::object([
        ("spec", spec.to_json()),
        ("machine", machine.to_json()),
        ("vertices", g.num_vertices().to_json()),
        ("remote_words", split.remote_reads.to_json()),
        ("levels", Value::Array(levels)),
    ]);
    Ok((out, details))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_reference_is_reported() {
        let job = Job::Analyze {
            spec: "matmul(n=4)".to_string(),
            hierarchical: false,
        };
        let out = job.run().expect("valid spec");
        let doc = Json::parse(&out).expect("JSON report");
        let (v, b) = (
            doc.num_at(&["vertices"]).unwrap(),
            doc.num_at(&["bound", "value"]).unwrap(),
        );
        let m = doc.str_at(&["bound", "method"]).unwrap().to_string();
        assert!(check_analyze(&doc, v, b, &m).is_ok());
        assert!(check_analyze(&doc, v, b + 1.0, &m).is_err());
        assert!(check_analyze(&doc, v, b, "wavefront (Lemma 2)").is_err());
    }

    #[test]
    fn a_wrong_sandwich_record_is_reported() {
        let job = Job::Sweep {
            spec: "fft(n=8)",
            sweep: (4, 8, 4),
        };
        let out = job.run().expect("valid spec");
        let doc = Json::parse(&out).expect("JSON report");
        let digest = sandwich_digest(&doc, "points", "sram").unwrap();
        assert!(check_sandwich(&doc, "points", "sram", &digest).is_ok());
        let wrong = digest.replacen(':', ":1", 1);
        assert!(check_sandwich(&doc, "points", "sram", &wrong).is_err());
    }

    #[test]
    fn the_traced_replay_reproduces_the_entry_point_bytes() {
        let mut tr = Tracer::default();
        for job in [
            Job::Analyze {
                spec: "ladder(w=6,h=6)".to_string(),
                hierarchical: false,
            },
            Job::Analyze {
                spec: "random(layers=4,width=64,deg=3,seed=5)".to_string(),
                hierarchical: true,
            },
            Job::Sweep {
                spec: "fft(n=8)",
                sweep: (4, 8, 4),
            },
            Job::Machine {
                machine: refs::MACHINE,
                spec: "fft(n=8)",
                s1: 8,
            },
        ] {
            let (replayed, _) = traced(&job, &mut tr).expect("traced replay");
            assert_eq!(replayed, job.run().expect("entry point"), "{job:?}");
        }
        // Nothing here turns on the `BENCH_*.json` snapshot writer.
        assert!(dmc_bench::snapshot::enabled_dir().is_none());
    }
}
