//! Experiment implementations (E1–E15 of DESIGN.md).

use dmc_cdag::cut::min_wavefront;
use dmc_cdag::topo::topological_order;
use dmc_core::analysis::analyze;
use dmc_core::bounds::decompose::untag_inputs;
use dmc_core::bounds::mincut::{auto_wavefront_bound, AnchorStrategy};
use dmc_core::bounds::IoBound;
use dmc_core::games::executor::{certified_upper_bound, execute_rbw};
use dmc_core::games::optimal::{optimal_io, GameKind};
use dmc_core::job::{catalog_machines, Input, Job, JobReport};
use dmc_core::parallel::horizontal::ghost_cell_upper_bound;
use dmc_core::partition::construct::{from_trace, greedy_partition};
use dmc_core::partition::validate_rbw;
use dmc_kernels::catalog::{KernelSpec, Registry};
use dmc_kernels::grid::Stencil;
use dmc_kernels::profile::{cg_profile, gmres_profile, jacobi_profile};
use dmc_kernels::{cg, chains, composite, fft, gmres, jacobi, matmul, outer};
use dmc_machine::specs;
use dmc_machine::MemoryHierarchy;
use dmc_sim::hierarchy_sim::remote_reads;
use dmc_sim::schedule;
use dmc_sim::simulation::{CachePolicy, Simulation};
use std::fmt::Write as _;

/// E1 — Table 1: machine specs and balance parameters.
pub fn table1() -> String {
    let mut out = String::from("== E1 / Table 1: machine balance parameters ==\n");
    out.push_str(&specs::format_table1());
    out.push_str("(paper: BG/Q 0.052 / 0.049; XT5 0.0256 / 0.058)\n");
    out
}

/// E2 — Section 3 composite example: composite I/O vs per-stage sums.
pub fn sec3_composite(ns: &[usize]) -> String {
    let mut out = String::from(
        "== E2 / Section 3: composite (p·qᵀ, r·sᵀ, AB, ΣΣC) ==\n\
         the per-stage accounting explodes while 4N+1 stays linear:\n\
         n     HK-achiev(4N+1)  matmul-stage-LB  per-stage-sum   sum/achievable\n",
    );
    for &n in [8usize, 16, 64, 256, 1024].iter() {
        let s = (4 * n + 4) as u64;
        let achievable = composite::composite_hong_kung_achievable_io(n) as f64;
        let mm = dmc_kernels::matmul::matmul_io_lower_bound(n, s);
        let per_stage = composite::composite_per_stage_io(n, s);
        let _ = writeln!(
            out,
            "{n:<5} {achievable:<16.0} {mm:<16.0} {per_stage:<15.0} {:.1}x",
            per_stage / achievable
        );
    }
    out.push_str(
        "\nexecuted RBW games on the full composite CDAG (S = 4N+4):\n\
         n    RBW-exec   4N+1 (HK, with recomputation)\n",
    );
    for &n in ns {
        let s = 4 * n + 4;
        let g = composite::composite(n);
        let order = topological_order(&g);
        let exec = certified_upper_bound(&g, s, &order, CachePolicy::Opt)
            .map(|v| v.to_string())
            .unwrap_or_else(|_| "-".into());
        let _ = writeln!(
            out,
            "{n:<4} {exec:<10} {}",
            composite::composite_hong_kung_achievable_io(n)
        );
    }
    out.push_str(
        "(4N+1 relies on recomputing A/B elements, which the RBW game forbids —\n\
         the gap between the two columns is the price of no-recomputation;\n\
         the composite point stands: per-stage sums vastly over-estimate)\n",
    );
    out
}

/// E3 — Theorem 8: CG vertical bound, automated wavefronts, verdicts.
pub fn cg_experiment() -> String {
    let mut out = String::from("== E3 / Theorem 8 + §5.2.3: Conjugate Gradient ==\n");
    // Automated min-cut wavefronts vs the paper's analytic 2n^d / n^d.
    out.push_str("automated wavefronts (1 iteration):\n");
    out.push_str("n    d   |W(υx)| auto   paper 2n^d   |W(υy)| auto   paper n^d\n");
    for (n, d) in [(4usize, 1usize), (6, 1), (3, 2)] {
        let cgc = cg::cg_cdag(n, d, 1, Stencil::VonNeumann);
        let nd = n.pow(d as u32);
        let wx = min_wavefront(&cgc.cdag, cgc.marks[0].upsilon_x).size;
        let wy = min_wavefront(&cgc.cdag, cgc.marks[0].upsilon_y).size;
        let _ = writeln!(out, "{n:<4} {d:<3} {wx:<14} {:<12} {wy:<14} {}", 2 * nd, nd);
    }
    // The headline ratio and the balance verdicts.
    let _ = writeln!(
        out,
        "\nvertical ratio LB·N/|V| = 6/20 = {:.2} words/FLOP (paper: 0.3)",
        6.0 / 20.0
    );
    out.push_str("verdicts (n = 1000, 3-D, per machine):\n");
    let p = cg_profile(1000, 2048);
    for m in specs::table1_machines() {
        let _ = writeln!(out, "  {}", analyze(&p, &m).row());
    }
    // Horizontal upper bound series (E4).
    out.push_str("\nE4 horizontal UB ratio 6·N^(1/3)/(20n):\n  nodes  ratio\n");
    for nodes in [64usize, 512, 2048, 9408] {
        let ratio = 6.0 * (nodes as f64).powf(1.0 / 3.0) / (20.0 * 1000.0);
        let _ = writeln!(out, "  {nodes:<6} {ratio:.6}");
    }
    // Ghost-cell words of a block-partitioned run vs the formula.
    let t = 2;
    let j = jacobi::jacobi_cdag(16, 1, t, Stencil::VonNeumann);
    let procs = 4;
    let halo = remote_reads(&j.cdag, &schedule::jacobi_block_owner(&j, procs));
    let formula = ghost_cell_upper_bound(16, 1, procs, t) * procs as f64;
    let _ = writeln!(
        out,
        "\nsimulated halo words (1-D proxy, n=16, T={t}, {procs} nodes): {halo} (formula total {formula:.0})",
    );
    out
}

/// E5 — Theorem 9: GMRES vertical ratio sweep and verdicts.
pub fn gmres_experiment() -> String {
    let mut out = String::from("== E5 / Theorem 9 + §5.3.3: GMRES ==\n");
    out.push_str("m      6/(m+20)   BG/Q verdict              XT5 verdict\n");
    let machines = specs::table1_machines();
    for m in [1usize, 5, 10, 20, 50, 95, 100, 200] {
        let ratio = gmres::gmres_vertical_ratio(m);
        let p = gmres_profile(1000, m, 2048);
        let v0 = analyze(&p, &machines[0]).vertical.to_string();
        let v1 = analyze(&p, &machines[1]).vertical.to_string();
        let _ = writeln!(out, "{m:<6} {ratio:<10.4} {v0:<25} {v1}");
    }
    // Wavefront soundness on a small instance.
    let g = gmres::gmres_cdag(5, 1, 2, Stencil::VonNeumann);
    let wx = min_wavefront(&g.cdag, g.marks[1].upsilon_x).size;
    let wy = min_wavefront(&g.cdag, g.marks[1].upsilon_y).size;
    let _ = writeln!(
        out,
        "\nwavefronts (n=5, d=1, iter 2): |W(υx)| = {wx} (paper ≥ {}), |W(υy)| = {wy} (paper ≥ {})",
        2 * 5,
        5
    );
    let _ = writeln!(
        out,
        "horizontal UB ratio 6·N^(1/3)/(n·m), n=1000, m=30, N=2048: {:.2e}",
        6.0 * 2048f64.powf(1.0 / 3.0) / (1000.0 * 30.0)
    );
    out
}

/// E6 — Theorem 10: Jacobi bounds, tiling ablation, critical dimensions.
pub fn jacobi_experiment() -> String {
    let mut out = String::from("== E6 / Theorem 10 + §5.4: Jacobi stencils ==\n");
    // Tiling ablation: each schedule's RBW I/O (loads + stores; dead
    // values leave for free by rule R4) in one LRU cache of S1 words —
    // the quantity Theorem 10 bounds.
    let (n, t, s1) = (512usize, 64usize, 48u64);
    let j = jacobi::jacobi_cdag(n, 1, t, Stencil::VonNeumann);
    let mut schedules = vec![(
        "by-level (untiled)".to_string(),
        schedule::by_level(&j.cdag),
    )];
    for w in [8usize, 16, 32] {
        schedules.push((format!("tiled w={w}"), schedule::tiled_jacobi_1d(&j, w)));
    }
    tiling_ablation(
        &mut out,
        &format!("1-D tiling ablation (n={n}, T={t}, S1={s1} words, LRU):"),
        &j.cdag,
        &schedules,
        s1,
        jacobi::jacobi_io_lower_bound(n, 1, t, 1, s1),
    );
    // 2-D ablation: the (2S)^{1/2} reuse regime.
    let (n2, t2, s2) = (48usize, 12usize, 96u64);
    let j2 = jacobi::jacobi_cdag(n2, 2, t2, Stencil::Moore);
    let mut schedules = vec![(
        "by-level (untiled)".to_string(),
        schedule::by_level(&j2.cdag),
    )];
    for w in [4usize, 6, 8] {
        schedules.push((format!("tiled w={w}"), schedule::tiled_jacobi_2d(&j2, w)));
    }
    out.push('\n');
    tiling_ablation(
        &mut out,
        &format!("2-D tiling ablation (n={n2}, T={t2}, Moore stencil, S1={s2} words, LRU):"),
        &j2.cdag,
        &schedules,
        s2,
        jacobi::jacobi_io_lower_bound(n2, 2, t2, 1, s2),
    );
    // Critical dimensions.
    out.push_str("\ncritical dimension (not bandwidth-bound iff d ≤ d*):\n");
    out.push_str("machine/level             beta     S(words)   d* (ours)  d* (paper rule)\n");
    let bgq = specs::ibm_bgq();
    let rows = [
        ("BG/Q DRAM→L2", bgq.vertical_balance(), bgq.llc_words()),
        ("BG/Q L2→L1 (est.)", 0.23, 16_384),
        (
            "XT5 DRAM→LLC",
            specs::cray_xt5().vertical_balance(),
            specs::cray_xt5().llc_words(),
        ),
    ];
    for (name, beta, s) in rows {
        let ours = jacobi::jacobi_max_unbound_dimension(beta, s);
        let paper = jacobi::jacobi_paper_printed_dimension(s);
        let _ = writeln!(
            out,
            "{name:<25} {beta:<8.4} {s:<10} {ours:<10.2} {paper:.2}"
        );
    }
    out.push_str(
        "(paper prints d ≤ 4.83 for BG/Q DRAM→L2 and d ≤ 96 for L2→L1;\n\
                  see dmc_kernels::jacobi::jacobi_max_unbound_dimension on the constant discrepancy — conclusions agree)\n",
    );
    // Verdicts per dimension.
    out.push_str("\nverdicts on BG/Q by dimension (n=1000):\n");
    for d in 1..=6usize {
        let p = jacobi_profile(1000, d, 2048, bgq.llc_words());
        let r = analyze(&p, &bgq);
        let _ = writeln!(
            out,
            "  d={d}: LB/flop {:.5}  UB/flop {:.5}  -> {}",
            // dmc-lint: allow(s1) -- jacobi_profile always sets both per-flop bounds; a None is a broken profile generator, caught by the tier-1 repro tests
            p.vertical_lb_per_flop.expect("set"),
            // dmc-lint: allow(s1) -- jacobi_profile always sets both per-flop bounds; a None is a broken profile generator, caught by the tier-1 repro tests
            p.vertical_ub_per_flop.expect("set"),
            r.vertical
        );
    }
    out
}

/// One E6 ablation table: loads, RBW I/O and I/O over the Theorem-10
/// lower bound `lb` of each named schedule, simulated under LRU at `s`.
fn tiling_ablation(
    out: &mut String,
    title: &str,
    g: &dmc_cdag::Cdag,
    schedules: &[(String, Vec<dmc_cdag::VertexId>)],
    s: u64,
    lb: f64,
) {
    let _ = writeln!(out, "{title}");
    out.push_str("schedule           loads        io           io vs LB\n");
    let mut sim = Simulation::new();
    for (name, order) in schedules {
        let tr = sim
            .run(g, order, CachePolicy::Lru, s)
            // dmc-lint: allow(s1) -- hardcoded E6 tilings are topological orders and S1 exceeds the stencil footprint; exercised every repro run
            .expect("E6 schedules are feasible");
        let _ = writeln!(
            out,
            "{name:<18} {:<12} {:<12} {:.1}x",
            tr.loads,
            tr.io(),
            tr.io() as f64 / lb
        );
    }
    let _ = writeln!(out, "Theorem-10 LB      {lb:.0}");
}

/// E10 — Validation sandwich: LB ≤ optimal ≤ heuristic on small CDAGs,
/// every graph built from a catalog spec string via the [`Registry`].
pub fn pebbling_experiment() -> String {
    let mut out = String::from("== E10: validation sandwich on small CDAGs (spec-built) ==\n");
    out.push_str("spec                     S   LB(wavefront)  optimal(RBW)  LRU   Belady\n");
    let registry = Registry::shared();
    let cases: Vec<(&str, dmc_cdag::Cdag, usize)> = [
        ("chain(k=8)", 2),
        ("diamond", 3),
        ("reduction(leaves=8)", 3),
        ("ladder(w=3,h=3)", 4),
        ("two_stage(m=5)", 7),
        ("fft(n=4)", 4),
        ("scan(n=6,kind=seq)", 3),
        ("scan(n=4,kind=sklansky)", 4),
    ]
    .into_iter()
    .map(|(spec, s)| {
        // dmc-lint: allow(s1) -- hardcoded E10 spec strings; parse failure is a broken fixture, caught by the repro_cli tier-1 test
        let parsed = registry.parse(spec).expect("E10 specs are valid");
        (spec, parsed.build(), s)
    })
    .collect();
    for (name, g, s) in cases {
        // Best of the Lemma-2 wavefront bound (on the untagged CDAG, per
        // Theorem 3) and the trivial |I| + |O| bound.
        let wavefront = auto_wavefront_bound(&untag_inputs(&g), s as u64, AnchorStrategy::All);
        let lb = wavefront.value.max(IoBound::trivial(&g).value);
        let opt = optimal_io(&g, s, GameKind::Rbw);
        let order = topological_order(&g);
        let lru = certified_upper_bound(&g, s, &order, CachePolicy::Lru).ok();
        let bel = certified_upper_bound(&g, s, &order, CachePolicy::Opt).ok();
        let _ = writeln!(
            out,
            "{name:<24} {s:<3} {lb:<14.0} {:<13} {:<5} {}",
            opt.map_or("-".into(), |v: u64| v.to_string()),
            lru.map_or("-".into(), |v| v.to_string()),
            bel.map_or("-".into(), |v| v.to_string()),
        );
        if let Some(o) = opt {
            assert!(lb <= o as f64, "{name}: LB {lb} > optimal {o}");
            if let Some(b) = bel {
                assert!(o <= b, "{name}: optimal {o} > Belady {b}");
            }
        }
    }
    // Matmul analytic bound vs heuristic on a larger instance.
    let g = matmul::matmul(6);
    let order = topological_order(&g);
    for s in [16usize, 32, 64] {
        let analytic = matmul::matmul_io_lower_bound(6, s as u64);
        // dmc-lint: allow(s1) -- S=16 exceeds matmul(6) minimum feasible cache; Belady execution always fits, exercised every repro run
        let ub = certified_upper_bound(&g, s, &order, CachePolicy::Opt).expect("fits");
        let _ = writeln!(
            out,
            "matmul(6) S={s:<3}: analytic LB {analytic:.0} <= Belady UB {ub}"
        );
        assert!(analytic <= ub as f64);
    }
    // Outer product exact I/O.
    let n = 6;
    let g = outer::outer_product(n);
    let order = topological_order(&g);
    // dmc-lint: allow(s1) -- S=2n+2 is exactly the outer-product feasibility bound proven in dmc_kernels::outer; exercised every repro run
    let io = certified_upper_bound(&g, 2 * n + 2, &order, CachePolicy::Opt).expect("fits");
    let _ = writeln!(
        out,
        "outer({n}) S=2n+2: exec {io} == 2n+n^2 = {}",
        outer::outer_product_exact_io(n)
    );
    out
}

/// E11 — automated min-cut wavefronts vs analytic CG wavefronts, with
/// automatic engine thread count.
pub fn mincut_experiment() -> String {
    mincut_experiment_with(0)
}

/// [`mincut_experiment`] with an explicit wavefront-engine worker count
/// (`0` = `std::thread::available_parallelism`), as set by the `repro`
/// binary's `--threads` flag.
pub fn mincut_experiment_with(threads: usize) -> String {
    use dmc_cdag::engine::WavefrontEngine;
    use dmc_core::bounds::mincut::auto_wavefront_bound_with;
    let mut out = String::from("== E11 / §3.3: automated min-cut wavefronts ==\n");
    out.push_str("CG υx anchors: auto cut vs paper's 2n^d (ours counts r, rr, υx too):\n");
    out.push_str("n    d   auto   paper-2n^d   3n^d+2(exact for our CDAG)\n");
    for (n, d) in [(3usize, 1usize), (5, 1), (8, 1), (3, 2)] {
        let cgc = cg::cg_cdag(n, d, 1, Stencil::VonNeumann);
        let nd = n.pow(d as u32);
        let w = min_wavefront(&cgc.cdag, cgc.marks[0].upsilon_x).size;
        let _ = writeln!(out, "{n:<4} {d:<3} {w:<6} {:<12} {}", 2 * nd, 3 * nd + 2);
    }
    // Anchor-strategy ablation on a ladder.
    out.push_str("\nanchor-strategy ablation, ladder(8,8), S=4 (bound / anchors):\n");
    let g = untag_inputs(&chains::ladder(8, 8));
    for (name, strat) in [
        ("all", AnchorStrategy::All),
        ("adaptive", AnchorStrategy::Adaptive),
    ] {
        let b = auto_wavefront_bound_with(&g, 4, strat, threads);
        let _ = writeln!(out, "  {name:<10} {:<6.0} {}", b.value, b.provenance.note);
    }
    // Engine scaling: w^max and the anchors considered do not vary with
    // the worker count; only the wall clock does. How many anchors a run
    // evaluates before the shared best prunes the rest depends on thread
    // timing, so that count stays out of the table.
    out.push_str("\nengine scaling, ladder(10,10), All anchors (w^max invariant in threads):\n");
    out.push_str("threads  w^max  anchors  ms\n");
    let g = untag_inputs(&chains::ladder(10, 10));
    let anchors: Vec<dmc_cdag::VertexId> = g.vertices().collect();
    let mut counts = vec![1usize, 2, 4, 8];
    if threads != 0 && !counts.contains(&threads) {
        counts.push(threads);
    }
    for t in counts {
        let engine = WavefrontEngine::new(&g).with_threads(t);
        // dmc-lint: allow(d2) -- wall-clock column of the scaling table; the report explicitly documents that only this column may vary between runs
        let t0 = std::time::Instant::now();
        let run = engine.run(&anchors);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let wmax = run.best.as_ref().map_or(0, |w| w.size);
        let _ = writeln!(
            out,
            "{t:<8} {wmax:<6} {:<8} {ms:.1}",
            run.anchors_considered
        );
    }
    out
}

/// Output format of the `repro analyze|simulate` backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportFormat {
    /// Human-readable provenance-tree report.
    Text,
    /// Compact JSON (the report's `serde::Serialize` rendering).
    Json,
}

/// E13 — the unified bound-analysis pipeline on the seed kernels, with
/// automatic engine/worker thread count.
pub fn analyze_experiment() -> String {
    analyze_experiment_with(0)
}

/// [`analyze_experiment`] with an explicit thread budget (`0` = auto), as
/// set by the `repro` binary's `--threads` flag.
pub fn analyze_experiment_with(threads: usize) -> String {
    use dmc_cdag::builder::disjoint_union;
    use dmc_core::pipeline::{Analyzer, AnalyzerConfig};
    let s = 4u64;
    let mut out = String::from("== E13: unified bound-analysis pipeline (Analyzer) ==\n");
    let _ = writeln!(
        out,
        "portfolio = trivial | wavefront (Lemma 2 + Thm 3), S = {s}:"
    );
    out.push_str("graph                    |V|    comps  best-single  composed  final   via\n");
    // Spec-built rows from the registry plus one hand-built disjoint
    // union (unions of distinct families are not a single catalog entry).
    let registry = Registry::shared();
    let mut graphs: Vec<(String, dmc_cdag::Cdag)> = [
        "diamond",
        "ladder(w=6,h=6)",
        "reduction(leaves=16)",
        "two_stage(m=6)",
        "fft(n=8)",
        "chains(k=3,len=4)",
    ]
    .into_iter()
    .map(|spec| {
        // dmc-lint: allow(s1) -- hardcoded E13 spec strings; parse failure is a broken fixture, caught by the repro_cli tier-1 test
        let parsed = registry.parse(spec).expect("E13 specs are valid");
        (spec.to_string(), parsed.build())
    })
    .collect();
    graphs.push((
        "ladder(8,8)+ladder(7,7)".to_string(),
        disjoint_union(&[chains::ladder(8, 8), chains::ladder(7, 7)]),
    ));
    let analyzer = Analyzer::new(AnalyzerConfig {
        sram: s,
        threads,
        ..AnalyzerConfig::default()
    });
    for (name, g) in &graphs {
        let r = analyzer.analyze(g);
        let best_single = r
            .best_whole_graph
            .as_ref()
            // dmc-lint: allow(s1) -- AnalyzerConfig::default keeps the whole-graph baseline on, so best_whole_graph is always Some
            .expect("baseline on by default")
            .value;
        let composed = r
            .composed
            .as_ref()
            .map_or("-".to_string(), |b| format!("{}", b.value));
        if let Some(c) = &r.composed {
            assert!(
                c.value >= best_single,
                "{name}: Theorem-2 sum {} below whole-graph best {best_single}",
                c.value
            );
        }
        if name.contains('+') {
            // The wavefront-rich union: the Theorem-2 sum must *strictly*
            // beat the best single whole-graph method.
            assert!(
                r.bound.value > best_single,
                "{name}: composed {} does not strictly beat single-method {best_single}",
                r.bound.value
            );
        }
        let _ = writeln!(
            out,
            "{name:<24} {:<6} {:<6} {:<12} {composed:<9} {:<7} {}",
            r.vertices, r.component_count, best_single, r.bound.value, r.bound.method
        );
    }
    out.push_str(
        "(multi-component graphs: the Theorem-2 composition dominates every\n\
         single whole-graph method — Section 3's composite point, automated)\n",
    );
    out
}

/// Analyzes a `.cdag` text file end to end with the unified pipeline —
/// the `repro analyze <file>` backend, with the full flag set
/// ([`AnalyzeOptions`]); the admission-limit override does not apply to
/// files (nothing is built from parameters) and is ignored here.
pub fn analyze_file_with(
    path: &str,
    sram: u64,
    threads: usize,
    format: ReportFormat,
    opts: AnalyzeOptions,
) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let g = dmc_cdag::textio::from_text(&text).map_err(|e| format!("cannot parse {path}: {e}"))?;
    let job = Job::analyze(
        Input::Graph(g),
        Some(sram),
        opts.hierarchical.then_some(opts.clusters),
    )
    .map_err(|e| format!("--{e}"))?;
    let header = format!("analyze {path}{}", opts.mode());
    Ok(render(job.run(threads), format, &header))
}

/// The kernel catalog rendered for `repro list`: every registered
/// family with its spec grammar, parameter ranges, and defaults.
pub fn list_catalog() -> String {
    Registry::shared().format_catalog()
}

/// The spec strings of the E16 scale curve: sparse random layered DAGs
/// from 2^20 up past 10^7 vertices (layers × 65536-wide layers, expected
/// in-degree 3).
pub const E16_LAYERS: [usize; 4] = [16, 40, 80, 160];

/// Renders one E16 spec string for a layer count.
pub fn e16_spec(layers: usize) -> String {
    format!("random(layers={layers},width=65536,deg=3,seed=7)")
}

/// E16 — the hierarchical scale curve with automatic thread count.
pub fn scale_experiment() -> String {
    scale_experiment_with(0)
}

/// E16 — `analyze --hierarchical` over the sparse random scale curve:
/// 2^20 up to ≥10^7 vertices through build + hierarchical analysis. The
/// structural columns (|V|, |E|, clusters, bound) are deterministic;
/// only the wall-clock columns vary between runs, and those are also
/// recorded machine-readably as `BENCH_scale_points.json` when the
/// `repro` binary enabled snapshots. Not part of `repro all` — the top
/// row alone builds a 10.5M-vertex graph.
pub fn scale_experiment_with(threads: usize) -> String {
    use dmc_core::pipeline::{Analyzer, AnalyzerConfig, HierarchicalOptions};
    use serde::json::Value;
    use serde::Serialize as _;
    let mut out =
        String::from("== E16: hierarchical scale curve (sparse random layered DAGs) ==\n");
    out.push_str(
        "spec                                      |V|        |E|        K    bound      build-s  analyze-s\n",
    );
    let analyzer = Analyzer::new(AnalyzerConfig {
        sram: 4,
        threads,
        ..AnalyzerConfig::default()
    });
    let registry = Registry::shared();
    let mut rows: Vec<Value> = Vec::new();
    for layers in E16_LAYERS {
        let spec = e16_spec(layers);
        let parsed = registry
            .parse(&spec)
            // dmc-lint: allow(s1) -- hardcoded E16 spec strings, all under the default 2^24 admission limit; parse failure is a broken fixture
            .expect("E16 specs fit the default admission limit");
        // dmc-lint: allow(d2) -- wall-clock columns of the scale table; the report explicitly documents that only these columns may vary between runs
        let t0 = std::time::Instant::now();
        let g = parsed.build();
        let build_s = t0.elapsed().as_secs_f64();
        // dmc-lint: allow(d2) -- wall-clock columns of the scale table; the report explicitly documents that only these columns may vary between runs
        let t1 = std::time::Instant::now();
        let r = analyzer.analyze_hierarchical(&g, &HierarchicalOptions::default());
        let analyze_s = t1.elapsed().as_secs_f64();
        // dmc-lint: allow(s1) -- analyze_hierarchical on a non-empty graph always attaches the hierarchy level
        let h = r.hierarchy.as_ref().expect("hierarchical report");
        let _ = writeln!(
            out,
            "{spec:<41} {:<10} {:<10} {:<4} {:<10} {build_s:<8.1} {analyze_s:.1}",
            r.vertices, r.edges, h.cluster_count, r.bound.value
        );
        rows.push(Value::object([
            ("spec", spec.to_json()),
            ("vertices", r.vertices.to_json()),
            ("edges", r.edges.to_json()),
            ("clusters", h.cluster_count.to_json()),
            ("bound", r.bound.value.to_json()),
            ("build_s", build_s.to_json()),
            ("analyze_s", analyze_s.to_json()),
        ]));
    }
    crate::snapshot::write("scale_points", &rows);
    out.push_str(
        "(hierarchical mode: Theorem-2 composition over 65536-vertex interval\n\
         clusters + the whole-graph wavefront where admitted; the bound columns\n\
         are deterministic, the timing columns are wall clock)\n",
    );
    out
}

/// Mode switches for [`analyze_kernel_spec_with`] beyond the S/thread
/// knobs — the `repro analyze` flags that change *which* pipeline runs
/// or *what* the catalog admits, not how the result is printed.
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalyzeOptions {
    /// Run the hierarchical pipeline (`--hierarchical`).
    pub hierarchical: bool,
    /// Explicit cluster count for hierarchical mode (`--clusters K`;
    /// `None` = one cluster per `DEFAULT_CLUSTER_SIZE` vertices).
    pub clusters: Option<usize>,
    /// Override of the catalog admission limit (`--max-vertices N`;
    /// `None` = [`dmc_kernels::catalog::DEFAULT_MAX_BUILD_VERTICES`]).
    pub max_vertices: Option<u64>,
}

impl AnalyzeOptions {
    /// The text header's mode suffix.
    fn mode(&self) -> &'static str {
        if self.hierarchical {
            " --hierarchical"
        } else {
            ""
        }
    }
}

/// Catalog admission under `max_vertices` (`None` = the catalog's
/// default limit), with the catalog's own loud message (the CLI exits 2
/// on it, like every other usage error).
fn admit(spec: &str, max_vertices: Option<u64>) -> Result<KernelSpec<'static>, String> {
    use dmc_kernels::catalog::DEFAULT_MAX_BUILD_VERTICES;
    Registry::shared()
        .parse_within(spec, max_vertices.unwrap_or(DEFAULT_MAX_BUILD_VERTICES))
        .map_err(|e| format!("{e}\n(run `repro list` for the catalog)"))
}

/// An analysis or sweep report as `repro` prints it: the JSON line, or
/// the text under its `== repro {header} ==` line.
fn render(report: JobReport, format: ReportFormat, header: &str) -> String {
    match (format, report) {
        (ReportFormat::Text, JobReport::Analysis(r)) => format!("== repro {header} ==\n{r}"),
        (ReportFormat::Text, JobReport::Sweep(r)) => format!("== repro {header} ==\n{r}"),
        (_, report) => report.to_json_line(),
    }
}

/// Analyzes a catalog kernel spec end to end with the unified pipeline —
/// the `repro analyze --kernel <spec>` backend, with the full flag set:
/// hierarchical mode, explicit cluster count, and a raised/lowered
/// admission limit. A bad spec returns `Err` with the catalog's loud
/// message (the CLI exits 2 on it, like every other usage error).
pub fn analyze_kernel_spec_with(
    spec: &str,
    sram: u64,
    threads: usize,
    format: ReportFormat,
    opts: AnalyzeOptions,
) -> Result<String, String> {
    let parsed = admit(spec, opts.max_vertices)?;
    let header = format!("analyze --kernel {}{}", parsed.render(), opts.mode());
    let job = Job::analyze(
        Input::Spec(parsed),
        Some(sram),
        opts.hierarchical.then_some(opts.clusters),
    )
    .map_err(|e| format!("--{e}"))?;
    Ok(render(job.run(threads), format, &header))
}

/// E14 — the full kernel catalog through the pipeline: every registered
/// family built from its canonical default spec, with the analytic
/// bound rendered next to the certified pipeline bound.
pub fn catalog_experiment() -> String {
    catalog_experiment_with(0)
}

/// [`catalog_experiment`] with an explicit thread budget (`0` = auto),
/// as set by the `repro` binary's `--threads` flag.
pub fn catalog_experiment_with(threads: usize) -> String {
    use dmc_core::pipeline::{Analyzer, AnalyzerConfig};
    let s = 4u64;
    let registry = Registry::shared();
    let mut out = format!(
        "== E14: kernel catalog through the pipeline ({} kernels, S = {s}) ==\n",
        registry.len()
    );
    out.push_str(
        "spec                                     |V|    comps  pipeline-LB  analytic-LB  via\n",
    );
    let analyzer = Analyzer::new(AnalyzerConfig {
        sram: s,
        threads,
        ..AnalyzerConfig::default()
    });
    for kernel in registry.iter() {
        // Every registered family must be reachable by name + spec
        // string — `defaults` goes through the same validation as parse.
        let spec = registry
            .defaults(kernel.name())
            // dmc-lint: allow(s1) -- defaults() of a registered kernel resolves by name; failure is registry corruption, caught by catalog tests
            .expect("registered kernels resolve by name");
        let r = analyzer.analyze_kernel(&spec);
        // dmc-lint: allow(s1) -- analyze_spec attaches kernel provenance to every spec-driven report by construction
        let k = r.kernel.as_ref().expect("spec-driven report");
        let analytic = k
            .analytic_lower
            .as_ref()
            .map_or("-".to_string(), |b| format!("{:.1}", b.value));
        let _ = writeln!(
            out,
            "{:<40} {:<6} {:<6} {:<12} {analytic:<12} {}",
            k.spec, r.vertices, r.component_count, r.bound.value, r.bound.method
        );
    }
    out.push_str(
        "(pipeline-LB is the certified RBW bound; analytic-LB is the paper's\n\
         closed form at the same S — reported side by side, never merged)\n",
    );
    out
}

/// The catalog kernels and 3-point S-sweeps the E15 table validates —
/// shared with the repo-level acceptance suite (`tests/validation.rs`)
/// so the table and the tests cannot drift apart.
pub const E15_CASES: [(&str, [u64; 3]); 4] = [
    ("jacobi(n=8,d=1,t=8)", [6, 12, 24]),
    ("matmul(n=4)", [4, 8, 16]),
    ("fft(n=8)", [3, 6, 12]),
    ("composite(n=3)", [4, 8, 16]),
];

/// E15 — the empirical validation sandwich: each kernel's own schedule
/// hook simulated at a 3-point S-sweep, the measured I/O bracketed by
/// the certified pipeline lower bound and the RBW executor upper bound.
pub fn simulate_experiment() -> String {
    simulate_experiment_with(0)
}

/// [`simulate_experiment`] with an explicit thread budget (`0` = auto),
/// as set by `repro all --threads N`.
pub fn simulate_experiment_with(threads: usize) -> String {
    use dmc_core::pipeline::{Analyzer, AnalyzerConfig};
    let mut out = String::from(
        "== E15: empirical validation sandwich (measured I/O vs certified bounds) ==\n\
         certified LB <= measured OPT, LRU; OPT loads <= LRU loads; LRU == certified UB, per S:\n",
    );
    out.push_str(
        "spec                     S    LB(cert)  OPT(io)  LRU(io)  UB(cert)  ok   schedule\n",
    );
    let analyzer = Analyzer::new(AnalyzerConfig {
        threads,
        ..AnalyzerConfig::default()
    });
    for (spec, srams) in E15_CASES {
        let r = analyzer
            .validate_spec(spec, &srams, None)
            // dmc-lint: allow(s1) -- hardcoded E15 spec strings; parse failure is a broken fixture, caught by the repro_cli tier-1 test
            .expect("E15 specs are valid");
        for p in &r.points {
            assert_eq!(
                p.sandwich_ok(),
                Some(true),
                "{spec} S={}: sandwich violated: {p:?}",
                p.sram
            );
            let io = |t: &Option<dmc_sim::Trace>| t.as_ref().map_or(0, |t| t.io());
            let _ = writeln!(
                out,
                "{spec:<24} {:<4} {:<9} {:<8} {:<8} {:<9} {:<4} {}",
                p.sram,
                p.certified_lower,
                io(&p.measured_opt),
                io(&p.measured_lru),
                p.certified_upper.unwrap_or(0),
                if p.sandwich_ok() == Some(true) {
                    "yes"
                } else {
                    "NO"
                },
                p.schedule_note,
            );
        }
    }
    out.push_str(
        "(every measured run is itself a valid RBW game, so the bracket is a\n\
         cross-implementation oracle: simulator vs bound machinery)\n",
    );
    out
}

/// Simulates a catalog kernel spec across an S-sweep and renders the
/// validation sandwich — the `repro simulate --kernel <spec>` backend.
///
/// `sweep` is the parsed `lo:hi:step` triple (`None` = a default 3-point
/// sweep starting at the schedule's minimum feasible capacity); `policy`
/// restricts measurement to one cache policy (`None` = both).
pub fn simulate_kernel_spec(
    spec: &str,
    sweep: Option<(u64, u64, u64)>,
    policy: Option<CachePolicy>,
    threads: usize,
    format: ReportFormat,
) -> Result<String, String> {
    let parsed = admit(spec, None)?;
    let header = format!("simulate --kernel {}", parsed.render());
    let job = Job::sweep(parsed, sweep, policy).map_err(|e| format!("--{e}"))?;
    Ok(render(job.run(threads), format, &header))
}

/// The kernels of the E17 machine-roofline table — the same four
/// schedule-bearing families the E15 sandwich validates, so the two
/// tables judge identical DAGs.
pub const E17_KERNELS: [&str; 4] = [
    "jacobi(n=8,d=1,t=8)",
    "matmul(n=4)",
    "fft(n=8)",
    "composite(n=3)",
];

pub use dmc_core::job::DEFAULT_MACHINE_S1;

/// Resolves the `--machine` argument to a list of [`dmc_machine::MachineSpec`]s:
/// a catalog name or `all`/`catalog` ([`catalog_machines`]), or a path to
/// a `key = value` spec file. Unknown names are loud errors listing the
/// valid catalog entries.
pub fn resolve_machines(arg: &str) -> Result<Vec<dmc_machine::MachineSpec>, String> {
    let trimmed = arg.trim();
    if let Some(machines) = catalog_machines(trimmed) {
        return Ok(machines);
    }
    if std::path::Path::new(trimmed).exists() {
        let text = std::fs::read_to_string(trimmed)
            .map_err(|e| format!("cannot read machine spec file {trimmed}: {e}"))?;
        return dmc_machine::MachineSpec::parse_spec_text(&text)
            .map(|m| vec![m])
            .map_err(|e| format!("machine spec file {trimmed}: {e}"));
    }
    Err(format!(
        "unknown machine '{trimmed}': not a catalog entry ({}) and no such spec file; \
         use a catalog name, 'all', or a key = value spec file",
        specs::catalog_names().join(", ")
    ))
}

/// Simulates kernels against machine hierarchies and renders the
/// roofline verdict table — the `repro simulate --machine <arg>` backend.
///
/// `machine_arg` is a catalog name, `all`/`catalog`, or a spec-file path
/// (see [`resolve_machines`]); `kernel` restricts the sweep to one
/// catalog spec (`None` = the [`E17_KERNELS`] set); `s1` is the per-core
/// level-1 capacity in words. JSON is [`JobReport::to_json_line`]: a
/// single kernel × machine pair renders the bare
/// [`dmc_core::MachineValidationReport`], multi-report runs wrap them in
/// a `{"reports": [...]}` envelope.
pub fn simulate_machine(
    machine_arg: &str,
    kernel: Option<&str>,
    s1: u64,
    policy: Option<CachePolicy>,
    threads: usize,
    format: ReportFormat,
) -> Result<String, String> {
    let machines = resolve_machines(machine_arg)?;
    let specs = match kernel {
        Some(k) => vec![k],
        None => E17_KERNELS.to_vec(),
    }
    .into_iter()
    .map(|spec| admit(spec, None))
    .collect::<Result<Vec<_>, _>>()?;
    let job = Job::machine(specs, machines, Some(s1), policy).map_err(|e| format!("--{e}"))?;
    Ok(match (format, job.run(threads)) {
        (ReportFormat::Text, JobReport::Machine(reports)) => reports
            .iter()
            .map(|r| {
                format!(
                    "== repro simulate --machine {} --kernel {} ==\n{r}\n",
                    r.machine, r.spec
                )
            })
            .collect(),
        (_, report) => report.to_json_line(),
    })
}

/// E17 — the machine-hierarchy roofline: every E17 kernel dealt across
/// each catalog machine's cores, measured at every cache boundary, each
/// row a certified sandwich with the Equation-7/8 verdicts.
pub fn machine_experiment() -> String {
    machine_experiment_with(0)
}

/// [`machine_experiment`] with an explicit thread budget (`0` = auto).
pub fn machine_experiment_with(threads: usize) -> String {
    use dmc_core::pipeline::{Analyzer, AnalyzerConfig};
    let mut out = String::from(
        "== E17: machine-hierarchy roofline (per-level sandwich + verdicts) ==\n\
         certified LB <= measured OPT, LRU; OPT loads <= LRU loads; LRU == certified UB at every boundary:\n",
    );
    out.push_str(
        "spec                     machine      level       LB(cert)  LRU(io)  UB(cert)  w/F      balance  verdict\n",
    );
    let analyzer = Analyzer::new(AnalyzerConfig {
        threads,
        ..AnalyzerConfig::default()
    });
    for spec in E17_KERNELS {
        for machine in dmc_machine::specs::machine_catalog() {
            let r = analyzer
                .validate_machine_spec(spec, &machine, DEFAULT_MACHINE_S1, None)
                // dmc-lint: allow(s1) -- hardcoded E17 spec strings; parse failure is a broken fixture, caught by the repro_cli tier-1 test
                .expect("E17 specs are valid");
            assert!(
                r.sandwich_holds(),
                "{spec} on {}: machine sandwich violated:\n{r}",
                machine.name
            );
            for p in &r.levels {
                assert_eq!(
                    p.sandwich_ok(),
                    Some(true),
                    "{spec} on {} level {}: {p:?}",
                    machine.name,
                    p.level
                );
                let io = |t: &Option<dmc_sim::Trace>| t.as_ref().map_or(0, |t| t.io());
                let wpf = io(&p.measured_lru) as f64 / r.flops.max(1.0);
                let balance = p
                    .balance_words_per_flop
                    .map(|b| format!("{b:.4}"))
                    .unwrap_or_else(|| "-".into());
                let _ = writeln!(
                    out,
                    "{spec:<24} {:<12} {:<11} {:<9} {:<8} {:<9} {:<8.4} {:<8} {}",
                    r.machine,
                    p.name,
                    p.certified_lower,
                    io(&p.measured_lru),
                    p.certified_upper.unwrap_or(0),
                    wpf,
                    balance,
                    p.verdict,
                );
            }
            let _ = writeln!(
                out,
                "{spec:<24} {:<12} {:<11} {:<9} {:<8} {:<9} {:<8.4} {:<8} {}",
                r.machine,
                "network",
                "-",
                r.remote_words,
                "-",
                r.remote_words_per_flop(),
                format!("{:.4}", r.horizontal_balance),
                r.network_verdict,
            );
        }
    }
    out.push_str(
        "(each row sandwiches the round-robin wavefront split's measured traffic\n\
         between the Lemma-2-aware pipeline LB and the RBW executor UB at that\n\
         boundary's aggregate capacity — Section 5's Table-1 judgement, automated)\n",
    );
    out
}

/// Partition ablation — Theorem 1 construction vs greedy chunking.
pub fn partition_experiment() -> String {
    let mut out = String::from("== partition ablation: Theorem-1 vs greedy ==\n");
    out.push_str("graph        S    q(LRU)  h(thm1)  S·h>=q  h(greedy)  largest-block\n");
    for (name, g) in [
        ("matmul(4)", matmul::matmul(4)),
        ("fft(16)", fft::fft(16)),
        ("ladder(6,6)", chains::ladder(6, 6)),
    ] {
        let order = topological_order(&g);
        for s in [8usize, 16] {
            let Ok(game) = execute_rbw(&g, s, &order, CachePolicy::Lru) else {
                continue;
            };
            let tp = from_trace(&g, &game.trace, s);
            assert_eq!(validate_rbw(&g, &tp.partition, 2 * s), Ok(()));
            let greedy = greedy_partition(&g, &order, 2 * s);
            assert_eq!(validate_rbw(&g, &greedy, 2 * s), Ok(()));
            let _ = writeln!(
                out,
                "{name:<12} {s:<4} {:<7} {:<8} {:<7} {:<10} {}",
                game.io,
                tp.intervals,
                (s as u64) * tp.intervals as u64 >= game.io,
                greedy.num_blocks(),
                greedy.largest_block(),
            );
        }
    }
    out
}

/// E12 — parallel accounting: P-RBW executor + block-partition halo
/// words vs Theorem 7.
pub fn parallel_experiment() -> String {
    let mut out = String::from("== E12: parallel traffic vs Theorems 5-7 ==\n");
    // Owner-computes P-RBW game on a ladder across 2 nodes.
    let g = chains::ladder(8, 8);
    let h = MemoryHierarchy::new(vec![
        dmc_machine::Level::new("regs", 4, 16),
        dmc_machine::Level::new("mem", 2, 1 << 20),
    ])
    // dmc-lint: allow(s1) -- hand-written two-level hierarchy literal; construction cannot fail for it
    .expect("valid");
    let order = topological_order(&g);
    let owner: Vec<usize> = (0..g.num_vertices()).map(|i| (i / 16) % 4).collect();
    let stats = dmc_core::games::prbw::execute_owner_computes(&g, &h, &order, &owner)
        // dmc-lint: allow(s1) -- the owner-computes executor emits rule-respecting traces by construction; validate rejecting one is an executor bug, caught by prbw tests
        .expect("valid parallel game");
    let _ = writeln!(
        out,
        "P-RBW ladder(8,8), 4 procs / 2 nodes: remote gets = {}, max computes = {}",
        stats.total_horizontal(),
        stats.max_computes()
    );
    // Block-partitioned Jacobi: owner-computes halo words vs ghost formula.
    out.push_str("\nblock-partitioned 1-D Jacobi halo traffic (simulated vs formula):\n");
    out.push_str("procs  simulated  ghost-formula(total)\n");
    let (n, t) = (64usize, 4usize);
    let j = jacobi::jacobi_cdag(n, 1, t, Stencil::VonNeumann);
    for procs in [2usize, 4, 8] {
        let halo = remote_reads(&j.cdag, &schedule::jacobi_block_owner(&j, procs));
        let formula = ghost_cell_upper_bound(n, 1, procs, t) * procs as f64;
        let _ = writeln!(out, "{procs:<6} {halo:<10} {formula:.0}");
    }
    out
}

/// E7 — Figure 1's memory hierarchy as an executable artefact.
pub fn figures() -> String {
    let mut out = String::from("== E7 / Figure 1: modeled memory hierarchy (BG/Q-shaped) ==\n");
    let h = specs::ibm_bgq().to_hierarchy(64);
    out.push_str(&h.render_ascii());
    out
}

/// Runs every experiment, concatenated — the full paper reproduction.
pub fn run_all() -> String {
    run_all_with(0)
}

/// [`run_all`] with an explicit thread budget for the stages that take
/// one (mincut, analyze), as set by `repro all --threads N`.
pub fn run_all_with(threads: usize) -> String {
    let mut out = String::new();
    out.push_str(&table1());
    out.push('\n');
    out.push_str(&sec3_composite(&[2, 4, 8]));
    out.push('\n');
    out.push_str(&cg_experiment());
    out.push('\n');
    out.push_str(&gmres_experiment());
    out.push('\n');
    out.push_str(&jacobi_experiment());
    out.push('\n');
    out.push_str(&pebbling_experiment());
    out.push('\n');
    out.push_str(&mincut_experiment_with(threads));
    out.push('\n');
    out.push_str(&analyze_experiment_with(threads));
    out.push('\n');
    out.push_str(&catalog_experiment_with(threads));
    out.push('\n');
    out.push_str(&simulate_experiment_with(threads));
    out.push('\n');
    out.push_str(&machine_experiment_with(threads));
    out.push('\n');
    out.push_str(&partition_experiment());
    out.push('\n');
    out.push_str(&parallel_experiment());
    out.push('\n');
    out.push_str(&figures());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_contains_paper_values() {
        let t = table1();
        assert!(t.contains("IBM BG/Q"));
        assert!(t.contains("0.0520"));
        assert!(t.contains("Cray XT5"));
        assert!(t.contains("0.0256"));
    }

    #[test]
    fn gmres_experiment_flips_verdict() {
        let t = gmres_experiment();
        assert!(t.contains("bandwidth-bound"));
        assert!(t.contains("inconclusive"));
        assert!(t.contains("0.0500"));
    }

    #[test]
    fn figures_report_convergence() {
        let t = figures();
        assert!(t.starts_with("== E7 / Figure 1"), "{t}");
        assert!(t.contains("interconnection network"), "{t}");
        assert!(!t.contains("== E8"), "{t}");
    }

    #[test]
    fn mincut_experiment_matches_exact_constant() {
        let t = mincut_experiment();
        // The 3n^d+2 column equals the auto column on every row.
        assert!(t.contains("3n^d+2"));
        for line in t.lines().skip(3).take(4) {
            let cols: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(cols[2], cols[4], "auto != exact in {line:?}");
        }
    }

    #[test]
    fn mincut_scaling_bound_invariant_in_threads() {
        let t = mincut_experiment_with(3);
        let header = t
            .lines()
            .position(|l| l.starts_with("threads"))
            .expect("scaling table present");
        let wmaxes: Vec<&str> = t
            .lines()
            .skip(header + 1)
            .take_while(|l| !l.is_empty())
            .map(|l| l.split_whitespace().nth(1).expect("w^max column"))
            .collect();
        assert!(wmaxes.len() >= 5, "1/2/4/8 plus the requested 3: {t}");
        assert!(
            wmaxes.iter().all(|w| w == &wmaxes[0]),
            "w^max varies with thread count: {wmaxes:?}"
        );
    }

    /// Every column of the scaling table except `threads` and `ms` is
    /// thread-invariant, so `repro all` is reproducible apart from `ms`.
    #[test]
    fn mincut_scaling_rows_agree_apart_from_threads_and_ms() {
        let rows = |t: &str| -> Vec<String> {
            let header = t
                .lines()
                .position(|l| l.starts_with("threads"))
                .expect("scaling table present");
            t.lines()
                .skip(header + 1)
                .take_while(|l| !l.is_empty())
                .map(|l| {
                    let cols: Vec<&str> = l.split_whitespace().collect();
                    cols[1..cols.len() - 1].join(" ")
                })
                .collect()
        };
        let first = rows(&mincut_experiment_with(4));
        assert_eq!(first.len(), 4, "1/2/4/8 threads: {first:?}");
        assert!(first.iter().all(|r| r == &first[0]), "{first:?}");
        assert_eq!(rows(&mincut_experiment_with(4)), first);
    }

    #[test]
    fn catalog_experiment_covers_every_registered_kernel() {
        let t = catalog_experiment_with(1);
        for name in Registry::shared().names() {
            assert!(t.contains(name), "{name} missing from catalog table:\n{t}");
        }
    }

    #[test]
    fn list_catalog_prints_ranges_and_defaults() {
        let t = list_catalog();
        assert!(t.contains("spec grammar"), "{t}");
        assert!(t.contains("jacobi("), "{t}");
        assert!(t.contains("star|box"), "{t}");
    }

    #[test]
    fn simulate_experiment_reports_the_sandwich_for_all_cases() {
        let t = simulate_experiment_with(1);
        for (spec, srams) in E15_CASES {
            assert!(t.contains(spec), "{spec} missing:\n{t}");
            for s in srams {
                assert!(
                    t.lines().any(|l| {
                        l.starts_with(spec)
                            && l.split_whitespace().nth(1) == Some(&s.to_string())
                            && l.contains("yes")
                    }),
                    "{spec} S={s} row missing or not ok:\n{t}"
                );
            }
        }
    }

    #[test]
    fn simulate_kernel_spec_rejects_bad_input_loudly() {
        let err =
            simulate_kernel_spec("warp_drive", None, None, 1, ReportFormat::Text).unwrap_err();
        assert!(err.contains("unknown kernel"), "{err}");
        let err = simulate_kernel_spec("fft(n=8)", Some((8, 4, 1)), None, 1, ReportFormat::Text)
            .unwrap_err();
        assert!(err.contains("lo:hi:step"), "{err}");
        let err = simulate_kernel_spec(
            "fft(n=8)",
            Some((1, 10_000, 1)),
            None,
            1,
            ReportFormat::Text,
        )
        .unwrap_err();
        assert!(err.contains("limit 256"), "{err}");
    }

    #[test]
    fn simulate_kernel_spec_default_sweep_is_feasible() {
        let t = simulate_kernel_spec("matmul(n=3)", None, None, 1, ReportFormat::Text)
            .expect("valid spec");
        assert!(
            !t.contains("skipped"),
            "default sweep must be feasible:\n{t}"
        );
        assert!(t.contains("yes"), "{t}");
    }

    #[test]
    fn analyze_kernel_spec_rejects_bad_specs_loudly() {
        let err = analyze_kernel_spec_with(
            "warp_drive(n=4)",
            4,
            1,
            ReportFormat::Text,
            AnalyzeOptions::default(),
        )
        .unwrap_err();
        assert!(err.contains("unknown kernel"), "{err}");
        assert!(err.contains("repro list"), "{err}");
    }

    #[test]
    fn parallel_experiment_within_formula() {
        let t = parallel_experiment();
        assert!(t.contains("remote gets"));
        let header = t
            .lines()
            .position(|l| l.starts_with("procs  simulated  ghost-formula"))
            .expect("halo table present");
        let rows: Vec<Vec<&str>> = t
            .lines()
            .skip(header + 1)
            .map(|l| l.split_whitespace().collect())
            .collect();
        assert_eq!(
            rows,
            [["2", "8", "16"], ["4", "24", "32"], ["8", "56", "64"]],
            "{t}"
        );
    }

    #[test]
    fn sec3_composite_rbw_exec_column_is_pinned() {
        let t = sec3_composite(&[2, 4, 8]);
        let header = t
            .lines()
            .position(|l| l.starts_with("n    RBW-exec"))
            .expect("executed-game table present");
        let exec: Vec<&str> = t
            .lines()
            .skip(header + 1)
            .take(3)
            .map(|l| l.split_whitespace().nth(1).expect("RBW-exec column"))
            .collect();
        assert_eq!(exec, ["9", "193", "2169"], "{t}");
    }

    #[test]
    fn cg_experiment_counts_the_block_halo() {
        let t = cg_experiment();
        assert!(
            t.contains(
                "simulated halo words (1-D proxy, n=16, T=2, 4 nodes): 12 (formula total 16)"
            ),
            "{t}"
        );
    }

    #[test]
    fn jacobi_tilings_respect_theorem_10() {
        let t = jacobi_experiment();
        let mut tables = 0;
        let mut lines = t.lines();
        while lines.any(|l| l.starts_with("schedule           loads")) {
            // (io) per schedule row, by-level first, until the LB row.
            let mut io = Vec::new();
            let lb = loop {
                let row: Vec<&str> = lines.next().expect("LB row").split_whitespace().collect();
                if row[0] == "Theorem-10" {
                    break row[2].parse::<f64>().expect("LB value");
                }
                io.push(row[row.len() - 2].parse::<u64>().expect("io column"));
            };
            assert_eq!(io.len(), 4, "by-level + three tilings:\n{t}");
            assert!(io.iter().all(|&q| q as f64 >= lb), "io below LB {lb}:\n{t}");
            let best_tiled = io[1..].iter().min().copied().expect("tiled rows");
            assert!(best_tiled < io[0], "no tiling beats by-level:\n{t}");
            tables += 1;
        }
        assert_eq!(tables, 2, "1-D and 2-D ablations:\n{t}");
    }

    #[test]
    fn partition_ablation_pairs_are_pinned() {
        let t = partition_experiment();
        let pairs: Vec<(&str, &str)> = t
            .lines()
            .skip(2)
            .map(|l| {
                let c: Vec<&str> = l.split_whitespace().collect();
                (c[2], c[3])
            })
            .collect();
        assert_eq!(
            pairs,
            [
                ("312", "39"),
                ("271", "17"),
                ("144", "18"),
                ("108", "7"),
                ("2", "1"),
                ("2", "1")
            ],
            "q(LRU)/h(thm1) per row:\n{t}"
        );
    }
}
