//! Min-cut / wavefront lower bounds (Section 3.3, Lemma 2).
//!
//! Lemma 2: for a CDAG `C = (∅, V, E, O)` *without tagged inputs*,
//! `IO(C) ≥ 2·(|W^min_G(x)| − S)` for every vertex `x` — any schedule must
//! at some point keep `|W^min(x)|` values live, and all but `S` of them
//! must take a store/reload round trip through slow memory.
//!
//! For CDAGs *with* inputs we first apply Theorem 3 (untagging): removing
//! the input tags can only lower the optimal I/O, so the Lemma-2 bound on
//! the untagged CDAG is also valid for the tagged one.
//!
//! The per-anchor `|W^min(x)|` solves are delegated to
//! [`WavefrontEngine`], which batches reachability 64 anchors at a time
//! (word-parallel OR-sweeps), solves each anchor's vertex min-cut on a
//! warm-started unit-capacity flow network restricted to the frontier
//! vertices, and prunes anchors lexicographically against the running
//! best — see the "Flow core" section of `DESIGN.md`. The engine's
//! result (winning size, anchor, and witness) is bit-identical at any
//! thread count, so the bound's `detail` strings never vary between
//! runs.
//!
//! Inside a portfolio the Lemma-2 value only matters when it beats the
//! bound ahead of it. [`wavefront_bound_above`] takes that *incumbent*,
//! turns it into a wavefront floor, and skips every anchor — or the
//! whole engine — that provably cannot clear it.
//!
//! The expensive part does not depend on `S`: `S` only shifts the value
//! `2·(w − S)` and raises the floor `⌊v/2⌋ + S`. So the bound is split in
//! two. `WavefrontMeasurement::measure` takes the engine's ceiling and
//! runs the engine once, floored at the smallest `S` asked for;
//! `WavefrontMeasurement::bound_at` assembles the bound at any larger
//! `S` from that, byte for byte what a run at that `S` gives, because a
//! floored run's winner is the unfloored one whenever it clears the
//! floor and its anchor count does not depend on the floor.
//! [`wavefront_bound_above`] is the two halves at one `S`; the pipeline
//! ([`crate::pipeline::Analyzer::measure_portfolio`]) keeps the first
//! half and assembles at every `S` of a sweep.

use super::{IoBound, Method};
use dmc_cdag::cut::min_wavefront;
use dmc_cdag::engine::{EngineRun, WavefrontEngine};
use dmc_cdag::{Cdag, VertexId};

/// Lemma 2 for one anchor: `2·(w − S)`, clamped at zero.
pub fn lemma2_bound(wavefront: usize, s: u64) -> f64 {
    2.0 * (wavefront as f64 - s as f64).max(0.0)
}

/// The largest wavefront whose Lemma-2 value does not exceed `incumbent`:
/// `⌊incumbent/2⌋ + S`, saturating. For an integer `w`,
/// `2·(w − S) > incumbent` iff `w > ⌊incumbent/2⌋ + S`, so only
/// wavefronts strictly above this floor can beat the incumbent.
fn lemma2_floor(incumbent: f64, s: u64) -> u64 {
    // `as` saturates (and maps NaN to 0), so no incumbent can wrap it.
    ((incumbent / 2.0).floor() as u64).saturating_add(s)
}

/// Computes the Lemma-2 bound anchored at a specific vertex.
pub fn wavefront_bound_at(g: &Cdag, x: VertexId, s: u64) -> IoBound {
    let w = min_wavefront(g, x);
    IoBound::new(
        lemma2_bound(w.size, s),
        Method::Wavefront,
        format!("2·(|W^min({x})| − S) = 2·({} − {s})", w.size),
    )
}

/// Anchor-selection strategy for the automated wavefront heuristic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnchorStrategy {
    /// Every vertex — exact `w^max` but `|V|` max-flow runs.
    All,
    /// Two-phase sampling: a coarse pass over one anchor per depth level
    /// ([`WavefrontEngine::per_level_anchors`]), then exhaustive
    /// refinement of every vertex within one depth level of the coarse
    /// winner ([`WavefrontEngine::run_adaptive`]). Dominates the coarse
    /// pass alone at a fraction of `All`'s cost.
    Adaptive,
}

/// The automated Lemma-2 lower bound: `2·(max_x |W^min(x)| − S)` over the
/// sampled anchors. Every anchor yields a valid bound, so sampling only
/// weakens (never invalidates) the result.
///
/// Runs on the parallel batched [`WavefrontEngine`] with automatic thread
/// count; see [`auto_wavefront_bound_with`] to pin the worker count. The
/// result is deterministic — bit-identical at any thread count.
pub fn auto_wavefront_bound(g: &Cdag, s: u64, strategy: AnchorStrategy) -> IoBound {
    auto_wavefront_bound_with(g, s, strategy, 0)
}

/// [`auto_wavefront_bound`] with an explicit engine worker count
/// (`threads == 0` selects `std::thread::available_parallelism`).
pub fn auto_wavefront_bound_with(
    g: &Cdag,
    s: u64,
    strategy: AnchorStrategy,
    threads: usize,
) -> IoBound {
    wavefront_bound_above(g, s, strategy, threads, None)
}

/// [`auto_wavefront_bound_with`] when the result only matters if it
/// strictly beats `incumbent` (a bound that wins ties against it).
///
/// With an incumbent of value `v`, wavefronts up to the floor
/// `F = ⌊v/2⌋ + S` (saturating) give `2·(w − S) ≤ v` and cannot win, so
/// the engine is skipped outright when its level-cut
/// [`ceiling`](WavefrontEngine::ceiling) is at most `F`, and otherwise
/// runs floored at `F`. A result that clears the floor is byte-identical
/// to the unfloored bound; one that cannot is reported as a value-0
/// Lemma-2 leaf whose note names the ceiling or floor and the incumbent.
/// Without an incumbent this is exactly [`auto_wavefront_bound_with`].
///
/// This is `WavefrontMeasurement::measure` at `S` followed by
/// `WavefrontMeasurement::bound_at` the same `S`.
pub fn wavefront_bound_above(
    g: &Cdag,
    s: u64,
    strategy: AnchorStrategy,
    threads: usize,
    incumbent: Option<&IoBound>,
) -> IoBound {
    WavefrontMeasurement::measure(g, s, strategy, threads, incumbent).bound_at(s)
}

/// The `S`-independent half of [`wavefront_bound_above`]: the engine's
/// level-cut ceiling and at most one engine run, from which
/// [`WavefrontMeasurement::bound_at`] assembles the bound at every
/// `S ≥ s_min` without touching the graph again.
///
/// Why one run serves every such `S`: the incumbent does not depend on
/// `S`, so the floor `F(S) = ⌊v/2⌋ + S` only grows with it. A run
/// floored at `F(s_min)` returns the unfloored winner whenever that
/// winner exceeds `F(s_min)` — in particular whenever it exceeds any
/// `F(S)` — and nothing otherwise, and its `anchors_considered` does not
/// depend on the floor ([`WavefrontEngine::run_adaptive_above`],
/// [`WavefrontEngine::run_above`]). So the run floored at `F(S)` is this
/// run's winner filtered by `F(S)`, with the same anchor count, and the
/// ceiling test against `F(S)` needs only the ceiling. When the ceiling
/// is at most `F(s_min)`, no `S` runs the engine, so it is not run here
/// either.
#[derive(Debug, Clone)]
pub(crate) struct WavefrontMeasurement {
    /// The smallest `S` the measurement answers for.
    s_min: u64,
    /// The engine's level-cut ceiling.
    ceiling: usize,
    /// `"adaptive: "` or empty, as the winning note spells the strategy.
    mode: &'static str,
    floor: Floor,
}

/// How a [`WavefrontMeasurement`] was floored.
#[derive(Debug, Clone)]
enum Floor {
    /// No incumbent: one unfloored run.
    None(EngineRun),
    /// Floored by `incumbent`: one run at `F(s_min)`, or none when the
    /// ceiling is at most that floor.
    Incumbent {
        incumbent: IoBound,
        run: Option<EngineRun>,
    },
}

impl WavefrontMeasurement {
    /// Measures `g` for every `S ≥ s_min`: the engine's ceiling, and the
    /// engine run (`threads` workers, `0` = all cores; the result does
    /// not depend on it) floored at `F(s_min)` unless the ceiling rules
    /// it out.
    pub(crate) fn measure(
        g: &Cdag,
        s_min: u64,
        strategy: AnchorStrategy,
        threads: usize,
        incumbent: Option<&IoBound>,
    ) -> Self {
        let engine = WavefrontEngine::new(g).with_threads(threads);
        let ceiling = engine.ceiling();
        let run = |floor: usize| match strategy {
            AnchorStrategy::All => engine.run_above(&g.vertices().collect::<Vec<_>>(), floor),
            AnchorStrategy::Adaptive => engine.run_adaptive_above(floor),
        };
        let floor = match incumbent {
            None => Floor::None(run(0)),
            Some(inc) => {
                let f = lemma2_floor(inc.value, s_min);
                Floor::Incumbent {
                    incumbent: inc.clone(),
                    // The floor is below the ceiling here, so it fits in
                    // `usize`.
                    run: (ceiling as u64 > f).then(|| run(f as usize)),
                }
            }
        };
        WavefrontMeasurement {
            s_min,
            ceiling,
            mode: match strategy {
                AnchorStrategy::All => "",
                AnchorStrategy::Adaptive => "adaptive: ",
            },
            floor,
        }
    }

    /// The Lemma-2 bound at `s`: exactly what [`wavefront_bound_above`]
    /// returns for `s`, value and note.
    ///
    /// # Panics
    ///
    /// Panics if `s` is below the `s_min` the measurement was taken for.
    pub(crate) fn bound_at(&self, s: u64) -> IoBound {
        assert!(
            s >= self.s_min,
            "measured for S >= {}, asked for S = {s}",
            self.s_min
        );
        let (run, floor) = match &self.floor {
            Floor::None(run) => (run, None),
            Floor::Incumbent { incumbent, run } => {
                let f = lemma2_floor(incumbent.value, s);
                match run {
                    Some(run) if self.ceiling as u64 > f => (run, Some((incumbent, f as usize))),
                    _ => {
                        let c = self.ceiling;
                        return IoBound::new(
                            0.0,
                            Method::Wavefront,
                            format!(
                                "not run: level-cut ceiling {c} gives 2·({c} − {s}) = {} ≤ {} {}",
                                lemma2_bound(c, s),
                                incumbent.method,
                                incumbent.value
                            ),
                        );
                    }
                }
            }
        };
        // Note: only the deterministic anchor count goes into the detail
        // string — `anchors_evaluated` can vary with thread timing (see
        // `EngineRun`), and this bound is documented as bit-identical at
        // any thread count.
        let (mode, anchors) = (self.mode, run.anchors_considered);
        let best = run
            .best
            .as_ref()
            .filter(|w| floor.is_none_or(|(_, f)| f == 0 || w.size > f));
        match (best, floor) {
            (Some(w), _) => IoBound::new(
                lemma2_bound(w.size, s),
                Method::Wavefront,
                format!(
                    "2·(w^max − S) with w^max = {} at anchor {} ({mode}{anchors} anchors)",
                    w.size, w.anchor
                ),
            ),
            (None, Some((inc, f))) => IoBound::new(
                0.0,
                Method::Wavefront,
                format!(
                    "dominated: w^max ≤ floor {f} gives 2·({f} − {s}) = {} ≤ {} {} ({mode}{anchors} anchors)",
                    lemma2_bound(f, s),
                    inc.method,
                    inc.value
                ),
            ),
            (None, None) => IoBound::new(0.0, Method::Wavefront, "no anchors".to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::decompose::untag_inputs;
    use crate::games::optimal::{optimal_io, GameKind};
    use dmc_cdag::cut::max_min_wavefront;
    use dmc_cdag::BitSet;
    use dmc_kernels::catalog::Registry;
    use dmc_kernels::chains;

    /// One measurement at `s_min` gives, at every larger `S`, the bound
    /// a measurement at that `S` gives — value and note, under both
    /// strategies, without an incumbent and across the winning,
    /// dominated and not-run regimes with one.
    #[test]
    fn one_measurement_gives_the_bound_at_every_larger_s() {
        let ladder = untagged(&chains::ladder(6, 6));
        // w^max = 2 (see `two_stage_wavefront_is_constant`) under a wider
        // level-cut ceiling: with a zero incumbent the floor is F(S) = S,
        // so the wavefront wins at S = 1 and is dominated from S = 2 up
        // to the ceiling.
        let two_stage = untagged(&chains::two_stage(8));
        let trivial = IoBound::trivial(&ladder);
        let zero = IoBound::new(0.0, Method::Trivial, "zero".to_string());
        let mut regimes = std::collections::BTreeSet::new();
        for (g, incumbent) in [
            (&ladder, None),
            (&ladder, Some(&trivial)),
            (&two_stage, Some(&zero)),
        ] {
            for strategy in [AnchorStrategy::All, AnchorStrategy::Adaptive] {
                let m = WavefrontMeasurement::measure(g, 1, strategy, 2, incumbent);
                for s in 1..=16 {
                    let per_s = wavefront_bound_above(g, s, strategy, 1, incumbent);
                    let b = m.bound_at(s);
                    assert_eq!((b.value, b.to_string()), (per_s.value, per_s.to_string()));
                    let note = &b.provenance.note;
                    let regime = ["not run:", "dominated:"]
                        .into_iter()
                        .find(|p| note.starts_with(p))
                        .unwrap_or("wins");
                    regimes.insert(regime);
                }
            }
        }
        assert_eq!(regimes.len(), 3, "{regimes:?}");
    }

    #[test]
    fn lemma2_clamps() {
        assert_eq!(lemma2_bound(10, 3), 14.0);
        assert_eq!(lemma2_bound(2, 5), 0.0);
    }

    #[test]
    fn lemma2_floor_is_the_largest_wavefront_that_cannot_win() {
        for s in [1u64, 4, 7] {
            for v in 0..40u32 {
                let f = lemma2_floor(f64::from(v), s) as usize;
                assert!(lemma2_bound(f, s) <= f64::from(v), "S={s}, v={v}");
                assert!(lemma2_bound(f + 1, s) > f64::from(v), "S={s}, v={v}");
            }
        }
        assert_eq!(lemma2_floor(8192.0, u64::MAX), u64::MAX);
    }

    /// Lemma 2 requires no tagged inputs; untag first (Theorem 3 says the
    /// untagged bound carries over).
    fn untagged(g: &Cdag) -> Cdag {
        let n = g.num_vertices();
        g.retag(BitSet::new(n), g.outputs().clone())
    }

    #[test]
    fn wavefront_bound_sound_vs_optimal_on_reduction() {
        let g = untagged(&chains::binary_reduction(8));
        for s in 2..6u64 {
            let lb = auto_wavefront_bound(&g, s, AnchorStrategy::All);
            if let Some(opt) = optimal_io(&g, s as usize, GameKind::Rbw) {
                assert!(
                    lb.value <= opt as f64,
                    "S={s}: lemma2 {} > optimal {opt}",
                    lb.value
                );
            }
        }
    }

    #[test]
    fn wavefront_bound_sound_vs_optimal_on_ladder() {
        let g = untagged(&chains::ladder(3, 3));
        for s in 3..7u64 {
            let lb = auto_wavefront_bound(&g, s, AnchorStrategy::All);
            if let Some(opt) = optimal_io(&g, s as usize, GameKind::Rbw) {
                assert!(lb.value <= opt as f64, "S={s}");
            }
        }
    }

    /// The engine-backed all-anchors bound must be *bit-identical* to the
    /// serial baseline — value and derivation detail — at every thread
    /// count, on each family of test graphs (chains, jacobi, random).
    #[test]
    fn engine_bound_bit_identical_to_serial_at_any_thread_count() {
        use dmc_cdag::cut::max_min_wavefront;
        use dmc_kernels::grid::Stencil;
        use dmc_kernels::random::{random_layered, RandomDagConfig};
        let graphs: Vec<(&str, Cdag)> = vec![
            ("ladder", untagged(&chains::ladder(5, 4))),
            ("reduction", untagged(&chains::binary_reduction(16))),
            ("two_stage", untagged(&chains::two_stage(6))),
            (
                "jacobi",
                untagged(&dmc_kernels::jacobi::jacobi_cdag(6, 1, 3, Stencil::VonNeumann).cdag),
            ),
            (
                "random",
                untagged(&random_layered(RandomDagConfig {
                    layers: 5,
                    width: 6,
                    deg: 0,
                    edge_prob: 0.35,
                    seed: 1234,
                })),
            ),
        ];
        for (name, g) in &graphs {
            // The serial reference over every vertex.
            let anchors: Vec<VertexId> = g.vertices().collect();
            let expected = match max_min_wavefront(g, &anchors) {
                Some(w) => (
                    lemma2_bound(w.size, 2),
                    format!(
                        "2·(w^max − S) with w^max = {} at anchor {} ({} anchors)",
                        w.size,
                        w.anchor,
                        anchors.len()
                    ),
                ),
                None => (0.0, "no anchors".to_string()),
            };
            for threads in [1usize, 2, 4] {
                let b = auto_wavefront_bound_with(g, 2, AnchorStrategy::All, threads);
                assert_eq!(b.value, expected.0, "{name} @ {threads}t");
                assert_eq!(b.provenance.note, expected.1, "{name} @ {threads}t");
            }
        }
    }

    #[test]
    fn adaptive_dominates_per_level_never_exceeds_all() {
        let g = untagged(&chains::ladder(6, 6));
        let b_all = auto_wavefront_bound(&g, 2, AnchorStrategy::All);
        let b_ad = auto_wavefront_bound(&g, 2, AnchorStrategy::Adaptive);
        // The adaptive coarse pass alone: one anchor per depth level.
        let engine = WavefrontEngine::new(&g);
        let per_level = engine
            .run(&engine.per_level_anchors())
            .best
            .map_or(0, |w| w.size);
        let b_pl = lemma2_bound(per_level, 2);
        assert!(b_pl <= b_ad.value, "{b_pl} > {}", b_ad.value);
        assert!(
            b_ad.value <= b_all.value,
            "{} > {}",
            b_ad.value,
            b_all.value
        );
        // Deterministic across thread counts.
        for threads in [1usize, 2, 4] {
            let b = auto_wavefront_bound_with(&g, 2, AnchorStrategy::Adaptive, threads);
            assert_eq!(b.value, b_ad.value);
            assert_eq!(b.provenance.note, b_ad.provenance.note);
        }
    }

    /// The engine solves each batch's highest-ceiling lane first. On
    /// pyramids and GMRES that lane's ceiling is its cut, so one max-flow
    /// settles the adaptive run where descending topological order alone
    /// solves 22 and 10; CG's loose closure ceilings still leave 12. The
    /// counts are deterministic at one thread. Each winner — size, anchor
    /// and witness — is the serial maximum over the coarse pass's anchors,
    /// one per depth level: on these kernels the refinement around it
    /// finds no wider cut.
    #[test]
    fn one_thread_engine_work_on_catalog_kernels() {
        for (spec, evaluated) in [
            ("pyramid(r=2,h=32)", 1),
            ("gmres(n=16,d=2,m=4)", 1),
            ("cg(n=32,d=2,t=4)", 12),
        ] {
            let g = untag_inputs(&Registry::shared().parse(spec).expect("valid spec").build());
            let eng = WavefrontEngine::new(&g).with_threads(1);
            let run = eng.run_adaptive();
            assert_eq!(run.anchors_evaluated, evaluated, "{spec}");
            let best = run.best.expect("a winner");
            let want = max_min_wavefront(&g, &eng.per_level_anchors()).expect("anchors");
            assert_eq!(
                (best.size, best.anchor, &best.cut.vertices),
                (want.size, want.anchor, &want.cut.vertices),
                "{spec}"
            );
        }
    }

    #[test]
    fn ladder_wavefront_grows_with_width() {
        // The 2-D dependence ladder carries a full anti-diagonal of live
        // values: w^max grows with the ladder width.
        let b3 = auto_wavefront_bound(&untagged(&chains::ladder(3, 3)), 1, AnchorStrategy::All);
        let b6 = auto_wavefront_bound(&untagged(&chains::ladder(6, 6)), 1, AnchorStrategy::All);
        assert!(
            b6.value > b3.value,
            "ladder(6): {} !> ladder(3): {}",
            b6.value,
            b3.value
        );
    }

    #[test]
    fn two_stage_wavefront_is_constant() {
        // Counter-intuitive but correct: the collector's fan-in is NOT a
        // wavefront — a schedule may fire the middles lazily, so the
        // minimum wavefront through any middle vertex is 2 ({x, f_i})
        // regardless of width. (The fan-in cost shows up as the minimum
        // pebble budget, not as Lemma-2 I/O.)
        let b4 = auto_wavefront_bound(&untagged(&chains::two_stage(4)), 0, AnchorStrategy::All);
        let b8 = auto_wavefront_bound(&untagged(&chains::two_stage(8)), 0, AnchorStrategy::All);
        assert_eq!(b4.value, b8.value);
        assert_eq!(b4.value, 4.0); // 2·(2 − 0)
    }
}
