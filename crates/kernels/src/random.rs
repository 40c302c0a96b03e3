//! Random layered DAG generation for fuzzing, property tests, and the
//! hierarchical-pipeline scale experiments.
//!
//! Two edge models share one seeded generator:
//!
//! * **dense** (`deg = 0`): every `(u, v)` pair between adjacent layers
//!   flips an independent coin with probability `edge_prob`. Quadratic in
//!   `width`, so only admitted for `width ≤ 4096`.
//! * **sparse** (`deg ≥ 1`): every non-input vertex draws `deg`
//!   predecessors uniformly (with dedup) from the previous layer. Linear
//!   in `layers·width·deg`, which is what lets `repro`'s E16 scale curve
//!   reach 10⁷–10⁸ vertices; this path streams *unlabeled* vertices via
//!   [`CdagBuilder::add_vertices`], which stores nothing per vertex.

use crate::catalog::{Kernel, ParamSpec, ParamValues};
use dmc_cdag::{Cdag, CdagBuilder, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Widest layer the dense (`deg = 0`) per-pair Bernoulli mode accepts;
/// beyond this the `width²` coin flips per layer dominate everything.
pub const DENSE_WIDTH_LIMIT: u64 = 4096;

/// Parameters of the random layered DAG generator.
#[derive(Debug, Clone, Copy)]
pub struct RandomDagConfig {
    /// Number of layers (≥ 2).
    pub layers: usize,
    /// Vertices per layer (≥ 1).
    pub width: usize,
    /// Expected in-degree of each non-input vertex. `0` selects the
    /// dense per-pair Bernoulli mode driven by `edge_prob` (requires
    /// `width ≤` [`DENSE_WIDTH_LIMIT`]); `≥ 1` selects the sparse
    /// streaming mode (the in-degree is `≤ deg` after dedup, `≥ 1`).
    pub deg: usize,
    /// Dense mode only: probability of an edge from each vertex of layer
    /// `k−1` to each vertex of layer `k`.
    pub edge_prob: f64,
    /// RNG seed for reproducibility.
    pub seed: u64,
}

impl Default for RandomDagConfig {
    fn default() -> Self {
        RandomDagConfig {
            layers: 4,
            width: 8,
            deg: 0,
            edge_prob: 0.3,
            seed: 0xDA6,
        }
    }
}

/// Generates a random layered CDAG. Layer 0 vertices are inputs; every
/// non-input vertex is guaranteed at least one predecessor in the
/// previous layer; compute vertices that end up with no successor are
/// tagged outputs (Hong–Kung form). Fully determined by `cfg` — same
/// config, same graph, bit for bit.
pub fn random_layered(cfg: RandomDagConfig) -> Cdag {
    assert!(cfg.layers >= 2 && cfg.width >= 1);
    assert!((0.0..=1.0).contains(&cfg.edge_prob));
    if cfg.deg == 0 {
        assert!(
            cfg.width as u64 <= DENSE_WIDTH_LIMIT,
            "dense mode (deg = 0) is quadratic in width; set deg >= 1 for width > {DENSE_WIDTH_LIMIT}"
        );
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let n = cfg.layers * cfg.width;
    let mut b = CdagBuilder::with_capacity(n, 0);
    // Out-degree census, so sinks can be tagged without freezing a
    // snapshot copy of the whole builder first.
    let mut out_degree = vec![0u32; n];

    if cfg.deg == 0 {
        // Dense Bernoulli mode: labeled vertices, per-pair coins.
        let mut prev: Vec<VertexId> = (0..cfg.width)
            .map(|i| b.add_input(format!("l0_{i}")))
            .collect();
        for layer in 1..cfg.layers {
            let cur: Vec<VertexId> = (0..cfg.width)
                .map(|i| {
                    let mut preds: Vec<VertexId> = prev
                        .iter()
                        .copied()
                        .filter(|_| rng.gen_bool(cfg.edge_prob))
                        .collect();
                    if preds.is_empty() {
                        preds.push(prev[rng.gen_range(0..prev.len())]);
                    }
                    for &p in &preds {
                        out_degree[p.index()] += 1;
                    }
                    b.add_op(format!("l{layer}_{i}"), &preds)
                })
                .collect();
            prev = cur;
        }
    } else {
        // Sparse streaming mode: unlabeled bulk vertices, `deg` uniform
        // draws per vertex (deduped, so the realized in-degree is in
        // `1..=min(deg, width)`).
        let deg = cfg.deg.min(cfg.width);
        b.reserve_edges((cfg.layers - 1) * cfg.width * deg);
        let first = b.add_vertices(n);
        debug_assert_eq!(first, VertexId(0));
        for i in 0..cfg.width {
            b.tag_input(VertexId(i as u32));
        }
        let mut draws: Vec<u32> = Vec::with_capacity(deg);
        for layer in 1..cfg.layers {
            let prev_base = ((layer - 1) * cfg.width) as u32;
            let cur_base = (layer * cfg.width) as u32;
            for i in 0..cfg.width as u32 {
                draws.clear();
                for _ in 0..deg {
                    draws.push(prev_base + rng.gen_range(0..cfg.width) as u32);
                }
                draws.sort_unstable();
                draws.dedup();
                for &p in &draws {
                    out_degree[p as usize] += 1;
                    b.add_edge(VertexId(p), VertexId(cur_base + i));
                }
            }
        }
    }

    for (i, &d) in out_degree.iter().enumerate() {
        if d == 0 && i >= cfg.width {
            b.tag_output(VertexId(i as u32));
        }
    }
    // The census is |V|-sized; free it before the build's own peak.
    drop(out_degree);
    b.build_valid("layered graph is acyclic")
}

/// Catalog entry for the random layered DAG generator:
/// `random(layers,width,deg,edge_pct,seed)` builds [`random_layered`]
/// with `edge_prob = edge_pct / 100`. `deg = 0` (the default) is the
/// dense Bernoulli mode; `deg ≥ 1` is the sparse streaming mode used by
/// the 10⁷-vertex scale experiments.
pub struct RandomLayeredKernel;

impl Kernel for RandomLayeredKernel {
    fn name(&self) -> &'static str {
        "random"
    }

    fn description(&self) -> &'static str {
        "seeded random layered DAG (fuzzing / property-test / scale workloads)"
    }

    fn params(&self) -> &'static [ParamSpec] {
        const PARAMS: &[ParamSpec] = &[
            ParamSpec::uint("layers", "number of layers", 2, 4096, 4),
            ParamSpec::uint("width", "vertices per layer", 1, 65536, 8),
            ParamSpec::uint(
                "deg",
                "expected in-degree; 0 = dense edge_pct mode",
                0,
                64,
                0,
            ),
            ParamSpec::uint("edge_pct", "per-edge probability in percent", 0, 100, 30),
            ParamSpec::uint("seed", "RNG seed", 0, u64::MAX, 0xDA6),
        ];
        PARAMS
    }

    fn validate(&self, p: &ParamValues) -> Result<(), String> {
        if p.uint("deg") == 0 && p.uint("width") > DENSE_WIDTH_LIMIT {
            return Err(format!(
                "dense mode (deg=0) flips width^2 coins per layer; set deg >= 1 for width > {DENSE_WIDTH_LIMIT}"
            ));
        }
        Ok(())
    }

    fn approx_vertices(&self, p: &ParamValues) -> Option<u64> {
        p.uint("layers").checked_mul(p.uint("width"))
    }

    fn build(&self, p: &ParamValues) -> Cdag {
        random_layered(RandomDagConfig {
            layers: p.usize("layers"),
            width: p.usize("width"),
            deg: p.usize("deg"),
            edge_prob: p.uint("edge_pct") as f64 / 100.0,
            seed: p.uint("seed"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = random_layered(RandomDagConfig::default());
        let b = random_layered(RandomDagConfig::default());
        assert_eq!(a.num_vertices(), b.num_vertices());
        assert_eq!(a.num_edges(), b.num_edges());
        assert_eq!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
    }

    #[test]
    fn different_seeds_differ() {
        let a = random_layered(RandomDagConfig::default());
        let b = random_layered(RandomDagConfig {
            seed: 42,
            ..Default::default()
        });
        // Overwhelmingly likely to differ in edge count.
        assert!(a.num_edges() != b.num_edges() || a.edges().ne(b.edges()));
    }

    #[test]
    fn every_non_input_has_a_predecessor() {
        let g = random_layered(RandomDagConfig {
            layers: 6,
            width: 10,
            deg: 0,
            edge_prob: 0.05, // sparse: exercises the fallback edge
            seed: 7,
        });
        for v in g.vertices() {
            if !g.is_input(v) {
                assert!(g.in_degree(v) >= 1);
            }
        }
    }

    #[test]
    fn last_layer_is_all_outputs() {
        let g = random_layered(RandomDagConfig::default());
        let outs = g.vertices().filter(|&v| g.is_output(v)).count();
        assert!(outs >= RandomDagConfig::default().width);
    }

    #[test]
    fn sparse_mode_is_deterministic_and_degree_bounded() {
        let cfg = RandomDagConfig {
            layers: 8,
            width: 64,
            deg: 3,
            edge_prob: 0.0,
            seed: 7,
        };
        let a = random_layered(cfg);
        let b = random_layered(cfg);
        assert_eq!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
        assert_eq!(a.num_vertices(), 8 * 64);
        assert_eq!(a.num_inputs(), 64);
        for v in a.vertices() {
            if a.is_input(v) {
                assert_eq!(a.in_degree(v), 0);
            } else {
                assert!((1..=3).contains(&a.in_degree(v)), "v = {v}");
            }
        }
        // Sinks (and only non-input sinks) are outputs.
        for v in a.vertices() {
            assert_eq!(a.is_output(v), a.out_degree(v) == 0 && !a.is_input(v));
        }
    }

    #[test]
    fn sparse_mode_handles_deg_wider_than_layer() {
        // deg clamps to width, so a width-2 layer with deg=5 still builds.
        let g = random_layered(RandomDagConfig {
            layers: 3,
            width: 2,
            deg: 5,
            edge_prob: 0.0,
            seed: 1,
        });
        assert_eq!(g.num_vertices(), 6);
        for v in g.vertices() {
            if !g.is_input(v) {
                assert!((1..=2).contains(&g.in_degree(v)));
            }
        }
    }

    #[test]
    fn dense_mode_rejects_wide_layers() {
        use crate::catalog::Registry;
        let err = Registry::shared()
            .parse("random(layers=4,width=8192)")
            .unwrap_err();
        assert!(err.to_string().contains("deg"), "{err}");
        // The same width is fine in sparse mode.
        assert!(Registry::shared()
            .parse("random(layers=4,width=8192,deg=2)")
            .is_ok());
    }
}
