//! I/O lower-bound machinery.
//!
//! * [`mincut`] — Lemma 2 wavefront bounds with automated anchor sampling;
//! * [`decompose`] — the composition combinators: Theorem 2 (disjoint
//!   decomposition), Corollary 2 (input/output deletion), Theorem 3
//!   (tagging/untagging) and Theorem 4 (non-disjoint decomposition);
//! * the 2S-partition bounds (Lemma 1 / Corollary 1) live in
//!   [`crate::partition`] next to the partition machinery and are
//!   re-exported here.
//!
//! Every bound carries a structured [`Provenance`]: the composition
//! combinators record their sub-bounds as children, so a composed bound
//! is a *derivation tree* — which theorem was applied at each node, with
//! which parameters — rather than a flat note. [`std::fmt::Display`]
//! renders the tree; `serde::Serialize` emits it as JSON.

pub mod decompose;
pub mod mincut;

pub use crate::partition::{corollary1_lower_bound, lemma1_lower_bound};

use serde::json::Value;
use serde::Serialize;

/// Provenance of a bound — which result of the paper produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Lemma 1 / Corollary 1 via 2S-partitions.
    HongKung2S,
    /// Lemma 2 via minimum wavefronts (vertex min-cut).
    Wavefront,
    /// Theorem 2: sum of sub-CDAG bounds.
    Decomposition,
    /// Theorem 3: tag-correction of a bound on a retagged CDAG.
    Tagging,
    /// Corollary 2: input/output deletion correction.
    IoDeletion,
    /// Closed-form kernel-specific bound.
    Analytic,
    /// Theorem 5/6: vertical parallel bound.
    Vertical,
    /// Theorem 7: horizontal parallel bound.
    Horizontal,
    /// Trivial bound: every input loaded, every output stored.
    Trivial,
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Method::HongKung2S => "2S-partition (Lemma 1)",
            Method::Wavefront => "wavefront (Lemma 2)",
            Method::Decomposition => "decomposition (Theorem 2)",
            Method::Tagging => "tagging (Theorem 3)",
            Method::IoDeletion => "I/O deletion (Corollary 2)",
            Method::Analytic => "analytic",
            Method::Vertical => "vertical (Theorems 5-6)",
            Method::Horizontal => "horizontal (Theorem 7)",
            Method::Trivial => "trivial",
        };
        f.write_str(name)
    }
}

impl Serialize for Method {
    fn to_json(&self) -> Value {
        Value::String(self.to_string())
    }
}

/// Structured derivation record of an [`IoBound`].
///
/// Leaf bounds (one theorem applied directly to one CDAG) carry only a
/// parameter `note`; composed bounds (Theorems 2–4, Corollary 2)
/// additionally record the sub-bounds they were built from as `children`,
/// turning the bound into a full derivation tree.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// Parameter/derivation note for this node, e.g.
    /// `"2·(w^max − S) with w^max = 7 at anchor v12 (64 anchors)"`.
    pub note: String,
    /// Sub-bounds this bound was composed from (empty for leaves).
    pub children: Vec<IoBound>,
}

/// A certified I/O bound with provenance.
#[derive(Debug, Clone)]
#[must_use = "a certified bound is evidence; dropping it silently discards the certificate"]
pub struct IoBound {
    /// The bound value, in words moved.
    pub value: f64,
    /// Which result produced it.
    pub method: Method,
    /// How it was derived (parameters + sub-bounds).
    pub provenance: Provenance,
}

impl IoBound {
    /// Creates a leaf bound (no sub-bounds).
    pub fn new(value: f64, method: Method, note: impl Into<String>) -> Self {
        IoBound {
            value: value.max(0.0),
            method,
            provenance: Provenance {
                note: note.into(),
                children: Vec::new(),
            },
        }
    }

    /// Creates a composed bound recording the sub-bounds it was derived
    /// from — the provenance-tree constructor used by the Theorem-2/3/4
    /// combinators in [`decompose`].
    pub fn composed(
        value: f64,
        method: Method,
        note: impl Into<String>,
        children: Vec<IoBound>,
    ) -> Self {
        IoBound {
            value: value.max(0.0),
            method,
            provenance: Provenance {
                note: note.into(),
                children,
            },
        }
    }

    /// The trivial lower bound `|I| + |O \ I|`: every input must be loaded
    /// at least once (inputs only acquire their white pebble via R1), and
    /// every output that is not itself an input must be stored at least
    /// once (inputs start blue and need no store).
    pub fn trivial(g: &dmc_cdag::Cdag) -> Self {
        let mut pure_outputs = g.outputs().clone();
        pure_outputs.difference_with(g.inputs());
        IoBound::trivial_counts(g.num_inputs(), pure_outputs.len())
    }

    /// [`IoBound::trivial`] of a CDAG with `inputs` tagged inputs and
    /// `pure_outputs` tagged outputs that are not inputs (`|O \ I|`), for
    /// callers that hold the counts but not the graph.
    pub fn trivial_counts(inputs: usize, pure_outputs: usize) -> Self {
        IoBound::new(
            (inputs + pure_outputs) as f64,
            Method::Trivial,
            format!("|I| + |O \\ I| = {inputs} + {pure_outputs}"),
        )
    }

    fn fmt_tree(&self, f: &mut std::fmt::Formatter<'_>, depth: usize) -> std::fmt::Result {
        writeln!(
            f,
            "{:indent$}>= {:<8} {} — {}",
            "",
            self.value,
            self.method,
            self.provenance.note,
            indent = 2 * depth
        )?;
        for child in &self.provenance.children {
            child.fmt_tree(f, depth + 1)?;
        }
        Ok(())
    }
}

/// Renders the full derivation tree, one node per line, children indented.
impl std::fmt::Display for IoBound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.fmt_tree(f, 0)
    }
}

impl Serialize for IoBound {
    fn to_json(&self) -> Value {
        Value::object([
            ("value", self.value.to_json()),
            ("method", self.method.to_json()),
            ("note", self.provenance.note.to_json()),
            ("children", self.provenance.children.to_json()),
        ])
    }
}

/// Picks the strongest (largest) of several lower bounds.
///
/// Ordering uses [`f64::total_cmp`] with a first-wins tie-break, so the
/// call is total: a NaN value (possible only via direct struct
/// construction from a degenerate profile — [`IoBound::new`] sanitizes
/// NaN to 0) cannot panic the pipeline. Under `total_cmp` NaN orders
/// above every finite value, which at worst surfaces the degenerate
/// bound for inspection instead of crashing.
pub fn best_lower_bound(bounds: impl IntoIterator<Item = IoBound>) -> Option<IoBound> {
    bounds.into_iter().reduce(|best, candidate| {
        if candidate.value.total_cmp(&best.value).is_gt() {
            candidate
        } else {
            best
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmc_kernels::chains;

    #[test]
    fn trivial_bound_counts_tags() {
        let g = chains::binary_reduction(8);
        let b = IoBound::trivial(&g);
        assert_eq!(b.value, 9.0);
        assert_eq!(b.method, Method::Trivial);
    }

    #[test]
    fn negative_bounds_clamped() {
        let b = IoBound::new(-5.0, Method::Analytic, "negative");
        assert_eq!(b.value, 0.0);
    }

    #[test]
    fn nan_bound_sanitized_by_constructor() {
        let b = IoBound::new(f64::NAN, Method::Analytic, "0/0 profile");
        assert_eq!(b.value, 0.0);
    }

    #[test]
    fn best_picks_max() {
        let best = best_lower_bound([
            IoBound::new(3.0, Method::Trivial, "a"),
            IoBound::new(10.0, Method::Wavefront, "b"),
            IoBound::new(7.0, Method::HongKung2S, "c"),
        ])
        .unwrap();
        assert_eq!(best.value, 10.0);
        assert_eq!(best.method, Method::Wavefront);
    }

    #[test]
    fn best_of_empty_is_none() {
        assert!(best_lower_bound([]).is_none());
    }

    #[test]
    fn best_tie_break_is_first_wins() {
        let best = best_lower_bound([
            IoBound::new(5.0, Method::Trivial, "first"),
            IoBound::new(5.0, Method::Wavefront, "second"),
        ])
        .unwrap();
        assert_eq!(best.method, Method::Trivial);
    }

    /// Regression: `partial_cmp(..).expect("no NaN bounds")` used to panic
    /// when a degenerate profile smuggled a NaN in via direct struct
    /// construction; `total_cmp` keeps the pipeline alive.
    #[test]
    fn nan_bound_does_not_panic() {
        let nan = IoBound {
            value: f64::NAN,
            method: Method::Analytic,
            provenance: Provenance {
                note: "degenerate".into(),
                children: Vec::new(),
            },
        };
        let best = best_lower_bound([IoBound::new(3.0, Method::Trivial, "a"), nan]);
        assert!(best.is_some());
    }

    #[test]
    fn display_renders_the_tree() {
        let child = IoBound::new(4.0, Method::Trivial, "|I| + |O \\ I| = 2 + 2");
        let b = IoBound::composed(
            10.0,
            Method::Decomposition,
            "Σ of 1 sub-CDAG bounds (Theorem 2)",
            vec![child],
        );
        let text = b.to_string();
        let mut lines = text.lines();
        let root = lines.next().unwrap();
        assert!(root.contains("decomposition (Theorem 2)"), "{root}");
        let leaf = lines.next().unwrap();
        assert!(leaf.starts_with("  >= 4"), "{leaf}");
        assert!(leaf.contains("trivial"), "{leaf}");
    }

    #[test]
    fn serialize_emits_nested_json() {
        let b = IoBound::composed(
            6.0,
            Method::Decomposition,
            "sum",
            vec![IoBound::new(6.0, Method::Wavefront, "w = 5")],
        );
        let json = serde::json::to_string(&b);
        assert!(json.starts_with('{'), "{json}");
        assert!(
            json.contains(r#""method":"decomposition (Theorem 2)""#),
            "{json}"
        );
        assert!(json.contains(r#""children":[{"#), "{json}");
        assert!(json.contains(r#""note":"w = 5""#), "{json}");
    }
}
