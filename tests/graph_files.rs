//! The `.cdag` sample files shipped under `examples/graphs/` must parse,
//! round-trip through `textio` losslessly, and stay in sync with the
//! shapes their headers promise.

use dmc::cdag::textio::{from_text, to_text};
use dmc::cdag::{Cdag, VertexId};
use dmc::core::pipeline::{Analyzer, AnalyzerConfig, HierarchicalOptions};
use std::path::PathBuf;

fn read_graph(name: &str) -> (String, Cdag) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("examples/graphs")
        .join(name);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
    let g = from_text(&text).unwrap_or_else(|e| panic!("parse {path:?}: {e}"));
    (text, g)
}

fn assert_round_trips(name: &str) {
    let (_, g) = read_graph(name);
    let g2 = from_text(&to_text(&g)).expect("serialized form re-parses");
    assert_eq!(g.num_vertices(), g2.num_vertices(), "{name}");
    assert_eq!(
        g.edges().collect::<Vec<_>>(),
        g2.edges().collect::<Vec<_>>(),
        "{name}"
    );
    for v in g.vertices() {
        assert_eq!(g.label(v), g2.label(v), "{name}: label of {v}");
        assert_eq!(g.is_input(v), g2.is_input(v), "{name}: input tag of {v}");
        assert_eq!(g.is_output(v), g2.is_output(v), "{name}: output tag of {v}");
    }
}

#[test]
fn every_shipped_graph_round_trips() {
    for name in [
        "diamond.cdag",
        "ladder.cdag",
        "composite.cdag",
        "reversed.cdag",
    ] {
        assert_round_trips(name);
    }
}

#[test]
fn diamond_exercises_quoting() {
    let (_, g) = read_graph("diamond.cdag");
    assert_eq!(g.num_vertices(), 4);
    assert_eq!(g.num_edges(), 4);
    // The quoted-label corner cases the file exists to exercise.
    assert_eq!(g.label(VertexId(0)), "input #0");
    assert_eq!(g.label(VertexId(1)), "left \"branch\"");
    assert_eq!(g.label(VertexId(2)), "right \\ branch");
    assert_eq!(g.label(VertexId(3)), "join #3 \"d\"");
    assert!(g.is_input(VertexId(0)) && g.is_output(VertexId(3)));
}

#[test]
fn ladder_matches_generator() {
    let (_, g) = read_graph("ladder.cdag");
    let reference = dmc::kernels::chains::ladder(4, 4);
    assert_eq!(g.num_vertices(), reference.num_vertices());
    assert_eq!(
        g.edges().collect::<Vec<_>>(),
        reference.edges().collect::<Vec<_>>()
    );
}

#[test]
fn composite_has_two_components() {
    let (text, g) = read_graph("composite.cdag");
    assert!(text.starts_with('#'), "header comment expected");
    let comps = dmc::cdag::weakly_connected_components(&g);
    assert_eq!(comps.count, 2);
    assert_eq!(comps.sizes(), vec![64, 49]);
}

/// `reversed.cdag` is the diamond numbered sink first, so the builder
/// must fall back to Kahn's algorithm (some edge runs from a higher id to
/// a lower one); renumbering changes no bound, flat or hierarchical.
#[test]
fn reversed_diamond_bounds_match_diamond() {
    let (_, reversed) = read_graph("reversed.cdag");
    let (_, diamond) = read_graph("diamond.cdag");
    assert!(
        reversed.edges().any(|(u, v)| u > v),
        "reversed.cdag must have an edge from a higher id to a lower one"
    );
    assert!(diamond.edges().all(|(u, v)| u < v));
    for sram in [1, 2, 4] {
        let analyzer = Analyzer::new(AnalyzerConfig {
            sram,
            ..AnalyzerConfig::default()
        });
        let opts = HierarchicalOptions::default();
        for (what, r, d) in [
            (
                "flat",
                analyzer.analyze(&reversed),
                analyzer.analyze(&diamond),
            ),
            (
                "hierarchical",
                analyzer.analyze_hierarchical(&reversed, &opts),
                analyzer.analyze_hierarchical(&diamond, &opts),
            ),
        ] {
            assert_eq!(r.bound.value, d.bound.value, "{what} bound at S = {sram}");
            assert_eq!(
                r.bound.method, d.bound.method,
                "{what} method at S = {sram}"
            );
        }
    }
}
