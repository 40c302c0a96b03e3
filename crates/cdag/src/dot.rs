//! Graphviz DOT export for visual inspection of small CDAGs.

use crate::graph::Cdag;
use std::fmt::Write as _;

/// Renders `g` in Graphviz DOT syntax.
///
/// Inputs are drawn as blue boxes, outputs as double circles, plain
/// computational vertices as ellipses. Labels fall back to the vertex id
/// when empty.
pub fn to_dot(g: &Cdag) -> String {
    let mut out = String::with_capacity(64 * g.num_vertices());
    out.push_str("digraph cdag {\n  rankdir=TB;\n");
    for v in g.vertices() {
        let label = if g.label(v).is_empty() {
            format!("{v}")
        } else {
            g.label(v).replace('"', "\\\"")
        };
        let attrs = match (g.is_input(v), g.is_output(v)) {
            (true, true) => "shape=box, style=filled, fillcolor=lightblue, peripheries=2",
            (true, false) => "shape=box, style=filled, fillcolor=lightblue",
            (false, true) => "shape=doublecircle",
            (false, false) => "shape=ellipse",
        };
        let _ = writeln!(out, "  v{} [label=\"{}\", {}];", v.0, label, attrs);
    }
    for (u, v) in g.edges() {
        let _ = writeln!(out, "  v{} -> v{};", u.0, v.0);
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CdagBuilder;

    #[test]
    fn dot_output_contains_all_parts() {
        let mut b = CdagBuilder::new();
        let a = b.add_input("a");
        let z = b.add_op("a*2", &[a]);
        b.tag_output(z);
        let g = b.build().unwrap();
        let dot = to_dot(&g);
        assert!(dot.starts_with("digraph cdag {"));
        assert!(dot.contains("v0 [label=\"a\""));
        assert!(dot.contains("fillcolor=lightblue"));
        assert!(dot.contains("doublecircle"));
        assert!(dot.contains("v0 -> v1;"));
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn quotes_escaped() {
        let mut b = CdagBuilder::new();
        b.add_input("say \"hi\"");
        let g = b.build().unwrap();
        assert!(to_dot(&g).contains("say \\\"hi\\\""));
    }
}
