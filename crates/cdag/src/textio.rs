//! A simple line-oriented text format for CDAGs, for persisting generated
//! graphs and interchanging them with external pebbling tools.
//!
//! ```text
//! # comment
//! cdag 4            # vertex count
//! v 0 in  "a"       # id, tag (in/out/op/inout), label
//! v 1 op  "b"
//! v 2 op  "c"
//! v 3 out "d"
//! e 0 1             # edge source target
//! e 0 2
//! e 1 3
//! e 2 3
//! ```

use crate::builder::CdagBuilder;
use crate::graph::{Cdag, VertexId};
use std::fmt::Write as _;

/// Serializes `g` to the text format.
pub fn to_text(g: &Cdag) -> String {
    let mut out = String::with_capacity(32 * g.num_vertices());
    let _ = writeln!(out, "cdag {}", g.num_vertices());
    for v in g.vertices() {
        let tag = match (g.is_input(v), g.is_output(v)) {
            (true, true) => "inout",
            (true, false) => "in",
            (false, true) => "out",
            (false, false) => "op",
        };
        let label = g.label(v).replace('\\', "\\\\").replace('"', "\\\"");
        let _ = writeln!(out, "v {} {} \"{}\"", v.0, tag, label);
    }
    for (u, v) in g.edges() {
        let _ = writeln!(out, "e {} {}", u.0, v.0);
    }
    out
}

/// Errors reported by [`from_text`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The `cdag N` header is missing or malformed.
    MissingHeader,
    /// A line could not be parsed; the payload is (line number, content).
    BadLine(usize, String),
    /// A vertex id is out of the declared range or duplicated.
    BadVertex(usize),
    /// The resulting graph failed structural validation.
    Structural(String),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::MissingHeader => write!(f, "missing 'cdag N' header"),
            ParseError::BadLine(n, l) => write!(f, "cannot parse line {n}: {l:?}"),
            ParseError::BadVertex(v) => write!(f, "bad or duplicate vertex id {v}"),
            ParseError::Structural(e) => write!(f, "structural error: {e}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Strips a trailing `# comment` from `line`, honouring double quotes: a
/// `#` inside a quoted label (with `\"`/`\\` escapes) is content, not a
/// comment marker.
fn strip_comment(line: &str) -> &str {
    let mut in_quotes = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_quotes => escaped = true,
            '"' => in_quotes = !in_quotes,
            '#' if !in_quotes => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Reverses the label escaping of [`to_text`] (`\\` → `\`, `\"` → `"`).
fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            // A trailing lone backslash cannot be produced by `to_text`;
            // keep it verbatim rather than dropping input.
            out.push(chars.next().unwrap_or('\\'));
        } else {
            out.push(c);
        }
    }
    out
}

/// Parses the text format back into a [`Cdag`].
///
/// Vertices must be declared with consecutive ids `0..N` before use;
/// `#`-prefixed suffixes (outside quoted labels) and blank lines are
/// ignored.
pub fn from_text(text: &str) -> Result<Cdag, ParseError> {
    let mut lines = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, strip_comment(l).trim()))
        .filter(|(_, l)| !l.is_empty());
    let (_, header) = lines.next().ok_or(ParseError::MissingHeader)?;
    let n: usize = header
        .strip_prefix("cdag ")
        .and_then(|r| r.trim().parse().ok())
        .ok_or(ParseError::MissingHeader)?;
    // Nothing is sized from the untrusted header: the builder grows with
    // the vertices actually declared.
    let mut b = CdagBuilder::new();
    let mut next_expected = 0usize;
    for (lineno, line) in lines {
        let mut parts = line.splitn(2, ' ');
        match parts.next() {
            Some("v") => {
                let rest = parts.next().ok_or_else(|| bad(lineno, line))?;
                let mut it = rest.splitn(3, ' ');
                let id: usize = it
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| bad(lineno, line))?;
                let tag = it.next().ok_or_else(|| bad(lineno, line))?;
                let label_raw = it.next().unwrap_or("\"\"").trim();
                let label = unescape(
                    label_raw
                        .strip_prefix('"')
                        .and_then(|s| s.strip_suffix('"'))
                        .unwrap_or(label_raw),
                );
                if id >= n || id != next_expected {
                    return Err(ParseError::BadVertex(id));
                }
                next_expected += 1;
                let vid = b.add_vertex(label);
                debug_assert_eq!(vid.0 as usize, id);
                match tag {
                    "in" => b.tag_input(vid),
                    "out" => b.tag_output(vid),
                    "inout" => {
                        b.tag_input(vid);
                        b.tag_output(vid);
                    }
                    "op" => {}
                    _ => return Err(bad(lineno, line)),
                }
            }
            Some("e") => {
                let rest = parts.next().ok_or_else(|| bad(lineno, line))?;
                let mut it = rest.split_whitespace();
                let u: u32 = it
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| bad(lineno, line))?;
                let v: u32 = it
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| bad(lineno, line))?;
                b.add_edge(VertexId(u), VertexId(v));
            }
            _ => return Err(bad(lineno, line)),
        }
    }
    if next_expected != n {
        return Err(ParseError::BadVertex(next_expected));
    }
    b.build().map_err(|e| ParseError::Structural(e.to_string()))
}

fn bad(lineno: usize, line: &str) -> ParseError {
    ParseError::BadLine(lineno, line.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Cdag {
        let mut b = CdagBuilder::new();
        let a = b.add_input("a");
        let x = b.add_op("b\"quoted\"", &[a]);
        let y = b.add_op("c", &[a]);
        let d = b.add_op("d", &[x, y]);
        b.tag_output(d);
        b.build().unwrap()
    }

    #[test]
    fn hash_in_label_round_trips() {
        // Regression: comment stripping used to run before quote parsing,
        // so a '#' inside a label truncated the line and the graph
        // round-tripped to different labels.
        let mut b = CdagBuilder::new();
        let a = b.add_input("tile #3");
        let x = b.add_op("#lead \\ mix \"#q\"", &[a]);
        b.tag_output(x);
        let g = b.build().unwrap();
        let g2 = from_text(&to_text(&g)).unwrap();
        for v in g.vertices() {
            assert_eq!(g.label(v), g2.label(v), "label of {v}");
        }
        assert_eq!(g.num_edges(), g2.num_edges());
    }

    #[test]
    fn comment_after_quoted_label_still_stripped() {
        let text = "cdag 1\nv 0 op \"a#b\" # trailing comment\n";
        let g = from_text(text).unwrap();
        assert_eq!(g.label(VertexId(0)), "a#b");
    }

    #[test]
    fn round_trip_preserves_everything() {
        let g = diamond();
        let text = to_text(&g);
        let g2 = from_text(&text).unwrap();
        assert_eq!(g.num_vertices(), g2.num_vertices());
        assert_eq!(g.num_edges(), g2.num_edges());
        assert_eq!(
            g.edges().collect::<Vec<_>>(),
            g2.edges().collect::<Vec<_>>()
        );
        for v in g.vertices() {
            assert_eq!(g.is_input(v), g2.is_input(v));
            assert_eq!(g.is_output(v), g2.is_output(v));
            assert_eq!(g.label(v), g2.label(v), "label of {v}");
        }
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "# header comment\ncdag 2\n\nv 0 in \"x\"  # the input\nv 1 out \"y\"\ne 0 1\n";
        let g = from_text(text).unwrap();
        assert_eq!(g.num_vertices(), 2);
        assert_eq!(g.num_edges(), 1);
        assert!(g.is_input(VertexId(0)));
    }

    #[test]
    fn errors_reported() {
        assert!(matches!(from_text(""), Err(ParseError::MissingHeader)));
        assert!(matches!(
            from_text("nope 3"),
            Err(ParseError::MissingHeader)
        ));
        assert!(matches!(
            from_text("cdag 1\nv 0 weird \"x\""),
            Err(ParseError::BadLine(_, _))
        ));
        assert!(matches!(
            from_text("cdag 2\nv 1 op \"x\""),
            Err(ParseError::BadVertex(1))
        ));
        // Cycle surfaces as a structural error.
        assert!(matches!(
            from_text("cdag 2\nv 0 op \"a\"\nv 1 op \"b\"\ne 0 1\ne 1 0"),
            Err(ParseError::Structural(_))
        ));
        // Missing vertex declarations.
        assert!(matches!(
            from_text("cdag 3\nv 0 op \"a\""),
            Err(ParseError::BadVertex(1))
        ));
        // A repeated id is out of sequence.
        assert!(matches!(
            from_text("cdag 2\nv 0 op \"a\"\nv 0 op \"b\""),
            Err(ParseError::BadVertex(0))
        ));
        // A header alone is an error, not an allocation: sizing anything
        // from it would ask for ~96 GB of labels.
        assert!(matches!(
            from_text("cdag 4000000000"),
            Err(ParseError::BadVertex(0))
        ));
    }

    #[test]
    fn inout_round_trips() {
        let mut b = CdagBuilder::new();
        let a = b.add_input("a");
        b.tag_output(a);
        let g = b.build().unwrap();
        let g2 = from_text(&to_text(&g)).unwrap();
        assert!(g2.is_input(VertexId(0)) && g2.is_output(VertexId(0)));
    }
}
