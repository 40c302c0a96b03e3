//! Topological orders, depth levels, and the critical path.
//!
//! A topological order of the CDAG is exactly a legal *sequential schedule*
//! under the no-recomputation Red-Blue-White game: rule R3 fires each vertex
//! once, after all its predecessors. The pebble-game executors in `dmc-core`
//! consume the orders produced here.

use crate::graph::{Cdag, VertexId};

/// Returns a topological order of `g` (Kahn's algorithm, FIFO tie-breaking).
///
/// The builder guarantees acyclicity, so this always succeeds and visits all
/// vertices. The order is fully deterministic: the ready queue is seeded in
/// ascending id order and drained FIFO.
///
/// ```
/// use dmc_cdag::builder::CdagBuilder;
/// use dmc_cdag::topo::{is_valid_topological_order, topological_order};
///
/// let mut b = CdagBuilder::new();
/// let a = b.add_input("a");
/// let x = b.add_op("x", &[a]);
/// b.tag_output(x);
/// let g = b.build().unwrap();
/// let order = topological_order(&g);
/// assert_eq!(order, vec![a, x]);
/// assert!(is_valid_topological_order(&g, &order));
/// ```
pub fn topological_order(g: &Cdag) -> Vec<VertexId> {
    let n = g.num_vertices();
    let mut indeg: Vec<u32> = (0..n)
        .map(|i| g.in_degree(VertexId(i as u32)) as u32)
        .collect();
    // `order` is its own FIFO: `order[head..]` is the ready queue.
    let mut order = Vec::with_capacity(n);
    order.extend(g.vertices().filter(|v| indeg[v.index()] == 0));
    let mut head = 0;
    while let Some(&u) = order.get(head) {
        head += 1;
        for &v in g.successors(u) {
            indeg[v.index()] -= 1;
            if indeg[v.index()] == 0 {
                order.push(v);
            }
        }
    }
    debug_assert_eq!(order.len(), n, "builder-validated CDAG must be acyclic");
    order
}

/// Returns a topological order that visits vertices in depth-first
/// post-order (finishing-time order). Compared to Kahn's breadth-first
/// order this tends to keep producer–consumer chains adjacent, which makes
/// it a better *schedule* for the cache-simulating game executors.
pub fn dfs_topological_order(g: &Cdag) -> Vec<VertexId> {
    let n = g.num_vertices();
    let mut state = vec![0u8; n]; // 0 = unvisited, 1 = on stack, 2 = done
    let mut order = Vec::with_capacity(n);
    let mut stack: Vec<(VertexId, usize)> = Vec::new();
    for root in (0..n).map(|i| VertexId(i as u32)) {
        if state[root.index()] != 0 {
            continue;
        }
        stack.push((root, 0));
        state[root.index()] = 1;
        while let Some(&mut (u, ref mut next)) = stack.last_mut() {
            let succs = g.successors(u);
            if *next < succs.len() {
                let v = succs[*next];
                *next += 1;
                if state[v.index()] == 0 {
                    state[v.index()] = 1;
                    stack.push((v, 0));
                }
            } else {
                state[u.index()] = 2;
                order.push(u);
                stack.pop();
            }
        }
    }
    order.reverse();
    order
}

/// Completes a *preferred* firing sequence into a full topological order.
///
/// Every vertex yielded by `preferred` is emitted after its not-yet-emitted
/// ancestors, which are pulled in depth-first (predecessor-declaration
/// order); vertices the preference never reaches are appended the same way
/// in ascending id order. The result is always a valid topological order
/// covering every vertex, whatever the preference was.
///
/// This is the workhorse behind the kernel catalog's schedule hooks: a
/// kernel describes only the cache-friendly *traversal* (tile order, a
/// blocked sweep of the output blocks) and the dependence closure — inputs
/// and intermediate producers — follows automatically, each value
/// materializing right before its first use.
///
/// ```
/// use dmc_cdag::builder::CdagBuilder;
/// use dmc_cdag::topo::{complete_order, is_valid_topological_order};
///
/// let mut b = CdagBuilder::new();
/// let x = b.add_input("x");
/// let y = b.add_input("y");
/// let p = b.add_op("p", &[x, y]);
/// let q = b.add_op("q", &[p]);
/// b.tag_output(q);
/// let g = b.build().unwrap();
///
/// // Prefer firing `q` first: its ancestors x, y, p are pulled in ahead
/// // of it, depth-first, and nothing is emitted twice.
/// let order = complete_order(&g, [q]);
/// assert_eq!(order, vec![x, y, p, q]);
/// assert!(is_valid_topological_order(&g, &order));
/// ```
pub fn complete_order(g: &Cdag, preferred: impl IntoIterator<Item = VertexId>) -> Vec<VertexId> {
    let n = g.num_vertices();
    let mut emitted = vec![false; n];
    let mut order = Vec::with_capacity(n);
    // Iterative DFS over unemitted ancestors. A vertex can be pushed more
    // than once (shared ancestor reached along two paths before either
    // emits it); the emitted check on pop makes the duplicate a no-op.
    let mut stack: Vec<(VertexId, usize)> = Vec::new();
    let mut emit_with_ancestors =
        |root: VertexId, emitted: &mut Vec<bool>, order: &mut Vec<VertexId>| {
            if emitted[root.index()] {
                return;
            }
            stack.push((root, 0));
            while let Some(&mut (u, ref mut next)) = stack.last_mut() {
                if emitted[u.index()] {
                    stack.pop();
                    continue;
                }
                let preds = g.predecessors(u);
                if *next < preds.len() {
                    let p = preds[*next];
                    *next += 1;
                    if !emitted[p.index()] {
                        stack.push((p, 0));
                    }
                } else {
                    emitted[u.index()] = true;
                    order.push(u);
                    stack.pop();
                }
            }
        };
    for v in preferred {
        emit_with_ancestors(v, &mut emitted, &mut order);
    }
    for i in 0..n {
        emit_with_ancestors(VertexId(i as u32), &mut emitted, &mut order);
    }
    debug_assert_eq!(order.len(), n, "completion must cover all vertices");
    order
}

/// `true` if `order` is a permutation of all vertices respecting every edge.
pub fn is_valid_topological_order(g: &Cdag, order: &[VertexId]) -> bool {
    if order.len() != g.num_vertices() {
        return false;
    }
    let mut pos = vec![usize::MAX; g.num_vertices()];
    for (i, &v) in order.iter().enumerate() {
        if v.index() >= g.num_vertices() || pos[v.index()] != usize::MAX {
            return false;
        }
        pos[v.index()] = i;
    }
    g.edges().all(|(u, v)| pos[u.index()] < pos[v.index()])
}

/// Longest-path depth of each vertex: sources have depth 0, and
/// `depth(v) = 1 + max(depth(pred))` otherwise.
///
/// The maximum depth + 1 is the critical-path length — a lower bound on
/// parallel steps with unbounded processors.
pub fn depths(g: &Cdag) -> Vec<u32> {
    let order = topological_order(g);
    let mut depth = vec![0u32; g.num_vertices()];
    for &v in &order {
        let d = g
            .predecessors(v)
            .iter()
            .map(|p| depth[p.index()] + 1)
            .max()
            .unwrap_or(0);
        depth[v.index()] = d;
    }
    depth
}

/// Groups vertices by [`depths`] level: `levels()[d]` lists all vertices at
/// depth `d`. This is the classic "level schedule" / BSP wavefront order.
pub fn levels(g: &Cdag) -> Vec<Vec<VertexId>> {
    let depth = depths(g);
    let max = depth.iter().copied().max().map_or(0, |d| d as usize + 1);
    let mut out = vec![Vec::new(); max];
    for v in g.vertices() {
        out[depth[v.index()] as usize].push(v);
    }
    out
}

/// Length (vertex count) of the longest path in `g`; 0 for an empty graph.
pub fn critical_path_len(g: &Cdag) -> usize {
    depths(g)
        .iter()
        .copied()
        .max()
        .map_or(0, |d| d as usize + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CdagBuilder;

    fn chain(k: usize) -> Cdag {
        let mut b = CdagBuilder::new();
        let mut prev = b.add_input("x0");
        for i in 1..k {
            prev = b.add_op(format!("x{i}"), &[prev]);
        }
        b.tag_output(prev);
        b.build().unwrap()
    }

    fn diamond() -> Cdag {
        let mut b = CdagBuilder::new();
        let a = b.add_input("a");
        let x = b.add_op("b", &[a]);
        let y = b.add_op("c", &[a]);
        let d = b.add_op("d", &[x, y]);
        b.tag_output(d);
        b.build().unwrap()
    }

    #[test]
    fn kahn_order_is_valid() {
        let g = diamond();
        let order = topological_order(&g);
        assert!(is_valid_topological_order(&g, &order));
    }

    #[test]
    fn dfs_order_is_valid() {
        let g = diamond();
        let order = dfs_topological_order(&g);
        assert!(is_valid_topological_order(&g, &order));
        let g = chain(50);
        assert!(is_valid_topological_order(&g, &dfs_topological_order(&g)));
    }

    #[test]
    fn invalid_orders_rejected() {
        let g = diamond();
        // Reversed order violates edges.
        let mut order = topological_order(&g);
        order.reverse();
        assert!(!is_valid_topological_order(&g, &order));
        // Wrong length.
        assert!(!is_valid_topological_order(&g, &order[..2]));
        // Duplicate vertex.
        let dup = vec![order[0], order[0], order[1], order[2]];
        assert!(!is_valid_topological_order(&g, &dup));
    }

    #[test]
    fn depths_on_chain_and_diamond() {
        let g = chain(5);
        assert_eq!(depths(&g), vec![0, 1, 2, 3, 4]);
        assert_eq!(critical_path_len(&g), 5);
        let g = diamond();
        assert_eq!(depths(&g), vec![0, 1, 1, 2]);
        assert_eq!(critical_path_len(&g), 3);
    }

    #[test]
    fn levels_partition_all_vertices() {
        let g = diamond();
        let lv = levels(&g);
        assert_eq!(lv.len(), 3);
        assert_eq!(lv[0].len(), 1);
        assert_eq!(lv[1].len(), 2);
        assert_eq!(lv[2].len(), 1);
        let total: usize = lv.iter().map(|l| l.len()).sum();
        assert_eq!(total, g.num_vertices());
    }

    #[test]
    fn complete_order_respects_preference_and_pulls_ancestors() {
        let g = diamond();
        // Prefer the sink first: everything is pulled in before it.
        let sink = VertexId(3);
        let order = complete_order(&g, [sink]);
        assert!(is_valid_topological_order(&g, &order));
        assert_eq!(order.last(), Some(&sink));
        // An empty preference appends everything in id order.
        let order = complete_order(&g, []);
        assert!(is_valid_topological_order(&g, &order));
        assert_eq!(order.len(), g.num_vertices());
    }

    #[test]
    fn complete_order_ignores_duplicates_and_covers_stragglers() {
        let g = chain(6);
        let mid = VertexId(3);
        // Duplicated and out-of-order preferences still produce a valid
        // permutation covering every vertex exactly once.
        let order = complete_order(&g, [mid, mid, VertexId(1)]);
        assert!(is_valid_topological_order(&g, &order));
        // The preferred prefix: 0..=3 (ancestors of mid), then the rest.
        assert_eq!(&order[..4], &[VertexId(0), VertexId(1), VertexId(2), mid]);
    }

    #[test]
    fn empty_graph_edge_cases() {
        let g = CdagBuilder::new().build().unwrap();
        assert!(topological_order(&g).is_empty());
        assert_eq!(critical_path_len(&g), 0);
        assert!(levels(&g).is_empty());
    }
}
