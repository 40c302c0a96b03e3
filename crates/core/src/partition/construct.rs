//! Constructing S-partitions.
//!
//! * [`from_trace`] — the Theorem-1 construction: slice a complete RBW
//!   game into intervals of at most `S` I/O moves; the vertices fired in
//!   each interval form the blocks of a valid `2S`-partition.
//! * [`greedy_partition`] — a schedule-driven greedy partitioner producing
//!   valid S-partitions whose block count *over*-estimates the minimum
//!   `H(S)` (useful as a diagnostic and for the partition ablation bench,
//!   **not** as a lower bound).

use super::SPartition;
use crate::games::{GameTrace, Move};
use dmc_cdag::subgraph::{input_set, output_set};
use dmc_cdag::{BitSet, Cdag, VertexId};

/// Result of the Theorem-1 construction: the partition plus the raw
/// interval count `h` (which includes compute-free intervals that
/// contribute no block but do count toward `S·h ≥ q`).
#[derive(Debug, Clone)]
pub struct TracePartition {
    /// The (non-empty) blocks as an S-partition.
    pub partition: SPartition,
    /// Total interval count `h`, including compute-free intervals.
    pub intervals: usize,
}

/// Theorem-1 construction: slices a complete RBW game into consecutive
/// intervals of at most `s` I/O moves each; the vertices fired in interval
/// `i` form block `V_i`. The blocks are a valid `2s`-partition and the
/// interval count `h` satisfies `s·h ≥ q ≥ s·(h−1)` where `q` is the
/// trace's I/O count.
pub fn from_trace(g: &Cdag, trace: &GameTrace, s: usize) -> TracePartition {
    assert!(s > 0);
    let n = g.num_vertices();
    let mut blocks: Vec<BitSet> = Vec::new();
    let mut current = BitSet::new(n);
    let mut intervals = 1usize;
    let mut io_in_interval = 0usize;
    for &mv in &trace.moves {
        if mv.is_io() {
            if io_in_interval == s {
                if !current.is_empty() {
                    blocks.push(std::mem::replace(&mut current, BitSet::new(n)));
                }
                current.clear();
                intervals += 1;
                io_in_interval = 0;
            }
            io_in_interval += 1;
        }
        if let Move::Compute(v) = mv {
            current.insert(v.index());
        }
    }
    if !current.is_empty() {
        blocks.push(current);
    }
    TracePartition {
        partition: SPartition { blocks },
        intervals,
    }
}

/// Greedy schedule partitioner: walks `order` (must be topological) and
/// closes the current block whenever adding the next vertex would push
/// `|In(V_i)|` or `|Out(V_i)|` beyond `s`. Because blocks are contiguous
/// intervals of a topological order the quotient is automatically acyclic.
///
/// Inputs (tagged) are excluded from blocks per Definition 5.
pub fn greedy_partition(g: &Cdag, order: &[VertexId], s: usize) -> SPartition {
    assert!(s > 0);
    let n = g.num_vertices();
    let mut blocks = Vec::new();
    let mut current = BitSet::new(n);
    for &v in order {
        if g.is_input(v) {
            continue;
        }
        let mut candidate = current.clone();
        candidate.insert(v.index());
        if input_set(g, &candidate).len() > s || output_set(g, &candidate).len() > s {
            if !current.is_empty() {
                blocks.push(std::mem::replace(&mut current, BitSet::new(n)));
            }
            current.clear();
            current.insert(v.index());
            // A single vertex must always fit (its in-degree may exceed s,
            // in which case no valid S-partition with this s exists —
            // surface that loudly).
            assert!(
                input_set(g, &current).len() <= s && output_set(g, &current).len() <= s,
                "vertex {v} alone violates the S-partition conditions for S = {s}"
            );
        } else {
            current = candidate;
        }
    }
    if !current.is_empty() {
        blocks.push(current);
    }
    SPartition { blocks }
}

/// Topological interval clustering: splits `order` (must be a
/// topological order of `g`) into `clusters` contiguous intervals of
/// (near-)equal size and returns the per-vertex cluster assignment.
///
/// Unlike [`greedy_partition`] this covers **all** vertices — inputs
/// included — because its consumer is Theorem 2's disjoint-partition
/// composition (which needs a total cover), not Definition 5's
/// S-partition. Because clusters are contiguous intervals of a
/// topological order, every edge goes from a cluster to itself or a
/// later one, so the cluster quotient is acyclic by construction
/// (Theorem 2 itself needs no order among the clusters).
///
/// `clusters` is clamped to `1..=|V|`; the assignment is deterministic
/// given `order` (the pipeline feeds the Kahn order, itself
/// deterministic).
pub fn topological_clusters(g: &Cdag, order: &[VertexId], clusters: usize) -> Vec<usize> {
    let n = g.num_vertices();
    assert_eq!(order.len(), n, "order must cover every vertex");
    let k = clusters.clamp(1, n.max(1));
    let mut assignment = vec![0usize; n];
    for (pos, v) in order.iter().enumerate() {
        // Balanced intervals: cluster of position p is ⌊p·k/n⌋, which
        // yields k non-empty intervals whose sizes differ by at most 1.
        assignment[v.index()] = pos * k / n;
    }
    assignment
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::games::executor::{execute_rbw, EvictionPolicy};
    use crate::partition::validate_rbw;
    use dmc_cdag::subgraph::QuotientGraph;
    use dmc_cdag::topo::topological_order;
    use dmc_kernels::{chains, fft, matmul};

    #[test]
    fn trace_construction_yields_valid_2s_partition() {
        for g in [matmul::matmul(3), fft::fft(8), chains::ladder(4, 4)] {
            let order = topological_order(&g);
            for s in [4usize, 6, 10] {
                if let Ok(game) = execute_rbw(&g, s, &order, EvictionPolicy::Lru) {
                    let tp = from_trace(&g, &game.trace, s);
                    assert_eq!(
                        validate_rbw(&g, &tp.partition, 2 * s),
                        Ok(()),
                        "S={s} on {g:?}"
                    );
                    // Theorem 1: S·h ≥ q ≥ S·(h−1), with h the raw
                    // interval count.
                    let h = tp.intervals as u64;
                    assert!(
                        (s as u64) * h >= game.io,
                        "S={s}: S·h = {} < q = {}",
                        s as u64 * h,
                        game.io
                    );
                    assert!(game.io >= (s as u64) * (h - 1), "S={s}");
                }
            }
        }
    }

    #[test]
    fn greedy_partition_is_valid() {
        for g in [matmul::matmul(3), fft::fft(8)] {
            let order = topological_order(&g);
            for s in [8usize, 16, 32] {
                let p = greedy_partition(&g, &order, s);
                assert_eq!(validate_rbw(&g, &p, s), Ok(()), "S={s}");
                // Covers all compute vertices.
                let covered: usize = p.blocks.iter().map(|b| b.len()).sum();
                assert_eq!(covered, g.num_compute_vertices());
            }
        }
    }

    #[test]
    fn greedy_blocks_grow_with_s() {
        let g = matmul::matmul(4);
        let order = topological_order(&g);
        let h_small = greedy_partition(&g, &order, 8).num_blocks();
        let h_large = greedy_partition(&g, &order, 64).num_blocks();
        assert!(h_large < h_small, "{h_large} !< {h_small}");
    }

    #[test]
    fn topological_clusters_cover_and_contract() {
        let g = matmul::matmul(4);
        let order = topological_order(&g);
        for k in [1usize, 2, 5, 16] {
            let assignment = topological_clusters(&g, &order, k);
            assert_eq!(assignment.len(), g.num_vertices());
            let kk = k.min(g.num_vertices());
            // Every cluster non-empty, numbering contiguous.
            let mut sizes = vec![0usize; kk];
            for &c in &assignment {
                sizes[c] += 1;
            }
            assert!(sizes.iter().all(|&s| s > 0), "k = {k}: {sizes:?}");
            // Interval clustering of a topo order: every crossing edge
            // goes forward, to a later cluster.
            let q = QuotientGraph::new(&g, &assignment);
            assert!(
                q.edges.iter().all(|&(a, b)| a < b),
                "k = {k}: {:?}",
                q.edges
            );
        }
        // Oversized k clamps to |V|.
        let assignment = topological_clusters(&g, &order, 10 * g.num_vertices());
        assert_eq!(assignment.iter().max().copied(), Some(g.num_vertices() - 1));
    }

    #[test]
    #[should_panic(expected = "violates the S-partition conditions")]
    fn impossible_s_panics() {
        // matmul(3) outputs have in-degree 2; with S = 1 even singleton
        // blocks of accumulation vertices violate |In| <= 1.
        let g = matmul::matmul(3);
        let order = topological_order(&g);
        let _ = greedy_partition(&g, &order, 1);
    }
}
