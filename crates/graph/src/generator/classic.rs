//! Deterministic graph families used as fixtures in tests, examples,
//! and sanity experiments.

use crate::{Graph, GraphBuilder, NodeId};

/// The cycle `C_n` (`n >= 3`): node `i` is adjacent to `i ± 1 (mod n)`.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "a cycle needs at least 3 nodes, got {n}");
    Graph::from_edges(n, (0..n).map(|i| (i as NodeId, ((i + 1) % n) as NodeId)))
        .expect("cycle edges are always valid")
}

/// The path `P_n`: nodes `0..n` connected in a line. `n = 0` and `n = 1`
/// give edgeless graphs.
pub fn path(n: usize) -> Graph {
    if n < 2 {
        return Graph::empty(n);
    }
    Graph::from_edges(n, (0..n - 1).map(|i| (i as NodeId, (i + 1) as NodeId)))
        .expect("path edges are always valid")
}

/// The complete graph `K_n`.
///
/// The pairs go to the builder row by row, as `(v, w)` with `w < v`
/// ascending, so the build places them without sorting.
pub fn complete(n: usize) -> Graph {
    let mut b = GraphBuilder::with_capacity(n, n * n.saturating_sub(1) / 2);
    for v in 1..n as NodeId {
        for w in 0..v {
            b.add_edge(v, w).expect("complete edges are always valid");
        }
    }
    b.build()
}

/// The star `S_n`: node 0 adjacent to all of `1..n`.
pub fn star(n: usize) -> Graph {
    if n < 2 {
        return Graph::empty(n);
    }
    Graph::from_edges(n, (1..n).map(|v| (0, v as NodeId))).expect("star edges are always valid")
}

/// The `rows × cols` grid graph.
pub fn grid(rows: usize, cols: usize) -> Graph {
    let n = rows * cols;
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            let v = (r * cols + c) as NodeId;
            if c + 1 < cols {
                edges.push((v, v + 1));
            }
            if r + 1 < rows {
                edges.push((v, v + cols as NodeId));
            }
        }
    }
    Graph::from_edges(n, edges).expect("grid edges are always valid")
}

/// The Petersen graph: 10 nodes, 15 edges, 3-regular, famously
/// **not** Hamiltonian — the canonical negative fixture for cycle finders.
pub fn petersen() -> Graph {
    let mut edges: Vec<(NodeId, NodeId)> = Vec::with_capacity(15);
    // Outer 5-cycle 0..4, inner 5-star 5..9, spokes i -> i+5.
    for i in 0..5u32 {
        edges.push((i, (i + 1) % 5));
        edges.push((5 + i, 5 + (i + 2) % 5));
        edges.push((i, i + 5));
    }
    Graph::from_edges(10, edges).expect("petersen edges are always valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_structure() {
        let g = cycle(5);
        assert_eq!(g.edge_count(), 5);
        assert!((0..5u32).all(|v| g.degree(v) == 2));
        assert!(g.is_connected());
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn cycle_too_small_panics() {
        cycle(2);
    }

    #[test]
    fn path_structure() {
        let g = path(4);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        assert_eq!(path(1).edge_count(), 0);
        assert_eq!(path(0).node_count(), 0);
    }

    #[test]
    fn complete_structure() {
        let g = complete(6);
        assert_eq!(g.edge_count(), 15);
        assert!((0..6u32).all(|v| g.degree(v) == 5));
        assert_eq!(complete(0).node_count(), 0);
        assert_eq!(complete(1).edge_count(), 0);
    }

    #[test]
    fn complete_equals_a_scrambled_build() {
        // Every pair once in each orientation, in an order no row-major
        // walk produces, plus repeats: the general build path.
        for n in [2usize, 3, 7, 40] {
            let mut pairs = Vec::new();
            for u in 0..n as NodeId {
                for v in 0..n as NodeId {
                    if u != v {
                        pairs.push(((u * 7 + v * 13) % 31, u, v));
                    }
                }
            }
            pairs.sort_unstable();
            let scrambled = pairs.iter().map(|&(_, u, v)| (u, v));
            assert_eq!(complete(n), Graph::from_edges(n, scrambled).unwrap(), "n = {n}");
        }
    }

    #[test]
    fn star_structure() {
        let g = star(5);
        assert_eq!(g.degree(0), 4);
        assert!((1..5u32).all(|v| g.degree(v) == 1));
    }

    #[test]
    fn grid_structure() {
        let g = grid(3, 4);
        assert_eq!(g.node_count(), 12);
        // Edges: 3 * 3 horizontal rows? rows*(cols-1) + (rows-1)*cols = 9 + 8 = 17.
        assert_eq!(g.edge_count(), 17);
        assert_eq!(g.degree(0), 2); // corner
        assert_eq!(g.degree(5), 4); // interior
    }

    #[test]
    fn petersen_structure() {
        let g = petersen();
        assert_eq!(g.node_count(), 10);
        assert_eq!(g.edge_count(), 15);
        assert!((0..10u32).all(|v| g.degree(v) == 3));
        assert!(g.is_connected());
    }
}
