//! The sort-based CSR build the graph suites check the builder against:
//! place every pair into both endpoints' slices, then sort each slice and
//! drop its repeats.

use dhc_graph::{Graph, NodeId};

/// A CSR as plain arrays: node `v`'s neighbours are
/// `neighbors[offsets[v]..offsets[v + 1]]`.
pub struct Csr {
    pub offsets: Vec<usize>,
    pub neighbors: Vec<NodeId>,
}

/// The sorted, duplicate-free adjacency of the graph on `n` nodes with
/// edges `pairs` (either orientation, repeats allowed).
pub fn sort_build(n: usize, pairs: impl IntoIterator<Item = (NodeId, NodeId)>) -> Csr {
    let mut lists = vec![Vec::new(); n];
    for (u, v) in pairs {
        lists[u as usize].push(v);
        lists[v as usize].push(u);
    }
    let mut offsets = vec![0];
    let mut neighbors = Vec::new();
    for list in &mut lists {
        list.sort_unstable();
        list.dedup();
        neighbors.extend_from_slice(list);
        offsets.push(neighbors.len());
    }
    Csr { offsets, neighbors }
}

/// Asserts that `g` is exactly `csr`: the same node count, neighbour slices
/// and edge count, which fix every field of a [`Graph`].
pub fn assert_csr_eq(g: &Graph, csr: &Csr, what: &str) {
    let n = csr.offsets.len() - 1;
    assert_eq!(g.node_count(), n, "{what}: node count");
    for v in 0..n {
        let expected = &csr.neighbors[csr.offsets[v]..csr.offsets[v + 1]];
        assert_eq!(g.neighbors(v as NodeId), expected, "{what}: neighbours of {v}");
    }
    assert_eq!(g.edge_count(), csr.neighbors.len() / 2, "{what}: edge count");
}
