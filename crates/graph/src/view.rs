//! Zero-copy per-class topology views over a partitioned graph.
//!
//! Phase 1 of DHC1/DHC2 runs one independent DRA instance per color
//! class, on the class's induced subgraph. Materializing those subgraphs
//! ([`Graph::induced_subgraph`]) costs an `O(n)` global→local remap
//! vector plus a fresh CSR **per class** — `O(n·√n)` total allocation for
//! DHC1's `√n` classes, dwarfing the simulation itself at large `n`.
//!
//! [`PartitionedGraph`] removes that: one `O(n + m)` pass stably groups
//! each node's CSR neighbor slice by color, keeping the same-color
//! neighbors **already translated to class-local ids**. After that pass,
//! every class's induced subgraph exists implicitly: a [`ClassView`] is
//! two words (a member slice and an edge count), its neighbor lists are
//! exact sub-slices of the shared grouped array, and local↔global id
//! translation is `O(1)` in both directions. No per-class CSR is ever
//! built and no per-class `O(n)` map is ever allocated.
//!
//! `ClassView` implements [`Topology`], so a
//! [`dhc_congest::Network`](../../dhc_congest/struct.Network.html) can
//! simulate a class directly — bit-identical to simulating the
//! materialized induced subgraph, since both expose the same node count
//! and the same sorted local-id neighbor lists (pinned by
//! `crates/graph/tests/proptest_view.rs`, and for engine traces by
//! `crates/core/tests/phase1_oracle.rs`). Phase 1 simulates classes only
//! this way; `induced_subgraph` is the graph-level oracle.

use crate::{Graph, GraphError, NodeId, Partition, Topology};

/// A graph whose nodes carry a color partition, with each node's
/// neighbor list pre-grouped by color — the zero-copy substrate for
/// per-class [`ClassView`]s.
///
/// # Example
///
/// ```
/// use dhc_graph::{Graph, Partition, PartitionedGraph, Topology};
///
/// # fn main() -> Result<(), dhc_graph::GraphError> {
/// // Square 0-1-2-3 plus diagonal 0-2, colored {0,2,3} / {1}.
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])?;
/// let p = Partition::from_colors(vec![0, 1, 0, 0], 2);
/// let pg = PartitionedGraph::new(&g, &p);
/// let class0 = pg.class_view(0)?;
/// assert_eq!(class0.node_count(), 3);
/// assert_eq!(class0.edge_count(), 3); // (0,2), (2,3), (3,0)
/// // Local ids follow the ascending member list {0, 2, 3} -> 0, 1, 2.
/// assert_eq!(class0.neighbors(1), &[0, 2]);
/// assert_eq!(class0.to_global(1), 2);
/// assert_eq!(class0.to_local(3), Some(2));
/// assert_eq!(class0.to_local(1), None); // different color
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PartitionedGraph<'a> {
    graph: &'a Graph,
    partition: &'a Partition,
    /// Local id of each node within its own class.
    local: Vec<NodeId>,
    /// `intra_offsets[v]..intra_offsets[v + 1]` indexes `intra` for
    /// **global** node `v`.
    intra_offsets: Vec<usize>,
    /// Same-color neighbor lists, concatenated per global node, stored
    /// as **class-local ids**, ascending (the stable grouping preserves
    /// the CSR order, and global→local is monotone within a class).
    intra: Vec<NodeId>,
    /// Undirected intra-class edge count per class.
    class_edges: Vec<usize>,
}

impl<'a> PartitionedGraph<'a> {
    /// Groups `graph`'s adjacency by `partition` color in one `O(n + m)`
    /// pass.
    ///
    /// # Panics
    ///
    /// Panics if the partition's node count differs from the graph's.
    pub fn new(graph: &'a Graph, partition: &'a Partition) -> Self {
        let n = graph.node_count();
        assert_eq!(
            partition.node_count(),
            n,
            "partition covers {} nodes but the graph has {n}",
            partition.node_count()
        );
        let k = partition.class_count();
        let colors = partition.colors();

        // Local ids: position within the (ascending) class member list.
        let mut local = vec![0 as NodeId; n];
        for class in partition.classes() {
            for (l, &v) in class.iter().enumerate() {
                local[v as usize] = l as NodeId;
            }
        }

        // Count pass: each node's same-color degree. Sizing `intra` from
        // the actual same-color degree sum (instead of the old `2m` guess
        // from `graph.words()`) means the grouped array never over-reserves
        // on sparse class mixes — on a k-class random coloring only ~1/k of
        // the adjacency is intra-class, so the guess wasted (k-1)/k of the
        // allocation.
        let mut intra_offsets = Vec::with_capacity(n + 1);
        intra_offsets.push(0);
        let mut same_total = 0usize;
        for v in 0..n {
            let c = colors[v];
            let same =
                graph.neighbors(v as NodeId).iter().filter(|&&w| colors[w as usize] == c).count();
            same_total += same;
            intra_offsets.push(same_total);
        }

        // Group each neighbor slice: keep the same-color entries, already
        // translated to local ids. Order within the slice is preserved,
        // so each list stays ascending in the local id space.
        let mut intra = Vec::with_capacity(same_total);
        let mut class_half_edges = vec![0usize; k];
        for v in 0..n {
            let c = colors[v];
            for &w in graph.neighbors(v as NodeId) {
                if colors[w as usize] == c {
                    intra.push(local[w as usize]);
                }
            }
            class_half_edges[c as usize] += intra.len() - intra_offsets[v];
        }
        debug_assert_eq!(intra.len(), same_total);
        let class_edges = class_half_edges.into_iter().map(|h| h / 2).collect();

        PartitionedGraph { graph, partition, local, intra_offsets, intra, class_edges }
    }

    /// The backing graph.
    pub fn graph(&self) -> &'a Graph {
        self.graph
    }

    /// The partition this grouping follows.
    pub fn partition(&self) -> &'a Partition {
        self.partition
    }

    /// Number of classes `k` (some may be empty).
    pub fn class_count(&self) -> usize {
        self.partition.class_count()
    }

    /// The zero-copy induced-subgraph view of class `c`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::EmptySelection`] if the class is empty
    /// (matching [`Graph::induced_subgraph`] on an empty selection).
    ///
    /// # Panics
    ///
    /// Panics if `c >= k`.
    pub fn class_view(&self, c: usize) -> Result<ClassView<'_>, GraphError> {
        let members = self.partition.class(c);
        if members.is_empty() {
            return Err(GraphError::EmptySelection);
        }
        Ok(ClassView { pg: self, class: c, members, edges: self.class_edges[c] })
    }

    /// Number of same-color neighbors of global node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn intra_degree(&self, v: NodeId) -> usize {
        self.intra_offsets[v as usize + 1] - self.intra_offsets[v as usize]
    }

    /// Number of cross-color neighbors of global node `v` (the edges the
    /// round-1 color exchange crosses).
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn cross_degree(&self, v: NodeId) -> usize {
        self.graph.degree(v) - self.intra_degree(v)
    }

    /// Marginal memory footprint of the grouping (beyond the backing
    /// graph and partition) in machine words.
    pub fn words(&self) -> usize {
        self.local.len() + self.intra_offsets.len() + self.intra.len() + self.class_edges.len()
    }
}

/// The induced subgraph of one color class, as a zero-copy [`Topology`]:
/// dense local ids `0..len` follow the ascending member list, neighbor
/// lists are shared sub-slices of the [`PartitionedGraph`]'s grouped
/// array, and local↔global translation is `O(1)` both ways.
#[derive(Debug, Clone, Copy)]
pub struct ClassView<'a> {
    pg: &'a PartitionedGraph<'a>,
    class: usize,
    members: &'a [NodeId],
    edges: usize,
}

impl<'a> ClassView<'a> {
    /// This view's class index (color).
    pub fn class(&self) -> usize {
        self.class
    }

    /// The local→global id map: `members()[local] == global`, ascending.
    pub fn members(&self) -> &'a [NodeId] {
        self.members
    }

    /// The global id of local node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= len`.
    pub fn to_global(&self, v: NodeId) -> NodeId {
        self.members[v as usize]
    }

    /// The local id of global node `g`, or `None` if `g` is not in this
    /// class. `O(1)`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range for the backing graph.
    pub fn to_local(&self, g: NodeId) -> Option<NodeId> {
        (self.pg.partition.color(g) as usize == self.class).then(|| self.pg.local[g as usize])
    }
}

impl Topology for ClassView<'_> {
    fn node_count(&self) -> usize {
        self.members.len()
    }

    fn edge_count(&self) -> usize {
        self.edges
    }

    fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let g = self.members[v as usize] as usize;
        &self.pg.intra[self.pg.intra_offsets[g]..self.pg.intra_offsets[g + 1]]
    }

    fn words(&self) -> usize {
        // Zero-copy: the view itself is a few words; the shared grouped
        // arrays are accounted once, by `PartitionedGraph::words`.
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator;
    use crate::rng::rng_from_seed;

    /// The view and the materialized induced subgraph must agree exactly.
    fn assert_view_matches_copy(g: &Graph, p: &Partition) {
        let pg = PartitionedGraph::new(g, p);
        for c in 0..p.class_count() {
            let class = p.class(c);
            if class.is_empty() {
                assert!(matches!(pg.class_view(c), Err(GraphError::EmptySelection)));
                continue;
            }
            let view = pg.class_view(c).unwrap();
            let (sub, map) = g.induced_subgraph(class).unwrap();
            assert_eq!(view.members(), &map[..]);
            assert_eq!(view.node_count(), sub.node_count());
            assert_eq!(view.edge_count(), sub.edge_count());
            for v in 0..sub.node_count() as u32 {
                assert_eq!(view.neighbors(v), sub.neighbors(v), "class {c} node {v}");
                assert_eq!(view.degree(v), sub.degree(v));
                assert_eq!(view.to_local(view.to_global(v)), Some(v));
            }
            assert_eq!(view.max_degree(), sub.max_degree());
        }
    }

    #[test]
    fn views_match_induced_subgraphs_on_gnp() {
        let g = generator::gnp(64, 0.2, &mut rng_from_seed(5)).unwrap();
        let p = Partition::random(64, 5, &mut rng_from_seed(6));
        assert_view_matches_copy(&g, &p);
    }

    #[test]
    fn single_class_view_is_the_whole_graph() {
        let g = generator::gnp(32, 0.3, &mut rng_from_seed(7)).unwrap();
        let p = Partition::from_colors(vec![0; 32], 1);
        let pg = PartitionedGraph::new(&g, &p);
        let view = pg.class_view(0).unwrap();
        assert_eq!(view.node_count(), 32);
        assert_eq!(view.edge_count(), g.edge_count());
        for v in 0..32 {
            assert_eq!(view.neighbors(v), g.neighbors(v));
            assert_eq!(pg.cross_degree(v), 0);
        }
    }

    #[test]
    fn empty_class_view_errors_like_induced() {
        let g = generator::cycle_graph(4);
        let p = Partition::from_colors(vec![0, 0, 0, 0], 2);
        let pg = PartitionedGraph::new(&g, &p);
        assert!(matches!(pg.class_view(1), Err(GraphError::EmptySelection)));
    }

    #[test]
    fn cross_and_intra_degrees_partition_the_degree() {
        let g = generator::gnp(48, 0.25, &mut rng_from_seed(9)).unwrap();
        let p = Partition::random(48, 4, &mut rng_from_seed(10));
        let pg = PartitionedGraph::new(&g, &p);
        for v in 0..48 {
            assert_eq!(pg.intra_degree(v) + pg.cross_degree(v), g.degree(v));
        }
        let intra_total: usize = (0..48).map(|v| pg.intra_degree(v)).sum();
        let per_class: usize =
            (0..4).filter_map(|c| pg.class_view(c).ok()).map(|view| view.edge_count()).sum();
        assert_eq!(intra_total, 2 * per_class);
    }

    #[test]
    #[should_panic(expected = "partition covers")]
    fn node_count_mismatch_panics() {
        let g = generator::cycle_graph(4);
        let p = Partition::from_colors(vec![0, 0, 0], 1);
        PartitionedGraph::new(&g, &p);
    }
}
