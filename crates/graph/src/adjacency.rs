//! Compact immutable graph representation (CSR) and its builder.

use crate::{GraphError, NodeId, Partition};
use std::fmt;

/// An immutable, simple, undirected graph stored in compressed sparse row
/// (CSR) form.
///
/// Neighbor lists are sorted, enabling `O(log deg)` edge queries via binary
/// search. Construction goes through [`GraphBuilder`] or [`Graph::from_edges`].
///
/// # Example
///
/// ```
/// use dhc_graph::Graph;
///
/// # fn main() -> Result<(), dhc_graph::GraphError> {
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])?;
/// assert_eq!(g.node_count(), 4);
/// assert_eq!(g.edge_count(), 4);
/// assert!(g.has_edge(0, 3));
/// assert_eq!(g.neighbors(1), &[0, 2]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    /// `offsets[v]..offsets[v + 1]` indexes `neighbors` for node `v`.
    offsets: Vec<usize>,
    /// Concatenated sorted neighbor lists.
    neighbors: Vec<NodeId>,
    /// Number of undirected edges.
    m: usize,
}

impl Graph {
    /// Builds a graph with `n` nodes from an iterator of undirected edges.
    ///
    /// Duplicate edges (in either orientation) are merged. Self-loops and
    /// out-of-range endpoints are rejected. The build is `O(n + m)` for any
    /// order; edges given as `(v, w)` with `w < v`, row by row and `w`
    /// ascending, skip its transpose and dedup passes (see
    /// [`GraphBuilder`]).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] or [`GraphError::SelfLoop`].
    pub fn from_edges<I>(n: usize, edges: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
    {
        let mut b = GraphBuilder::new(n);
        for (u, v) in edges {
            b.add_edge(u, v)?;
        }
        Ok(b.build())
    }

    /// Builds an edgeless graph with `n` nodes.
    pub fn empty(n: usize) -> Self {
        Graph { offsets: vec![0; n + 1], neighbors: Vec::new(), m: 0 }
    }

    /// Number of nodes `n`.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m`.
    pub fn edge_count(&self) -> usize {
        self.m
    }

    /// Degree of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn degree(&self, v: NodeId) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Sorted neighbor list of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.neighbors[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Whether the undirected edge `{u, v}` is present. `O(log deg(u))`.
    ///
    /// # Panics
    ///
    /// Panics if `u >= n`.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterates over every undirected edge once, as `(u, v)` with `u < v`,
    /// in lexicographic order.
    pub fn edges(&self) -> EdgeIter<'_> {
        EdgeIter { graph: self, u: 0, idx: 0 }
    }

    /// Maximum degree over all nodes (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.node_count()).map(|v| self.degree(v as NodeId)).max().unwrap_or(0)
    }

    /// Minimum degree over all nodes (0 for the empty graph).
    pub fn min_degree(&self) -> usize {
        (0..self.node_count()).map(|v| self.degree(v as NodeId)).min().unwrap_or(0)
    }

    /// Average degree `2m / n` (0 for the empty graph).
    pub fn avg_degree(&self) -> f64 {
        let n = self.node_count();
        if n == 0 {
            0.0
        } else {
            2.0 * self.m as f64 / n as f64
        }
    }

    /// Whether the graph is connected (the empty graph counts as connected).
    pub fn is_connected(&self) -> bool {
        crate::bfs::component_count(self) <= 1
    }

    /// The subgraph induced by `nodes`, together with the mapping from the
    /// new local ids (`0..nodes.len()`) back to the original ids.
    ///
    /// `nodes` may be in any order and determines the local id assignment;
    /// duplicates are rejected as out-of-range usage would be.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if any node is out of range and
    /// [`GraphError::EmptySelection`] if `nodes` is empty.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` contains duplicates.
    pub fn induced_subgraph(&self, nodes: &[NodeId]) -> Result<(Graph, Vec<NodeId>), GraphError> {
        if nodes.is_empty() {
            return Err(GraphError::EmptySelection);
        }
        let n = self.node_count();
        let mut to_local: Vec<Option<NodeId>> = vec![None; n];
        let mut degree_sum = 0usize;
        for (local, &g) in nodes.iter().enumerate() {
            if g as usize >= n {
                return Err(GraphError::NodeOutOfRange { node: g as usize, n });
            }
            assert!(
                to_local[g as usize].is_none(),
                "duplicate node {g} in induced_subgraph selection"
            );
            to_local[g as usize] = Some(local as NodeId);
            degree_sum += self.degree(g);
        }
        // Each internal edge is pushed once (v < u) and contributes 2 to
        // the selection's degree sum, so degree_sum / 2 bounds the edge
        // count: the builder never reallocates while collecting. An
        // ascending selection pushes row by row with v ascending, which the
        // build places without its transpose and dedup passes.
        let mut b = GraphBuilder::with_capacity(nodes.len(), degree_sum / 2);
        for (local_u, &g_u) in nodes.iter().enumerate() {
            let local_u = local_u as NodeId;
            for &g_v in self.neighbors(g_u) {
                if let Some(local_v) = to_local[g_v as usize] {
                    if local_v < local_u {
                        b.add_edge(local_u, local_v)?;
                    }
                }
            }
        }
        Ok((b.build(), nodes.to_vec()))
    }

    /// The subgraph induced by every class of `partition`, in one
    /// `O(n + m)` pass: entry `c` equals
    /// `induced_subgraph(partition.class(c)).0`, so its local ids follow
    /// the class's ascending member list, and an empty class gives the
    /// 0-node graph. Phase 1 of DHC1/DHC2 simulates each class on its
    /// entry.
    ///
    /// # Example
    ///
    /// ```
    /// use dhc_graph::{Graph, Partition};
    ///
    /// # fn main() -> Result<(), dhc_graph::GraphError> {
    /// // Square 0-1-2-3 plus diagonal 0-2, colored {0, 2, 3} / {1}.
    /// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])?;
    /// let classes = g.class_subgraphs(&Partition::from_colors(vec![0, 1, 0, 0], 2));
    /// // Local ids 0, 1, 2 stand for the members 0, 2, 3.
    /// assert_eq!(classes[0].edge_count(), 3);
    /// assert_eq!(classes[0].neighbors(1), &[0, 2]);
    /// assert_eq!(classes[1].node_count(), 1);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the partition's node count differs from the graph's.
    pub fn class_subgraphs(&self, partition: &Partition) -> Vec<Graph> {
        let n = self.node_count();
        assert_eq!(
            partition.node_count(),
            n,
            "partition covers {} nodes but the graph has {n}",
            partition.node_count()
        );
        let colors = partition.colors();
        let mut local = vec![0 as NodeId; n];
        for class in partition.classes() {
            for (l, &v) in class.iter().enumerate() {
                local[v as usize] = l as NodeId;
            }
        }
        // Each row keeps its same-color neighbors in CSR order, and the
        // local ids ascend with the global ones, so every row stays sorted.
        partition
            .classes()
            .map(|class| {
                let mut offsets = Vec::with_capacity(class.len() + 1);
                offsets.push(0);
                let mut neighbors = Vec::new();
                for &v in class {
                    let c = colors[v as usize];
                    let same = self.neighbors(v).iter().filter(|&&w| colors[w as usize] == c);
                    neighbors.extend(same.map(|&w| local[w as usize]));
                    offsets.push(neighbors.len());
                }
                let m = neighbors.len() / 2;
                Graph { offsets, neighbors, m }
            })
            .collect()
    }

    /// Total memory footprint of the CSR arrays in machine words
    /// (used by experiments that report per-node memory).
    pub fn words(&self) -> usize {
        self.offsets.len() + self.neighbors.len()
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph").field("n", &self.node_count()).field("m", &self.m).finish()
    }
}

/// Iterator over the undirected edges of a [`Graph`], produced by
/// [`Graph::edges`].
#[derive(Debug, Clone)]
pub struct EdgeIter<'a> {
    graph: &'a Graph,
    u: NodeId,
    idx: usize,
}

impl Iterator for EdgeIter<'_> {
    type Item = (NodeId, NodeId);

    fn next(&mut self) -> Option<Self::Item> {
        let g = self.graph;
        let n = g.node_count();
        while (self.u as usize) < n {
            let nbrs = g.neighbors(self.u);
            while self.idx < nbrs.len() {
                let v = nbrs[self.idx];
                self.idx += 1;
                if v > self.u {
                    return Some((self.u, v));
                }
            }
            self.u += 1;
            self.idx = 0;
        }
        None
    }
}

/// Incremental builder for [`Graph`].
///
/// Collects edges (duplicates allowed; they are merged at
/// [`build`](GraphBuilder::build) time) and produces the immutable CSR form
/// in `O(n + m)` time, with no comparison sort. The build counts degrees and
/// places every pushed pair into both endpoints' slices. If the pushes
/// arrived in strictly increasing `(larger, smaller)` order, as the
/// row-major generators ([`gnp`](crate::generator::gnp),
/// [`complete`](crate::generator::complete) and the clusters of
/// [`clustered`](crate::generator::clustered)) push them, every slice is
/// then already sorted and duplicate-free. Otherwise one transpose pass,
/// whose slices come out ascending with repeats dropped, and one pass that
/// closes the gaps finish the build.
///
/// # Example
///
/// ```
/// use dhc_graph::GraphBuilder;
///
/// # fn main() -> Result<(), dhc_graph::GraphError> {
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1)?;
/// b.add_edge(1, 0)?; // duplicate, merged
/// b.add_edge(1, 2)?;
/// let g = b.build();
/// assert_eq!(g.edge_count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    n: usize,
    /// Pushed pairs as `(larger, smaller)`, in push order.
    pairs: Vec<(NodeId, NodeId)>,
    /// Set once a push is not strictly greater than the one before it.
    unordered: bool,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `n` nodes.
    pub fn new(n: usize) -> Self {
        GraphBuilder::with_capacity(n, 0)
    }

    /// Creates a builder with capacity for `cap` edges.
    pub fn with_capacity(n: usize, cap: usize) -> Self {
        GraphBuilder { n, pairs: Vec::with_capacity(cap), unordered: false }
    }

    /// Number of nodes the built graph will have.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Adds the undirected edge `{u, v}`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] or [`GraphError::SelfLoop`].
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<&mut Self, GraphError> {
        if u as usize >= self.n {
            return Err(GraphError::NodeOutOfRange { node: u as usize, n: self.n });
        }
        if v as usize >= self.n {
            return Err(GraphError::NodeOutOfRange { node: v as usize, n: self.n });
        }
        if u == v {
            return Err(GraphError::SelfLoop { node: u as usize });
        }
        let pair = if u > v { (u, v) } else { (v, u) };
        if self.pairs.last().is_some_and(|&last| last >= pair) {
            self.unordered = true;
        }
        self.pairs.push(pair);
        Ok(self)
    }

    /// Number of (possibly duplicate) edges recorded so far.
    pub fn pending_edges(&self) -> usize {
        self.pairs.len()
    }

    /// Finalizes into a [`Graph`], merging duplicate edges.
    pub fn build(self) -> Graph {
        let GraphBuilder { n, pairs, unordered } = self;
        let mut offsets = vec![0usize; n + 1];
        for &(a, b) in &pairs {
            offsets[a as usize + 1] += 1;
            offsets[b as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut cursor = offsets[..n].to_vec();
        let mut placed = vec![0 as NodeId; 2 * pairs.len()];
        for &(a, b) in &pairs {
            placed[cursor[a as usize]] = b;
            cursor[a as usize] += 1;
            placed[cursor[b as usize]] = a;
            cursor[b as usize] += 1;
        }
        if !unordered {
            // Node v's slice holds its smaller neighbours from row v, in
            // push order, then its larger ones from the later rows: sorted.
            return Graph { offsets, neighbors: placed, m: pairs.len() };
        }
        drop(pairs);
        // Walking the slices in node order appends every node to its
        // neighbours' slices in ascending order, so a repeat lands right
        // after its first copy and is dropped there.
        cursor.copy_from_slice(&offsets[..n]);
        let mut neighbors = vec![0 as NodeId; placed.len()];
        for u in 0..n {
            let u_id = u as NodeId;
            for &x in &placed[offsets[u]..offsets[u + 1]] {
                let (x, at) = (x as usize, cursor[x as usize]);
                if at == offsets[x] || neighbors[at - 1] != u_id {
                    neighbors[at] = u_id;
                    cursor[x] = at + 1;
                }
            }
        }
        drop(placed);
        // Close the gaps the repeats left.
        let mut len = 0;
        for v in 0..n {
            let (start, end) = (offsets[v], cursor[v]);
            neighbors.copy_within(start..end, len);
            offsets[v] = len;
            len += end - start;
        }
        offsets[n] = len;
        neighbors.truncate(len);
        neighbors.shrink_to_fit();
        Graph { offsets, neighbors, m: len / 2 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = Graph::empty(5);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.max_degree(), 0);
        assert!(g.edges().next().is_none());
    }

    #[test]
    fn zero_node_graph() {
        let g = Graph::empty(0);
        assert_eq!(g.node_count(), 0);
        assert!(g.is_connected());
        assert_eq!(g.avg_degree(), 0.0);
    }

    #[test]
    fn builds_sorted_csr() {
        let g = Graph::from_edges(5, [(3, 1), (0, 3), (4, 0), (2, 4)]).unwrap();
        assert_eq!(g.neighbors(0), &[3, 4]);
        assert_eq!(g.neighbors(3), &[0, 1]);
        assert_eq!(g.neighbors(4), &[0, 2]);
        assert_eq!(g.edge_count(), 4);
    }

    #[test]
    fn merges_duplicates_both_orientations() {
        let g = Graph::from_edges(3, [(0, 1), (1, 0), (0, 1), (1, 2)]).unwrap();
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
    }

    #[test]
    fn row_major_pushes_take_the_placement_only_build() {
        // (larger, smaller) strictly increasing, in either orientation.
        let mut b = GraphBuilder::new(4);
        for (u, v) in [(1, 0), (0, 2), (2, 1), (1, 3), (3, 2)] {
            b.add_edge(u, v).unwrap();
        }
        assert!(!b.unordered);
        let g = b.build();
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[0, 2, 3]);
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        assert_eq!(g.neighbors(3), &[1, 2]);
        assert_eq!(g.edge_count(), 5);
    }

    #[test]
    fn repeated_or_descending_pushes_take_the_general_build() {
        let rows = [(1, 0), (2, 1), (3, 1)];
        // A repeat of (3, 1) in the other orientation, then a step back.
        for tail in [(1, 3), (3, 0)] {
            let pushes = rows.into_iter().chain([tail]);
            let mut b = GraphBuilder::new(4);
            for (u, v) in pushes.clone() {
                b.add_edge(u, v).unwrap();
            }
            assert!(b.unordered);
            let mut sorted: Vec<_> = pushes.map(|(u, v)| (u.max(v), u.min(v))).collect();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(b.build(), Graph::from_edges(4, sorted).unwrap());
        }
    }

    #[test]
    fn failed_pushes_leave_the_builder_unchanged() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(2, 1).unwrap();
        assert_eq!(b.add_edge(0, 3).unwrap_err(), GraphError::NodeOutOfRange { node: 3, n: 3 });
        assert_eq!(b.add_edge(0, 0).unwrap_err(), GraphError::SelfLoop { node: 0 });
        assert_eq!((b.pending_edges(), b.unordered), (1, false));
    }

    #[test]
    fn rejects_self_loop() {
        assert_eq!(Graph::from_edges(3, [(1, 1)]), Err(GraphError::SelfLoop { node: 1 }));
    }

    #[test]
    fn rejects_out_of_range() {
        assert_eq!(
            Graph::from_edges(3, [(0, 3)]),
            Err(GraphError::NodeOutOfRange { node: 3, n: 3 })
        );
    }

    #[test]
    fn has_edge_symmetric() {
        let g = Graph::from_edges(4, [(0, 2), (2, 3)]).unwrap();
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(2, 0));
        assert!(!g.has_edge(0, 3));
        assert!(!g.has_edge(1, 2));
    }

    #[test]
    fn edges_iterator_lexicographic_once() {
        let g = Graph::from_edges(4, [(2, 1), (0, 3), (0, 1)]).unwrap();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 3), (1, 2)]);
    }

    #[test]
    fn degree_stats() {
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3)]).unwrap();
        assert_eq!(g.max_degree(), 3);
        assert_eq!(g.min_degree(), 1);
        assert!((g.avg_degree() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges_only() {
        // Square 0-1-2-3 plus diagonal 0-2.
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]).unwrap();
        let (sub, map) = g.induced_subgraph(&[0, 2, 3]).unwrap();
        assert_eq!(sub.node_count(), 3);
        assert_eq!(map, vec![0, 2, 3]);
        // Local ids: 0 -> 0, 2 -> 1, 3 -> 2. Edges: (0,2)->(0,1), (2,3)->(1,2), (3,0)->(2,0).
        assert_eq!(sub.edge_count(), 3);
        assert!(sub.has_edge(0, 1));
        assert!(sub.has_edge(1, 2));
        assert!(sub.has_edge(0, 2));
    }

    #[test]
    fn induced_subgraph_respects_selection_order() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let (sub, map) = g.induced_subgraph(&[2, 1]).unwrap();
        assert_eq!(map, vec![2, 1]);
        assert!(sub.has_edge(0, 1)); // global (2,1)
        assert_eq!(sub.edge_count(), 1);
    }

    #[test]
    fn induced_subgraph_empty_selection_errors() {
        let g = Graph::empty(3);
        assert_eq!(g.induced_subgraph(&[]).unwrap_err(), GraphError::EmptySelection);
    }

    #[test]
    fn class_subgraphs_single_class_is_the_whole_graph() {
        let g = crate::generator::gnp(32, 0.3, &mut crate::rng::rng_from_seed(7)).unwrap();
        assert_eq!(g.class_subgraphs(&Partition::from_colors(vec![0; 32], 1)), vec![g]);
    }

    #[test]
    #[should_panic(expected = "partition covers")]
    fn class_subgraphs_size_mismatch_panics() {
        crate::generator::cycle_graph(4).class_subgraphs(&Partition::from_colors(vec![0; 3], 1));
    }

    #[test]
    fn class_subgraphs_match_induced_subgraphs_on_gnp() {
        let g = crate::generator::gnp(64, 0.2, &mut crate::rng::rng_from_seed(5)).unwrap();
        let p = Partition::random(64, 5, &mut crate::rng::rng_from_seed(6));
        let classes = g.class_subgraphs(&p);
        assert_eq!(classes.len(), 5);
        for (c, sub) in classes.iter().enumerate() {
            let (copy, map) = g.induced_subgraph(p.class(c)).unwrap();
            assert_eq!(map, p.class(c));
            assert_eq!(sub, &copy, "class {c}");
        }
    }

    #[test]
    fn class_subgraphs_empty_class_is_the_empty_graph() {
        let g = crate::generator::cycle_graph(4);
        let p = Partition::from_colors(vec![0; 4], 2);
        assert_eq!(g.induced_subgraph(p.class(1)).unwrap_err(), GraphError::EmptySelection);
        assert_eq!(g.class_subgraphs(&p), vec![g, Graph::empty(0)]);
    }

    #[test]
    fn class_subgraphs_intra_and_cross_degrees_partition_the_degree() {
        let g = crate::generator::gnp(48, 0.25, &mut crate::rng::rng_from_seed(9)).unwrap();
        let p = Partition::random(48, 4, &mut crate::rng::rng_from_seed(10));
        let classes = g.class_subgraphs(&p);
        let mut intra_total = 0;
        for v in 0..48 {
            let c = p.color(v) as usize;
            let local = p.class(c).iter().position(|&u| u == v).unwrap() as NodeId;
            let intra = classes[c].degree(local);
            let cross = g.neighbors(v).iter().filter(|&&w| p.color(w) as usize != c).count();
            assert_eq!(intra + cross, g.degree(v), "node {v}");
            intra_total += intra;
        }
        assert_eq!(intra_total, 2 * classes.iter().map(Graph::edge_count).sum::<usize>());
    }

    #[test]
    fn debug_is_nonempty() {
        let g = Graph::empty(2);
        assert!(!format!("{g:?}").is_empty());
    }
}
