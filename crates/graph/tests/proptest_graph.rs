//! Property-based tests for the graph substrate.

mod common;

use common::{assert_csr_eq, sort_build};
use dhc_graph::{bfs, generator, rng::rng_from_seed, Graph, HamiltonianCycle, Partition};
use proptest::prelude::*;

/// Strategy: `(n, pairs, at)` with `n < 40` and a stream of pairs over
/// `0..n` in either orientation, whose first `pairs.len() / 4` pairs repeat
/// flipped at the end; `at` picks a position in the stream.
fn pair_stream() -> impl Strategy<Value = (usize, Vec<(u32, u32)>, usize)> {
    (2usize..40, prop::collection::vec((0u32..40, 0u32..40), 0..160), 0usize..1000).prop_map(
        |(n, raw, at)| {
            let mut pairs: Vec<(u32, u32)> = raw
                .into_iter()
                .map(|(u, v)| (u % n as u32, v % n as u32))
                .filter(|(u, v)| u != v)
                .collect();
            let flipped: Vec<(u32, u32)> =
                pairs[..pairs.len() / 4].iter().map(|&(u, v)| (v, u)).collect();
            pairs.extend(flipped);
            (n, pairs, at)
        },
    )
}

/// The distinct edges of `pairs` in strictly increasing `(larger, smaller)`
/// order, every other one pushed flipped.
fn canonical(pairs: &[(u32, u32)]) -> Vec<(u32, u32)> {
    let mut rows: Vec<(u32, u32)> = pairs.iter().map(|&(u, v)| (u.max(v), u.min(v))).collect();
    rows.sort_unstable();
    rows.dedup();
    rows.into_iter()
        .enumerate()
        .map(|(i, (v, w))| if i % 2 == 0 { (v, w) } else { (w, v) })
        .collect()
}

/// Strategy: arbitrary simple-graph edge list over n nodes.
fn edges_strategy(n: u32, max_edges: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0..n, 0..n), 0..max_edges)
        .prop_map(|pairs| pairs.into_iter().filter(|(u, v)| u != v).collect::<Vec<_>>())
}

proptest! {
    #[test]
    fn builder_matches_sort_build_in_any_order(stream in pair_stream()) {
        let (n, pairs, at) = stream;
        let expected = sort_build(n, pairs.iter().copied());
        assert_csr_eq(&Graph::from_edges(n, pairs.iter().copied()).unwrap(), &expected, "as drawn");
        let mut rows = canonical(&pairs);
        assert_csr_eq(&Graph::from_edges(n, rows.iter().copied()).unwrap(), &expected, "row-major");
        if rows.len() >= 2 {
            let i = at % (rows.len() - 1);
            rows.swap(i, i + 1);
            assert_csr_eq(&Graph::from_edges(n, rows).unwrap(), &expected, "one swap");
        }
    }

    #[test]
    fn csr_degree_sums_to_twice_edges(edges in edges_strategy(20, 60)) {
        let g = Graph::from_edges(20, edges).unwrap();
        let deg_sum: usize = (0..20u32).map(|v| g.degree(v)).sum();
        prop_assert_eq!(deg_sum, 2 * g.edge_count());
    }

    #[test]
    fn adjacency_is_symmetric(edges in edges_strategy(16, 48)) {
        let g = Graph::from_edges(16, edges).unwrap();
        for u in 0..16u32 {
            for &v in g.neighbors(u) {
                prop_assert!(g.has_edge(v, u));
            }
        }
    }

    #[test]
    fn edges_iterator_matches_has_edge(edges in edges_strategy(12, 40)) {
        let g = Graph::from_edges(12, edges).unwrap();
        let listed: Vec<_> = g.edges().collect();
        prop_assert_eq!(listed.len(), g.edge_count());
        for (u, v) in listed {
            prop_assert!(u < v);
            prop_assert!(g.has_edge(u, v));
        }
    }

    #[test]
    fn induced_subgraph_preserves_adjacency(edges in edges_strategy(14, 50), sel_bits in 0u32..(1 << 14)) {
        let g = Graph::from_edges(14, edges).unwrap();
        let nodes: Vec<u32> = (0..14u32).filter(|i| sel_bits & (1 << i) != 0).collect();
        prop_assume!(!nodes.is_empty());
        let (sub, map) = g.induced_subgraph(&nodes).unwrap();
        for lu in 0..sub.node_count() {
            for lv in 0..sub.node_count() {
                if lu != lv {
                    prop_assert_eq!(
                        sub.has_edge(lu as u32, lv as u32),
                        g.has_edge(map[lu], map[lv])
                    );
                }
            }
        }
    }

    #[test]
    fn class_subgraphs_match_induced_subgraphs(
        seed in any::<u64>(),
        n in 1usize..64,
        pm in 0u32..100,
        k in 1usize..9,
        raw in prop::collection::vec(0u32..8, 63..64),
    ) {
        let g = generator::gnp(n, pm as f64 / 100.0, &mut rng_from_seed(seed)).unwrap();
        // Few nodes or many colors leave some classes empty.
        let colors: Vec<u32> = raw[..n].iter().map(|&c| c % k as u32).collect();
        let partition = Partition::from_colors(colors.clone(), k);
        let classes = g.class_subgraphs(&partition);
        prop_assert_eq!(classes.len(), k);
        let mut degree_sum = 0;
        for (c, sub) in classes.iter().enumerate() {
            match partition.class(c) {
                [] => prop_assert_eq!(sub, &Graph::empty(0)),
                members => prop_assert_eq!(sub, &g.induced_subgraph(members).unwrap().0),
            }
            degree_sum += (0..sub.node_count() as u32).map(|v| sub.degree(v)).sum::<usize>();
        }
        for v in 0..n {
            let cross = g.neighbors(v as u32).iter().filter(|&&w| colors[w as usize] != colors[v]);
            degree_sum += cross.count();
        }
        prop_assert_eq!(degree_sum, 2 * g.edge_count());
    }

    #[test]
    fn partition_classes_are_disjoint_cover(seed in any::<u64>(), k in 1usize..10) {
        let p = Partition::random(64, k, &mut rng_from_seed(seed));
        let total: usize = p.classes().map(<[u32]>::len).sum();
        prop_assert_eq!(total, 64);
        let mut seen = [false; 64];
        for class in p.classes() {
            for &v in class {
                prop_assert!(!seen[v as usize]);
                seen[v as usize] = true;
            }
        }
    }

    #[test]
    fn gnp_is_deterministic_and_simple(seed in any::<u64>(), n in 2usize..80, pm in 0u32..100) {
        let p = pm as f64 / 100.0;
        let a = generator::gnp(n, p, &mut rng_from_seed(seed)).unwrap();
        let b = generator::gnp(n, p, &mut rng_from_seed(seed)).unwrap();
        prop_assert_eq!(&a, &b);
        for v in 0..n as u32 {
            prop_assert!(!a.neighbors(v).contains(&v));
        }
    }

    #[test]
    fn bfs_distances_satisfy_triangle_on_edges(edges in edges_strategy(15, 45)) {
        let g = Graph::from_edges(15, edges).unwrap();
        let d = bfs::distances(&g, 0);
        for (u, v) in g.edges() {
            let (u, v) = (u as usize, v as usize);
            if d[u] != bfs::UNREACHABLE && d[v] != bfs::UNREACHABLE {
                let du = d[u] as i64;
                let dv = d[v] as i64;
                prop_assert!((du - dv).abs() <= 1);
            }
        }
    }

    #[test]
    fn cycle_roundtrip_any_rotation(shift in 0usize..12) {
        let g = generator::cycle_graph(12);
        let order: Vec<u32> = (0..12).map(|i| ((i + shift) % 12) as u32).collect();
        let hc = HamiltonianCycle::from_order(&g, order).unwrap();
        let succ: Vec<Option<u32>> = hc.to_successors().into_iter().map(Some).collect();
        let hc2 = HamiltonianCycle::from_successors(&g, &succ).unwrap();
        prop_assert_eq!(hc.edge_set(), hc2.edge_set());
    }

    #[test]
    fn bfs_subtree_sizes_sum_to_component(edges in edges_strategy(18, 40)) {
        let g = Graph::from_edges(18, edges).unwrap();
        let t = bfs::bfs_tree(&g, 0);
        let sizes = t.subtree_sizes();
        prop_assert_eq!(sizes[0], t.reachable_count());
    }
}
