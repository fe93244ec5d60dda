//! Merge-tree-aware clustered graphs for large-scale DHC2 sweeps.
//!
//! A uniform `G(n, p)` has to be globally dense for randomly drawn Phase-1
//! classes to stay above the DRA threshold, which makes million-node
//! instances memory-infeasible (`m = Θ(n²/s · ln s)`). The clustered model
//! sidesteps that: nodes come in `k` contiguous blocks of `s`, each block a
//! private `G(s, intra_p)` that IS a Phase-1 class, and cross edges are
//! sprinkled exactly where DHC2's deterministic color pairing will look for
//! bridges. Total size is `Θ(n·ln s + n·log k)` edges — sparse enough for
//! `n = 10⁶` on one machine while every class is comfortably dense.

use super::skip::RowSkip;
use crate::{Graph, GraphBuilder, GraphError, NodeId};
use rand::Rng;

/// Samples a clustered graph aligned with DHC2's merge tree and returns it
/// with the Phase-1 coloring (node `v` gets color `v / s`).
///
/// * `k` clusters × `s` nodes; cluster `c` spans nodes `[c·s, (c+1)·s)` and
///   is an independent `G(s, intra_p)`, drawn cluster after cluster with
///   [`gnp`](super::gnp)'s skip sampler: one table per call, and exactly
///   the skips of the `⌊ln r / ln(1 − p)⌋` rule.
/// * DHC2 merges current colors `(2t, 2t+1)` at every level and halves, so
///   the groups that must share a bridge are exactly the color ranges
///   `[2t·2^ℓ, (2t+1)·2^ℓ)` vs `[(2t+1)·2^ℓ, (2t+2)·2^ℓ)`. For each such
///   pair the sampler adds `⌈bridge_factor · √(|A|·|B|)⌉` uniform cross
///   pairs (duplicates collapse), putting the expected number of spliceable
///   bridge pairs near `2·bridge_factor²` per merge — independent of level.
///
/// `bridge_factor ≈ 3` makes a missing bridge a `≈ e⁻¹⁸` event per merge;
/// callers that scan seeds can go lower.
///
/// # Errors
///
/// Returns [`GraphError::InvalidProbability`] if `intra_p` is outside
/// `[0, 1]` or NaN.
///
/// # Panics
///
/// Panics if `k == 0`, `s < 3` (a class must be able to carry a cycle), or
/// `bridge_factor` is negative or non-finite.
///
/// # Example
///
/// ```
/// use dhc_graph::generator::clustered;
/// use dhc_graph::rng::rng_from_seed;
///
/// # fn main() -> Result<(), dhc_graph::GraphError> {
/// let (g, colors) = clustered(4, 50, 0.5, 3.0, &mut rng_from_seed(1))?;
/// assert_eq!(g.node_count(), 200);
/// assert_eq!(colors[49], 0);
/// assert_eq!(colors[50], 1);
/// # Ok(())
/// # }
/// ```
pub fn clustered<R: Rng + ?Sized>(
    k: usize,
    s: usize,
    intra_p: f64,
    bridge_factor: f64,
    rng: &mut R,
) -> Result<(Graph, Vec<u32>), GraphError> {
    assert!(k > 0, "clustered graph needs at least one cluster");
    assert!(s >= 3, "clusters must hold at least 3 nodes, got {s}");
    assert!(
        bridge_factor.is_finite() && bridge_factor >= 0.0,
        "bridge_factor must be finite and non-negative"
    );
    if !(0.0..=1.0).contains(&intra_p) || intra_p.is_nan() {
        return Err(GraphError::InvalidProbability { p: intra_p });
    }
    let n = k * s;
    let expected_intra = (intra_p * (s * (s - 1) / 2) as f64) as usize * k;
    let mut b = GraphBuilder::with_capacity(n, expected_intra + expected_intra / 8 + 16);

    // Intra-cluster G(s, intra_p): one skip table, cluster rows in order,
    // so the intra pairs reach the builder in row-major order.
    if intra_p == 1.0 {
        for c in 0..k {
            let base = (c * s) as NodeId;
            for v in 1..s as NodeId {
                for w in 0..v {
                    b.add_edge(base + v, base + w)?;
                }
            }
        }
    } else if intra_p > 0.0 {
        let rows = RowSkip::new(intra_p);
        for c in 0..k {
            let base = c * s;
            rows.rows(s, rng, |v, w| {
                b.add_edge((base + v) as NodeId, (base + w) as NodeId).map(drop)
            })?;
        }
    }

    // Cross edges along the merge tree: at level ℓ, current colors (2t, 2t+1)
    // are the original-color ranges below; seed each pairing with enough
    // uniform cross pairs that a bridge exists w.h.p.
    let mut span = 1usize; // clusters per current color at this level
    while span < k {
        let mut lo = 0usize;
        while lo + span < k {
            let a_nodes = span * s; // clusters [lo, lo+span) — always full
            let b_lo = (lo + span) * s;
            let b_hi = ((lo + 2 * span).min(k)) * s;
            let b_nodes = b_hi - b_lo;
            let quota = (bridge_factor * ((a_nodes as f64) * (b_nodes as f64)).sqrt()).ceil();
            for _ in 0..quota as usize {
                let u = (lo * s) + rng.gen_range(0..a_nodes);
                let v = b_lo + rng.gen_range(0..b_nodes);
                b.add_edge(u as NodeId, v as NodeId)?;
            }
            lo += 2 * span;
        }
        span *= 2;
    }

    let colors = (0..n).map(|v| (v / s) as u32).collect();
    Ok((b.build(), colors))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;

    #[test]
    fn shape_and_coloring() {
        let (g, colors) = clustered(8, 20, 0.6, 3.0, &mut rng_from_seed(7)).unwrap();
        assert_eq!(g.node_count(), 160);
        assert_eq!(colors.len(), 160);
        for (v, &c) in colors.iter().enumerate() {
            assert_eq!(c as usize, v / 20);
        }
    }

    #[test]
    fn every_merge_pair_is_cross_connected() {
        // Walk the merge tree the way DHC2 will and demand at least one
        // cross edge per pairing (the sampler aims for far more).
        let (k, s) = (13, 10); // non-power-of-two exercises ragged groups
        let (g, _) = clustered(k, s, 0.8, 3.0, &mut rng_from_seed(3)).unwrap();
        let mut span = 1usize;
        while span < k {
            let mut lo = 0usize;
            while lo + span < k {
                let a = (lo * s) as u32..((lo + span) * s) as u32;
                let b = ((lo + span) * s) as u32..(((lo + 2 * span).min(k)) * s) as u32;
                let linked = a.clone().any(|u| g.neighbors(u).iter().any(|&v| b.contains(&v)));
                assert!(linked, "no cross edge for span {span} at lo {lo}");
                lo += 2 * span;
            }
            span *= 2;
        }
    }

    #[test]
    fn intra_edges_stay_inside_clusters_at_zero_bridges() {
        let (g, colors) = clustered(5, 12, 0.7, 0.0, &mut rng_from_seed(11)).unwrap();
        for v in 0..g.node_count() as u32 {
            for &w in g.neighbors(v) {
                assert_eq!(colors[v as usize], colors[w as usize]);
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = clustered(6, 15, 0.4, 2.0, &mut rng_from_seed(42)).unwrap();
        let b = clustered(6, 15, 0.4, 2.0, &mut rng_from_seed(42)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_bad_probability() {
        assert!(matches!(
            clustered(2, 5, 1.5, 1.0, &mut rng_from_seed(0)),
            Err(GraphError::InvalidProbability { .. })
        ));
    }

    #[test]
    fn tiny_intra_p_gives_no_edges() {
        for p in [1e-17, 1e-300] {
            let (g, _) = clustered(4, 50, p, 0.0, &mut rng_from_seed(3)).unwrap();
            assert_eq!((g.node_count(), g.edge_count()), (200, 0), "p = {p}");
        }
    }

    #[test]
    fn single_cluster_has_no_cross_edges() {
        let (g, colors) = clustered(1, 30, 0.5, 3.0, &mut rng_from_seed(9)).unwrap();
        assert_eq!(g.node_count(), 30);
        assert!(colors.iter().all(|&c| c == 0));
    }
}
