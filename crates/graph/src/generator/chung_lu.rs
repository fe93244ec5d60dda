//! The Chung–Lu random graph model (expected-degree sequence).
//!
//! The paper cites Chung–Lu as the generalization of `G(n, p)` used to
//! model real-world networks; this sampler supports the heavy-tailed
//! degree sequences those exhibit.

use super::skip::ln_1m;
use crate::{Graph, GraphBuilder, GraphError};
use rand::Rng;

/// Samples a Chung–Lu graph: edge `{u, v}` is present independently with
/// probability `min(1, w_u · w_v / Σw)`, so node `u`'s expected degree is
/// approximately `w_u`.
///
/// Runs in `O(n + m)` expected time by processing nodes in decreasing
/// weight order with the skipping technique of Miller & Hagberg.
///
/// # Errors
///
/// Returns [`GraphError::InvalidProbability`] if any weight is negative or
/// non-finite.
///
/// # Example
///
/// ```
/// use dhc_graph::generator::chung_lu;
/// use dhc_graph::rng::rng_from_seed;
///
/// # fn main() -> Result<(), dhc_graph::GraphError> {
/// let weights: Vec<f64> = (0..500).map(|i| 4.0 + (i % 7) as f64).collect();
/// let g = chung_lu(&weights, &mut rng_from_seed(1))?;
/// assert_eq!(g.node_count(), 500);
/// # Ok(())
/// # }
/// ```
pub fn chung_lu<R: Rng + ?Sized>(weights: &[f64], rng: &mut R) -> Result<Graph, GraphError> {
    let n = weights.len();
    for &w in weights {
        if !w.is_finite() || w < 0.0 {
            return Err(GraphError::InvalidProbability { p: w });
        }
    }
    let total: f64 = weights.iter().sum();
    if n < 2 || total <= 0.0 {
        return Ok(Graph::empty(n));
    }
    // Sort nodes by decreasing weight; remember the original ids.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| weights[b].partial_cmp(&weights[a]).expect("finite weights"));
    let w = |i: usize| weights[order[i]];

    let mut b = GraphBuilder::new(n);
    for i in 0..(n - 1) {
        let mut j = i + 1;
        // Upper-bound probability for the skip draw: the largest remaining
        // pair probability from row i.
        let mut p_bound = (w(i) * w(j) / total).min(1.0);
        if p_bound <= 0.0 {
            continue;
        }
        while j < n {
            if p_bound < 1.0 {
                // Geometric skip under the bound.
                let r: f64 = rng.gen_range(f64::EPSILON..1.0);
                let skip = (r.ln() / ln_1m(p_bound)).floor() as usize;
                j = j.saturating_add(skip);
            }
            if j >= n {
                break;
            }
            // Accept with the true probability / bound ratio.
            let p_true = (w(i) * w(j) / total).min(1.0);
            if rng.gen_range(0.0..1.0) < p_true / p_bound {
                b.add_edge(order[i] as u32, order[j] as u32)?;
            }
            p_bound = p_true;
            j += 1;
        }
    }
    Ok(b.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;

    #[test]
    fn expected_degrees_are_respected() {
        // Uniform weights w: reduces to G(n, w^2 / (n w)) = G(n, w/n).
        let n = 2000;
        let w = 12.0;
        let weights = vec![w; n];
        let g = chung_lu(&weights, &mut rng_from_seed(2)).unwrap();
        let mean_deg = g.avg_degree();
        assert!((mean_deg - w).abs() < 1.2, "mean degree {mean_deg} vs target {w}");
    }

    #[test]
    fn heavy_nodes_get_heavy_degrees() {
        let n = 1000;
        let mut weights = vec![3.0; n];
        weights[0] = 150.0;
        let g = chung_lu(&weights, &mut rng_from_seed(3)).unwrap();
        assert!(g.degree(0) > 80, "hub degree {} should be near its weight 150", g.degree(0));
    }

    #[test]
    fn rejects_bad_weights() {
        assert!(chung_lu(&[1.0, -2.0], &mut rng_from_seed(0)).is_err());
        assert!(chung_lu(&[1.0, f64::NAN], &mut rng_from_seed(0)).is_err());
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(chung_lu(&[], &mut rng_from_seed(0)).unwrap().node_count(), 0);
        assert_eq!(chung_lu(&[5.0], &mut rng_from_seed(0)).unwrap().edge_count(), 0);
        assert_eq!(chung_lu(&[0.0, 0.0], &mut rng_from_seed(0)).unwrap().edge_count(), 0);
    }

    #[test]
    fn tiny_weights_give_no_edges() {
        // Pair probability 1e-17: 1.0 - p rounds to 1.0, and the skip
        // saturates instead of wrapping the column index.
        for w in [1e-14, 1e-160] {
            let g = chung_lu(&[w; 1000], &mut rng_from_seed(3)).unwrap();
            assert_eq!((g.node_count(), g.edge_count()), (1000, 0), "w = {w}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let weights: Vec<f64> = (0..100).map(|i| 2.0 + (i % 5) as f64).collect();
        let a = chung_lu(&weights, &mut rng_from_seed(7)).unwrap();
        let b = chung_lu(&weights, &mut rng_from_seed(7)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn simple_graph_invariants() {
        let weights = vec![10.0; 300];
        let g = chung_lu(&weights, &mut rng_from_seed(9)).unwrap();
        for v in 0..300 {
            assert!(!g.neighbors(v).contains(&v));
        }
    }
}
