//! The Erdős–Rényi `G(n, p)` sampler.

use super::skip::RowSkip;
use crate::{Graph, GraphBuilder, GraphError, NodeId};
use rand::Rng;

/// Samples a `G(n, p)` random graph: every one of the `C(n, 2)` possible
/// edges is present independently with probability `p`.
///
/// Uses the Batagelj–Brandes geometric-skipping technique, so the running
/// time is `O(n + m)` in expectation rather than `O(n²)`; this matters for
/// the sparse regimes (`p = Θ(ln n / n)`) the paper targets. The skip
/// sampler is shared with [`clustered`](super::clustered): each draw
/// consumes one `gen_range(f64::EPSILON..1.0)` and skips exactly
/// `⌊ln r / ln(1 − p)⌋` pairs, read from a table built once per call and
/// computed with `ln` only near the table's thresholds. The pairs arrive in
/// row-major order, so [`GraphBuilder::build`] places them without sorting.
///
/// # Errors
///
/// Returns [`GraphError::InvalidProbability`] if `p` is outside `[0, 1]`
/// or NaN.
///
/// # Example
///
/// ```
/// use dhc_graph::generator::gnp;
/// use dhc_graph::rng::rng_from_seed;
///
/// # fn main() -> Result<(), dhc_graph::GraphError> {
/// let mut rng = rng_from_seed(3);
/// let g = gnp(200, 0.1, &mut rng)?;
/// assert_eq!(g.node_count(), 200);
/// // Expected m = p * C(200, 2) = 1990; loose sanity band.
/// assert!(g.edge_count() > 1500 && g.edge_count() < 2500);
/// # Ok(())
/// # }
/// ```
pub fn gnp<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Result<Graph, GraphError> {
    if !(0.0..=1.0).contains(&p) || p.is_nan() {
        return Err(GraphError::InvalidProbability { p });
    }
    if n < 2 || p == 0.0 {
        return Ok(Graph::empty(n));
    }
    if p == 1.0 {
        return Ok(super::complete(n));
    }
    let expected = (p * (n as f64) * ((n - 1) as f64) / 2.0) as usize;
    let mut b = GraphBuilder::with_capacity(n, expected + expected / 8 + 16);
    RowSkip::new(p).rows(n, rng, |v, w| b.add_edge(v as NodeId, w as NodeId).map(drop))?;
    Ok(b.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;

    #[test]
    fn rejects_bad_probability() {
        let mut rng = rng_from_seed(0);
        assert!(matches!(gnp(10, -0.1, &mut rng), Err(GraphError::InvalidProbability { .. })));
        assert!(matches!(gnp(10, 1.5, &mut rng), Err(GraphError::InvalidProbability { .. })));
        assert!(matches!(gnp(10, f64::NAN, &mut rng), Err(GraphError::InvalidProbability { .. })));
    }

    #[test]
    fn p_zero_is_empty() {
        let mut rng = rng_from_seed(0);
        let g = gnp(50, 0.0, &mut rng).unwrap();
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn p_one_is_complete() {
        let mut rng = rng_from_seed(0);
        let g = gnp(20, 1.0, &mut rng).unwrap();
        assert_eq!(g.edge_count(), 20 * 19 / 2);
    }

    #[test]
    fn tiny_n() {
        let mut rng = rng_from_seed(0);
        assert_eq!(gnp(0, 0.5, &mut rng).unwrap().node_count(), 0);
        assert_eq!(gnp(1, 0.5, &mut rng).unwrap().edge_count(), 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = gnp(100, 0.07, &mut rng_from_seed(11)).unwrap();
        let b = gnp(100, 0.07, &mut rng_from_seed(11)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn edge_count_concentrates() {
        // Chernoff: for n = 400, p = 0.05, E[m] = 3990, deviation > 10% has
        // probability < 1e-9; a fixed seed keeps this deterministic anyway.
        let g = gnp(400, 0.05, &mut rng_from_seed(5)).unwrap();
        let expected = 0.05 * 400.0 * 399.0 / 2.0;
        let dev = (g.edge_count() as f64 - expected).abs() / expected;
        assert!(dev < 0.10, "m = {} vs E = {expected}", g.edge_count());
    }

    #[test]
    fn no_self_loops_or_duplicates_by_construction() {
        let g = gnp(150, 0.2, &mut rng_from_seed(9)).unwrap();
        for v in 0..g.node_count() {
            let nbrs = g.neighbors(v as u32);
            assert!(!nbrs.contains(&(v as u32)));
            for pair in nbrs.windows(2) {
                assert!(pair[0] < pair[1]);
            }
        }
    }

    #[test]
    fn above_connectivity_threshold_is_connected() {
        // p = 4 ln n / n is comfortably above ln n / n.
        let n = 512;
        let p = 4.0 * (n as f64).ln() / n as f64;
        let g = gnp(n, p, &mut rng_from_seed(2)).unwrap();
        assert!(g.is_connected());
    }

    #[test]
    fn tiny_p_gives_no_edges() {
        // Below about 5.5e-17, 1.0 - p rounds to 1.0, so ln(1 - p) must
        // come from ln_1p, and the first skip runs past every pair.
        for p in [1e-17, 1e-300, f64::MIN_POSITIVE] {
            let g = gnp(1000, p, &mut rng_from_seed(3)).unwrap();
            assert_eq!((g.node_count(), g.edge_count()), (1000, 0), "p = {p}");
        }
    }

    #[test]
    fn very_sparse_is_disconnected() {
        let g = gnp(512, 0.0005, &mut rng_from_seed(2)).unwrap();
        assert!(!g.is_connected());
    }
}
