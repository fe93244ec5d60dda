//! Row-major geometric skipping over the pairs of one `G(s, p)` block,
//! shared by [`gnp`](super::gnp) and [`clustered`](super::clustered).
//!
//! Batagelj–Brandes sampling walks the candidate pairs `(v, w)`, `w < v`,
//! row by row and jumps ahead by a geometric gap: a uniform draw
//! `r ∈ [ε, 1)` skips `⌊ln r / ln(1 − p)⌋` pairs. That expression is the
//! pinned definition of every sampled graph, but one `ln` per edge is most
//! of the sampling time. The skip is a step function of `r` that drops by
//! one at each threshold `q^k = exp(k · ln q)`, so [`RowSkip`] tabulates it:
//!
//! * `r` is bucketed by `⌊r · 1024⌋`;
//! * a bucket that no threshold reaches returns its stored skip;
//! * a bucket that one threshold reaches makes one comparison;
//! * a bucket that two or more thresholds reach, and any `r` within a
//!   relative [`GUARD`] of a threshold, takes the exact expression.
//!
//! Outside every guard band, `ln r` lies at least about `1e-9` from each
//! `k · ln q`. The exact expression's rounding (`ln`, the division) and the
//! error of each computed threshold are a few ulps of numbers no larger than
//! `|ln ε| ≈ 36`, under `1e-13` in all, so neither can carry a draw across a
//! threshold there. Hence for every `r` the table returns what
//! `(r.ln() / log_q).floor() as i64` returns, and every graph stays the one
//! its seed has always produced.

use crate::GraphError;
use rand::Rng;

/// Buckets over `[0, 1)`; a draw's bucket is `⌊r · BUCKETS⌋`.
const BUCKETS: usize = 1024;

/// Relative half-width of the band around each threshold in which a draw
/// takes the exact expression.
const GUARD: f64 = 1e-9;

/// `ln(1 − p)`. Below about `5.5e-17`, `1.0 - p` rounds to `1.0` and its
/// logarithm to 0, which would turn every skip into `−∞`; only there does
/// `ln_1p` take over, so every other `p` keeps its exact value.
pub(crate) fn ln_1m(p: f64) -> f64 {
    if 1.0 - p == 1.0 {
        (-p).ln_1p()
    } else {
        (1.0 - p).ln()
    }
}

/// One table bucket: a draw `r` above `above` skips `skip` pairs, one below
/// `below` skips `skip + 1`, and one in between takes the exact expression.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    above: f64,
    below: f64,
    skip: i64,
}

impl Bucket {
    /// Every draw in the bucket takes the exact expression.
    const EXACT: Bucket = Bucket { above: f64::INFINITY, below: f64::NEG_INFINITY, skip: 0 };
}

/// The geometric skip for one edge probability, tabulated once and shared
/// by every block sampled at that probability.
#[derive(Debug)]
pub(crate) struct RowSkip {
    log_q: f64,
    table: Vec<Bucket>,
}

impl RowSkip {
    /// Tabulates the skip for edge probability `p`, `0 < p < 1`.
    pub(crate) fn new(p: f64) -> Self {
        debug_assert!(p > 0.0 && p < 1.0, "RowSkip needs 0 < p < 1, got {p}");
        let log_q = ln_1m(p);
        let threshold = |k: i64| (k as f64 * log_q).exp();
        let width = 1.0 / BUCKETS as f64;
        let mut table = vec![Bucket::EXACT; BUCKETS];
        // Walk the buckets downward. `t` is threshold `k`, the highest one
        // whose guard band reaches below the current bucket's top: the bands
        // of thresholds 1..k - 1 lie wholly above the bucket, so each of its
        // draws skips at least k - 1 pairs.
        let mut k = 1i64;
        let mut t = threshold(k);
        for i in (0..BUCKETS).rev() {
            let (lo, hi) = (i as f64 * width, (i + 1) as f64 * width);
            while t * (1.0 - GUARD) >= hi {
                k += 1;
                t = threshold(k);
            }
            if t * (1.0 + GUARD) < lo {
                table[i] =
                    Bucket { above: f64::NEG_INFINITY, below: f64::NEG_INFINITY, skip: k - 1 };
                continue;
            }
            let next = threshold(k + 1);
            if next * (1.0 + GUARD) < lo {
                table[i] =
                    Bucket { above: t * (1.0 + GUARD), below: t * (1.0 - GUARD), skip: k - 1 };
            } else if t - next < width / 4.0 {
                // The thresholds are now closer than a quarter bucket, and
                // they only get closer: every lower bucket holds several.
                break;
            }
        }
        RowSkip { log_q, table }
    }

    /// The number of pairs draw `r ∈ [ε, 1)` skips:
    /// `(r.ln() / log_q).floor() as i64`.
    #[inline]
    pub(crate) fn skip(&self, r: f64) -> i64 {
        let b = self.table[(r * BUCKETS as f64) as usize];
        if r > b.above {
            b.skip
        } else if r < b.below {
            b.skip + 1
        } else {
            (r.ln() / self.log_q).floor() as i64
        }
    }

    /// Samples the pairs of one `G(s, p)` block and hands each to `emit` as
    /// `(v, w)` with `w < v`, in strictly increasing row-major order.
    ///
    /// Every draw consumes one `gen_range(f64::EPSILON..1.0)`; the block
    /// ends at the first skip that runs past its last pair, so a block of
    /// fewer than two nodes draws nothing. A skip is compared with the
    /// pairs left before it moves the cursor, so no skip can overflow.
    ///
    /// # Errors
    ///
    /// Returns the first error `emit` returns.
    pub(crate) fn rows<R: Rng + ?Sized>(
        &self,
        s: usize,
        rng: &mut R,
        mut emit: impl FnMut(usize, usize) -> Result<(), GraphError>,
    ) -> Result<(), GraphError> {
        if s < 2 {
            return Ok(());
        }
        // The next candidate pair is (v, w); `left` counts it and every
        // pair after it.
        let (mut v, mut w) = (1usize, 0usize);
        let mut left = s * (s - 1) / 2;
        loop {
            let skip = self.skip(rng.gen_range(f64::EPSILON..1.0));
            let skip = usize::try_from(skip).unwrap_or(usize::MAX);
            if skip >= left {
                return Ok(());
            }
            left -= skip + 1;
            w += skip;
            while w >= v {
                w -= v;
                v += 1;
            }
            emit(v, w)?;
            w += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;

    fn exact(log_q: f64, r: f64) -> i64 {
        (r.ln() / log_q).floor() as i64
    }

    /// `r` moved by `d` ulps, kept inside the sampler's range `[ε, 1)`.
    fn nudge(r: f64, d: i64) -> Option<f64> {
        let x = f64::from_bits((r.to_bits() as i64 + d) as u64);
        (f64::EPSILON..1.0).contains(&x).then_some(x)
    }

    /// Edge probabilities from `1e-4` to `1 - 1e-4`, log-spaced at both
    /// ends, plus the benchmark's shapes and a few below `1e-4`, where every
    /// bucket takes the exact expression.
    fn sweep() -> Vec<f64> {
        let mut ps: Vec<f64> = (0..=60).map(|i| 10f64.powf(-4.0 + 4.0 * i as f64 / 60.0)).collect();
        ps.extend((1..40).map(|i| i as f64 / 40.0));
        ps.extend((0..=20).map(|i| 1.0 - 10f64.powf(-4.0 + 3.0 * i as f64 / 20.0)));
        let shape = |s: f64| 8.0 * s.ln() / (s - 1.0);
        ps.extend([shape(40.0), shape(32.0), 1024f64.ln() / 32.0, 1e-8, 1e-17, 1e-300]);
        ps.retain(|&p| p > 0.0 && p < 1.0);
        ps
    }

    #[test]
    fn table_matches_ln_on_random_draws() {
        let mut rng = rng_from_seed(1);
        for p in sweep() {
            let t = RowSkip::new(p);
            for _ in 0..2_000 {
                let r: f64 = rng.gen_range(f64::EPSILON..1.0);
                assert_eq!(t.skip(r), exact(t.log_q, r), "p = {p}, r = {r:e}");
            }
        }
    }

    #[test]
    fn table_matches_ln_at_bucket_edges() {
        for p in sweep() {
            let t = RowSkip::new(p);
            for i in 0..=BUCKETS {
                let edge = i as f64 / BUCKETS as f64;
                for r in (-8..=8).filter_map(|d| nudge(edge, d)) {
                    assert_eq!(t.skip(r), exact(t.log_q, r), "p = {p}, r = {r:e}");
                }
            }
        }
    }

    #[test]
    fn table_matches_ln_at_thresholds() {
        for p in sweep() {
            let t = RowSkip::new(p);
            for k in 1..=40 {
                let at = (k as f64 * t.log_q).exp();
                for r in (-64..=64).filter_map(|d| nudge(at, d)) {
                    assert_eq!(t.skip(r), exact(t.log_q, r), "p = {p}, k = {k}, r = {r:e}");
                }
            }
        }
    }

    #[test]
    fn dense_shapes_mostly_skip_the_ln() {
        // The benchmark's densities: at most a few buckets fall back.
        for p in [0.217, 0.757, 0.894] {
            let t = RowSkip::new(p);
            let exact_buckets = t.table.iter().filter(|b| b.above == f64::INFINITY).count();
            assert!(exact_buckets <= 8, "p = {p}: {exact_buckets} exact buckets");
        }
    }

    #[test]
    fn ln_1m_only_changes_where_one_minus_p_rounds_to_one() {
        for p in [0.5, 1e-3, 1e-12, 1.2e-16] {
            assert_eq!(ln_1m(p), (1.0 - p).ln());
        }
        for p in [5e-17, 1e-17, 1e-300, f64::MIN_POSITIVE] {
            assert_eq!((1.0 - p).ln(), 0.0);
            assert!(ln_1m(p) < 0.0, "p = {p}");
        }
    }

    #[test]
    fn rows_are_row_major_and_in_range() {
        let t = RowSkip::new(0.3);
        let mut last = None;
        t.rows(50, &mut rng_from_seed(4), |v, w| {
            assert!(w < v && v < 50);
            assert!(last < Some((v, w)));
            last = Some((v, w));
            Ok(())
        })
        .unwrap();
        assert!(last.is_some());
    }

    #[test]
    fn rows_below_two_nodes_draw_nothing() {
        let t = RowSkip::new(0.5);
        let mut rng = rng_from_seed(8);
        for s in 0..2 {
            t.rows(s, &mut rng, |_, _| Err(GraphError::EmptySelection)).unwrap();
        }
        assert_eq!(rng.gen::<u64>(), rng_from_seed(8).gen::<u64>());
    }
}
