//! Workload construction (the paper's operating points) and trial sweeps.

use dhc_graph::rng::{derive_seed, rng_from_seed};
use dhc_graph::{generator, thresholds, Graph, GraphError};

/// One `G(n, p)` operating point `p = c ln n / n^δ`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Number of nodes.
    pub n: usize,
    /// Sparsity exponent δ.
    pub delta: f64,
    /// Threshold constant `c`.
    pub c: f64,
}

impl OperatingPoint {
    /// The edge probability of this point (clamped to `[0, 1]`).
    pub fn p(&self) -> f64 {
        thresholds::edge_probability(self.n, self.delta, self.c)
    }

    /// Samples a graph at this point.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`] from the generator (cannot occur for valid
    /// points; kept for honesty).
    pub fn sample(&self, seed: u64) -> Result<Graph, GraphError> {
        generator::gnp(self.n, self.p(), &mut rng_from_seed(seed))
    }
}

/// Runs `trials` independent trials on all available cores (one if the
/// core count cannot be read) and returns the per-trial outputs in trial
/// order. Each trial gets a seed derived from `(seed, index)`.
pub fn run_trials<T, F>(trials: usize, seed: u64, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, u64) -> T + Sync,
{
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut out: Vec<Option<T>> = (0..trials).map(|_| None).collect();
    dhc_pool::run_mut(threads, &mut out, &|i, slot| {
        *slot = Some(f(i, derive_seed(seed, i as u64)))
    });
    out.into_iter().map(|o| o.expect("run_mut ran every trial")).collect()
}

/// Success-rate helper: fraction of `true` in a boolean sample.
pub fn success_rate(ok: &[bool]) -> f64 {
    if ok.is_empty() {
        return 0.0;
    }
    ok.iter().filter(|&&b| b).count() as f64 / ok.len() as f64
}

/// The paper's round-bound scale for DHC1/DHC2: `n^δ · ln²n / ln ln n`
/// (Theorems 1 and 10). Measured rounds divided by this should be roughly
/// constant across `n`.
pub fn theorem_scale(n: usize, delta: f64) -> f64 {
    let nf = (n.max(3)) as f64;
    nf.powf(delta) * nf.ln().powi(2) / nf.ln().ln().max(1.0)
}

/// Phase-1 worker threads for one algorithm run inside a
/// [`run_trials`] sweep: the sweep already occupies one core per
/// concurrent trial, so each run gets the remaining share (at least 1).
/// Results are unaffected — [`dhc_core::DhcConfig::with_parallelism`]
/// is deterministic by contract — this only spends idle cores when the
/// trial count is smaller than the machine.
pub fn phase1_parallelism(trials: usize) -> usize {
    let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    (cores / trials.clamp(1, cores)).max(1)
}

/// Phase-1 partition count used by the experiments: the paper's
/// `n^{1-δ}`, floored so classes keep at least ~32 nodes (below that the
/// per-class rotation runs are dominated by small-sample noise unrelated
/// to the asymptotic claim; the floor is reported in the output).
pub fn floored_partitions(n: usize, delta: f64) -> usize {
    let k_paper = dhc_graph::thresholds::num_partitions(n, delta);
    k_paper.min((n / 32).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operating_point_probability() {
        let pt = OperatingPoint { n: 1024, delta: 0.5, c: 4.0 };
        let expected = 4.0 * (1024f64).ln() / 32.0;
        assert!((pt.p() - expected.min(1.0)).abs() < 1e-12);
    }

    #[test]
    fn sample_is_deterministic() {
        let pt = OperatingPoint { n: 128, delta: 1.0, c: 8.0 };
        assert_eq!(pt.sample(5).unwrap(), pt.sample(5).unwrap());
    }

    #[test]
    fn trials_run_in_order_with_derived_seeds() {
        let results = run_trials(8, 42, |i, s| (i, s));
        for (i, &(idx, seed)) in results.iter().enumerate() {
            assert_eq!(i, idx);
            assert_eq!(seed, dhc_graph::rng::derive_seed(42, i as u64));
        }
    }

    #[test]
    fn trials_parallel_results_match_serial() {
        let par = run_trials(16, 7, |i, s| i as u64 * 1000 + s % 1000);
        let ser: Vec<u64> = (0..16)
            .map(|i| i as u64 * 1000 + dhc_graph::rng::derive_seed(7, i as u64) % 1000)
            .collect();
        assert_eq!(par, ser);
    }

    #[test]
    fn success_rate_counts() {
        assert_eq!(success_rate(&[true, false, true, true]), 0.75);
        assert_eq!(success_rate(&[]), 0.0);
    }
}
