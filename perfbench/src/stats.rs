//! Order statistics over timing samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) by linear interpolation between the
/// closest ranks, so `quantile(xs, 0.5)` is the usual median. `None` for
/// an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median, or `None` for an empty sample.
pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

/// The samples at most `band` times the smallest one, in sample order.
pub fn fast_mode(xs: &[f64], band: f64) -> Vec<f64> {
    let Some(fastest) = xs.iter().copied().min_by(f64::total_cmp) else { return Vec::new() };
    xs.iter().copied().filter(|&x| x <= fastest * band).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 0.99), Some(100.0));
        assert_eq!(quantile(&xs, 1.0), Some(101.0));
        assert_eq!(quantile(&[0.0, 10.0], 0.25), Some(2.5));
        // Out-of-range q is clamped, not extrapolated.
        assert_eq!(quantile(&[1.0, 2.0], 7.0), Some(2.0));
    }

    #[test]
    fn fast_mode_keeps_the_samples_near_the_fastest() {
        let xs = [1.9, 1.0, 1.1, 1.75, 1.2, 1.21];
        assert_eq!(fast_mode(&xs, 1.2), vec![1.0, 1.1, 1.2]);
        assert_eq!(fast_mode(&xs, 1.0), vec![1.0]);
        assert_eq!(fast_mode(&[], 1.2), Vec::<f64>::new());
    }
}
