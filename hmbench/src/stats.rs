//! Order statistics over per-op samples.

/// Samples that must lie beyond a tail percentile before it is reported:
/// with fewer, the "tail" is a handful of ops and moves with any one of
/// them.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The nearest-rank `q`-th percentile (`0 < q <= 100`) of `samples`, or
/// `None` when `samples` is empty.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() || !(q > 0.0 && q <= 100.0) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median (the mean of the middle pair for even counts), or `None`
/// when `samples` is empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// The `q`-th percentile as a tail statistic: `None` unless at least
/// [`TAIL_MIN_BEYOND`] samples lie strictly beyond its rank.
pub fn tail_percentile(samples: &[f64], q: f64) -> Option<f64> {
    let beyond = samples.len() as f64 * (1.0 - q / 100.0);
    if beyond + 1e-9 < TAIL_MIN_BEYOND as f64 {
        return None;
    }
    percentile(samples, q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&v, 1.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&v, 0.0), None);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 90.0), None, "9.9 samples beyond p90");
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 90.0), Some(90.0));
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 75.0), Some(30.0));
        assert_eq!(tail_percentile(&v, 90.0), None);
    }
}
