//! Order statistics for timing samples.

/// Median of `samples` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: a metric with no samples is a benchmark bug.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The p90 of `samples` when at least ten samples lie beyond it (n ≥ 100),
/// otherwise the highest whole percentile below 90 that does, with that
/// percentile stated; `None` below 11 samples, where none qualifies.
pub fn p90(samples: &[f64]) -> Option<(u32, f64)> {
    let n = samples.len();
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    // Percentile p sits at rank ceil(p/100 * n) and leaves n - rank beyond.
    let rank = |p: u32| (p as usize * n).div_ceil(100);
    let pct = (1..=90).rev().find(|&p| n >= rank(p) + 10)?;
    Some((pct, v[rank(pct).max(1) - 1]))
}

/// Geometric mean; `None` for an empty or non-positive input.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn one_outlier_does_not_move_the_median() {
        assert_eq!(median(&[10.0, 11.0, 9.0, 10.0, 1000.0]), 10.0);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(p90(&hundred), Some((90, 90.0)));
        // 50 samples: p90 would leave only 5 beyond; p80 leaves exactly 10.
        let fifty: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(p90(&fifty), Some((80, 40.0)));
        // More samples never push the reported percentile past the cap.
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(p90(&many), Some((90, 900.0)));
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(p90(&ten), None);
    }

    #[test]
    fn geomean_rejects_empty_and_non_positive() {
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert!((geomean(&[2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
    }
}
