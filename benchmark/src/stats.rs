//! Order statistics over timing samples: medians, quartiles, nearest-rank
//! percentiles, and the rule that decides which tail percentile a sample
//! count can support.

/// Sorted copy of `samples` (NaN-free input assumed; `total_cmp` keeps
/// the sort total anyway).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `pct` percent of the samples at or below it.
pub fn percentile_sorted(sorted: &[f64], pct: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (sorted.len() * pct as usize).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// Median as the mean of the two middle samples for even counts.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    assert!(!s.is_empty(), "median of an empty sample");
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// First and third quartile by the exclusive method (what Python's
/// `statistics.quantiles(values, n=4)` returns), so spreads computed
/// here agree with the ones the driver computes.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let s = sorted(samples);
    let n = s.len();
    assert!(n >= 2, "quartiles need two samples");
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    (q3 - q1) / median(samples)
}

/// The highest of p50 / p90 / p99 / p99.9 (as tenths of a percent) that
/// still leaves at least ten samples beyond it; `None` below 20 samples,
/// where not even the median does.
pub fn supported_percentile_tenths(n: usize) -> Option<u32> {
    [999u32, 990, 900, 500]
        .into_iter()
        .find(|&p| n * (1000 - p as usize) / 1000 >= 10)
}

/// Display form of [`supported_percentile_tenths`]: `p99`, `p99.9`, or
/// `none`.
pub fn supported_percentile_label(n: usize) -> String {
    match supported_percentile_tenths(n) {
        None => "none".into(),
        Some(p) if p % 10 == 0 => format!("p{}", p / 10),
        Some(p) => format!("p{}.{}", p / 10, p % 10),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_follows_sample_count() {
        assert_eq!(supported_percentile_tenths(19), None);
        assert_eq!(supported_percentile_tenths(20), Some(500));
        assert_eq!(supported_percentile_tenths(99), Some(500));
        assert_eq!(supported_percentile_tenths(100), Some(900));
        assert_eq!(supported_percentile_tenths(128), Some(900));
        assert_eq!(supported_percentile_tenths(999), Some(900));
        assert_eq!(supported_percentile_tenths(1000), Some(990));
        assert_eq!(supported_percentile_tenths(10_000), Some(999));
        assert_eq!(supported_percentile_label(128), "p90");
        assert_eq!(supported_percentile_label(10_000), "p99.9");
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&s, 50), 50.0);
        assert_eq!(percentile_sorted(&s, 99), 99.0);
        assert_eq!(percentile_sorted(&s, 100), 100.0);
        assert_eq!(percentile_sorted(&[7.0], 99), 7.0);
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.5);
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }
}
