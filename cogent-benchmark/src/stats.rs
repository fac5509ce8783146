//! Order statistics for the benchmark's summaries.
//!
//! A failed operation is recorded as `f64::INFINITY`, so it sorts above
//! every real latency and counts against each percentile it reaches.

/// Sorts a copy of `values` (total order, infinities last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank index of quantile `q` (0 < q ≤ 1) among `n` sorted
/// samples: the smallest index whose rank covers a share `q`.
pub fn rank_index(n: usize, q: f64) -> usize {
    assert!(n > 0, "quantile of an empty sample");
    let rank = (q * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// How many samples lie strictly above the nearest-rank `q` quantile.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - 1 - rank_index(n, q)
}

/// Whether the `q` quantile of `n` samples has at least ten samples
/// beyond it — the least for which a tail percentile is reported as
/// measured rather than as a single outlier.
pub fn tail_is_supported(n: usize, q: f64) -> bool {
    n > 0 && samples_beyond(n, q) >= 10
}

/// Nearest-rank `q` quantile of unsorted `values`.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    v[rank_index(v.len(), q)]
}

/// The median (mean of the two middle samples for an even count).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The smallest value. A repeated set-up is timed by its fastest
/// repetition: on a host whose speed drifts in phases of seconds, every
/// repetition of one run can fall inside a slow phase, and contention
/// only adds time.
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of an empty sample");
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// First and third quartile with the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so the spreads `compare` prints
/// match the ones the acceptance check computes. Needs two samples.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two samples");
    let m = n + 1;
    let at = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_index() {
        assert_eq!(rank_index(1, 0.5), 0);
        assert_eq!(rank_index(2, 0.5), 0);
        assert_eq!(rank_index(100, 0.5), 49);
        assert_eq!(rank_index(100, 0.99), 98);
        assert_eq!(rank_index(1000, 0.99), 989);
        assert_eq!(rank_index(10, 1.0), 9);
    }

    #[test]
    fn p99_needs_a_thousand_samples_for_ten_beyond() {
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert!(tail_is_supported(1000, 0.99));
        assert!(!tail_is_supported(999, 0.99));
        assert!(!tail_is_supported(48, 0.99));
        assert!(tail_is_supported(20, 0.5));
        assert!(!tail_is_supported(0, 0.5));
    }

    #[test]
    fn percentile_picks_the_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
    }

    #[test]
    fn a_failure_counts_as_infinity() {
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        for slot in v.iter_mut().rev().take(11) {
            *slot = f64::INFINITY;
        }
        assert!(percentile(&v, 0.99).is_infinite());
        assert_eq!(percentile(&v, 0.5), 500.0);
        assert!(median(&[1.0, f64::INFINITY, f64::INFINITY]).is_infinite());
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(fastest(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
    }
}
