//! The metric type beyond counters and last-value gauges: log-bucketed
//! [`Histogram`]s with percentile summaries.
//!
//! A histogram buckets `u128` samples by bit length (bucket 0 holds
//! zeros; bucket *b* ≥ 1 covers `[2^(b-1), 2^b)`), so recording is O(1),
//! memory is at most 129 slots regardless of the value range, and any two
//! histograms merge losslessly. Percentiles are estimated from the bucket
//! upper bounds, clamped to the observed `[min, max]` — exact enough for
//! pipeline latencies and transaction counts spanning many decades, and
//! guaranteed monotone in the requested quantile.

/// Number of log buckets: one for zero plus one per possible bit length.
pub const NUM_BUCKETS: usize = 129;

/// A log-bucketed histogram of `u128` samples.
///
/// # Examples
///
/// ```
/// use cogent_obs::metrics::Histogram;
///
/// let mut h = Histogram::new();
/// for v in [1u128, 2, 3, 100, 10_000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.min(), Some(1));
/// assert_eq!(h.max(), Some(10_000));
/// assert!(h.p50().unwrap() <= h.p90().unwrap());
/// assert!(h.p90().unwrap() <= h.p99().unwrap());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Histogram {
    count: u128,
    sum: u128,
    min: u128,
    max: u128,
    /// Occupied buckets only, as `(bucket index, sample count)` pairs in
    /// ascending index order.
    buckets: Vec<(u8, u128)>,
}

/// Bucket index of a value: 0 for 0, otherwise its bit length.
fn bucket_of(value: u128) -> u8 {
    (128 - value.leading_zeros()) as u8
}

/// Inclusive `(lo, hi)` value range of bucket `index`.
pub fn bucket_bounds(index: u8) -> (u128, u128) {
    if index == 0 {
        return (0, 0);
    }
    let lo = 1u128 << (index - 1);
    let hi = if index as usize >= NUM_BUCKETS - 1 {
        u128::MAX
    } else {
        (1u128 << index) - 1
    };
    (lo, hi)
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u128) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        let b = bucket_of(value);
        match self.buckets.binary_search_by_key(&b, |&(i, _)| i) {
            Ok(pos) => self.buckets[pos].1 += 1,
            Err(pos) => self.buckets.insert(pos, (b, 1)),
        }
    }

    /// Rebuilds a histogram from serialized parts (see the trace schema).
    ///
    /// # Errors
    ///
    /// Returns a message when the parts are inconsistent: bucket counts
    /// that do not sum to `count`, out-of-order or duplicate bucket
    /// indices, or `min > max` on a non-empty histogram.
    pub fn from_parts(
        count: u128,
        sum: u128,
        min: u128,
        max: u128,
        buckets: Vec<(u8, u128)>,
    ) -> Result<Self, String> {
        if count == 0 {
            if !buckets.is_empty() {
                return Err("empty histogram has occupied buckets".to_string());
            }
            return Ok(Self::new());
        }
        if min > max {
            return Err(format!("min {min} exceeds max {max}"));
        }
        let mut total = 0u128;
        let mut prev: Option<u8> = None;
        for &(b, c) in &buckets {
            if prev.is_some_and(|p| p >= b) {
                return Err("bucket indices not strictly ascending".to_string());
            }
            prev = Some(b);
            total = total.checked_add(c).ok_or("bucket counts overflow u128")?;
        }
        if total != count {
            return Err(format!("bucket counts sum to {total}, expected {count}"));
        }
        Ok(Self {
            count,
            sum,
            min,
            max,
            buckets,
        })
    }

    /// Folds `other` into `self` (the merged histogram is identical to one
    /// fed both sample streams).
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for &(b, c) in &other.buckets {
            match self.buckets.binary_search_by_key(&b, |&(i, _)| i) {
                Ok(pos) => self.buckets[pos].1 += c,
                Err(pos) => self.buckets.insert(pos, (b, c)),
            }
        }
    }

    /// Samples recorded.
    pub fn count(&self) -> u128 {
        self.count
    }

    /// Sum of all samples (saturating at `u128::MAX`).
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest sample, `None` while empty.
    pub fn min(&self) -> Option<u128> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, `None` while empty.
    pub fn max(&self) -> Option<u128> {
        (self.count > 0).then_some(self.max)
    }

    /// Arithmetic mean, `None` while empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// The occupied `(bucket index, sample count)` pairs, ascending.
    pub fn buckets(&self) -> &[(u8, u128)] {
        &self.buckets
    }

    /// Nearest-rank quantile estimate for `q ∈ [0, 1]`: the upper bound of
    /// the bucket holding the rank-`⌈q·count⌉` sample, clamped to the
    /// observed `[min, max]`. Monotone in `q`; `None` while empty.
    pub fn quantile(&self, q: f64) -> Option<u128> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u128).max(1);
        let mut cumulative = 0u128;
        for &(b, c) in &self.buckets {
            cumulative += c;
            if cumulative >= rank {
                let (_, hi) = bucket_bounds(b);
                return Some(hi.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Median estimate (see [`Histogram::quantile`]).
    pub fn p50(&self) -> Option<u128> {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> Option<u128> {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> Option<u128> {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_follow_bit_length() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(7), 3);
        assert_eq!(bucket_of(8), 4);
        assert_eq!(bucket_of(u128::MAX), 128);
        assert_eq!(bucket_bounds(0), (0, 0));
        assert_eq!(bucket_bounds(1), (1, 1));
        assert_eq!(bucket_bounds(2), (2, 3));
        assert_eq!(bucket_bounds(3), (4, 7));
        assert_eq!(bucket_bounds(128), (1u128 << 127, u128::MAX));
        // Every positive value lands in the bucket whose bounds contain it.
        for v in [1u128, 5, 63, 64, 65, 1 << 40, u128::MAX] {
            let (lo, hi) = bucket_bounds(bucket_of(v));
            assert!(lo <= v && v <= hi, "{v} outside its bucket [{lo}, {hi}]");
        }
    }

    #[test]
    fn records_track_count_sum_min_max() {
        let mut h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.quantile(0.5), None);
        for v in [10u128, 0, 7, 1 << 20] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 10 + 7 + (1 << 20));
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1 << 20));
        assert_eq!(h.mean(), Some((10.0 + 7.0 + (1u128 << 20) as f64) / 4.0));
    }

    #[test]
    fn percentiles_on_a_known_distribution() {
        // 100 samples: 50× value 1, 40× value 100, 10× value 10_000.
        let mut h = Histogram::new();
        for _ in 0..50 {
            h.record(1);
        }
        for _ in 0..40 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(10_000);
        }
        // p50 = rank 50 → the bucket of value 1 (exact: bounds are [1,1]).
        assert_eq!(h.p50(), Some(1));
        // p90 = rank 90 → the bucket of 100 ([64,127]); estimate is its
        // upper bound.
        assert_eq!(h.p90(), Some(127));
        // p99 = rank 99 → the bucket of 10_000 ([8192,16383]), clamped to
        // the observed max.
        assert_eq!(h.p99(), Some(10_000));
        assert_eq!(h.quantile(1.0), Some(10_000));
        assert_eq!(h.quantile(0.0), Some(1));
    }

    #[test]
    fn single_sample_percentiles_are_exactly_the_sample() {
        // Clamping to [min, max] collapses every quantile of a singleton.
        let mut h = Histogram::new();
        h.record(12_345);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(12_345));
        }
    }

    #[test]
    fn merge_equals_combined_stream() {
        let samples_a = [3u128, 900, 0, 77];
        let samples_b = [1u128 << 60, 2, 2, 500_000];
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut combined = Histogram::new();
        for &v in &samples_a {
            a.record(v);
            combined.record(v);
        }
        for &v in &samples_b {
            b.record(v);
            combined.record(v);
        }
        a.merge(&b);
        assert_eq!(a, combined);
        // Merging an empty histogram in either direction is the identity.
        let empty = Histogram::new();
        let mut c = combined.clone();
        c.merge(&empty);
        assert_eq!(c, combined);
        let mut e = Histogram::new();
        e.merge(&combined);
        assert_eq!(e, combined);
    }

    #[test]
    fn saturating_sum_does_not_wrap() {
        let mut h = Histogram::new();
        h.record(u128::MAX);
        h.record(u128::MAX);
        assert_eq!(h.sum(), u128::MAX);
        assert_eq!(h.count(), 2);
    }
}
