//! Log-linear histograms, HdrHistogram-style but tiny: each power of two
//! is split into [`SUB_BUCKETS`] linear sub-buckets, so any recorded
//! value lands in a bucket whose width is at most `1/32` of its
//! magnitude (~3% relative error on quantiles) while the whole table
//! stays under 2k buckets for the full `u64` range.

/// Linear sub-buckets per power of two (2^5 = 32).
pub(crate) const SUB_BITS: u32 = 5;
/// Number of linear sub-divisions of each octave.
pub(crate) const SUB_BUCKETS: u64 = 1 << SUB_BITS;

#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros() as u64; // >= SUB_BITS
    let offset = (v >> (exp - SUB_BITS as u64)) - SUB_BUCKETS;
    ((exp - SUB_BITS as u64 + 1) * SUB_BUCKETS + offset) as usize
}

/// Lowest value mapping to bucket `idx` (inverse of `bucket_index`).
#[inline]
fn bucket_low(idx: usize) -> u64 {
    if idx < SUB_BUCKETS as usize {
        return idx as u64;
    }
    let block = (idx as u64) >> SUB_BITS; // >= 1
    let offset = (idx as u64) & (SUB_BUCKETS - 1);
    (SUB_BUCKETS + offset) << (block - 1)
}

/// A log-linear histogram of `u64` values (latencies in nanoseconds,
/// queue depths, utilization in parts-per-million, …).
///
/// Recording is `O(1)`; the bucket table grows lazily to the largest
/// value seen. Quantiles are answered from bucket boundaries, so they
/// carry the bucket's ~3% relative error.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        let idx = bucket_index(v);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded value (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Arithmetic mean (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// The value at quantile `q` in `[0, 1]`, resolved to the lower
    /// boundary of the containing bucket and clamped to the observed
    /// min/max. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_low(idx).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (a, &b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Condenses the histogram into the fixed summary the sinks emit.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            min: self.min().unwrap_or(0),
            max: self.max().unwrap_or(0),
            mean: self.mean().unwrap_or(0.0),
            p50: self.quantile(0.50).unwrap_or(0),
            p90: self.quantile(0.90).unwrap_or(0),
            p99: self.quantile(0.99).unwrap_or(0),
        }
    }
}

/// Fixed-size digest of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Recorded values.
    pub count: u64,
    /// Saturating sum.
    pub sum: u64,
    /// Smallest value (0 when empty).
    pub min: u64,
    /// Largest value (0 when empty).
    pub max: u64,
    /// Arithmetic mean (0 when empty).
    pub mean: f64,
    /// Median (bucket-resolved).
    pub p50: u64,
    /// 90th percentile (bucket-resolved).
    pub p90: u64,
    /// 99th percentile (bucket-resolved).
    pub p99: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..SUB_BUCKETS {
            h.record(v);
        }
        assert_eq!(h.count(), SUB_BUCKETS);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(SUB_BUCKETS - 1));
        assert_eq!(h.quantile(0.0), Some(0));
        assert_eq!(h.quantile(1.0), Some(SUB_BUCKETS - 1));
    }

    #[test]
    fn bucket_roundtrip_low_bound() {
        for idx in 0..1000 {
            let low = bucket_low(idx);
            assert_eq!(bucket_index(low), idx, "idx {idx} low {low}");
        }
        // extremes
        assert_eq!(bucket_index(0), 0);
        let top = bucket_index(u64::MAX);
        assert_eq!(bucket_index(bucket_low(top)), top);
        // the top bucket spans the last 2^(63 - SUB_BITS) values
        assert_eq!(bucket_low(top), u64::MAX - (u64::MAX >> (SUB_BITS + 1)));
    }

    #[test]
    fn quantiles_within_bucket_error() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5).unwrap() as f64;
        assert!((p50 - 5_000.0).abs() / 5_000.0 < 0.04, "p50 = {p50}");
        let p99 = h.quantile(0.99).unwrap() as f64;
        assert!((p99 - 9_900.0).abs() / 9_900.0 < 0.04, "p99 = {p99}");
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut c = Histogram::new();
        for v in [1u64, 40, 1000, 65_536, 12] {
            a.record(v);
            c.record(v);
        }
        for v in [7u64, 7_000_000, 3] {
            b.record(v);
            c.record(v);
        }
        a.merge(&b);
        assert_eq!(a, c);
    }

    #[test]
    fn summary_of_empty_is_zeroed() {
        let s = Histogram::new().summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.max, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn huge_values_do_not_panic() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), Some(u64::MAX));
        assert!(h.quantile(0.5).unwrap() > u64::MAX / 2);
    }
}
