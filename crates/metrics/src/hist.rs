//! Log-bucketed latency histogram in the spirit of HDR histograms.
//!
//! Values (nanoseconds) are bucketed with a bounded relative error: each
//! power-of-two range is divided into `SUB_BUCKETS` linear sub-buckets, so
//! the worst-case quantization error is `1 / SUB_BUCKETS` (~1.6 % here).
//! Recording is O(1) and the whole structure is a flat `Vec<u64>`, which
//! keeps it cheap enough to live inside the simulator hot loop.

/// Number of linear sub-buckets per power-of-two range. Must be a power of
/// two so index math stays branch-free.
const SUB_BUCKETS: u64 = 64;
const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros();

/// A histogram of `u64` values (by convention, nanoseconds).
#[derive(Clone, Debug)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

fn bucket_index(value: u64) -> usize {
    // Values below SUB_BUCKETS map 1:1 onto the first buckets.
    if value < SUB_BUCKETS {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros();
    let range = msb - SUB_BITS; // which power-of-two range beyond the linear part
    let sub = (value >> range) - SUB_BUCKETS; // position within the range
    ((range as u64 + 1) * SUB_BUCKETS + sub) as usize
}

fn bucket_midpoint(index: usize) -> u64 {
    let index = index as u64;
    if index < SUB_BUCKETS {
        return index;
    }
    let range = index / SUB_BUCKETS - 1;
    let sub = index % SUB_BUCKETS;
    let low = (SUB_BUCKETS + sub) << range;
    let width = 1u64 << range;
    low + width / 2
}

impl LatencyHistogram {
    /// Creates an empty histogram able to hold the full `u64` range.
    pub fn new() -> Self {
        // 64 ranges of SUB_BUCKETS is a safe upper bound for any u64 value.
        Self {
            counts: vec![0; (65 * SUB_BUCKETS) as usize],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.counts[bucket_index(value)] += 1;
        self.total += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Records `n` identical observations.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[bucket_index(value)] += n;
        self.total += n;
        self.sum += value as u128 * n as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Arithmetic mean of the recorded values (exact, not bucketed).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.sum as f64 / self.total as f64
    }

    /// Smallest recorded value (exact). Zero when empty.
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (exact). Zero when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Value at quantile `q` in `[0, 1]`, e.g. `0.5` for the median or
    /// `0.99` for the 99th percentile, with the bucket's relative error.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Clamp to exact extremes so p0/p100 are honest.
                return bucket_midpoint(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median (p50) value.
    pub fn median(&self) -> u64 {
        self.value_at_quantile(0.5)
    }

    /// 99th percentile value.
    pub fn p99(&self) -> u64 {
        self.value_at_quantile(0.99)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.median(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn exact_for_small_values() {
        let mut h = LatencyHistogram::new();
        for v in 0..SUB_BUCKETS {
            h.record(v);
        }
        assert_eq!(h.count(), SUB_BUCKETS);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), SUB_BUCKETS - 1);
        // Small values are stored exactly.
        assert_eq!(h.value_at_quantile(0.0), 0);
        assert_eq!(h.value_at_quantile(1.0), SUB_BUCKETS - 1);
    }

    #[test]
    fn median_of_uniform_range_is_close() {
        let mut h = LatencyHistogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        let med = h.median();
        let err = (med as f64 - 50_000.0).abs() / 50_000.0;
        assert!(err < 0.05, "median {med} too far from 50000");
    }

    #[test]
    fn p99_of_bimodal_distribution() {
        let mut h = LatencyHistogram::new();
        h.record_n(1_000, 9_900);
        h.record_n(1_000_000, 100);
        let p99 = h.p99();
        assert!(p99 <= 1_100, "p99={p99} should be in the low mode");
        let p999 = h.value_at_quantile(0.999);
        assert!(p999 > 900_000, "p99.9={p999} should be in the high mode");
    }

    #[test]
    fn mean_is_exact() {
        let mut h = LatencyHistogram::new();
        h.record(10);
        h.record(20);
        h.record(30);
        assert_eq!(h.mean(), 20.0);
    }

    #[test]
    fn merge_combines_counts_and_extremes() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(5);
        b.record(500_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 5);
        assert_eq!(a.max(), 500_000);
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for _ in 0..1000 {
            a.record(777);
        }
        b.record_n(777, 1000);
        assert_eq!(a.count(), b.count());
        assert_eq!(a.median(), b.median());
        assert_eq!(a.mean(), b.mean());
    }

    #[test]
    fn bucket_relative_error_is_bounded() {
        // Every value must land in a bucket whose midpoint is within ~3 %.
        for v in [100u64, 1_000, 12_345, 999_999, 123_456_789, u32::MAX as u64] {
            let mid = bucket_midpoint(bucket_index(v));
            let err = (mid as f64 - v as f64).abs() / v as f64;
            assert!(err < 0.03, "value {v} -> midpoint {mid}, err {err}");
        }
    }

    #[test]
    fn quantiles_are_monotonic() {
        let mut h = LatencyHistogram::new();
        let mut x = 1u64;
        for i in 0..10_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record((x >> 33) % 1_000_000 + i % 7);
        }
        let mut prev = 0;
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
            let v = h.value_at_quantile(q);
            assert!(v >= prev, "quantile {q} regressed: {v} < {prev}");
            prev = v;
        }
    }
}
