//! Log₂-bucket histograms.

use crate::Record;

/// A histogram with logarithmic (base-2) buckets for `u64` observations.
///
/// Bucket `0` holds the value `0`; bucket `i ≥ 1` holds values in
/// `[2^(i-1), 2^i)`. Per-edge bit totals and message sizes span several
/// orders of magnitude, which is exactly what log buckets resolve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket index for `v`: 0 for 0, else `floor(log₂ v) + 1`.
    pub fn bucket_index(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// The half-open value range `[lo, hi)` covered by bucket `i`.
    pub fn bucket_range(i: usize) -> (u64, u64) {
        match i {
            0 => (0, 1),
            64 => (1 << 63, u64::MAX),
            _ => (1 << (i - 1), 1 << i),
        }
    }

    /// Folds another histogram into this one bucket-by-bucket — the
    /// reduction step when each parallel worker kept its own histogram.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, &c) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += c;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Records one observation.
    pub fn observe(&mut self, v: u64) {
        self.buckets[Self::bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean observation (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// The non-empty buckets as `(bucket_lo, count)` pairs.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_range(i).0, c))
            .collect()
    }

    /// An upper bound on the `q`-quantile (`0 < q ≤ 1`): the upper edge of
    /// the bucket where the cumulative count crosses `q·count`.
    pub fn quantile_upper_bound(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let threshold = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= threshold {
                return Some(Self::bucket_range(i).1.min(self.max));
            }
        }
        Some(self.max)
    }

    /// Renders as a `histogram` record: count/sum/min/max/mean plus one
    /// `b<lo>` field per non-empty bucket.
    pub fn to_record(&self, target: &'static str, name: &'static str) -> Record {
        let mut r = Record::new(target, "histogram")
            .with("name", name)
            .with("count", self.count)
            .with("sum", self.sum)
            .with("min", self.min().unwrap_or(0))
            .with("max", self.max().unwrap_or(0))
            .with("mean", self.mean().unwrap_or(0.0));
        for (lo, c) in self.nonzero_buckets() {
            r = r.with(format!("b{lo}"), c);
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1023), 10);
        assert_eq!(Histogram::bucket_index(1024), 11);
        for i in 1..64 {
            let (lo, hi) = Histogram::bucket_range(i);
            assert_eq!(Histogram::bucket_index(lo), i);
            assert_eq!(Histogram::bucket_index(hi - 1), i);
        }
    }

    #[test]
    fn histogram_summary() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1010);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1000));
        assert!((h.mean().unwrap() - 1010.0 / 6.0).abs() < 1e-9);
        // Median (q=0.5) of {0,1,2,3,4,1000}: third value is 2, whose
        // bucket [2,4) upper edge is 4.
        assert_eq!(h.quantile_upper_bound(0.5), Some(4));
        assert_eq!(h.quantile_upper_bound(1.0), Some(1000));
        let r = h.to_record("sim", "edge_bits");
        assert_eq!(r.u64_field("count"), Some(6));
        assert_eq!(r.u64_field("b2"), Some(2)); // values 2 and 3
    }

    #[test]
    fn merge_equals_observing_everything_in_one() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for v in [0u64, 1, 5, 9, 1 << 40] {
            a.observe(v);
            whole.observe(v);
        }
        for v in [3u64, 3, 7, 1024] {
            b.observe(v);
            whole.observe(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.sum(), whole.sum());
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
        assert_eq!(a.nonzero_buckets(), whole.nonzero_buckets());
        // Merging an empty histogram changes nothing (min stays valid).
        let before = a.clone();
        a.merge(&Histogram::new());
        assert_eq!(a.nonzero_buckets(), before.nonzero_buckets());
        assert_eq!(a.min(), before.min());
    }
}
