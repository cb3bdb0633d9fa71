//! # acc-metrics — the hot-path observability substrate
//!
//! The smallest useful metrics kit for a discrete-event simulator that is
//! itself under the microscope: a log-linear HDR-style [`Histogram`] for
//! latency/size distributions on the hot path.
//!
//! Design constraints (these are the contract, not aspirations):
//!
//! * **No allocation after construction.** A histogram is one fixed-size
//!   bucket array; [`Histogram::record`] is an array increment plus four
//!   scalar updates. The self-profiler can call it per simulated event.
//! * **Bounded relative error.** Buckets are linear within each power-of-two
//!   octave ([`SUB_BUCKETS`] sub-buckets per octave), so any recorded value
//!   lands in a bucket whose width is at most `value / SUB_BUCKETS` — a
//!   relative quantization error of at most [`Histogram::MAX_RELATIVE_ERROR`]
//!   (values below [`SUB_BUCKETS`] are exact).
//! * **Mergeable.** Two histograms with the same geometry merge by bucket
//!   addition ([`Histogram::merge_from`]); merging is associative and
//!   commutative, so per-shard histograms can be combined in any order.
//! * **Dependency-free.** This crate pulls in nothing, so the simulator core
//!   can depend on it without cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// log2 of [`SUB_BUCKETS`].
pub const SUB_BUCKET_BITS: u32 = 5;

/// Linear sub-buckets per power-of-two octave. 32 sub-buckets bound the
/// relative quantization error at 1/32 ≈ 3.1%.
pub const SUB_BUCKETS: usize = 1 << SUB_BUCKET_BITS;

/// Octaves above the exact range: values with a most-significant bit in
/// `SUB_BUCKET_BITS..=63`.
const OCTAVES: usize = 64 - SUB_BUCKET_BITS as usize;

/// Total bucket count. Every `u64` value maps to exactly one bucket — there
/// is no overflow bucket because the top octave covers through `u64::MAX`.
pub const BUCKET_COUNT: usize = SUB_BUCKETS + OCTAVES * SUB_BUCKETS;

/// A log-linear histogram of `u64` samples (latencies in ns, sizes in
/// bytes), HDR-style: exact below [`SUB_BUCKETS`], then [`SUB_BUCKETS`]
/// linear buckets per power-of-two octave.
///
/// Single-writer by design (`record` takes `&mut self`): the simulator is
/// single-threaded per shard, and cross-shard aggregation goes through
/// [`Histogram::merge_from`]. `sum` is tracked in `u128` so it cannot
/// overflow even for `u64::MAX`-sized samples.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    buckets: Box<[u64; BUCKET_COUNT]>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Worst-case relative quantization error of a recorded value:
    /// bucket width / bucket lower bound = `1 / SUB_BUCKETS`.
    pub const MAX_RELATIVE_ERROR: f64 = 1.0 / SUB_BUCKETS as f64;

    /// An empty histogram. This is the only allocation the type ever makes.
    pub fn new() -> Self {
        Histogram {
            buckets: Box::new([0; BUCKET_COUNT]),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket index `v` falls into.
    #[inline]
    pub fn bucket_index(v: u64) -> usize {
        if v < SUB_BUCKETS as u64 {
            return v as usize;
        }
        // exp = floor(log2 v) >= SUB_BUCKET_BITS; the top SUB_BUCKET_BITS+1
        // bits select the octave + linear sub-bucket.
        let exp = 63 - v.leading_zeros() as usize;
        let shift = exp - SUB_BUCKET_BITS as usize;
        let sub = (v >> shift) as usize - SUB_BUCKETS;
        SUB_BUCKETS + shift * SUB_BUCKETS + sub
    }

    /// Inclusive `[low, high]` value range of bucket `i`.
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        assert!(i < BUCKET_COUNT, "bucket index out of range");
        if i < SUB_BUCKETS {
            return (i as u64, i as u64);
        }
        let shift = (i - SUB_BUCKETS) / SUB_BUCKETS;
        let sub = (i - SUB_BUCKETS) % SUB_BUCKETS;
        let low = ((SUB_BUCKETS + sub) as u64) << shift;
        (low, low + ((1u64 << shift) - 1))
    }

    /// Record one sample. Allocation-free, O(1).
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` occurrences of `v`. Allocation-free, O(1).
    #[inline]
    pub fn record_n(&mut self, v: u64, n: u64) {
        self.buckets[Self::bucket_index(v)] += n;
        self.count += n;
        self.sum += v as u128 * n as u128;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Add every sample of `other` into `self`. Associative & commutative.
    pub fn merge_from(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Samples recorded.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Mean sample (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at percentile `p` (0..=100): the representative (bucket
    /// midpoint, clamped to the observed min/max) of the bucket holding the
    /// `ceil(p/100 · count)`-th smallest sample. Within
    /// [`Histogram::MAX_RELATIVE_ERROR`] of the exact order statistic.
    pub fn value_at_percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let rank = rank.min(self.count);
        // The extremes are tracked exactly — report them exactly.
        if rank == 1 {
            return self.min;
        }
        if rank == self.count {
            return self.max;
        }
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if c > 0 && cum >= rank {
                let (low, high) = Self::bucket_bounds(i);
                let mid = low + (high - low) / 2;
                return mid.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..SUB_BUCKETS as u64 {
            h.record(v);
            assert_eq!(Histogram::bucket_bounds(Histogram::bucket_index(v)), (v, v));
        }
        assert_eq!(h.count(), SUB_BUCKETS as u64);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), SUB_BUCKETS as u64 - 1);
    }

    #[test]
    fn every_u64_maps_to_a_bucket_containing_it() {
        // Octave edges and their neighbours, including the extremes.
        let mut probes = vec![0u64, 1, 31, 32, 33, 63, 64, 65, u64::MAX];
        for exp in SUB_BUCKET_BITS..64 {
            let v = 1u64 << exp;
            probes.extend([v - 1, v, v + 1]);
        }
        for v in probes {
            let i = Histogram::bucket_index(v);
            assert!(i < BUCKET_COUNT, "index {i} out of range for {v}");
            let (lo, hi) = Histogram::bucket_bounds(i);
            assert!(lo <= v && v <= hi, "{v} outside bucket [{lo}, {hi}]");
        }
    }

    #[test]
    fn bucket_bounds_partition_the_u64_line() {
        // Consecutive buckets tile without gap or overlap.
        let mut expected_low = 0u64;
        for i in 0..BUCKET_COUNT {
            let (lo, hi) = Histogram::bucket_bounds(i);
            assert_eq!(lo, expected_low, "gap/overlap before bucket {i}");
            assert!(hi >= lo);
            if i + 1 == BUCKET_COUNT {
                assert_eq!(hi, u64::MAX);
            } else {
                expected_low = hi + 1;
            }
        }
    }

    #[test]
    fn percentiles_of_a_known_distribution() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let exact = |p: f64| ((p / 100.0) * 1000.0).ceil() as u64;
        for p in [1.0, 25.0, 50.0, 90.0, 99.0, 99.9] {
            let est = h.value_at_percentile(p);
            let want = exact(p);
            let err = (est as f64 - want as f64).abs() / want as f64;
            assert!(
                err <= Histogram::MAX_RELATIVE_ERROR,
                "p{p}: est {est} vs exact {want} (err {err:.4})"
            );
        }
        assert_eq!(h.value_at_percentile(100.0), 1000);
        assert_eq!(h.value_at_percentile(0.0), 1);
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for v in [0u64, 5, 31, 32, 100, 4096, 1 << 40, u64::MAX] {
            a.record(v);
            all.record(v);
        }
        for v in [7u64, 33, 1 << 20, 3] {
            b.record_n(v, 3);
            all.record_n(v, 3);
        }
        a.merge_from(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.sum(), all.sum());
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
        for p in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(a.value_at_percentile(p), all.value_at_percentile(p));
        }
    }

    #[test]
    fn empty_histogram_is_calm() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.value_at_percentile(50.0), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn sum_cannot_overflow() {
        let mut h = Histogram::new();
        h.record_n(u64::MAX, 1000);
        assert_eq!(h.sum(), u64::MAX as u128 * 1000);
        assert_eq!(h.count(), 1000);
    }
}
