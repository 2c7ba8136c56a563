//! Thread-safe counters and log₂-bucketed histograms.
//!
//! Both types are lock-free (`AtomicU64` with relaxed ordering — metric
//! increments impose no synchronization edges on the pipeline) and cheap
//! enough to live on the localization hot path: an increment is one
//! atomic RMW, a histogram record is two plus a `leading_zeros`.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of histogram buckets: bucket 0 holds exact zeros, bucket `k`
/// (1 ≤ k ≤ 64) holds values in `[2^(k−1), 2^k)`.
pub(crate) const N_BUCKETS: usize = 65;

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins level metric (anchor health scores, breaker states,
/// queue depths). Stores an `f64` as its IEEE-754 bit pattern in an
/// `AtomicU64`; like [`Counter`], accesses are relaxed — a gauge is a
/// level, not a synchronization point.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge reading `0.0`.
    pub const fn new() -> Self {
        // 0.0f64 has an all-zero bit pattern, so AtomicU64::new(0) is it.
        Self(AtomicU64::new(0))
    }

    /// Overwrites the level.
    pub(crate) fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// The current level.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// The bucket a value lands in: 0 for 0, else `floor(log₂ v) + 1`.
pub(crate) fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// The half-open value range `[lo, hi)` covered by bucket `i`.
pub(crate) fn bucket_bounds(i: usize) -> (u64, u64) {
    match i {
        0 => (0, 1),
        64 => (1 << 63, u64::MAX),
        _ => (1 << (i - 1), 1 << i),
    }
}

/// A log₂-bucketed histogram of `u64` samples (durations in µs, sizes,
/// counts). Log₂ buckets cover the full `u64` domain in 65 slots with
/// ≤ 2× relative error on quantile estimates — the right trade for
/// latency tracking, where the interesting structure is multiplicative.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; N_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// A point-in-time copy of the histogram state.
    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// An immutable copy of a [`Histogram`]'s state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see `bucket_bounds`).
    pub buckets: [u64; N_BUCKETS],
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all sample values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot.
    pub(crate) fn empty() -> Self {
        Self {
            buckets: [0; N_BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    /// Mean sample value; `NaN` when empty.
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate `q`-quantile (`0.0 ≤ q ≤ 1.0`) from the bucket
    /// structure: the geometric midpoint of the bucket holding the
    /// `⌈q·count⌉`-th sample. `NaN` when empty.
    pub(crate) fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let (lo, hi) = bucket_bounds(i);
                return ((lo.max(1) as f64) * (hi as f64)).sqrt();
            }
        }
        f64::NAN
    }

    /// Bucket-wise saturating difference `self − earlier`.
    pub(crate) fn diff(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].saturating_sub(earlier.buckets[i])),
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
        }
    }

    /// True when no samples are recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        // Bucket 0 is exactly {0}; bucket k covers [2^(k-1), 2^k).
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 0..N_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(bucket_index(lo), i, "lower bound of bucket {i}");
            if i < 64 {
                assert_eq!(bucket_index(hi - 1), i, "upper bound of bucket {i}");
                assert_eq!(bucket_index(hi), i + 1, "first value past bucket {i}");
            }
        }
    }

    #[test]
    fn histogram_statistics() {
        let h = Histogram::new();
        for v in [0, 1, 2, 3, 100, 100, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 7);
        assert_eq!(s.sum, 1206);
        assert_eq!(s.buckets[0], 1); // the zero
        assert_eq!(s.buckets[1], 1); // 1
        assert_eq!(s.buckets[2], 2); // 2, 3
        assert_eq!(s.buckets[7], 2); // 100 ∈ [64, 128)
        assert_eq!(s.buckets[10], 1); // 1000 ∈ [512, 1024)
        assert!((s.mean() - 1206.0 / 7.0).abs() < 1e-12);
        // Median sample is 3 → bucket [2,4) → geometric midpoint √8.
        assert!((s.quantile(0.5) - 8.0f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn gauge_is_last_value_wins() {
        let g = Gauge::new();
        assert_eq!(g.get(), 0.0);
        g.set(0.75);
        assert_eq!(g.get(), 0.75);
        g.set(-1.5);
        assert_eq!(g.get(), -1.5);
    }

    #[test]
    fn concurrent_increments_lose_nothing() {
        let c = Counter::new();
        let h = Histogram::new();
        let threads = 8;
        let per_thread = 10_000u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let c = &c;
                let h = &h;
                scope.spawn(move || {
                    for i in 0..per_thread {
                        c.inc();
                        h.record(t * per_thread + i);
                    }
                });
            }
        });
        assert_eq!(c.get(), threads * per_thread);
        let s = h.snapshot();
        assert_eq!(s.count, threads * per_thread);
        assert_eq!(s.buckets.iter().sum::<u64>(), threads * per_thread);
    }

    #[test]
    fn snapshot_diff_isolates_a_window() {
        let h = Histogram::new();
        h.record(10);
        h.record(20);
        let before = h.snapshot();
        h.record(1000);
        let delta = h.snapshot().diff(&before);
        assert_eq!(delta.count, 1);
        assert_eq!(delta.sum, 1000);
        assert_eq!(delta.buckets[10], 1);
        assert_eq!(delta.buckets.iter().sum::<u64>(), 1);
    }
}
