//! The one metric primitive: a log-bucketed latency histogram, wait-free
//! on the recording side (a handful of relaxed atomic RMWs) and safe to
//! share across threads behind an `Arc`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Number of power-of-two buckets: bucket `i` covers values in
/// `[2^i, 2^(i+1))` (bucket 0 also covers 0), so 64 buckets span the full
/// `u64` range — plenty for nanosecond latencies.
const BUCKETS: usize = 64;

/// A log-bucketed histogram of `u64` samples (latencies in nanoseconds).
/// Recording is one relaxed `fetch_add` into the sample's power-of-two
/// bucket plus sum/max updates; percentiles are estimated at snapshot
/// time as the upper bound of the bucket holding the requested rank.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, value: u64) {
        let bucket = (u64::BITS - value.max(1).leading_zeros() - 1) as usize;
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records the nanoseconds elapsed since `start`.
    pub fn record_elapsed(&self, start: Instant) {
        self.record(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }

    /// Upper bound of the bucket containing the `q`-quantile sample
    /// (`q` in 0..=100), 0 when empty.
    fn percentile(&self, counts: &[u64; BUCKETS], total: u64, q: u64) -> u64 {
        if total == 0 {
            return 0;
        }
        // Rank of the q-th percentile sample, 1-based, rounded up.
        let rank = (total * q).div_ceil(100).max(1);
        let mut seen = 0;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Upper bound of bucket i, saturating at u64::MAX.
                return if i + 1 >= 64 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
            }
        }
        self.max.load(Ordering::Relaxed)
    }

    /// Point-in-time summary (count, p50/p90/p99 estimates, exact max).
    pub fn summary(&self) -> HistogramSummary {
        let counts: [u64; BUCKETS] =
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        let total: u64 = counts.iter().sum();
        HistogramSummary {
            count: total,
            sum: self.sum.load(Ordering::Relaxed),
            p50: self.percentile(&counts, total, 50),
            p90: self.percentile(&counts, total, 90),
            p99: self.percentile(&counts, total, 99),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// Snapshot of a [`Histogram`]. Percentiles are bucket upper bounds (an
/// over-estimate by at most 2x), `max` is exact.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Median estimate.
    pub p50: u64,
    /// 90th-percentile estimate.
    pub p90: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
    /// Largest sample (exact).
    pub max: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_bound_the_samples() {
        let h = Histogram::default();
        for v in [1u64, 2, 3, 100, 1000, 10_000] {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 6);
        assert_eq!(s.max, 10_000);
        assert!(s.p50 >= 3, "p50 {} must cover the median sample", s.p50);
        assert!(s.p99 >= 10_000 / 2, "p99 {} under-estimates", s.p99);
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99);
        assert_eq!(s.sum, 11_106);
    }

    #[test]
    fn histogram_handles_zero_and_extremes() {
        let h = Histogram::default();
        h.record(0);
        h.record(u64::MAX);
        let s = h.summary();
        assert_eq!(s.count, 2);
        assert_eq!(s.max, u64::MAX);
        assert!(s.p99 >= s.p50);
    }

    #[test]
    fn empty_histogram_summary_is_zero() {
        assert_eq!(Histogram::default().summary(), HistogramSummary::default());
    }
}
