//! Dependency-free metric primitives: counters, bounded histograms, and
//! the per-endpoint request metrics the serving layer aggregates. All
//! plain `AtomicU64`, so recording never takes a lock.

use std::sync::atomic::{AtomicU64, Ordering};

/// Upper bounds (inclusive, microseconds) of the latency histogram
/// buckets: 100 µs, 1 ms, 10 ms, 100 ms, 1 s, 10 s, and everything above.
pub const LATENCY_BUCKETS_US: [u64; 7] =
    [100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000, u64::MAX];

/// Fine-grained latency bounds (inclusive, microseconds) for quantile
/// estimation: a 1-2-5 ladder from 10 µs to 1 minute. The decade buckets
/// of [`LATENCY_BUCKETS_US`] are too coarse for interpolated p99/p999 —
/// the loadgen harness and the per-phase report quantiles use these.
pub const FINE_LATENCY_BUCKETS_US: [u64; 22] = [
    10,
    20,
    50,
    100,
    200,
    500,
    1_000,
    2_000,
    5_000,
    10_000,
    20_000,
    50_000,
    100_000,
    200_000,
    500_000,
    1_000_000,
    2_000_000,
    5_000_000,
    10_000_000,
    30_000_000,
    60_000_000,
    u64::MAX,
];

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Add `delta`.
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram over `u64` values. Bucket `i` counts values
/// `v <= BOUNDS[i]`; the last bound must be `u64::MAX` so every value
/// lands somewhere. The exact minimum and maximum are tracked alongside,
/// so quantile estimates never leave the observed range.
#[derive(Debug)]
pub struct Histogram<const N: usize> {
    bounds: [u64; N],
    buckets: [AtomicU64; N],
    count: AtomicU64,
    sum: AtomicU64,
    /// Smallest value observed (`u64::MAX` while empty).
    min: AtomicU64,
    /// Largest value observed (`0` while empty).
    max: AtomicU64,
}

impl<const N: usize> Histogram<N> {
    /// A histogram with the given inclusive upper bounds. The bounds must
    /// be strictly increasing and end at `u64::MAX`.
    pub fn new(bounds: [u64; N]) -> Histogram<N> {
        assert!(N > 0, "a histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bucket bounds must be strictly increasing"
        );
        assert_eq!(bounds[N - 1], u64::MAX, "last bound must catch everything");
        Histogram {
            bounds,
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// The inclusive upper bounds.
    pub fn bounds(&self) -> &[u64; N] {
        &self.bounds
    }

    /// Record one value. A value exactly on a bound lands in that bound's
    /// bucket (bounds are inclusive).
    pub fn observe(&self, value: u64) {
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        // The last bound is u64::MAX, so the search cannot miss.
        let idx = self
            .bounds
            .iter()
            .position(|&bound| value <= bound)
            .expect("last bound is u64::MAX");
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket counts (non-cumulative).
    pub fn buckets(&self) -> [u64; N] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Bucket-interpolated quantile estimate (see [`quantile_from_buckets`]),
    /// clamped to the observed minimum and maximum: interpolation inside a
    /// bucket must not report a value no observation reached. `None` until
    /// at least one value was recorded.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let estimate = quantile_from_buckets(&self.bounds, &self.buckets(), q)?;
        let (lo, hi) = (
            self.min.load(Ordering::Relaxed),
            self.max.load(Ordering::Relaxed),
        );
        // A concurrent first `observe` may have bumped a bucket before
        // `min`/`max` are visible; leave that estimate unclamped.
        Some(if lo <= hi {
            estimate.clamp(lo, hi)
        } else {
            estimate
        })
    }
}

/// Estimate the `q`-quantile (`0.0 ..= 1.0`) of a bucketed histogram by
/// linear interpolation inside the bucket holding the target rank, the
/// same estimate Prometheus' `histogram_quantile` computes. The lower
/// edge of bucket `i` is `bounds[i - 1]` (0 for the first); values in the
/// catch-all bucket (`u64::MAX` bound) are clamped to its lower edge, so
/// the estimate never invents an upper bound. Returns `None` for an empty
/// histogram.
pub fn quantile_from_buckets(bounds: &[u64], buckets: &[u64], q: f64) -> Option<u64> {
    debug_assert_eq!(bounds.len(), buckets.len());
    let count: u64 = buckets.iter().sum();
    if count == 0 || bounds.len() != buckets.len() {
        return None;
    }
    let target = q.clamp(0.0, 1.0) * count as f64;
    let mut cum = 0u64;
    for (i, &in_bucket) in buckets.iter().enumerate() {
        let before = cum;
        cum += in_bucket;
        if (cum as f64) < target || in_bucket == 0 {
            continue;
        }
        let lo = if i == 0 { 0 } else { bounds[i - 1] };
        if bounds[i] == u64::MAX {
            return Some(lo);
        }
        let fraction = ((target - before as f64) / in_bucket as f64).clamp(0.0, 1.0);
        return Some(lo + ((bounds[i] - lo) as f64 * fraction).round() as u64);
    }
    // q == 0.0 with all mass above, or rounding: fall back to the lower
    // edge of the first non-empty bucket.
    let i = buckets.iter().position(|&b| b > 0)?;
    Some(if i == 0 { 0 } else { bounds[i - 1] })
}

/// Counters for one serving endpoint: request/error totals and a latency
/// histogram over [`LATENCY_BUCKETS_US`].
pub struct EndpointMetrics {
    requests: Counter,
    errors: Counter,
    latency: Histogram<{ LATENCY_BUCKETS_US.len() }>,
}

impl Default for EndpointMetrics {
    fn default() -> EndpointMetrics {
        EndpointMetrics {
            requests: Counter::new(),
            errors: Counter::new(),
            latency: Histogram::new(LATENCY_BUCKETS_US),
        }
    }
}

impl EndpointMetrics {
    /// Record one handled request.
    pub fn record(&self, micros: u64, ok: bool) {
        self.requests.inc();
        if !ok {
            self.errors.inc();
        }
        self.latency.observe(micros);
    }

    /// A consistent-enough snapshot for reporting.
    pub fn snapshot(&self) -> EndpointSnapshot {
        EndpointSnapshot {
            requests: self.requests.get(),
            errors: self.errors.get(),
            total_micros: self.latency.sum(),
            p50_us: self.latency.quantile(0.50).unwrap_or(0),
            p99_us: self.latency.quantile(0.99).unwrap_or(0),
            p999_us: self.latency.quantile(0.999).unwrap_or(0),
            bucket_bounds_us: LATENCY_BUCKETS_US.to_vec(),
            buckets: self.latency.buckets().to_vec(),
        }
    }
}

/// Per-endpoint request counters and latency histogram, as shipped in the
/// serve layer's `stats` reply.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EndpointSnapshot {
    /// Requests handled (including failed ones).
    pub requests: u64,
    /// Requests answered with an error.
    pub errors: u64,
    /// Sum of handling times, microseconds.
    pub total_micros: u64,
    /// Bucket-interpolated median latency, microseconds (0 when empty).
    pub p50_us: u64,
    /// Bucket-interpolated 99th-percentile latency, microseconds.
    pub p99_us: u64,
    /// Bucket-interpolated 99.9th-percentile latency, microseconds.
    pub p999_us: u64,
    /// Inclusive upper bounds of the latency buckets, microseconds
    /// (`u64::MAX` for the catch-all); same length as `buckets`, so the
    /// histogram is self-describing.
    pub bucket_bounds_us: Vec<u64>,
    /// Latency histogram; bucket `i` counts requests that finished within
    /// `bucket_bounds_us[i]` microseconds.
    pub buckets: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_fills_the_right_bucket() {
        let m = EndpointMetrics::default();
        m.record(50, true); // <= 100 µs
        m.record(700, true); // <= 1 ms
        m.record(2_000_000, false); // <= 10 s
        let s = m.snapshot();
        assert_eq!(s.requests, 3);
        assert_eq!(s.errors, 1);
        assert_eq!(s.total_micros, 50 + 700 + 2_000_000);
        assert_eq!(s.bucket_bounds_us, LATENCY_BUCKETS_US.to_vec());
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[1], 1);
        assert_eq!(s.buckets[5], 1);
        assert_eq!(s.buckets.iter().sum::<u64>(), 3);
    }

    #[test]
    fn value_exactly_on_a_bucket_bound_lands_in_that_bucket() {
        // Bounds are inclusive: 100 µs goes into the 100 µs bucket, and
        // 101 µs into the next one.
        let h = Histogram::new(LATENCY_BUCKETS_US);
        for &bound in &LATENCY_BUCKETS_US[..LATENCY_BUCKETS_US.len() - 1] {
            h.observe(bound);
            h.observe(bound + 1);
        }
        h.observe(u64::MAX);
        let b = h.buckets();
        assert_eq!(b[0], 1, "100 lands in the first bucket");
        for (i, &count) in b
            .iter()
            .enumerate()
            .take(LATENCY_BUCKETS_US.len() - 1)
            .skip(1)
        {
            // Each middle bucket gets its own bound plus the previous
            // bound's +1 spill-over.
            assert_eq!(count, 2, "bucket {i}");
        }
        assert_eq!(b[LATENCY_BUCKETS_US.len() - 1], 2, "catch-all");
        assert_eq!(h.count(), 2 * LATENCY_BUCKETS_US.len() as u64 - 1);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_bounds() {
        let _ = Histogram::new([10, 10, u64::MAX]);
    }

    #[test]
    #[should_panic(expected = "last bound")]
    fn histogram_rejects_a_finite_last_bound() {
        let _ = Histogram::new([10, 20]);
    }

    #[test]
    fn concurrent_records_are_all_counted() {
        let m = EndpointMetrics::default();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..100 {
                        m.record(10, true);
                    }
                });
            }
        });
        assert_eq!(m.snapshot().requests, 800);
        assert_eq!(m.snapshot().buckets[0], 800);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        // 100 values spread uniformly across the first bucket's range
        // (bounds 0..=100): the interpolated median sits mid-bucket.
        let h = Histogram::new([100, 1_000, u64::MAX]);
        for v in 1..=100 {
            h.observe(v);
        }
        assert_eq!(h.quantile(0.5), Some(50));
        assert_eq!(h.quantile(1.0), Some(100));
        // Mass split 90/10 across two buckets: p99 lands 90% of the way
        // through the second bucket: 100 + 0.9 * 900 = 910.
        let h = Histogram::new([100, 1_000, u64::MAX]);
        for _ in 0..90 {
            h.observe(10);
        }
        for k in 1..=10 {
            h.observe(100 + 90 * k);
        }
        assert_eq!(h.quantile(0.99), Some(910));
        // Catch-all mass reads the catch-all's lower edge, raised to the
        // observed minimum.
        let h = Histogram::new([100, u64::MAX]);
        h.observe(u64::MAX - 1);
        assert_eq!(h.quantile(0.99), Some(u64::MAX - 1));
        let h = Histogram::new([100, u64::MAX]);
        h.observe(150);
        h.observe(u64::MAX - 1);
        assert_eq!(h.quantile(0.5), Some(150));
        // Empty histogram has no quantiles.
        let h = Histogram::new([100, u64::MAX]);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn a_single_observation_is_every_quantile() {
        // One 2.28 ms span used to report p50 = 3.50 ms: the estimate
        // interpolated halfway through the 2–5 ms bucket.
        let h = Histogram::new(FINE_LATENCY_BUCKETS_US);
        h.observe(2_280);
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(h.quantile(q), Some(2_280), "q = {q}");
        }
    }

    proptest::proptest! {
        /// Whatever the values and the quantile, the estimate lies within
        /// the observed range.
        #[test]
        fn quantiles_stay_within_the_observed_range(
            values in proptest::collection::vec(0u64..100_000_000, 1..40),
            q in 0.0f64..1.0,
        ) {
            let h = Histogram::new(FINE_LATENCY_BUCKETS_US);
            for &v in &values {
                h.observe(v);
            }
            let lo = *values.iter().min().unwrap();
            let hi = *values.iter().max().unwrap();
            for q in [q, 1.0] {
                let estimate = h.quantile(q).unwrap();
                proptest::prop_assert!(
                    lo <= estimate && estimate <= hi,
                    "q {} of {:?} estimated {} outside [{}, {}]", q, values, estimate, lo, hi
                );
            }
        }
    }

    #[test]
    fn snapshot_carries_interpolated_quantiles() {
        let m = EndpointMetrics::default();
        for _ in 0..100 {
            m.record(50, true);
        }
        let s = m.snapshot();
        assert_eq!(s.p50_us, 50);
        assert!(s.p99_us >= s.p50_us);
        assert!(s.p999_us >= s.p99_us);
    }

    #[test]
    fn counter_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn snapshot_serde_round_trip() {
        let m = EndpointMetrics::default();
        m.record(150, true);
        let s = m.snapshot();
        let json = serde_json::to_string(&s).unwrap();
        let back: EndpointSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
