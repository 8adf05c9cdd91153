//! Lock-free metric primitives. All handles are cheap clones around an
//! `Arc`; a handle whose inner slot is `None` (telemetry disabled at
//! creation time) is a pure no-op.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Where a live counter's cell lives: the mutex-created shared map
/// (labeled counters) or the lock-free static table (unlabeled).
#[derive(Clone)]
pub(crate) enum CounterCell {
    Shared(Arc<AtomicU64>),
    Table(&'static AtomicU64),
}

/// Monotonically increasing counter.
#[derive(Clone, Default)]
pub struct Counter {
    pub(crate) cell: Option<CounterCell>,
    /// Metric name, kept so increments can be mirrored into the flight
    /// recorder as counter-delta events while recording is on.
    pub(crate) name: &'static str,
}

impl Counter {
    /// A permanently inert counter (what you get while telemetry is off).
    pub const fn noop() -> Self {
        Counter {
            cell: None,
            name: "",
        }
    }

    pub(crate) fn from_shared(name: &'static str, cell: Arc<AtomicU64>) -> Self {
        Counter {
            cell: Some(CounterCell::Shared(cell)),
            name,
        }
    }

    pub(crate) fn from_table(name: &'static str, cell: &'static AtomicU64) -> Self {
        Counter {
            cell: Some(CounterCell::Table(cell)),
            name,
        }
    }

    #[inline]
    pub fn add(&self, n: u64) {
        let Some(cell) = &self.cell else { return };
        match cell {
            CounterCell::Shared(c) => c.fetch_add(n, Ordering::Relaxed),
            CounterCell::Table(c) => c.fetch_add(n, Ordering::Relaxed),
        };
        if crate::recorder::is_recording() {
            crate::recorder::counter_event(self.name, n);
        }
    }

    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        match &self.cell {
            None => 0,
            Some(CounterCell::Shared(c)) => c.load(Ordering::Relaxed),
            Some(CounterCell::Table(c)) => c.load(Ordering::Relaxed),
        }
    }
}

/// Last-write-wins gauge holding an `f64` (stored as bits in an atomic).
#[derive(Clone, Default)]
pub struct Gauge(pub(crate) Option<Arc<AtomicU64>>);

impl Gauge {
    pub const fn noop() -> Self {
        Gauge(None)
    }

    #[inline]
    pub fn set(&self, value: f64) {
        if let Some(cell) = &self.0 {
            cell.store(value.to_bits(), Ordering::Relaxed);
        }
    }

    pub fn get(&self) -> f64 {
        self.0
            .as_ref()
            .map_or(0.0, |c| f64::from_bits(c.load(Ordering::Relaxed)))
    }
}

/// Number of buckets in [`HistogramCore`]: one for zero plus one per
/// power of two up to `u64::MAX`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Log-scale histogram over `u64` samples. Bucket 0 counts exact zeros;
/// bucket `i >= 1` counts samples in `[2^(i-1), 2^i)`, so a sample that
/// is exactly a power of two `2^k` lands in bucket `k + 1` — the bucket
/// boundaries are exact at powers of two. The largest sample is tracked
/// exactly, so quantiles never exceed it.
pub struct HistogramCore {
    pub(crate) buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    pub(crate) count: AtomicU64,
    pub(crate) sum: AtomicU64,
    pub(crate) max: AtomicU64,
}

impl HistogramCore {
    pub(crate) fn new() -> Self {
        HistogramCore {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Maps a sample to its bucket index.
    #[inline]
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Inclusive lower bound of a bucket (0 for bucket 0, else `2^(i-1)`).
    pub fn bucket_lower_bound(index: usize) -> u64 {
        if index == 0 {
            0
        } else {
            1u64 << (index - 1)
        }
    }

    /// Exclusive upper bound of a bucket, saturating at `u64::MAX`.
    pub fn bucket_upper_bound(index: usize) -> u64 {
        if index >= 64 {
            u64::MAX
        } else {
            1u64 << index
        }
    }

    fn record(&self, value: u64) {
        // Max first: a reader that sees the sample's bucket count
        // should not clamp its quantiles below the sample.
        self.max.fetch_max(value, Ordering::Relaxed);
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }
}

/// Handle to a log-scale histogram.
#[derive(Clone, Default)]
pub struct Histogram(pub(crate) Option<Arc<HistogramCore>>);

impl Histogram {
    pub const fn noop() -> Self {
        Histogram(None)
    }

    /// A live histogram that is not registered anywhere: it records
    /// regardless of the global enable flag and never appears in
    /// exports. Benchmarks use this to summarize latency samples without
    /// perturbing (or depending on) global telemetry state.
    pub fn standalone() -> Self {
        Histogram(Some(Arc::new(HistogramCore::new())))
    }

    #[inline]
    pub fn record(&self, value: u64) {
        if let Some(core) = &self.0 {
            core.record(value);
        }
    }

    /// Records a duration in nanoseconds (saturating at `u64::MAX`).
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    pub fn count(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |c| c.count.load(Ordering::Relaxed))
    }

    pub fn sum(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.sum.load(Ordering::Relaxed))
    }

    /// The largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.max.load(Ordering::Relaxed))
    }

    /// Snapshot of non-empty buckets as `(lower_bound, count)` pairs.
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        let Some(core) = &self.0 else {
            return Vec::new();
        };
        (0..HISTOGRAM_BUCKETS)
            .filter_map(|i| {
                let n = core.buckets[i].load(Ordering::Relaxed);
                (n > 0).then(|| (HistogramCore::bucket_lower_bound(i), n))
            })
            .collect()
    }

    /// Within-bucket interpolated quantile (`q` in `[0, 1]`): locates
    /// the bucket holding the `q`-th ranked sample and interpolates
    /// linearly inside its `[2^(i-1), 2^i)` range, so p99 is no longer
    /// rounded to a power of two, then clamps to the largest sample.
    /// Returns 0.0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        interpolate_quantile(&self.buckets(), self.count(), self.max(), q)
    }
}

/// Shared quantile interpolation over `(lower_bound, count)` bucket
/// pairs (as produced by [`Histogram::buckets`] and carried in
/// [`crate::Snapshot`] histogram entries). The result is clamped to
/// `max`, the largest recorded sample: interpolating toward the top of
/// the last occupied bucket would otherwise report a quantile above
/// every sample.
pub fn interpolate_quantile(buckets: &[(u64, u64)], count: u64, max: u64, q: f64) -> f64 {
    interpolate_in_buckets(buckets, count, q).min(max as f64)
}

fn interpolate_in_buckets(buckets: &[(u64, u64)], count: u64, q: f64) -> f64 {
    if count == 0 || buckets.is_empty() {
        return 0.0;
    }
    let q = q.clamp(0.0, 1.0);
    // 1-based rank of the target sample.
    let target = (q * count as f64).max(1.0);
    let mut cumulative = 0u64;
    for &(lower, n) in buckets {
        cumulative += n;
        if cumulative as f64 >= target {
            if lower == 0 {
                return 0.0; // bucket 0 holds exact zeros
            }
            let upper = lower.saturating_mul(2);
            let before = (cumulative - n) as f64;
            let frac = ((target - before) / n as f64).clamp(0.0, 1.0);
            return lower as f64 + frac * (upper - lower) as f64;
        }
    }
    // Unreachable when count matches the buckets; be defensive anyway.
    buckets.last().map_or(0.0, |&(lower, _)| lower as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_exact_at_powers_of_two() {
        assert_eq!(HistogramCore::bucket_index(0), 0);
        for k in 0..64u32 {
            let p = 1u64 << k;
            assert_eq!(HistogramCore::bucket_index(p), k as usize + 1, "2^{k}");
            if p > 1 {
                // One below a power of two stays in the previous bucket.
                assert_eq!(HistogramCore::bucket_index(p - 1), k as usize, "2^{k}-1");
            }
        }
        assert_eq!(HistogramCore::bucket_index(u64::MAX), 64);
    }

    #[test]
    fn bucket_bounds_cover_the_line() {
        for i in 1..HISTOGRAM_BUCKETS {
            let lo = HistogramCore::bucket_lower_bound(i);
            assert_eq!(HistogramCore::bucket_index(lo), i);
            assert_eq!(HistogramCore::bucket_upper_bound(i - 1), lo);
        }
    }

    #[test]
    fn noop_handles_are_inert() {
        let c = Counter::noop();
        c.add(5);
        assert_eq!(c.get(), 0);
        let h = Histogram::noop();
        h.record(9);
        assert_eq!(h.count(), 0);
        assert!(h.buckets().is_empty());
        assert_eq!(h.quantile(0.99), 0.0);
    }

    #[test]
    fn standalone_histograms_record_while_disabled() {
        crate::disable();
        let h = Histogram::standalone();
        h.record(8);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn interpolated_quantiles_land_inside_buckets() {
        let h = Histogram::standalone();
        // 100 samples spread evenly over [64, 128): bucket 7 only.
        for i in 0..100u64 {
            h.record(64 + (i * 64) / 100);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!((64.0..128.0).contains(&p50), "p50 = {p50}");
        assert!((64.0..=128.0).contains(&p99), "p99 = {p99}");
        assert!(p50 < p99, "interpolation must order quantiles");
        // The true p50 is ~96; interpolation should be close, not a
        // power-of-two snap.
        assert!((p50 - 96.0).abs() < 8.0, "p50 = {p50}");
    }

    #[test]
    fn quantiles_handle_zeros_and_extremes() {
        let h = Histogram::standalone();
        h.record(0);
        h.record(0);
        h.record(1000);
        assert_eq!(h.quantile(0.0), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
        let p100 = h.quantile(1.0);
        assert!((512.0..=1000.0).contains(&p100), "p100 = {p100}");
    }

    #[test]
    fn quantiles_never_exceed_the_largest_sample() {
        // One 1,000 ns sample sits in bucket [512, 1024): interpolating
        // to the bucket top would report p99 = 1,024.
        let h = Histogram::standalone();
        h.record(1000);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.quantile(0.99), 1000.0);
        assert_eq!(h.quantile(1.0), 1000.0);
        h.record(600);
        assert_eq!(h.max(), 1000);
        assert!(h.quantile(0.5) <= 1000.0);
        assert_eq!(h.quantile(0.999), 1000.0);
    }
}
