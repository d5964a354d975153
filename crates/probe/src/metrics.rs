//! The three metric primitives and the RAII timing guard.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::snapshot::HistogramSnapshot;

/// Linear sub-buckets per power of two (a power of two itself).
const SUB_BUCKETS: usize = 16;
/// `log2(SUB_BUCKETS)`.
const SUB_SHIFT: u32 = 4;
/// Number of histogram buckets: values `0..16` get exact buckets, then
/// 16 sub-buckets per octave for exponents 4..=63.
pub(crate) const BUCKETS: usize = SUB_BUCKETS + (64 - SUB_SHIFT as usize) * SUB_BUCKETS;

/// Worst-case relative error of a
/// [`HistogramSnapshot::quantile`](crate::HistogramSnapshot::quantile)
/// estimate: a bucket spanning `[lo, lo + w)` has `lo ≥ 16·w`, so its
/// midpoint is within `w/2 ≤ lo/32` of any sample in it.
pub const MAX_QUANTILE_RELATIVE_ERROR: f64 = 1.0 / 32.0;

/// The bucket a value lands in: exact below [`SUB_BUCKETS`], then
/// `(exponent, sub-bucket)` addressed log-linearly. Contiguous at the
/// boundary (`bucket_index(v) == v` for `v < 32`).
pub(crate) fn bucket_index(value: u64) -> usize {
    if value < SUB_BUCKETS as u64 {
        value as usize
    } else {
        let exponent = 63 - value.leading_zeros();
        let sub = ((value >> (exponent - SUB_SHIFT)) & (SUB_BUCKETS as u64 - 1)) as usize;
        SUB_BUCKETS + (exponent - SUB_SHIFT) as usize * SUB_BUCKETS + sub
    }
}

/// Inclusive `[lo, hi]` value range of a bucket (`index < BUCKETS`).
pub(crate) fn bucket_bounds(index: usize) -> (u64, u64) {
    if index < SUB_BUCKETS {
        (index as u64, index as u64)
    } else {
        let k = index - SUB_BUCKETS;
        let exponent = SUB_SHIFT + (k / SUB_BUCKETS) as u32;
        let sub = (k % SUB_BUCKETS) as u64;
        let width = 1u64 << (exponent - SUB_SHIFT);
        let lo = (SUB_BUCKETS as u64 + sub) << (exponent - SUB_SHIFT);
        (lo, lo + (width - 1))
    }
}

/// A monotonically increasing event count.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    pub(crate) fn new(name: &'static str) -> Self {
        Self {
            name,
            value: AtomicU64::new(0),
        }
    }

    /// The registered name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current total.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    pub(crate) fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A last-write-wins `f64` value (stored as raw bits in an atomic).
#[derive(Debug)]
pub struct Gauge {
    name: &'static str,
    bits: AtomicU64,
}

impl Gauge {
    pub(crate) fn new(name: &'static str) -> Self {
        Self {
            name,
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// The registered name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    pub(crate) fn reset(&self) {
        self.set(0.0);
    }
}

/// A log-linear histogram of `u64` samples.
///
/// Values below 16 get a bucket each; above, every power of two splits
/// into 16 linear sub-buckets, 976 buckets in all, so recording never
/// clips. No bucket is wider than 1/16 of its lower bound, which bounds
/// a quantile estimate's relative error by
/// [`MAX_QUANTILE_RELATIVE_ERROR`]; count and sum are exact. Recording
/// is three relaxed atomic RMWs; reading is [`Histogram::snapshot`],
/// whose copies merge and diff exactly.
#[derive(Debug)]
pub struct Histogram {
    name: &'static str,
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Histogram {
    /// An empty histogram outside the registry (the registry makes its
    /// own through [`histogram`](crate::histogram)).
    #[must_use]
    pub fn new(name: &'static str) -> Self {
        Self {
            name,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
        }
    }

    /// The registered name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Copies the current state.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .map(|(index, n)| (index as u16, n.load(Ordering::Relaxed)))
            .filter(|&(_, n)| n > 0)
            .collect();
        HistogramSnapshot::from_log_linear(
            self.count.load(Ordering::Relaxed),
            self.sum.load(Ordering::Relaxed),
            buckets,
        )
    }

    /// Starts a timing span; the returned guard records the elapsed
    /// nanoseconds into this histogram when dropped.
    pub fn start_span(&'static self) -> Span {
        Span {
            inner: Some((self, Instant::now())),
        }
    }

    pub(crate) fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        for bucket in &self.buckets {
            bucket.store(0, Ordering::Relaxed);
        }
    }
}

/// RAII timing guard: records nanoseconds elapsed since creation into
/// its histogram on drop. The disabled variant (what `probe_span!`
/// yields below the active level) does nothing.
#[derive(Debug)]
#[must_use = "binding a span to `_` drops it immediately; use `let _span = ...`"]
pub struct Span {
    inner: Option<(&'static Histogram, Instant)>,
}

impl Span {
    /// A no-op guard. `const`: constructing it cannot read the clock,
    /// take a lock, or register anything — the guarantee the disabled
    /// branch of `probe_span!` relies on (see `tests/disabled_level.rs`).
    pub const fn disabled() -> Self {
        Self { inner: None }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((histogram, start)) = self.inner.take() {
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            histogram.record(nanos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = Counter::new("t.counter");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn gauge_last_write_wins() {
        let g = Gauge::new("t.gauge");
        assert_eq!(g.get(), 0.0);
        g.set(-2.5);
        g.set(1.25e-9);
        assert_eq!(g.get(), 1.25e-9);
    }

    #[test]
    fn bucket_index_is_contiguous_and_monotone() {
        // Exact below 32 (16 exact + first octave of width-1 buckets).
        for v in 0..32u64 {
            assert_eq!(bucket_index(v), v as usize, "v={v}");
        }
        // Monotone across an increasing sample of the full range.
        let mut prev = 0usize;
        for shift in 0..64u32 {
            for offset in [0u64, 1, 7] {
                let v = (1u64 << shift).saturating_add(offset.saturating_mul(1u64 << shift) / 8);
                let b = bucket_index(v);
                assert!(b >= prev, "index not monotone at {v}");
                prev = b;
            }
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn bucket_bounds_roundtrip() {
        for index in 0..BUCKETS {
            let (lo, hi) = bucket_bounds(index);
            assert!(lo <= hi, "index {index}");
            assert_eq!(bucket_index(lo), index, "lo of {index}");
            assert_eq!(bucket_index(hi), index, "hi of {index}");
            if index > 0 {
                let (_, prev_hi) = bucket_bounds(index - 1);
                assert_eq!(lo, prev_hi + 1, "gap before index {index}");
            }
        }
    }

    /// The power-of-two bucket the snapshot view files one sample under.
    fn power_of_two_bucket(value: u64) -> u32 {
        let h = Histogram::new("t.one");
        h.record(value);
        let buckets = h.snapshot().buckets;
        assert_eq!(buckets.len(), 1, "one sample fills one bucket");
        buckets[0].0
    }

    #[test]
    fn bucket_index_is_bit_length() {
        assert_eq!(power_of_two_bucket(0), 0);
        assert_eq!(power_of_two_bucket(1), 1);
        assert_eq!(power_of_two_bucket(2), 2);
        assert_eq!(power_of_two_bucket(3), 2);
        assert_eq!(power_of_two_bucket(4), 3);
        assert_eq!(power_of_two_bucket(1023), 10);
        assert_eq!(power_of_two_bucket(1024), 11);
        assert_eq!(power_of_two_bucket(u64::MAX), 64);
    }

    #[test]
    fn bucket_index_boundaries_at_every_power_of_two() {
        // Bucket b ≥ 1 covers [2^(b-1), 2^b): each power of two opens
        // a new bucket, and the value just past it stays in that
        // bucket. Exhaustive over every representable boundary.
        assert_eq!(power_of_two_bucket(1), 1, "2^0 opens bucket 1");
        for k in 1..64u32 {
            let pow = 1u64 << k;
            assert_eq!(
                power_of_two_bucket(pow - 1),
                k,
                "2^{k} - 1 closes bucket {k}"
            );
            assert_eq!(
                power_of_two_bucket(pow),
                k + 1,
                "2^{k} opens bucket {}",
                k + 1
            );
            assert_eq!(
                power_of_two_bucket(pow + 1),
                k + 1,
                "2^{k} + 1 stays in bucket {}",
                k + 1
            );
        }
    }

    #[test]
    fn power_of_two_view_is_the_bit_length_of_random_samples() {
        // Each octave's 16 log-linear buckets sum into exactly one
        // power-of-two bucket, so the view equals a histogram keyed by
        // bit length, sample for sample.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let h = Histogram::new("t.random");
        let mut expected = std::collections::BTreeMap::<u32, u64>::new();
        for i in 0..200_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Spread the samples over every bit length, zero included.
            let shift = i % 65;
            let v = if shift == 64 { 0 } else { x >> shift };
            h.record(v);
            *expected.entry(u64::BITS - v.leading_zeros()).or_default() += 1;
        }
        let snap = h.snapshot();
        assert_eq!(snap.buckets, expected.into_iter().collect::<Vec<_>>());
        let fine: u64 = snap.log_linear.iter().map(|&(_, n)| n).sum();
        assert_eq!(fine, snap.count);
    }

    #[test]
    fn histogram_tracks_count_sum_buckets() {
        let h = Histogram::new("t.hist");
        for v in [0u64, 1, 3, 1000, 1000] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 5);
        assert_eq!(snap.sum, 2004);
        assert_eq!(snap.buckets, [(0, 1), (1, 1), (2, 1), (10, 2)]);
        h.reset();
        let snap = h.snapshot();
        assert_eq!(snap.count, 0);
        assert!(snap.buckets.is_empty() && snap.log_linear.is_empty());
    }

    #[test]
    fn span_records_on_drop() {
        // Leak one histogram to get the 'static lifetime spans need.
        let h: &'static Histogram = Box::leak(Box::new(Histogram::new("t.span")));
        {
            let _span = h.start_span();
            std::hint::black_box(0);
        }
        assert_eq!(h.snapshot().count, 1);
        drop(Span::disabled()); // must not panic or record anywhere
        assert_eq!(h.snapshot().count, 1);
    }
}
