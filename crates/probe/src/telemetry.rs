//! Windowed time-series telemetry over the probe registry.
//!
//! The [`snapshot`](crate::snapshot) module answers "what happened since
//! process start"; this module answers "what is happening *now*". A
//! background sampler thread (started with [`start`], joined by
//! [`stop`]) copies every registered counter/gauge/histogram at a fixed
//! interval and stores the **delta** since the previous sample in a
//! fixed-capacity ring of [`Window`]s, so rates ("requests/s over the
//! last minute") and short-horizon quantiles survive on a long-lived
//! node whose absolute totals stopped being informative hours ago.
//!
//! * `SRAM_TELEMETRY_WINDOW` — sampling interval in milliseconds
//!   (default 1000, clamped to `[10, 600_000]`);
//! * `SRAM_TELEMETRY_SLOTS` — ring capacity in windows (default 60,
//!   clamped to `[4, 3600]`). With the defaults the ring holds one
//!   minute of one-second windows.
//!
//! # Quantiles
//!
//! The registry's [`Histogram`](crate::Histogram) uses one bucket per
//! power of two — fine for orders of magnitude, uselessly coarse for a
//! p99 latency objective. This module adds [`LogLinear`]: a fixed
//! 976-bucket log-linear histogram (16 linear sub-buckets per octave)
//! whose midpoint quantile estimates carry a guaranteed relative error
//! bound of [`MAX_QUANTILE_RELATIVE_ERROR`] (1/32 ≈ 3.1 %). Snapshots
//! of it ([`QuantileSnapshot`]) are mergeable — summing per-window
//! deltas reproduces the whole-stream histogram exactly — which is
//! what makes windowed p50/p90/p99 well-defined.
//!
//! # Determinism and cost
//!
//! Sampling is wall-clock-driven, but every window records its own
//! measured duration, so rates are exact regardless of scheduler
//! jitter; [`force_sample`] takes a window synchronously for tests and
//! experiments that must not depend on timing. Recording into a
//! [`LogLinear`] is three relaxed atomic RMWs and is deliberately
//! *not* gated on the probe level: the health/metrics surface built on
//! it must keep working on a node running with `SRAM_PROBE=0`.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, LazyLock, Mutex, PoisonError};
use std::time::{Duration, Instant, SystemTime};

use crate::snapshot::{snapshot, Snapshot};

/// Linear sub-buckets per power of two (must be a power of two).
const SUB_BUCKETS: usize = 16;
/// `log2(SUB_BUCKETS)`.
const SUB_SHIFT: u32 = 4;
/// Total bucket count: values `0..16` get exact buckets, then 16
/// sub-buckets per octave for exponents 4..=63.
pub(crate) const LOG_LINEAR_BUCKETS: usize = SUB_BUCKETS + (64 - SUB_SHIFT as usize) * SUB_BUCKETS;

/// Worst-case relative error of a [`QuantileSnapshot::quantile`]
/// estimate: a bucket spanning `[lo, lo + w)` has `lo ≥ 16·w`, so the
/// midpoint is within `w/2 ≤ lo/32` of any sample in it.
pub const MAX_QUANTILE_RELATIVE_ERROR: f64 = 1.0 / 32.0;

/// Default sampling interval.
const DEFAULT_WINDOW_MS: u64 = 1000;
/// Default ring capacity.
const DEFAULT_SLOTS: usize = 60;

/// The bucket a value lands in: exact below [`SUB_BUCKETS`], then
/// `(exponent, sub-bucket)` addressed log-linearly. Contiguous at the
/// boundary (`bucket_index(v) == v` for `v < 32`).
fn bucket_index(value: u64) -> usize {
    if value < SUB_BUCKETS as u64 {
        value as usize
    } else {
        let exponent = 63 - value.leading_zeros();
        let sub = ((value >> (exponent - SUB_SHIFT)) & (SUB_BUCKETS as u64 - 1)) as usize;
        SUB_BUCKETS + (exponent - SUB_SHIFT) as usize * SUB_BUCKETS + sub
    }
}

/// Inclusive `[lo, hi]` value range of a bucket.
fn bucket_bounds(index: usize) -> (u64, u64) {
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

/// A bucket's midpoint — the quantile estimate for ranks that land in
/// it. Computed in `f64` to avoid `u64` overflow near the top octave.
fn bucket_midpoint(index: usize) -> f64 {
    let (lo, hi) = bucket_bounds(index);
    lo as f64 + (hi - lo) as f64 / 2.0
}

/// A concurrent fixed-bucket log-linear histogram of `u64` samples.
///
/// 16 linear sub-buckets per power of two bound the relative width of
/// every bucket by 1/16, which bounds midpoint quantile error by
/// [`MAX_QUANTILE_RELATIVE_ERROR`]. Recording is three relaxed atomic
/// RMWs; reading is [`LogLinear::snapshot`].
#[derive(Debug)]
pub struct LogLinear {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: Box<[AtomicU64]>,
}

impl Default for LogLinear {
    fn default() -> Self {
        Self::new()
    }
}

impl LogLinear {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: (0..LOG_LINEAR_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Copies the current state (non-empty buckets only).
    #[must_use]
    pub fn snapshot(&self) -> QuantileSnapshot {
        let mut buckets = Vec::new();
        for (index, bucket) in self.buckets.iter().enumerate() {
            let n = bucket.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push((index as u16, n));
            }
        }
        QuantileSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A point-in-time (or per-window delta) copy of a [`LogLinear`].
///
/// Mergeable and diffable: `a.diff(b)` then summing the deltas back
/// with [`QuantileSnapshot::merge`] reconstructs `a` exactly, so
/// whole-ring quantiles equal whole-stream quantiles over the same
/// samples.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QuantileSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// `(bucket_index, count)` for each non-empty bucket, ascending.
    pub buckets: Vec<(u16, u64)>,
}

impl QuantileSnapshot {
    /// Mean sample value (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The sum of two snapshots (bucket-wise).
    #[must_use]
    pub fn merge(&self, other: &Self) -> Self {
        let mut map: BTreeMap<u16, u64> = self.buckets.iter().copied().collect();
        for &(index, n) in &other.buckets {
            *map.entry(index).or_insert(0) += n;
        }
        Self {
            count: self.count + other.count,
            sum: self.sum + other.sum,
            buckets: map.into_iter().collect(),
        }
    }

    /// The change since `baseline` (saturating, like
    /// [`Snapshot::diff`]).
    #[must_use]
    pub fn diff(&self, baseline: &Self) -> Self {
        let prior: BTreeMap<u16, u64> = baseline.buckets.iter().copied().collect();
        let mut buckets = Vec::new();
        for &(index, n) in &self.buckets {
            let delta = n.saturating_sub(prior.get(&index).copied().unwrap_or(0));
            if delta > 0 {
                buckets.push((index, delta));
            }
        }
        Self {
            count: self.count.saturating_sub(baseline.count),
            sum: self.sum.saturating_sub(baseline.sum),
            buckets,
        }
    }

    /// The `q`-quantile (`0 < q ≤ 1`) as a bucket-midpoint estimate,
    /// within [`MAX_QUANTILE_RELATIVE_ERROR`] of the exact
    /// sorted-sample quantile. Returns 0 for an empty snapshot.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        // Nearest-rank definition: the ⌈q·n⌉-th smallest sample.
        let rank = (q * self.count as f64)
            .ceil()
            .max(1.0)
            .min(self.count as f64) as u64;
        let mut seen = 0u64;
        for &(index, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bucket_midpoint(index as usize);
            }
        }
        // Unreachable when count matches the buckets; fall back to the
        // largest non-empty bucket.
        self.buckets
            .last()
            .map_or(0.0, |&(index, _)| bucket_midpoint(index as usize))
    }
}

/// Named [`LogLinear`] histograms (the quantile registry). Separate
/// from the main probe registry so recording stays ungated and the
/// per-window diff loop touches only quantile-bearing metrics.
static QUANTS: LazyLock<Mutex<BTreeMap<&'static str, &'static LogLinear>>> =
    LazyLock::new(|| Mutex::new(BTreeMap::new()));

/// The named quantile histogram, created on first use. Call sites use
/// [`probe_handle!`](crate::probe_handle)`(quantiles "…")`, which checks
/// the name against the [`catalogue`](crate::catalogue) and caches the
/// reference; a direct call is a disallowed method.
#[must_use]
pub fn quantiles(name: &'static str) -> &'static LogLinear {
    let mut map = QUANTS.lock().unwrap_or_else(PoisonError::into_inner);
    map.entry(name)
        .or_insert_with(|| Box::leak(Box::new(LogLinear::new())))
}

fn quant_snapshots() -> BTreeMap<&'static str, QuantileSnapshot> {
    let map = QUANTS.lock().unwrap_or_else(PoisonError::into_inner);
    map.iter()
        .map(|(&name, ll)| (name, ll.snapshot()))
        .collect()
}

/// One sampled interval: what changed between two consecutive samples.
#[derive(Debug, Clone)]
pub struct Window {
    /// Monotone window sequence number (process-wide).
    pub seq: u64,
    /// Wall-clock sample time (unix milliseconds).
    pub unix_ms: u64,
    /// Measured interval length (used for rate computation, so
    /// scheduler jitter never skews rates).
    pub duration: Duration,
    /// Counter/gauge/histogram deltas since the previous sample
    /// (gauges keep their sampled value — they are levels, not flows).
    pub delta: Snapshot,
    /// Per-metric quantile-histogram deltas for this interval.
    pub quantiles: BTreeMap<&'static str, QuantileSnapshot>,
}

/// Aggregator state: previous sample baselines plus the window ring.
struct AggState {
    prev: Snapshot,
    prev_quant: BTreeMap<&'static str, QuantileSnapshot>,
    last: Option<Instant>,
    ring: VecDeque<Window>,
    seq: u64,
    slots: usize,
    window: Duration,
}

static AGG: LazyLock<Mutex<AggState>> = LazyLock::new(|| {
    Mutex::new(AggState {
        prev: Snapshot::default(),
        prev_quant: BTreeMap::new(),
        last: None,
        ring: VecDeque::new(),
        seq: 0,
        slots: slots_from_env(),
        window: Duration::from_millis(window_ms_from_env()),
    })
});

/// `SRAM_TELEMETRY_WINDOW` in ms, clamped to `[10, 600_000]`.
fn window_ms_from_env() -> u64 {
    crate::env_var!("SRAM_TELEMETRY_WINDOW")
        .get()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .map_or(DEFAULT_WINDOW_MS, |ms| ms.clamp(10, 600_000))
}

/// `SRAM_TELEMETRY_SLOTS`, clamped to `[4, 3600]`.
fn slots_from_env() -> usize {
    crate::env_var!("SRAM_TELEMETRY_SLOTS")
        .get()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .map_or(DEFAULT_SLOTS, |n| n.clamp(4, 3600))
}

fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64)
}

/// Takes one sample synchronously: diffs the registry against the
/// previous sample and pushes a [`Window`]. The sampler thread calls
/// this on its interval; tests and experiments call it directly so
/// window contents never depend on wall-clock timing.
pub fn force_sample() {
    let now = Instant::now();
    let snap = snapshot();
    let quant = quant_snapshots();
    let mut agg = AGG.lock().unwrap_or_else(PoisonError::into_inner);
    let duration = agg.last.map_or(agg.window, |last| now.duration_since(last));
    let delta = snap.diff(&agg.prev);
    let mut qdelta = BTreeMap::new();
    for (&name, current) in &quant {
        let d = agg
            .prev_quant
            .get(name)
            .map_or_else(|| current.clone(), |prev| current.diff(prev));
        if d.count > 0 {
            qdelta.insert(name, d);
        }
    }
    let window = Window {
        seq: agg.seq,
        unix_ms: unix_ms(),
        duration,
        delta,
        quantiles: qdelta,
    };
    agg.seq += 1;
    agg.prev = snap;
    agg.prev_quant = quant;
    agg.last = Some(now);
    agg.ring.push_back(window);
    while agg.ring.len() > agg.slots {
        agg.ring.pop_front();
    }
    drop(agg);
    // Counted bypassing the probe level gate (the `probe.trace.dropped`
    // pattern): telemetry must report on itself with probes off.
    crate::probe_handle!(counter "telemetry.windows.sampled").inc();
}

/// Clears the ring and re-baselines the next window at the current
/// registry state. For tests and experiments that need a clean slate
/// in a shared process.
pub fn reset() {
    let snap = snapshot();
    let quant = quant_snapshots();
    let mut agg = AGG.lock().unwrap_or_else(PoisonError::into_inner);
    agg.prev = snap;
    agg.prev_quant = quant;
    agg.last = Some(Instant::now());
    agg.ring.clear();
}

/// A copy of the current window ring, oldest first.
#[must_use]
pub fn windows() -> Vec<Window> {
    let agg = AGG.lock().unwrap_or_else(PoisonError::into_inner);
    agg.ring.iter().cloned().collect()
}

/// Sampler lifecycle: refcounted so several owners (server under test,
/// experiment harness) can share one thread; the thread exits and is
/// joined when the count returns to zero.
struct Control {
    refcount: usize,
}

static CONTROL: LazyLock<(Mutex<Control>, Condvar)> =
    LazyLock::new(|| (Mutex::new(Control { refcount: 0 }), Condvar::new()));
static SAMPLER: Mutex<Option<std::thread::JoinHandle<()>>> = Mutex::new(None);

/// Starts (or joins) the background sampler thread. Re-reads
/// `SRAM_TELEMETRY_WINDOW` / `SRAM_TELEMETRY_SLOTS` when the refcount
/// rises from zero. Every `start` must be paired with a [`stop`].
pub fn start() {
    let (lock, _cvar) = &*CONTROL;
    let mut control = lock.lock().unwrap_or_else(PoisonError::into_inner);
    control.refcount += 1;
    if control.refcount > 1 {
        return;
    }
    let window = Duration::from_millis(window_ms_from_env());
    {
        let mut agg = AGG.lock().unwrap_or_else(PoisonError::into_inner);
        agg.window = window;
        agg.slots = slots_from_env();
        if agg.last.is_none() {
            // First-ever start: baseline at "now" so window 0 holds
            // activity during the run, not since process birth.
            agg.prev = snapshot();
            agg.prev_quant = quant_snapshots();
            agg.last = Some(Instant::now());
        }
    }
    drop(control);
    #[expect(
        clippy::disallowed_methods,
        reason = "the sampler handle is parked in `SAMPLER` and joined by the last `stop()`"
    )]
    let handle = std::thread::spawn(move || sampler_loop(window));
    *SAMPLER.lock().unwrap_or_else(PoisonError::into_inner) = Some(handle);
}

/// Releases one [`start`]; when the refcount reaches zero the sampler
/// takes one final drain window, exits, and is joined.
pub fn stop() {
    let (lock, cvar) = &*CONTROL;
    let mut control = lock.lock().unwrap_or_else(PoisonError::into_inner);
    control.refcount = control.refcount.saturating_sub(1);
    let stopping = control.refcount == 0;
    drop(control);
    if !stopping {
        return;
    }
    cvar.notify_all();
    let handle = SAMPLER
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .take();
    if let Some(handle) = handle {
        let _ = handle.join();
    }
}

/// `true` while the sampler thread is live.
#[must_use]
pub fn is_running() -> bool {
    let (lock, _cvar) = &*CONTROL;
    lock.lock().unwrap_or_else(PoisonError::into_inner).refcount > 0
}

fn sampler_loop(window: Duration) {
    let (lock, cvar) = &*CONTROL;
    let mut control = lock.lock().unwrap_or_else(PoisonError::into_inner);
    loop {
        let (guard, _timeout) = cvar
            .wait_timeout(control, window)
            .unwrap_or_else(PoisonError::into_inner);
        control = guard;
        if control.refcount == 0 {
            break;
        }
        drop(control);
        force_sample();
        control = lock.lock().unwrap_or_else(PoisonError::into_inner);
    }
    drop(control);
    // Final drain window so short-lived runs still observe their tail.
    force_sample();
}

/// Per-counter rollup over the ring.
#[derive(Debug, Clone, Copy, Default)]
pub struct CounterStat {
    /// Live cumulative total (since process start).
    pub total: u64,
    /// Sum of deltas across the ring.
    pub delta: u64,
    /// `delta / ring span` in events per second.
    pub rate: f64,
    /// Last window's delta over its own duration.
    pub last_rate: f64,
}

/// Per-metric quantile rollup over the ring.
#[derive(Debug, Clone, Copy, Default)]
pub struct QuantileSummary {
    /// Samples across the ring.
    pub count: u64,
    /// Sum of samples across the ring.
    pub sum: u64,
    /// Median estimate.
    pub p50: f64,
    /// 90th-percentile estimate.
    pub p90: f64,
    /// 99th-percentile estimate.
    pub p99: f64,
}

/// Everything the `metrics` surface exposes, computed once so the
/// Prometheus text form and any JSON rendering of the same `Export`
/// cannot drift from each other.
#[derive(Debug, Clone, Default)]
pub struct Export {
    /// Configured sampling interval (ms).
    pub window_ms: u64,
    /// Configured ring capacity.
    pub slots: usize,
    /// The ring itself, oldest first.
    pub windows: Vec<Window>,
    /// Total measured time covered by the ring, in seconds.
    pub span_s: f64,
    /// Counter rollups by name.
    pub counters: BTreeMap<&'static str, CounterStat>,
    /// Live gauge values by name.
    pub gauges: BTreeMap<&'static str, f64>,
    /// Ring-merged quantile summaries by name.
    pub quantiles: BTreeMap<&'static str, QuantileSummary>,
    /// The raw ring-merged histograms the summaries were computed
    /// from. Exposed so a remote collector can serialize the sparse
    /// buckets, merge them across processes with
    /// [`QuantileSnapshot::merge`], and recompute cluster-wide
    /// quantiles within the same [`MAX_QUANTILE_RELATIVE_ERROR`]
    /// bound instead of averaging per-node percentiles.
    pub quantile_buckets: BTreeMap<&'static str, QuantileSnapshot>,
}

/// Builds an [`Export`] from the current ring plus live totals.
#[must_use]
pub fn export() -> Export {
    let snap = snapshot();
    let (ring, window, slots) = {
        let agg = AGG.lock().unwrap_or_else(PoisonError::into_inner);
        (
            agg.ring.iter().cloned().collect::<Vec<_>>(),
            agg.window,
            agg.slots,
        )
    };
    let span_s: f64 = ring.iter().map(|w| w.duration.as_secs_f64()).sum();
    let last = ring.last();

    let mut counters: BTreeMap<&'static str, CounterStat> = BTreeMap::new();
    for (&name, &total) in &snap.counters {
        counters.insert(
            name,
            CounterStat {
                total,
                ..CounterStat::default()
            },
        );
    }
    for w in &ring {
        for (&name, &d) in &w.delta.counters {
            counters.entry(name).or_default().delta += d;
        }
    }
    for stat in counters.values_mut() {
        if span_s > 0.0 {
            stat.rate = stat.delta as f64 / span_s;
        }
    }
    if let Some(last) = last {
        let secs = last.duration.as_secs_f64();
        if secs > 0.0 {
            for (&name, &d) in &last.delta.counters {
                if let Some(stat) = counters.get_mut(name) {
                    stat.last_rate = d as f64 / secs;
                }
            }
        }
    }

    let mut merged: BTreeMap<&'static str, QuantileSnapshot> = BTreeMap::new();
    for w in &ring {
        for (&name, q) in &w.quantiles {
            let slot = merged.entry(name).or_default();
            *slot = slot.merge(q);
        }
    }
    let quantiles = merged
        .iter()
        .map(|(&name, q)| {
            (
                name,
                QuantileSummary {
                    count: q.count,
                    sum: q.sum,
                    p50: q.quantile(0.50),
                    p90: q.quantile(0.90),
                    p99: q.quantile(0.99),
                },
            )
        })
        .collect();

    Export {
        window_ms: window.as_millis() as u64,
        slots,
        windows: ring,
        span_s,
        counters,
        gauges: snap.gauges.clone(),
        quantiles,
        quantile_buckets: merged,
    }
}

/// Maps a dotted probe name to a Prometheus-legal metric name
/// (`serve.request.total` → `sram_serve_request_total`).
fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 5);
    out.push_str("sram_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

impl Export {
    /// Renders the Prometheus text exposition format (v0.0.4):
    /// counters as `_total` plus a `:rate` gauge over the ring, gauges
    /// verbatim, and quantile metrics as summaries with
    /// `quantile="0.5|0.9|0.99"` labels. Rendered from the same data
    /// as any JSON form of `self`, by construction.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# sram-edp telemetry: {} windows of {} ms (span {:.3}s)",
            self.windows.len(),
            self.window_ms,
            self.span_s
        );
        for (name, stat) in &self.counters {
            let p = prometheus_name(name);
            let _ = writeln!(out, "# TYPE {p} counter");
            let _ = writeln!(out, "{p} {}", stat.total);
            let _ = writeln!(out, "# TYPE {p}_rate gauge");
            let _ = writeln!(out, "{p}_rate {}", fmt_f64(stat.rate));
        }
        for (name, value) in &self.gauges {
            let p = prometheus_name(name);
            let _ = writeln!(out, "# TYPE {p} gauge");
            let _ = writeln!(out, "{p} {}", fmt_f64(*value));
        }
        for (name, q) in &self.quantiles {
            let p = prometheus_name(name);
            let _ = writeln!(out, "# TYPE {p} summary");
            let _ = writeln!(out, "{p}{{quantile=\"0.5\"}} {}", fmt_f64(q.p50));
            let _ = writeln!(out, "{p}{{quantile=\"0.9\"}} {}", fmt_f64(q.p90));
            let _ = writeln!(out, "{p}{{quantile=\"0.99\"}} {}", fmt_f64(q.p99));
            let _ = writeln!(out, "{p}_sum {}", q.sum);
            let _ = writeln!(out, "{p}_count {}", q.count);
        }
        out
    }
}

/// Prometheus number formatting: finite values in shortest-roundtrip
/// scientific notation, non-finite as `NaN`/`+Inf`/`-Inf`.
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_owned()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_owned()
    } else {
        format!("{v:e}")
    }
}

#[cfg(test)]
// These tests register names of their own.
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

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
        assert_eq!(bucket_index(u64::MAX), LOG_LINEAR_BUCKETS - 1);
    }

    #[test]
    fn bucket_bounds_roundtrip() {
        for index in 0..LOG_LINEAR_BUCKETS {
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

    /// Deterministic xorshift generator for the property tests.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
    }

    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
        sorted[rank.min(sorted.len()) - 1]
    }

    #[test]
    fn quantiles_stay_within_the_relative_error_bound() {
        // Satellite: p50/p90/p99 vs exact sorted-sample quantiles
        // across several seeds and sample shapes.
        for seed in [3u64, 17, 0xDEAD_BEEF, 0x00DA_C201] {
            let mut rng = Rng(seed | 1);
            let ll = LogLinear::new();
            let mut samples = Vec::new();
            for i in 0..4000u64 {
                // Mixed distribution: small exact values, a latency-like
                // log-uniform body, and a heavy tail.
                let v = match i % 4 {
                    0 => rng.next() % 16,
                    1 => 100 + rng.next() % 10_000,
                    2 => 1_000_000 + rng.next() % 50_000_000,
                    _ => rng.next() % (1 << (20 + (rng.next() % 30))),
                };
                samples.push(v);
                ll.record(v);
            }
            samples.sort_unstable();
            let snap = ll.snapshot();
            assert_eq!(snap.count, samples.len() as u64);
            for q in [0.5, 0.9, 0.99] {
                let exact = exact_quantile(&samples, q) as f64;
                let est = snap.quantile(q);
                let err = if exact == 0.0 {
                    est
                } else {
                    (est - exact).abs() / exact
                };
                assert!(
                    err <= MAX_QUANTILE_RELATIVE_ERROR,
                    "seed {seed} q{q}: est {est} vs exact {exact} (err {err})"
                );
            }
        }
    }

    #[test]
    fn merged_window_quantiles_equal_whole_stream_quantiles() {
        // Satellite: recording in chunks, snapshotting deltas per
        // chunk, and merging the deltas must reproduce the one-shot
        // histogram bit-for-bit — so quantiles match exactly, not just
        // within bound.
        let mut rng = Rng(0x5EED_CAFE);
        let whole = LogLinear::new();
        let windowed = LogLinear::new();
        let mut merged = QuantileSnapshot::default();
        let mut prev = QuantileSnapshot::default();
        for _chunk in 0..8 {
            for _ in 0..500 {
                let v = rng.next() % 1_000_000;
                whole.record(v);
                windowed.record(v);
            }
            let now = windowed.snapshot();
            merged = merged.merge(&now.diff(&prev));
            prev = now;
        }
        let whole = whole.snapshot();
        assert_eq!(merged, whole, "merge(diffs) must reconstruct the stream");
        for q in [0.5, 0.9, 0.99] {
            assert!((merged.quantile(q) - whole.quantile(q)).abs() < f64::EPSILON);
        }
    }

    #[test]
    fn diff_saturates_and_drops_empty_buckets() {
        let a = QuantileSnapshot {
            count: 5,
            sum: 50,
            buckets: vec![(1, 2), (3, 3)],
        };
        let b = QuantileSnapshot {
            count: 9,
            sum: 90,
            buckets: vec![(1, 2), (3, 5), (4, 2)],
        };
        let d = b.diff(&a);
        assert_eq!(d.count, 4);
        assert_eq!(d.sum, 40);
        assert_eq!(d.buckets, vec![(3, 2), (4, 2)]);
        let reversed = a.diff(&b);
        assert_eq!(reversed.count, 0);
        assert!(reversed.buckets.is_empty());
    }

    #[test]
    fn force_sample_windows_carry_deltas_and_rates() {
        let c = crate::registry::counter("telemetry.test.force_sample");
        reset();
        c.add(5);
        quantiles("telemetry.test.force_latency").record(1000);
        quantiles("telemetry.test.force_latency").record(2000);
        force_sample();
        let ring = windows();
        let w = ring.last().expect("one window");
        assert_eq!(w.delta.counters["telemetry.test.force_sample"], 5);
        let q = &w.quantiles["telemetry.test.force_latency"];
        assert_eq!(q.count, 2);
        assert_eq!(q.sum, 3000);

        c.add(1);
        force_sample();
        let ring = windows();
        let w = ring.last().expect("two windows");
        assert_eq!(w.delta.counters["telemetry.test.force_sample"], 1);
        assert!(
            !w.quantiles.contains_key("telemetry.test.force_latency"),
            "idle quantile metrics drop out of the window"
        );

        let ex = export();
        let stat = &ex.counters["telemetry.test.force_sample"];
        assert!(stat.total >= 6);
        assert!(stat.delta >= 6, "ring sums deltas: {stat:?}");
        let qs = &ex.quantiles["telemetry.test.force_latency"];
        assert_eq!(qs.count, 2);
        assert!(qs.p50 >= 1000.0 * (1.0 - MAX_QUANTILE_RELATIVE_ERROR));
    }

    #[test]
    fn ring_is_bounded_by_slots() {
        reset();
        let cap = {
            let agg = AGG.lock().unwrap_or_else(PoisonError::into_inner);
            agg.slots
        };
        for _ in 0..cap + 10 {
            force_sample();
        }
        assert!(windows().len() <= cap);
    }

    #[test]
    fn sampler_thread_starts_and_joins() {
        start();
        assert!(is_running());
        // Nested start/stop keeps the thread alive.
        start();
        stop();
        assert!(is_running());
        let before = windows().len();
        stop();
        assert!(!is_running());
        // The drain sample on shutdown guarantees ring growth even if
        // the interval never elapsed.
        assert!(windows().len() >= before.min(1));
    }

    #[test]
    fn env_clamps() {
        // Defaults when unset (the test runner does not set these).
        assert!(window_ms_from_env() >= 10);
        assert!(slots_from_env() >= 4);
    }

    #[test]
    fn prometheus_rendering_is_parseable() {
        let mut ex = Export::default();
        ex.counters.insert(
            "serve.request.total",
            CounterStat {
                total: 42,
                delta: 10,
                rate: 2.5,
                last_rate: 3.0,
            },
        );
        ex.gauges.insert("serve.queue.depth", 3.0);
        ex.quantiles.insert(
            "serve.request.latency_ns",
            QuantileSummary {
                count: 10,
                sum: 1000,
                p50: 95.0,
                p90: 180.0,
                p99: 200.0,
            },
        );
        let text = ex.to_prometheus();
        assert!(text.contains("sram_serve_request_total 42"), "{text}");
        assert!(
            text.contains("sram_serve_request_latency_ns{quantile=\"0.5\"} 9.5e1"),
            "{text}"
        );
        assert!(
            text.contains("sram_serve_request_latency_ns_count 10"),
            "{text}"
        );
        assert!(text.contains("sram_serve_queue_depth 3e0"), "{text}");
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().expect("value");
            assert!(
                value.parse::<f64>().is_ok() || value == "NaN" || value.ends_with("Inf"),
                "unparseable value in {line}"
            );
            assert!(parts.next().is_some(), "no name in {line}");
        }
    }
}
