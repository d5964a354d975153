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
//! Windowed p50/p90/p99 come from the registry's log-linear
//! [`Histogram`](crate::Histogram)s, whose estimates stay within
//! [`MAX_QUANTILE_RELATIVE_ERROR`](crate::MAX_QUANTILE_RELATIVE_ERROR)
//! (1/32 ≈ 3.1 %). A window holds each histogram's delta once, and
//! summing the deltas reproduces the whole-stream histogram exactly,
//! which is what makes ring-wide quantiles well-defined.
//!
//! # Determinism and cost
//!
//! Sampling is wall-clock-driven, but every window records its own
//! measured duration, so rates are exact regardless of scheduler
//! jitter; [`force_sample`] takes a window synchronously for tests and
//! experiments that must not depend on timing. The histograms the
//! health/metrics surface reads are recorded through ungated handles
//! ([`probe_handle!`](crate::probe_handle)), so it keeps working on a
//! node running with `SRAM_PROBE=0`.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Condvar, LazyLock, Mutex, PoisonError};
use std::time::{Duration, Instant, SystemTime};

use crate::snapshot::{snapshot, HistogramSnapshot, Snapshot};

/// Default sampling interval.
const DEFAULT_WINDOW_MS: u64 = 1000;
/// Default ring capacity.
const DEFAULT_SLOTS: usize = 60;

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
}

/// Aggregator state: previous sample baselines plus the window ring.
struct AggState {
    prev: Snapshot,
    last: Option<Instant>,
    ring: VecDeque<Window>,
    seq: u64,
    slots: usize,
    window: Duration,
}

static AGG: LazyLock<Mutex<AggState>> = LazyLock::new(|| {
    Mutex::new(AggState {
        prev: Snapshot::default(),
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
    let mut agg = AGG.lock().unwrap_or_else(PoisonError::into_inner);
    let duration = agg.last.map_or(agg.window, |last| now.duration_since(last));
    let window = Window {
        seq: agg.seq,
        unix_ms: unix_ms(),
        duration,
        delta: snap.diff(&agg.prev),
    };
    agg.seq += 1;
    agg.prev = snap;
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
    let mut agg = AGG.lock().unwrap_or_else(PoisonError::into_inner);
    agg.prev = snap;
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

fn sampler_loop(window: Duration) {
    let (lock, cvar) = &*CONTROL;
    let mut control = lock.lock().unwrap_or_else(PoisonError::into_inner);
    // The refcount is read under the lock before every wait: a `stop`
    // whose notify lands before the first wait, or while this thread
    // samples, is seen at once rather than a whole window later.
    while control.refcount > 0 {
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

/// Everything the `metrics` surface exposes, computed once per call.
#[derive(Debug, Clone)]
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
    /// Each histogram that recorded in the ring, merged over it. The
    /// sparse log-linear buckets let a remote collector merge them
    /// across processes with [`HistogramSnapshot::merge`] and recompute
    /// cluster-wide quantiles within the same
    /// [`MAX_QUANTILE_RELATIVE_ERROR`](crate::MAX_QUANTILE_RELATIVE_ERROR)
    /// bound, instead of averaging per-node percentiles.
    pub histograms: BTreeMap<&'static str, HistogramSnapshot>,
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

    let mut histograms: BTreeMap<&'static str, HistogramSnapshot> = BTreeMap::new();
    for w in &ring {
        for (&name, h) in &w.delta.histograms {
            if h.count > 0 {
                let slot = histograms.entry(name).or_default();
                *slot = slot.merge(h);
            }
        }
    }

    Export {
        window_ms: window.as_millis() as u64,
        slots,
        windows: ring,
        span_s,
        counters,
        gauges: snap.gauges.clone(),
        histograms,
    }
}

#[cfg(test)]
// These tests register names of their own.
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::{Histogram, MAX_QUANTILE_RELATIVE_ERROR};

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
        // p50/p90/p99 vs exact sorted-sample quantiles across several
        // seeds and sample shapes.
        for seed in [3u64, 17, 0xDEAD_BEEF, 0x00DA_C201] {
            let mut rng = Rng(seed | 1);
            let hist = Histogram::new("t.quantiles");
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
                hist.record(v);
            }
            samples.sort_unstable();
            let snap = hist.snapshot();
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
        // Recording in chunks, snapshotting deltas per chunk, and
        // merging the deltas must reproduce the one-shot histogram
        // bit-for-bit — so quantiles match exactly, not just within
        // bound.
        let mut rng = Rng(0x5EED_CAFE);
        let whole = Histogram::new("t.whole");
        let windowed = Histogram::new("t.windowed");
        let mut merged = HistogramSnapshot::default();
        let mut prev = HistogramSnapshot::default();
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
        let a = HistogramSnapshot::from_log_linear(5, 50, vec![(1, 2), (3, 3)]);
        let b = HistogramSnapshot::from_log_linear(9, 90, vec![(1, 2), (3, 5), (4, 2)]);
        let d = b.diff(&a);
        assert_eq!(d.count, 4);
        assert_eq!(d.sum, 40);
        assert_eq!(d.log_linear, vec![(3, 2), (4, 2)]);
        assert_eq!(
            d.buckets,
            vec![(2, 2), (3, 2)],
            "3 has bit length 2, 4 has 3"
        );
        let reversed = a.diff(&b);
        assert_eq!(reversed.count, 0);
        assert!(reversed.log_linear.is_empty() && reversed.buckets.is_empty());
    }

    #[test]
    fn force_sample_windows_carry_deltas_and_rates() {
        let c = crate::registry::counter("telemetry.test.force_sample");
        let h = crate::registry::histogram("telemetry.test.force_latency");
        reset();
        c.add(5);
        h.record(1000);
        h.record(2000);
        force_sample();
        let ring = windows();
        let w = ring.last().expect("one window");
        assert_eq!(w.delta.counters["telemetry.test.force_sample"], 5);
        let q = &w.delta.histograms["telemetry.test.force_latency"];
        assert_eq!(q.count, 2);
        assert_eq!(q.sum, 3000);

        c.add(1);
        force_sample();
        let ring = windows();
        let w = ring.last().expect("two windows");
        assert_eq!(w.delta.counters["telemetry.test.force_sample"], 1);
        assert_eq!(w.delta.histograms["telemetry.test.force_latency"].count, 0);

        let ex = export();
        let stat = &ex.counters["telemetry.test.force_sample"];
        assert!(stat.total >= 6);
        assert!(stat.delta >= 6, "ring sums deltas: {stat:?}");
        let qs = &ex.histograms["telemetry.test.force_latency"];
        assert_eq!(qs.count, 2);
        assert!(qs.quantile(0.5) >= 1000.0 * (1.0 - MAX_QUANTILE_RELATIVE_ERROR));
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
        let running = || {
            let (lock, _cvar) = &*CONTROL;
            lock.lock().unwrap_or_else(PoisonError::into_inner).refcount > 0
        };
        start();
        assert!(running());
        // Nested start/stop keeps the thread alive.
        start();
        stop();
        assert!(running());
        let before = windows().len();
        stop();
        assert!(!running());
        assert!(
            SAMPLER
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .is_none(),
            "joined"
        );
        // The drain sample on shutdown guarantees ring growth even if
        // the interval never elapsed.
        assert!(windows().len() >= before.min(1));
    }

    #[test]
    fn a_stop_right_after_start_does_not_wait_out_a_window() {
        // The default window is 1 s. Another test holding the sampler
        // makes this pair a no-op, which passes too.
        let started = Instant::now();
        start();
        stop();
        let took = started.elapsed();
        assert!(
            took < Duration::from_millis(500),
            "start + stop took {took:?}"
        );
    }

    #[test]
    fn env_clamps() {
        // Defaults when unset (the test runner does not set these).
        assert!(window_ms_from_env() >= 10);
        assert!(slots_from_env() >= 4);
    }
}
