//! Point-in-time copies of the registry: diffing, table rendering, and
//! hand-rolled JSON export.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::escape_into;
use crate::metrics::{bucket_bounds, BUCKETS};
use crate::registry::{self, Handle};

/// A copy of one [`Histogram`](crate::Histogram)'s state, or of its
/// change over an interval.
///
/// Snapshots merge and diff exactly: summing the diffs of successive
/// snapshots with [`merge`](Self::merge) rebuilds the last one, so
/// quantiles over a ring of windows equal quantiles over the same
/// samples recorded at once. The log-linear buckets are private so
/// that every snapshot is built by
/// [`from_log_linear`](Self::from_log_linear), which derives
/// [`buckets`](Self::buckets) from them.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// `(bucket_index, count)` for each non-empty power-of-two bucket,
    /// ascending: bucket `b ≥ 1` covers samples in `[2^(b-1), 2^b)`,
    /// and bucket 0 holds zeros. Each sums its octave's
    /// [`log_linear`](Self::log_linear) buckets.
    pub buckets: Vec<(u32, u64)>,
    pub(crate) log_linear: Vec<(u16, u64)>,
}

/// The power-of-two bucket of a log-linear one: the bit length its
/// values share.
fn octave(index: u16) -> u32 {
    let (lo, _) = bucket_bounds(usize::from(index));
    u64::BITS - lo.leading_zeros()
}

/// A bucket's midpoint, the quantile estimate for ranks that land in
/// it. Computed in `f64` to avoid `u64` overflow near the top octave.
fn bucket_midpoint(index: u16) -> f64 {
    let (lo, hi) = bucket_bounds(usize::from(index));
    lo as f64 + (hi - lo) as f64 / 2.0
}

impl HistogramSnapshot {
    /// A snapshot from `(log-linear bucket index, count)` pairs in any
    /// order. Repeated indices add up; empty buckets and indices past
    /// the last bucket are dropped.
    #[must_use]
    pub fn from_log_linear(count: u64, sum: u64, mut log_linear: Vec<(u16, u64)>) -> Self {
        log_linear.retain(|&(index, n)| n > 0 && usize::from(index) < BUCKETS);
        log_linear.sort_unstable_by_key(|&(index, _)| index);
        log_linear.dedup_by(|later, kept| {
            let repeated = later.0 == kept.0;
            if repeated {
                kept.1 = kept.1.saturating_add(later.1);
            }
            repeated
        });
        let mut buckets: Vec<(u32, u64)> = Vec::new();
        for &(index, n) in &log_linear {
            match buckets.last_mut() {
                Some((bucket, total)) if *bucket == octave(index) => *total += n,
                _ => buckets.push((octave(index), n)),
            }
        }
        Self {
            count,
            sum,
            buckets,
            log_linear,
        }
    }

    /// `(bucket_index, count)` for each non-empty log-linear bucket,
    /// ascending: what quantiles, merges and diffs read.
    #[must_use]
    pub fn log_linear(&self) -> &[(u16, u64)] {
        &self.log_linear
    }

    /// Mean sample value (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The samples of both snapshots together.
    #[must_use]
    pub fn merge(&self, other: &Self) -> Self {
        let buckets = self.log_linear.iter().chain(&other.log_linear).copied();
        Self::from_log_linear(
            self.count.saturating_add(other.count),
            self.sum.saturating_add(other.sum),
            buckets.collect(),
        )
    }

    /// The change since `baseline`, bucket by bucket (saturating — a
    /// [`crate::reset`] in between reads as zero, not underflow).
    #[must_use]
    pub(crate) fn diff(&self, baseline: &Self) -> Self {
        let prior: BTreeMap<u16, u64> = baseline.log_linear.iter().copied().collect();
        let buckets = self.log_linear.iter().map(|&(index, n)| {
            let before = prior.get(&index).copied().unwrap_or(0);
            (index, n.saturating_sub(before))
        });
        Self::from_log_linear(
            self.count.saturating_sub(baseline.count),
            self.sum.saturating_sub(baseline.sum),
            buckets.collect(),
        )
    }

    /// The `q`-quantile (`0 < q ≤ 1`) as a bucket-midpoint estimate,
    /// within [`MAX_QUANTILE_RELATIVE_ERROR`](crate::MAX_QUANTILE_RELATIVE_ERROR)
    /// of the exact sorted-sample quantile. Returns 0 for an empty
    /// snapshot.
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
        for &(index, n) in &self.log_linear {
            seen += n;
            if seen >= rank {
                return bucket_midpoint(index);
            }
        }
        // Unreachable when count matches the buckets; fall back to the
        // largest non-empty bucket.
        self.log_linear
            .last()
            .map_or(0.0, |&(index, _)| bucket_midpoint(index))
    }
}

/// A point-in-time copy of every registered metric.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<&'static str, f64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<&'static str, HistogramSnapshot>,
}

/// Copies the current state of every registered metric.
#[must_use]
pub fn snapshot() -> Snapshot {
    let mut snap = Snapshot::default();
    registry::for_each(|name, handle| match handle {
        Handle::Counter(c) => {
            snap.counters.insert(name, c.get());
        }
        Handle::Gauge(g) => {
            snap.gauges.insert(name, g.get());
        }
        Handle::Histogram(h) => {
            snap.histograms.insert(name, h.snapshot());
        }
    });
    snap
}

impl Snapshot {
    /// `true` when no metric has recorded anything (all counters and
    /// histogram counts zero, no gauges set — gauges count as activity
    /// only when non-zero).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.values().all(|&v| v == 0)
            && self.gauges.values().all(|&v| v == 0.0)
            && self.histograms.values().all(|h| h.count == 0)
    }

    /// The change since `baseline`: counters and histograms subtract
    /// (saturating — a [`crate::reset`] between snapshots reads as
    /// zero, not underflow); gauges keep their current value. Metrics
    /// that only exist in `baseline` are dropped.
    #[must_use]
    pub fn diff(&self, baseline: &Snapshot) -> Snapshot {
        let mut out = Snapshot::default();
        for (&name, &value) in &self.counters {
            let before = baseline.counters.get(name).copied().unwrap_or(0);
            out.counters.insert(name, value.saturating_sub(before));
        }
        for (&name, &value) in &self.gauges {
            out.gauges.insert(name, value);
        }
        for (&name, hist) in &self.histograms {
            let delta = match baseline.histograms.get(name) {
                Some(before) => hist.diff(before),
                None => hist.clone(),
            };
            out.histograms.insert(name, delta);
        }
        out
    }

    /// Renders an aligned plain-text table of all metrics, skipping
    /// those that recorded nothing. Histograms whose name ends in
    /// `_ns` (the span convention) show mean/total as humanized
    /// durations.
    #[must_use]
    pub fn render_table(&self) -> String {
        let name_width = self
            .counters
            .keys()
            .chain(self.gauges.keys())
            .chain(self.histograms.keys())
            .map(|n| n.len())
            .max()
            .unwrap_or(0)
            .max(20);
        let mut out = String::new();

        let counters: Vec<_> = self.counters.iter().filter(|(_, &v)| v > 0).collect();
        if !counters.is_empty() {
            let _ = writeln!(out, "  {:<name_width$}  {:>14}", "counter", "value");
            for (name, value) in counters {
                let _ = writeln!(out, "  {name:<name_width$}  {value:>14}");
            }
        }

        let gauges: Vec<_> = self.gauges.iter().filter(|(_, &v)| v != 0.0).collect();
        if !gauges.is_empty() {
            let _ = writeln!(out, "  {:<name_width$}  {:>14}", "gauge", "value");
            for (name, value) in gauges {
                let _ = writeln!(out, "  {name:<name_width$}  {value:>14.6e}");
            }
        }

        let histograms: Vec<_> = self
            .histograms
            .iter()
            .filter(|(_, h)| h.count > 0)
            .collect();
        if !histograms.is_empty() {
            let _ = writeln!(
                out,
                "  {:<name_width$}  {:>14}  {:>12}  {:>12}",
                "histogram", "count", "mean", "total"
            );
            for (name, hist) in histograms {
                let (mean, total) = if name.ends_with("_ns") {
                    (format_nanos(hist.mean()), format_nanos(hist.sum as f64))
                } else {
                    (format!("{:.1}", hist.mean()), hist.sum.to_string())
                };
                let _ = writeln!(
                    out,
                    "  {name:<name_width$}  {:>14}  {mean:>12}  {total:>12}",
                    hist.count
                );
            }
        }

        if out.is_empty() {
            out.push_str("  (no probe data recorded)\n");
        }
        out
    }

    /// Serializes the snapshot as pretty-printed JSON (two-space
    /// indent, keys in name order — byte-stable for identical data).
    /// Histograms carry their power-of-two buckets; non-finite gauge
    /// values serialize as `null`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = write!(out, "  \"counters\": {{");
        write_entries(&mut out, self.counters.iter(), |out, value| {
            let _ = write!(out, "{value}");
        });
        out.push_str("},\n");

        let _ = write!(out, "  \"gauges\": {{");
        write_entries(&mut out, self.gauges.iter(), |out, value| {
            write_json_f64(out, *value);
        });
        out.push_str("},\n");

        let _ = write!(out, "  \"histograms\": {{");
        write_entries(&mut out, self.histograms.iter(), |out, hist| {
            let _ = write!(
                out,
                "{{\"count\": {}, \"sum\": {}, \"buckets\": [",
                hist.count, hist.sum
            );
            for (i, (bucket, count)) in hist.buckets.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{{\"bucket\": {bucket}, \"count\": {count}}}");
            }
            out.push_str("]}");
        });
        out.push_str("}\n}\n");
        out
    }
}

/// Writes `"name": <value>` entries with two-space-indented lines and
/// a trailing newline-plus-indent closing brace, or nothing for an
/// empty map (so the caller's `{}` stays on one line).
fn write_entries<'s, V: 's>(
    out: &mut String,
    entries: impl ExactSizeIterator<Item = (&'s &'static str, &'s V)>,
    mut write_value: impl FnMut(&mut String, &V),
) {
    let n = entries.len();
    for (i, (name, value)) in entries.enumerate() {
        out.push_str("\n    \"");
        escape_into(out, name);
        out.push_str("\": ");
        write_value(out, value);
        if i + 1 < n {
            out.push(',');
        } else {
            out.push_str("\n  ");
        }
    }
}

fn write_json_f64(out: &mut String, value: f64) {
    if value.is_finite() {
        // Shortest-roundtrip scientific notation ("1.5e0", "-3.25e-21")
        // is a valid JSON number and stays compact at any magnitude.
        let _ = write!(out, "{value:e}");
    } else {
        out.push_str("null");
    }
}

/// Formats a nanosecond quantity with an appropriate unit.
fn format_nanos(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.0}ns")
    } else if ns < 1e6 {
        format!("{:.1}us", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.1}ms", ns / 1e6)
    } else {
        format!("{:.2}s", ns / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Histogram;

    /// A histogram snapshot of `samples`.
    fn recorded(samples: &[u64]) -> HistogramSnapshot {
        let hist = Histogram::new("t.hist");
        for &v in samples {
            hist.record(v);
        }
        hist.snapshot()
    }

    fn sample() -> Snapshot {
        let mut snap = Snapshot::default();
        snap.counters.insert("a.count", 3);
        snap.gauges.insert("b.gauge", 1.5);
        snap.histograms.insert("c.hist_ns", recorded(&[1500, 1500]));
        snap
    }

    #[test]
    fn diff_subtracts_counts_keeps_gauges() {
        let newer = sample();
        let mut older = sample();
        older.counters.insert("a.count", 1);
        older.gauges.insert("b.gauge", 9.0);
        older.histograms.insert("c.hist_ns", recorded(&[1500]));

        let delta = newer.diff(&older);
        assert_eq!(delta.counters["a.count"], 2);
        assert_eq!(delta.gauges["b.gauge"], 1.5);
        assert_eq!(delta.histograms["c.hist_ns"], recorded(&[1500]));
        assert_eq!(delta.histograms["c.hist_ns"].buckets, vec![(11, 1)]);
    }

    #[test]
    fn diff_drops_metrics_present_only_in_the_baseline() {
        // A metric that existed before but not now (possible when the
        // baseline came from another process via JSON, or after a
        // registry divergence) must be dropped, not resurrected at
        // zero — `diff` documents "metrics that only exist in
        // `baseline` are dropped".
        let newer = sample();
        let mut older = sample();
        older.counters.insert("baseline.only_counter", 9);
        older.gauges.insert("baseline.only_gauge", 4.5);
        older
            .histograms
            .insert("baseline.only_hist", recorded(&[10, 10, 10]));

        let delta = newer.diff(&older);
        assert!(!delta.counters.contains_key("baseline.only_counter"));
        assert!(!delta.gauges.contains_key("baseline.only_gauge"));
        assert!(!delta.histograms.contains_key("baseline.only_hist"));
        // The shared metrics still diff normally alongside the drops.
        assert_eq!(delta.counters["a.count"], 0);
        assert_eq!(delta.histograms["c.hist_ns"].count, 0);
    }

    #[test]
    fn diff_against_reset_saturates() {
        let mut older = sample();
        older.counters.insert("a.count", 100);
        let delta = sample().diff(&older);
        assert_eq!(delta.counters["a.count"], 0);
    }

    #[test]
    fn empty_detection() {
        assert!(Snapshot::default().is_empty());
        assert!(!sample().is_empty());
        let mut zeroed = Snapshot::default();
        zeroed.counters.insert("z", 0);
        assert!(zeroed.is_empty());
    }

    #[test]
    fn table_renders_all_sections() {
        let table = sample().render_table();
        assert!(table.contains("a.count"), "{table}");
        assert!(table.contains("b.gauge"), "{table}");
        assert!(table.contains("c.hist_ns"), "{table}");
        assert!(table.contains("1.5us"), "{table}"); // mean of 3000ns/2
        assert!(Snapshot::default().render_table().contains("no probe data"));
    }

    #[test]
    fn json_is_stable_and_escaped() {
        let json = sample().to_json();
        assert_eq!(json, sample().to_json());
        assert!(json.contains("\"a.count\": 3"), "{json}");
        assert!(json.contains("\"b.gauge\": 1.5e0"), "{json}");
        assert!(json.contains("{\"bucket\": 11, \"count\": 2}"), "{json}");

        let mut snap = Snapshot::default();
        snap.gauges.insert("weird\"name", f64::NAN);
        snap.gauges.insert("whole", 2.0);
        let json = snap.to_json();
        assert!(json.contains("\"weird\\\"name\": null"), "{json}");
        assert!(json.contains("\"whole\": 2e0"), "{json}");
    }

    #[test]
    fn format_nanos_scales() {
        assert_eq!(format_nanos(12.0), "12ns");
        assert_eq!(format_nanos(1500.0), "1.5us");
        assert_eq!(format_nanos(2.5e6), "2.5ms");
        assert_eq!(format_nanos(3.21e9), "3.21s");
    }
}
