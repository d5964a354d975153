//! Metrics federation: cluster-wide quantiles from per-node histograms.
//!
//! Each node's `metrics` op exports its windowed histograms as sparse
//! `[bucket, count]` log-linear arrays. Because the bucket layout is
//! identical on every node, the histograms merge losslessly: the
//! collector polls every node, sums buckets per metric with
//! [`HistogramSnapshot::merge`], and reads cluster-wide p50/p90/p99 off
//! the merged distribution — still within the histogram's
//! `MAX_QUANTILE_RELATIVE_ERROR` (1/32) bound, which averaging
//! per-node percentiles would not be. The same reply carries each
//! node's cache block (the per-shard hit breakdown) and its
//! `serve.slo.*` counters over the node's telemetry ring, so one
//! request per node feeds the whole sweep and the SLO burn is computed
//! over the whole cluster's recent traffic rather than per node.
//!
//! The router answers `cluster-metrics` and `cluster-health` from a
//! fresh poll on every call — never cached: a stale quantile plane is
//! worse than a slow one.

use std::collections::BTreeMap;

use sram_probe::HistogramSnapshot;
use sram_serve::{histogram_json, Json, ServeError};

/// SLO burn at or above this is a `degraded` verdict (mirrors the
/// node-local threshold in `sram-serve`).
const BURN_DEGRADED: f64 = 1.0;

/// SLO burn at or above this is an `unhealthy` verdict.
const BURN_UNHEALTHY: f64 = 10.0;

/// One node's parsed `metrics` poll.
#[derive(Debug, Clone, Default)]
pub struct NodePoll {
    /// Raw histograms by metric name.
    pub quantiles: BTreeMap<String, HistogramSnapshot>,
    /// Counters by name over the node's telemetry ring, or their
    /// lifetime totals when the node reports no window yet (the
    /// `serve.slo.*` family is what the merged burn reads).
    pub counters: BTreeMap<String, u64>,
    /// The node's cache block from `metrics` (hits, misses, …).
    pub cache: Option<Json>,
    /// Poll failure, when the node did not answer.
    pub error: Option<String>,
}

/// A full cluster sweep: per-node polls plus the merged histograms.
#[derive(Debug, Clone, Default)]
pub struct ClusterMetrics {
    /// Per-node polls in configuration order.
    pub nodes: Vec<(String, NodePoll)>,
    /// Bucket-wise merged histograms across every answering node.
    pub merged: BTreeMap<String, HistogramSnapshot>,
}

/// Parses one exported histogram object (`{"count":…,"sum":…,
/// "buckets":[[index,count],…]}`, as [`histogram_json`] writes it) back
/// into a mergeable snapshot.
#[must_use]
pub fn parse_snapshot(q: &Json) -> HistogramSnapshot {
    let mut buckets = Vec::new();
    for pair in q.get("buckets").and_then(Json::as_array).unwrap_or(&[]) {
        if let Some(entries) = pair.as_array() {
            if let (Some(idx), Some(count)) = (
                entries.first().and_then(Json::as_u64),
                entries.get(1).and_then(Json::as_u64),
            ) {
                if let Ok(idx) = u16::try_from(idx) {
                    buckets.push((idx, count));
                }
            }
        }
    }
    HistogramSnapshot::from_log_linear(
        q.get("count").and_then(Json::as_u64).unwrap_or(0),
        q.get("sum").and_then(Json::as_u64).unwrap_or(0),
        buckets,
    )
}

fn parse_metrics_reply(reply: &Json, poll: &mut NodePoll) {
    let Some(result) = reply.get("result") else {
        poll.error = Some("metrics reply carries no result".into());
        return;
    };
    if let Some(Json::Obj(quantiles)) = result.get("quantiles") {
        for (name, q) in quantiles {
            poll.quantiles.insert(name.clone(), parse_snapshot(q));
        }
    }
    // The ring's deltas, as the node's own `health` reads them; the
    // lifetime totals only before its first window.
    let has_ring = result
        .get("windows")
        .and_then(Json::as_u64)
        .is_some_and(|windows| windows > 0);
    let field = if has_ring { "delta" } else { "total" };
    if let Some(Json::Obj(counters)) = result.get("counters") {
        for (name, stat) in counters {
            if let Some(value) = stat.get(field).and_then(Json::as_u64) {
                poll.counters.insert(name.clone(), value);
            }
        }
    }
    poll.cache = result.get("cache").cloned();
}

/// Polls every node through `call` (address, request line → reply),
/// one `metrics` request per node, and merges the results. Poll
/// failures are recorded per node — a dead shard must show up as a
/// hole in the plane, not vanish from it.
pub fn poll<F>(nodes: &[String], mut call: F) -> ClusterMetrics
where
    F: FnMut(&str, &str) -> Result<Json, ServeError>,
{
    // Ungated: the collector must count with probes off.
    sram_probe::probe_handle!(counter "cluster.metrics.polls").inc();
    let mut sweep = ClusterMetrics::default();
    for node in nodes {
        let mut poll = NodePoll::default();
        match call(node, r#"{"op":"metrics"}"#) {
            Ok(reply) => parse_metrics_reply(&reply, &mut poll),
            Err(e) => poll.error = Some(e.to_string()),
        }
        if poll.error.is_some() {
            sram_probe::probe_handle!(counter "cluster.metrics.poll_errors").inc();
        }
        for (name, snap) in &poll.quantiles {
            let slot = sweep.merged.entry(name.clone()).or_default();
            *slot = slot.merge(snap);
        }
        sweep.nodes.push((node.clone(), poll));
    }
    if let Some(latency) = sweep.merged.get("serve.request.latency_ns") {
        // Ungated gauges: the trace soak's invariant rows read them.
        sram_probe::probe_handle!(gauge "cluster.metrics.merged_p50").set(latency.quantile(0.50));
        sram_probe::probe_handle!(gauge "cluster.metrics.merged_p90").set(latency.quantile(0.90));
        sram_probe::probe_handle!(gauge "cluster.metrics.merged_p99").set(latency.quantile(0.99));
    }
    sweep
}

/// Sums the `serve.slo.<op>.total` / `.breach` counter pairs across
/// nodes (each over its telemetry ring, see [`NodePoll::counters`]) and
/// computes the burn over the sums.
#[must_use]
fn merged_slo(sweep: &ClusterMetrics) -> BTreeMap<String, (u64, u64, f64)> {
    let mut totals: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for (_, poll) in &sweep.nodes {
        for (name, &value) in &poll.counters {
            let Some(rest) = name.strip_prefix("serve.slo.") else {
                continue;
            };
            if let Some(op) = rest.strip_suffix(".total") {
                totals.entry(op.to_string()).or_default().0 += value;
            } else if let Some(op) = rest.strip_suffix(".breach") {
                totals.entry(op.to_string()).or_default().1 += value;
            }
        }
    }
    totals
        .into_iter()
        .map(|(op, (total, breach))| {
            let burn = sram_serve::slo::burn_rate(breach, total);
            (op, (total, breach, burn))
        })
        .collect()
}

fn slo_json(sweep: &ClusterMetrics) -> Json {
    Json::Obj(
        merged_slo(sweep)
            .into_iter()
            .map(|(op, (total, breach, burn))| {
                (
                    op,
                    Json::Obj(vec![
                        ("total".into(), Json::Num(total as f64)),
                        ("breach".into(), Json::Num(breach as f64)),
                        ("burn".into(), Json::Num(burn)),
                    ]),
                )
            })
            .collect(),
    )
}

/// The `cluster-metrics` reply: merged histograms with cluster-wide
/// percentiles, the per-shard cache breakdown, the merged SLO table,
/// and per-node poll status.
#[must_use]
pub fn cluster_metrics_json(sweep: &ClusterMetrics, id: Option<&str>) -> Json {
    let merged: Vec<(String, Json)> = sweep
        .merged
        .iter()
        .map(|(name, snap)| (name.clone(), histogram_json(snap)))
        .collect();
    let mut shards: Vec<(String, Json)> = Vec::with_capacity(sweep.nodes.len());
    let mut nodes: Vec<(String, Json)> = Vec::with_capacity(sweep.nodes.len());
    for (node, poll) in &sweep.nodes {
        if let Some(error) = &poll.error {
            nodes.push((node.clone(), Json::Str(error.clone())));
        } else {
            nodes.push((node.clone(), Json::Str("ok".into())));
        }
        if let Some(cache) = &poll.cache {
            let hits = cache.get("hits").and_then(Json::as_f64).unwrap_or(0.0);
            let misses = cache.get("misses").and_then(Json::as_f64).unwrap_or(0.0);
            let looked = hits + misses;
            let mut pairs = match cache {
                Json::Obj(pairs) => pairs.clone(),
                _ => Vec::new(),
            };
            pairs.push((
                "hit_rate".into(),
                Json::Num(if looked > 0.0 { hits / looked } else { 0.0 }),
            ));
            shards.push((node.clone(), Json::Obj(pairs)));
        }
    }
    crate::own_reply(
        "cluster-metrics",
        id,
        [
            ("nodes".to_owned(), Json::Obj(nodes)),
            ("merged".to_owned(), Json::Obj(merged)),
            ("shards".to_owned(), Json::Obj(shards)),
            ("slo".to_owned(), slo_json(sweep)),
        ],
    )
}

/// The `cluster-health` reply: a verdict over the merged SLO burn plus
/// poll reachability, with reasons.
#[must_use]
pub fn cluster_health_json(sweep: &ClusterMetrics, id: Option<&str>) -> Json {
    let mut reasons: Vec<String> = Vec::new();
    let failed = sweep
        .nodes
        .iter()
        .filter(|(_, p)| p.error.is_some())
        .count();
    let polled = sweep.nodes.len();
    let mut verdict = "ok";
    if failed > 0 {
        verdict = "degraded";
        reasons.push(format!("{failed}/{polled} nodes unreachable"));
    }
    if polled > 0 && failed == polled {
        verdict = "unhealthy";
    }
    for (op, (total, breach, burn)) in merged_slo(sweep) {
        if burn >= BURN_UNHEALTHY {
            verdict = "unhealthy";
            reasons.push(format!(
                "slo burn {burn:.2} on {op} (breach {breach}/{total})"
            ));
        } else if burn >= BURN_DEGRADED {
            if verdict == "ok" {
                verdict = "degraded";
            }
            reasons.push(format!(
                "slo burn {burn:.2} on {op} (breach {breach}/{total})"
            ));
        }
    }
    crate::own_reply(
        "cluster-health",
        id,
        [
            ("verdict".to_owned(), Json::Str(verdict.into())),
            (
                "reasons".to_owned(),
                Json::Arr(reasons.into_iter().map(Json::Str).collect()),
            ),
            ("nodes_polled".to_owned(), Json::Num(polled as f64)),
            ("nodes_failed".to_owned(), Json::Num(failed as f64)),
            ("slo".to_owned(), slo_json(sweep)),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sram_probe::Histogram;

    /// A node's `metrics` reply: `latencies` in its latency histogram,
    /// `windows` telemetry windows, and the optimize SLO counters as
    /// `(lifetime total, ring delta)` pairs.
    fn metrics_reply(
        latencies: &[u64],
        windows: u64,
        total: (u64, u64),
        breach: (u64, u64),
    ) -> Json {
        let hist = Histogram::new("serve.request.latency_ns");
        for &v in latencies {
            hist.record(v);
        }
        let counter = |(total, delta): (u64, u64)| {
            Json::Obj(vec![
                ("total".into(), Json::Num(total as f64)),
                ("delta".into(), Json::Num(delta as f64)),
            ])
        };
        Json::Obj(vec![(
            "result".into(),
            Json::Obj(vec![
                ("windows".into(), Json::Num(windows as f64)),
                (
                    "quantiles".into(),
                    Json::Obj(vec![(
                        "serve.request.latency_ns".into(),
                        histogram_json(&hist.snapshot()),
                    )]),
                ),
                (
                    "counters".into(),
                    Json::Obj(vec![
                        ("serve.slo.optimize.total".into(), counter(total)),
                        ("serve.slo.optimize.breach".into(), counter(breach)),
                    ]),
                ),
                (
                    "cache".into(),
                    Json::Obj(vec![
                        ("hits".into(), Json::Num(3.0)),
                        ("misses".into(), Json::Num(1.0)),
                    ]),
                ),
            ]),
        )])
    }

    #[test]
    fn merged_quantiles_match_a_single_combined_histogram() {
        // Two nodes with disjoint latency populations; the merged p99
        // must equal the p99 of the union, not the mean of per-node
        // p99s.
        let slow: Vec<u64> = (0..100).map(|i| 1_000_000 + i * 1_000).collect();
        let fast: Vec<u64> = (0..100).map(|i| 10_000 + i * 100).collect();
        let nodes = vec!["a".to_string(), "b".to_string()];
        let mut calls = Vec::new();
        let sweep = poll(&nodes, |node, line| {
            calls.push(line.to_owned());
            let latencies = if node == "a" { &slow } else { &fast };
            Ok(metrics_reply(latencies, 1, (100, 100), (0, 0)))
        });
        assert_eq!(calls, [r#"{"op":"metrics"}"#; 2], "one request per node");
        let union = Histogram::new("union");
        for &v in slow.iter().chain(fast.iter()) {
            union.record(v);
        }
        let expected = union.snapshot();
        let merged = sweep.merged.get("serve.request.latency_ns").unwrap();
        assert_eq!(*merged, expected);
        for q in [0.5, 0.9, 0.99] {
            let (a, b) = (merged.quantile(q), expected.quantile(q));
            assert!(
                (a - b).abs() <= f64::EPSILON * a.abs().max(1.0),
                "q{q}: merged {a} vs union {b}"
            );
        }
        // SLO totals summed across nodes.
        let slo = merged_slo(&sweep);
        assert_eq!(slo.get("optimize").map(|v| (v.0, v.1)), Some((200, 0)));
    }

    #[test]
    fn replies_carry_shards_slo_and_per_node_status() {
        let nodes = vec!["up".to_string(), "down".to_string()];
        let mut calls = 0;
        let sweep = poll(&nodes, |node, _| {
            calls += 1;
            if node == "down" {
                Err(ServeError::Remote("connection refused".into()))
            } else {
                Ok(metrics_reply(&[1_000, 2_000], 1, (10, 10), (9, 9)))
            }
        });
        assert_eq!(calls, 2, "a 2-node sweep makes exactly 2 calls");
        let metrics = cluster_metrics_json(&sweep, Some("m1"));
        assert_eq!(metrics.get("id").and_then(Json::as_str), Some("m1"));
        assert_eq!(
            metrics
                .get("shards")
                .and_then(|s| s.get("up"))
                .and_then(|s| s.get("hit_rate"))
                .and_then(Json::as_f64),
            Some(0.75)
        );
        assert!(metrics
            .get("merged")
            .and_then(|m| m.get("serve.request.latency_ns"))
            .and_then(|q| q.get("buckets"))
            .and_then(Json::as_array)
            .is_some_and(|b| !b.is_empty()));
        let health = cluster_health_json(&sweep, None);
        // One node down and a 9/10 breach burn (well past unhealthy).
        assert_eq!(
            health.get("verdict").and_then(Json::as_str),
            Some("unhealthy"),
            "{}",
            health.render()
        );
        assert_eq!(health.get("nodes_failed").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn burn_reads_each_nodes_ring_not_its_lifetime() {
        // An early burst: 50 of the node's 120 lifetime optimizes
        // breached, none of the 20 its ring still holds. Like the
        // node's own `health`, the cluster verdict is over the ring.
        let nodes = vec!["recovered".to_string()];
        let sweep = poll(&nodes, |_, _| {
            Ok(metrics_reply(&[1_000], 3, (120, 20), (50, 0)))
        });
        assert_eq!(merged_slo(&sweep)["optimize"], (20, 0, 0.0));
        let health = cluster_health_json(&sweep, None);
        assert_eq!(
            health.get("verdict").and_then(Json::as_str),
            Some("ok"),
            "{}",
            health.render()
        );

        // A node with no window yet falls back to its lifetime totals,
        // so a burst before the first window is not invisible.
        let nodes = vec!["cold".to_string()];
        let sweep = poll(&nodes, |_, _| {
            Ok(metrics_reply(&[1_000], 0, (120, 0), (50, 0)))
        });
        assert_eq!(merged_slo(&sweep)["optimize"].0, 120);
        assert_eq!(
            cluster_health_json(&sweep, None)
                .get("verdict")
                .and_then(Json::as_str),
            Some("unhealthy")
        );
    }
}
