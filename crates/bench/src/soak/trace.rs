//! `trace-soak`: three nodes behind the router, driven by concurrent
//! clients sending **traced** queries while a fixed plan injects a slow
//! characterization (which fires a hedge) and one node kill (which
//! forces failovers; the node is never respawned, so the hole must show
//! up in the federated plane rather than vanish from it).
//!
//! Phases beyond the shared driver:
//!
//! 1. **stitched-tree audit** — every `ok` reply's stitched tree is
//!    validated on the spot: one `cluster.request` root, every subtree
//!    re-rooted under the propagated parent span
//!    ([`stitch::validate`]); a primary that lost its hedge race must
//!    stay on the timeline, marked `hedge_loser: true`;
//! 2. **offline merge** — after traffic quiesces and a forced telemetry
//!    sample, the surviving nodes are polled directly for their raw
//!    `serve.request.latency_ns` histograms, merged offline; the
//!    router's `cluster-metrics` merged p50/p99 must agree within the
//!    histogram's [`MAX_QUANTILE_RELATIVE_ERROR`] (1/32) bound, and
//!    `cluster-health` must report exactly the killed node unreachable.

use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use sram_cluster::{collector, stitch};
use sram_probe::{HistogramSnapshot, MAX_QUANTILE_RELATIVE_ERROR};
use sram_serve::Json;

use super::{inv, verdict_rank, Op, Outcome, Rhs, Scenario, Topology};

/// Capacities the clients cycle through.
const CAPACITIES: [u64; 6] = [128, 256, 512, 1024, 2048, 4096];

/// Mixed traffic: capacities cycle (repeats become cache hits for the
/// per-shard breakdown) and both flavors appear.
fn query(client: usize, r: usize) -> String {
    format!(
        r#""op":"optimize","capacity_bytes":{},"flavor":"{}","method":"m2","trace":true"#,
        CAPACITIES[(client + r) % CAPACITIES.len()],
        if r.is_multiple_of(2) { "hvt" } else { "lvt" }
    )
}

/// The trace scenario row.
pub(crate) const SCENARIO: Scenario = Scenario {
    title: "Trace soak (sram-cluster): distributed tracing + federated metrics over 3 nodes",
    topology: Topology::Cluster {
        nodes: 3,
        workers: 2,
        // Every node is a candidate for every key. The kill takes one
        // node and the 60 ms stall holds another, so the third always
        // races the stalled attempt and makes it a hedge loser. With
        // two candidates, a stalled key whose only other candidate was
        // the killed node had nothing left to race it, and the loser
        // rows failed in about 1 run in 10.
        replicas: 3,
        hedge_ms: 5,
        // Slow polls on purpose: the killed node must stay in the ring
        // long enough for ring-routed traffic to hit it and fail over
        // (eviction needs `DOWN_AFTER_FAILURES` consecutive poll
        // failures, so the dead node survives most of wave a).
        poll_ms: 250,
    },
    seed: 0x00DA_C7ACE,
    faults: &[("cell.slow", 1, 60), ("serve.node_kill", 1, 0)],
    clients: 4,
    requests_per_client: 8,
    max_attempts: 12,
    reply_timeout: Duration::from_secs(60),
    query,
    invariants: &[
        inv("forest_replies", Op::Eq, Rhs::Num(0.0)),
        inv("cluster.trace.forests", Op::Eq, Rhs::Num(0.0)),
        inv("cluster.hedge.fired", Op::Ge, Rhs::Num(1.0)),
        inv("cluster.forward.failovers", Op::Ge, Rhs::Num(1.0)),
        inv(
            "serve.node.injected_kills",
            Op::Eq,
            Rhs::Cap("serve.node_kill"),
        ),
        inv("loser_replies", Op::Ge, Rhs::Num(1.0)),
        inv("cluster.trace.losers", Op::Ge, Rhs::Num(1.0)),
        inv("cluster.trace.propagated", Op::Ge, Rhs::Key("answered")),
        inv("cluster.trace.stitched", Op::Ge, Rhs::Key("answered")),
        inv(
            "cluster.trace.stitched_spans",
            Op::Ge,
            Rhs::Key("cluster.trace.stitched"),
        ),
        inv("p50_drift", Op::Le, Rhs::Num(MAX_QUANTILE_RELATIVE_ERROR)),
        inv("p99_drift", Op::Le, Rhs::Num(MAX_QUANTILE_RELATIVE_ERROR)),
        // The router's collector polled the nodes, and the killed node
        // surfaced as a poll error rather than vanishing.
        inv("cluster.metrics.polls", Op::Ge, Rhs::Num(1.0)),
        inv("cluster.metrics.poll_errors", Op::Ge, Rhs::Num(1.0)),
        // A latency in nanoseconds: set at all means at least 1; the
        // quantiles rise with their rank.
        inv("cluster.metrics.merged_p50", Op::Ge, Rhs::Num(1.0)),
        inv(
            "cluster.metrics.merged_p90",
            Op::Ge,
            Rhs::Key("cluster.metrics.merged_p50"),
        ),
        inv(
            "cluster.metrics.merged_p99",
            Op::Ge,
            Rhs::Key("cluster.metrics.merged_p90"),
        ),
        inv("nodes_failed", Op::Eq, Rhs::Num(1.0)),
        inv("cluster_verdict", Op::Ge, Rhs::Num(1.0)),
        inv("cluster.request.routed", Op::Ge, Rhs::Key("answered")),
        inv("cluster.forward.latency_ns", Op::Ge, Rhs::Key("answered")),
        inv("cluster.health.polls", Op::Ge, Rhs::Num(1.0)),
        // The router fails over only down a request's candidate list:
        // summed over the soak, and per request from each reply's tree.
        inv(
            "cluster.forward.failovers",
            Op::Le,
            Rhs::Key("failover_budget"),
        ),
        inv("request_failovers_max", Op::Le, Rhs::Key("failover_cap")),
        inv("cluster.hedge.delay_ms", Op::Ge, Rhs::Key("hedge_ms")),
        inv("cluster.hedge.delay_ms", Op::Le, Rhs::Num(250.0)),
    ],
};

/// What the stitched-tree audit saw across every `ok` reply.
#[derive(Debug, Default)]
struct Trees {
    /// Replies whose tree failed [`stitch::validate`], with details.
    forests: Vec<String>,
    /// Replies carrying a `hedge_loser: true` branch.
    losers: usize,
    /// The most `failover` branches one reply's tree carries.
    max_failovers: usize,
}

/// The `cluster.attempt` branches of a stitched tree, one per attempt.
fn attempts(tree: &Json) -> &[Json] {
    tree.get("children")
        .and_then(Json::as_array)
        .unwrap_or_default()
}

/// `true` if any `cluster.attempt` branch of the stitched tree is
/// marked `hedge_loser: true`.
fn has_loser_branch(tree: &Json) -> bool {
    attempts(tree)
        .iter()
        .any(|c| c.get("hedge_loser").and_then(Json::as_bool) == Some(true))
}

/// The per-reply hook: validates the stitched tree and folds it into
/// the audit. A reply without a `cluster.request` tree is fatal; a
/// forest is tallied (and fails the report).
fn audit_reply(reply: &Json, trees: &Mutex<Trees>) -> Result<(), String> {
    let id = reply.get("id").and_then(Json::as_str).unwrap_or("?");
    let Some(tree) = reply.get("trace") else {
        return Err(format!(
            "traced reply to {id} carries no stitched tree: {}",
            reply.render()
        ));
    };
    if tree.get("name").and_then(Json::as_str) != Some("cluster.request") {
        return Err(format!(
            "reply to {id}: stitched root is not cluster.request: {}",
            tree.render()
        ));
    }
    let loser = has_loser_branch(tree);
    let failovers = attempts(tree)
        .iter()
        .filter(|c| c.get("via").and_then(Json::as_str) == Some("failover"))
        .count();
    let mut trees = trees.lock().unwrap_or_else(PoisonError::into_inner);
    trees.losers += usize::from(loser);
    trees.max_failovers = trees.max_failovers.max(failovers);
    if let Err(e) = stitch::validate(tree) {
        trees.forests.push(format!("{id}: {e}"));
    }
    Ok(())
}

/// Polls every *reachable* node directly for its raw
/// `serve.request.latency_ns` histogram and merges them offline — the
/// independent recompute the router's federated plane is checked
/// against. The killed node refuses dials and is skipped, exactly as
/// the collector records it as a hole.
fn offline_merge(nodes: &[String]) -> Result<HistogramSnapshot, String> {
    let mut merged = HistogramSnapshot::default();
    let mut polled = 0usize;
    for node in nodes {
        let addr = node
            .parse()
            .map_err(|e| format!("node address {node}: {e}"))?;
        let Ok(mut client) = super::connect(addr, SCENARIO.reply_timeout) else {
            continue; // the killed node
        };
        let reply = client
            .call_line(r#"{"op":"metrics"}"#)
            .map_err(|e| format!("direct metrics poll of {node}: {e}"))?;
        let Some(q) = reply
            .get("result")
            .and_then(|r| r.get("quantiles"))
            .and_then(|q| q.get("serve.request.latency_ns"))
        else {
            return Err(format!("{node} exported no serve.request.latency_ns"));
        };
        merged = merged.merge(&collector::parse_snapshot(q));
        polled += 1;
    }
    if polled == 0 {
        return Err("no node answered a direct metrics poll".to_owned());
    }
    Ok(merged)
}

/// Relative disagreement between two quantile estimates.
fn relative_drift(a: f64, b: f64) -> f64 {
    let scale = a.abs().max(b.abs()).max(1.0);
    (a - b).abs() / scale
}

/// Runs every phase.
///
/// # Errors
///
/// Any hang, unanswered request, reply without a stitched tree, or
/// failed federation poll.
pub(crate) fn soak(threads: usize) -> Result<Outcome, String> {
    super::drive(&SCENARIO, threads, |soak| {
        // The tree audit needs every root sampled.
        let (_, seed) = sram_probe::trace::sampling();
        soak.sample_at(1.0, seed);
        soak.start()?;
        let trees = Mutex::new(Trees::default());
        let hook = |_: &str, reply: &Json| audit_reply(reply, &trees);
        soak.round(true, |soak| {
            soak.wave("a", &hook)?;
            soak.wave("b", &hook)
        })?;

        // Traffic has quiesced: fold every pending telemetry sample into
        // the window ring so the router's poll and the offline
        // recompute read the same distribution.
        sram_probe::telemetry::force_sample();
        let net = soak.net()?;
        let addr = net.addr;
        let nodes: Vec<String> = net.nodes.keys().cloned().collect();
        let offline = offline_merge(&nodes)?;
        let mut client = super::connect(addr, SCENARIO.reply_timeout)?;
        let metrics = client
            .call_line(r#"{"op":"cluster-metrics"}"#)
            .map_err(|e| format!("cluster-metrics: {e}"))?;
        let health = client
            .call_line(r#"{"op":"cluster-health"}"#)
            .map_err(|e| format!("cluster-health: {e}"))?;
        let merged = metrics
            .get("merged")
            .and_then(|m| m.get("serve.request.latency_ns"))
            .ok_or("cluster-metrics carries no merged serve.request.latency_ns")?;
        for (key, label, q) in [("p50_drift", "p50", 0.50), ("p99_drift", "p99", 0.99)] {
            let routed = merged.get(label).and_then(Json::as_f64).unwrap_or(0.0);
            let recomputed = offline.quantile(q);
            soak.set(key, relative_drift(routed, recomputed));
            soak.note(format!(
                "merged {label}: {routed:.0} ns via the router, {recomputed:.0} ns offline"
            ));
        }
        let failed = health.get("nodes_failed").and_then(Json::as_f64);
        soak.set("nodes_failed", failed.unwrap_or(-1.0));
        let verdict = health.get("verdict").and_then(Json::as_str);
        soak.set(
            "cluster_verdict",
            verdict_rank(verdict.unwrap_or("<missing>")),
        );

        let trees = trees.into_inner().unwrap_or_else(PoisonError::into_inner);
        soak.set("forest_replies", trees.forests.len() as f64);
        soak.set("loser_replies", trees.losers as f64);
        soak.set("request_failovers_max", trees.max_failovers as f64);
        for forest in trees.forests {
            soak.note(format!("forest: {forest}"));
        }
        Ok(())
    })
}

/// Runs the soak and renders the invariant-checked report.
///
/// # Errors
///
/// Propagates the soak's failures and every broken invariant.
pub fn run(threads: usize) -> Result<String, String> {
    super::report(&SCENARIO, &soak(threads)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stitched_reply(loser: bool) -> Json {
        let loser_branch = if loser {
            r#",{"name":"cluster.attempt","node":"n2","via":"primary","hedge_loser":true,
               "start_ns":100,"dur_ns":900,
               "children":[{"name":"serve.request","id":9,"parent_span":7,
                            "start_ns":200,"dur_ns":500,"children":[]}]}"#
        } else {
            ""
        };
        Json::parse(&format!(
            r#"{{"status":"ok","id":"x","trace":{{
                "name":"cluster.request","trace_id":"00000000deadbeef","root_span":7,
                "start_ns":0,"dur_ns":1000,
                "children":[{{"name":"cluster.attempt","node":"n1","via":"hedge",
                    "hedge_loser":false,"start_ns":50,"dur_ns":400,
                    "children":[{{"name":"serve.request","id":4,"parent_span":7,
                                 "start_ns":60,"dur_ns":300,"children":[]}}]}}{loser_branch}]
            }}}}"#
        ))
        .expect("fixture parses")
    }

    #[test]
    fn audit_reply_accepts_a_connected_tree_and_spots_the_loser() {
        let trees = Mutex::new(Trees::default());
        audit_reply(&stitched_reply(true), &trees).expect("valid tree");
        let t = trees.into_inner().unwrap();
        assert!(t.forests.is_empty());
        assert_eq!(t.losers, 1);

        let trees = Mutex::new(Trees::default());
        audit_reply(&stitched_reply(false), &trees).expect("valid tree");
        assert_eq!(trees.into_inner().unwrap().losers, 0);
    }

    #[test]
    fn audit_reply_rejects_a_reply_without_a_tree_and_counts_forests() {
        let trees = Mutex::new(Trees::default());
        let bare = Json::parse(r#"{"status":"ok","id":"x"}"#).unwrap();
        assert!(audit_reply(&bare, &trees).is_err());

        // A subtree rooted under the wrong parent is a forest, counted
        // but not fatal at reply time (the report rejects it).
        let rendered = stitched_reply(false)
            .render()
            .replace("\"parent_span\":7", "\"parent_span\":8");
        audit_reply(&Json::parse(&rendered).unwrap(), &trees).expect("forest is tallied");
        assert_eq!(trees.into_inner().unwrap().forests.len(), 1);
    }

    #[test]
    fn drift_bound_is_the_loglinear_relative_error() {
        // Just inside the bound passes; just past it fails.
        let mut o = super::super::healthy(&SCENARIO);
        let offline = 8e6;
        for (factor, ok) in [(0.9, true), (1.6, false)] {
            let merged = offline * (1.0 + MAX_QUANTILE_RELATIVE_ERROR * factor);
            o.soak.insert("p99_drift", relative_drift(merged, offline));
            assert_eq!(
                super::super::report(&SCENARIO, &o).is_ok(),
                ok,
                "factor {factor}"
            );
        }
    }
}
