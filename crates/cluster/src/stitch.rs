//! Cross-node span stitching: one timeline per distributed request.
//!
//! A traced request that hedges or fails over touches several nodes,
//! and each node returns its own `serve.request` span tree rebased to
//! start at 0. This module assembles those fragments under one
//! router-side `cluster.request` root:
//!
//! * **clock rebasing** — node clocks are not comparable, so each
//!   returned tree is shifted onto the router's timeline at
//!   `send + max(0, rtt − node_dur) / 2`: the attempt's send time plus
//!   half the unaccounted wire time, the classic symmetric-delay
//!   estimate (DESIGN.md §15);
//! * **loser retention** — a cancelled hedge attempt that did the work
//!   still contributes its subtree, marked `"hedge_loser": true`, so
//!   the timeline shows both sides of the race instead of silently
//!   dropping the slower half;
//! * **connectivity validation** — every attempt subtree must carry
//!   the `parent_span` the node adopted; a mismatch means the tree is
//!   really a disconnected forest, which [`validate`] rejects and the
//!   router counts under `cluster.trace.forests`.

use sram_probe::trace::TraceCtx;
use sram_serve::Json;

/// One forwarding attempt's contribution to a stitched timeline.
#[derive(Debug, Clone)]
pub struct AttemptPiece {
    /// The node address the attempt dialed.
    pub node: String,
    /// How the attempt was launched (`primary`/`hedge`/`failover`).
    pub via: &'static str,
    /// `true` when this attempt lost the hedge race after doing work —
    /// its reply was discarded but its subtree is kept.
    pub hedge_loser: bool,
    /// Send time on the router's clock, ns since the forward started.
    pub send_ns: u64,
    /// Round-trip time of the attempt, ns (0 if it never completed).
    pub rtt_ns: u64,
    /// The node's returned span tree (rebased to 0 at its root), when
    /// the attempt was sampled and completed.
    pub tree: Option<Json>,
    /// The attempt's error, for attempts that produced no reply.
    pub error: Option<String>,
}

/// Shifts every `start_ns` in a node tree onto the router timeline.
fn rebase(node: &mut Json, offset_ns: u64) {
    if let Json::Obj(pairs) = node {
        for (key, value) in pairs.iter_mut() {
            match (key.as_str(), &mut *value) {
                ("start_ns", Json::Num(n)) => *n += offset_ns as f64,
                ("children", Json::Arr(children)) => {
                    for child in children {
                        rebase(child, offset_ns);
                    }
                }
                _ => {}
            }
        }
    }
}

/// The symmetric-delay clock offset for one attempt: its send time
/// plus half the wire time the node tree does not account for.
#[must_use]
fn clock_offset_ns(send_ns: u64, rtt_ns: u64, node_dur_ns: u64) -> u64 {
    send_ns + rtt_ns.saturating_sub(node_dur_ns) / 2
}

/// Assembles attempt fragments into one `cluster.request` tree on the
/// router's timeline. `total_ns` is the router-observed wall time of
/// the whole forward (the root span's duration).
#[must_use]
pub fn stitch(ctx: &TraceCtx, total_ns: u64, attempts: &[AttemptPiece]) -> Json {
    let mut children = Vec::with_capacity(attempts.len());
    for attempt in attempts {
        let mut pairs: Vec<(String, Json)> = vec![
            ("name".into(), Json::Str("cluster.attempt".into())),
            ("node".into(), Json::Str(attempt.node.clone())),
            ("via".into(), Json::Str(attempt.via.into())),
            ("hedge_loser".into(), Json::Bool(attempt.hedge_loser)),
            ("start_ns".into(), Json::Num(attempt.send_ns as f64)),
            ("dur_ns".into(), Json::Num(attempt.rtt_ns as f64)),
        ];
        if let Some(error) = &attempt.error {
            pairs.push(("error".into(), Json::Str(error.clone())));
        }
        let mut grandchildren = Vec::new();
        if let Some(tree) = &attempt.tree {
            let node_dur = tree.get("dur_ns").and_then(Json::as_u64).unwrap_or(0);
            let offset = clock_offset_ns(attempt.send_ns, attempt.rtt_ns, node_dur);
            let mut rebased = tree.clone();
            rebase(&mut rebased, offset);
            grandchildren.push(rebased);
        }
        pairs.push(("children".into(), Json::Arr(grandchildren)));
        children.push(Json::Obj(pairs));
    }
    Json::Obj(vec![
        ("name".into(), Json::Str("cluster.request".into())),
        (
            "trace_id".into(),
            Json::Str(format!("{:016x}", ctx.trace_id)),
        ),
        ("root_span".into(), Json::Num(ctx.parent_span as f64)),
        ("start_ns".into(), Json::Num(0.0)),
        ("dur_ns".into(), Json::Num(total_ns as f64)),
        ("children".into(), Json::Arr(children)),
    ])
}

/// Total span count of a stitched tree (root, attempts, and every
/// node-side span).
fn span_count(node: &Json) -> u64 {
    let mut count = 1;
    if let Some(children) = node.get("children").and_then(Json::as_array) {
        for child in children {
            count += span_count(child);
        }
    }
    count
}

/// Checks that a stitched tree is one connected timeline and returns
/// its span count.
///
/// # Errors
///
/// A human-readable reason when the tree is really a forest: no
/// attempt carried a node subtree at all, or a subtree's adopted
/// `parent_span` (stamped by the node from its root span's begin
/// event) does not match the router's root span id.
pub fn validate(tree: &Json) -> Result<u64, String> {
    let root_span = tree
        .get("root_span")
        .and_then(Json::as_u64)
        .ok_or_else(|| "stitched tree lacks root_span".to_string())?;
    let attempts = tree
        .get("children")
        .and_then(Json::as_array)
        .ok_or_else(|| "stitched tree lacks children".to_string())?;
    let mut subtrees = 0usize;
    for attempt in attempts {
        let node = attempt.get("node").and_then(Json::as_str).unwrap_or("?");
        let Some(children) = attempt.get("children").and_then(Json::as_array) else {
            return Err(format!("attempt on {node} lacks children"));
        };
        for subtree in children {
            subtrees += 1;
            let adopted = subtree.get("parent_span").and_then(Json::as_u64);
            if adopted != Some(root_span) {
                return Err(format!(
                    "subtree from {node} adopted parent {adopted:?}, expected {root_span} — \
                     disconnected forest"
                ));
            }
        }
    }
    if subtrees == 0 {
        return Err("no attempt carried a node span tree".to_string());
    }
    Ok(span_count(tree))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node_tree(parent_span: u64, dur_ns: f64) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::Str("serve.request".into())),
            ("start_ns".into(), Json::Num(0.0)),
            ("dur_ns".into(), Json::Num(dur_ns)),
            ("trace_id".into(), Json::Str("00000000000000aa".into())),
            ("parent_span".into(), Json::Num(parent_span as f64)),
            (
                "children".into(),
                Json::Arr(vec![Json::Obj(vec![
                    ("name".into(), Json::Str("serve.evaluate".into())),
                    ("start_ns".into(), Json::Num(100.0)),
                    ("dur_ns".into(), Json::Num(500.0)),
                    ("children".into(), Json::Arr(Vec::new())),
                ])]),
            ),
        ])
    }

    fn ctx() -> TraceCtx {
        TraceCtx {
            trace_id: 0xaa,
            parent_span: 7,
            sampled: true,
        }
    }

    #[test]
    fn stitch_rebases_subtrees_onto_the_router_timeline() {
        let attempts = vec![
            AttemptPiece {
                node: "n1".into(),
                via: "primary",
                hedge_loser: true,
                send_ns: 1_000,
                rtt_ns: 10_000,
                tree: Some(node_tree(7, 8_000.0)),
                error: None,
            },
            AttemptPiece {
                node: "n2".into(),
                via: "hedge",
                hedge_loser: false,
                send_ns: 5_000,
                rtt_ns: 6_000,
                tree: Some(node_tree(7, 6_000.0)),
                error: None,
            },
        ];
        let tree = stitch(&ctx(), 12_000, &attempts);
        assert_eq!(
            tree.get("name").and_then(Json::as_str),
            Some("cluster.request")
        );
        let children = tree.get("children").and_then(Json::as_array).unwrap();
        assert_eq!(children.len(), 2);
        // First attempt: offset = 1000 + (10000 - 8000)/2 = 2000.
        let first_sub = &children[0]
            .get("children")
            .and_then(Json::as_array)
            .unwrap()[0];
        assert_eq!(
            first_sub.get("start_ns").and_then(Json::as_u64),
            Some(2_000)
        );
        let eval = &first_sub.get("children").and_then(Json::as_array).unwrap()[0];
        assert_eq!(eval.get("start_ns").and_then(Json::as_u64), Some(2_100));
        // Second attempt: rtt == dur → offset is exactly the send time.
        let second_sub = &children[1]
            .get("children")
            .and_then(Json::as_array)
            .unwrap()[0];
        assert_eq!(
            second_sub.get("start_ns").and_then(Json::as_u64),
            Some(5_000)
        );
        // Loser marking survives.
        assert_eq!(
            children[0].get("hedge_loser").and_then(Json::as_bool),
            Some(true)
        );
        // 1 root + 2 attempts + 2 × (request + evaluate) = 7 spans.
        assert_eq!(validate(&tree).unwrap(), 7);
    }

    #[test]
    fn validate_rejects_disconnected_forests() {
        let good = AttemptPiece {
            node: "n1".into(),
            via: "primary",
            hedge_loser: false,
            send_ns: 0,
            rtt_ns: 1_000,
            tree: Some(node_tree(7, 1_000.0)),
            error: None,
        };
        // Wrong adopted parent: the node never re-rooted under us.
        let mut stray = good.clone();
        stray.tree = Some(node_tree(99, 1_000.0));
        let forest = stitch(&ctx(), 1_000, std::slice::from_ref(&stray));
        let err = validate(&forest).unwrap_err();
        assert!(err.contains("disconnected"), "{err}");
        // No subtree at all is a forest too.
        let mut bare = good.clone();
        bare.tree = None;
        bare.error = Some("connection reset".into());
        let empty = stitch(&ctx(), 1_000, std::slice::from_ref(&bare));
        assert!(validate(&empty).is_err());
        // The good attempt alone validates.
        let ok = stitch(&ctx(), 1_000, std::slice::from_ref(&good));
        assert_eq!(validate(&ok).unwrap(), 4);
    }
}
