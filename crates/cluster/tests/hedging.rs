//! Hedged-request end-to-end test: under an injected `cell.slow`
//! fault on the primary's characterization path, the router hands the
//! primary's exchange off to a thread and fires a hedge, exactly one
//! reply reaches the client, and the losing attempt observes the shared
//! cancel token.
//!
//! Lives in `tests/` (its own process) because the fault registry is
//! process-global: installing a plan here must not leak into the
//! library unit tests.

use std::time::{Duration, Instant};

use sram_cluster::{Router, RouterConfig};
use sram_faults::{FaultPlan, FaultRule};
use sram_serve::{Client, Json};

#[test]
fn hedge_fires_yields_one_reply_and_cancels_the_loser() {
    // The first characterization anywhere in the process sleeps 400 ms
    // — far past the 50 ms hedge floor, so the node that draws it loses
    // the race by a margin no scheduler jitter can close. The primary
    // gets the request 50 ms before the hedge's node, so it draws it.
    sram_faults::install(
        &FaultPlan::new(0x00DA_C208).rule(FaultRule::always("cell.slow", 1).with_latency_ms(400)),
    );

    let node_a = sram_serve::spawn_local_node("127.0.0.1:0", 2, 16).unwrap();
    let node_b = sram_serve::spawn_local_node("127.0.0.1:0", 2, 16).unwrap();
    let router = Router::start(RouterConfig {
        nodes: vec![
            node_a.local_addr().to_string(),
            node_b.local_addr().to_string(),
        ],
        replicas: 2,
        hedge_ms: 50,
        ..RouterConfig::default()
    })
    .unwrap();

    let fired_before = sram_probe::probe_handle!(counter "cluster.hedge.fired").get();
    let cancelled_before = sram_probe::probe_handle!(counter "cluster.hedge.cancelled").get();
    let handoffs_before = sram_probe::probe_handle!(counter "cluster.forward.handoffs").get();

    let mut client = Client::connect(router.local_addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(120))).unwrap();
    // `health` fans out to both nodes, leaving a pooled connection to
    // each: the primary's request is not held up in a node's accept
    // loop behind the hedge's.
    let health = client.call_line(r#"{"op":"health"}"#).unwrap();
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    let reply = client
        .call_line(
            r#"{"id":"h1","op":"optimize","capacity_bytes":1024,"flavor":"hvt","method":"m2","trace":true}"#,
        )
        .unwrap();
    assert_eq!(reply.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(reply.get("id").and_then(Json::as_str), Some("h1"));
    assert!(
        reply.get("via").and_then(Json::as_str).is_some(),
        "forwarded reply must be stamped with its route: {}",
        reply.render()
    );

    // The cold characterization dwarfs the 50 ms hedge floor, so the
    // primary's exchange must have moved to a thread and the hedge
    // fired.
    assert!(
        sram_probe::probe_handle!(counter "cluster.forward.handoffs").get() > handoffs_before,
        "the slow primary was never handed off"
    );
    assert!(
        sram_probe::probe_handle!(counter "cluster.hedge.fired").get() > fired_before,
        "hedge never fired"
    );
    // The primary drew the 400 ms fault, so the hedge won. The traced
    // request waits for every attempt: the stitched timeline reports the
    // handed-off primary as the cancelled loser.
    assert_eq!(
        reply.get("via").and_then(Json::as_str),
        Some("hedge"),
        "{}",
        reply.render()
    );
    let attempts = reply
        .get("trace")
        .and_then(|t| t.get("children"))
        .and_then(Json::as_array)
        .expect("a stitched timeline");
    let primary = attempts
        .iter()
        .find(|a| a.get("via").and_then(Json::as_str) == Some("primary"))
        .expect("the primary attempt is on the timeline");
    assert_eq!(
        primary.get("hedge_loser").and_then(Json::as_bool),
        Some(true),
        "{}",
        primary.render()
    );

    // Exactly one reply: the very next line on this connection answers
    // the next request, not a stray duplicate of the first.
    let stats = client
        .call_line(r#"{"id":"h2","op":"cluster-stats"}"#)
        .unwrap();
    assert_eq!(
        stats.get("op").and_then(Json::as_str),
        Some("cluster-stats"),
        "a duplicate reply was queued ahead of the follow-up: {}",
        stats.render()
    );
    assert_eq!(stats.get("id").and_then(Json::as_str), Some("h2"));

    // Loser-cancel: the slow attempt finishes its 400 ms sleep after
    // the winner already answered, observes the cancelled token, and
    // discards its reply.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if sram_probe::probe_handle!(counter "cluster.hedge.cancelled").get() > cancelled_before {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "loser never observed the cancel token"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    router.shutdown();
    node_a.shutdown();
    node_b.shutdown();
    sram_faults::uninstall();
}
