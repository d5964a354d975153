//! The router's warm path: a forward whose node answers within the
//! hedge delay is sent and read on the router's connection thread, so
//! no attempt is handed off to a thread of its own.
//!
//! Lives in `tests/` (its own process) because the hand-off counter is
//! process-global: no other test in this binary may forward slowly.

use std::time::Duration;

use sram_cluster::{Router, RouterConfig};
use sram_serve::{Client, Json};

/// Warm forwards checked; each is a cache hit on its owning node.
const FORWARDS: usize = 120;

#[test]
fn warm_forwards_stay_on_the_connection_thread() {
    let node_a = sram_serve::spawn_local_node("127.0.0.1:0", 2, 16).unwrap();
    let node_b = sram_serve::spawn_local_node("127.0.0.1:0", 2, 16).unwrap();
    let router = Router::start(RouterConfig {
        nodes: vec![
            node_a.local_addr().to_string(),
            node_b.local_addr().to_string(),
        ],
        replicas: 2,
        // A hedge floor far above any warm hit, so scheduler noise on a
        // loaded test machine cannot push a hit past it.
        hedge_ms: 200,
        ..RouterConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(router.local_addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(120))).unwrap();

    let lines: Vec<String> = [128, 256, 512, 1024]
        .iter()
        .flat_map(|capacity| {
            ["lvt", "hvt"].map(|flavor| {
                format!(
                    r#"{{"op":"optimize","capacity_bytes":{capacity},"flavor":"{flavor}","method":"m2"}}"#
                )
            })
        })
        .collect();
    // Cold misses first: each key lands in its owner's cache.
    for line in &lines {
        let reply = client.call_line(line).unwrap();
        assert_eq!(
            reply.get("status").and_then(Json::as_str),
            Some("ok"),
            "{}",
            reply.render()
        );
    }

    let handoffs = sram_probe::probe_handle!(counter "cluster.forward.handoffs").get();
    for line in lines.iter().cycle().take(FORWARDS) {
        let reply = client.call_line(line).unwrap();
        assert_eq!(
            reply.get("cached").and_then(Json::as_bool),
            Some(true),
            "{}",
            reply.render()
        );
        assert_eq!(
            reply.get("via").and_then(Json::as_str),
            Some("primary"),
            "{}",
            reply.render()
        );
    }
    assert_eq!(
        sram_probe::probe_handle!(counter "cluster.forward.handoffs").get(),
        handoffs,
        "a warm forward was handed off to a thread"
    );

    router.shutdown();
    node_a.shutdown();
    node_b.shutdown();
}
