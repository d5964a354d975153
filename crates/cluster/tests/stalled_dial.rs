//! A node whose SYNs are dropped holds neither a health poll nor a
//! routed request past its wait: every dial is bounded by the wait it
//! runs in, not by the kernel's connect timeout (minutes).

use std::io::ErrorKind;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use sram_cluster::{Router, RouterConfig};
use sram_serve::{Client, Json, NodeConn};

/// Most dials spent filling a backlog before giving up on stalling it.
const MAX_DIALS: usize = 512;

/// A listener that never accepts, its backlog filled until a dial stops
/// completing, so the kernel drops the SYNs of later dials. `None` when
/// every dial completes (the host queues them all).
fn stalled_node() -> Option<(TcpListener, Vec<TcpStream>)> {
    let listener = TcpListener::bind("127.0.0.1:0").ok()?;
    let addr = listener.local_addr().ok()?;
    let mut queued = Vec::new();
    for _ in 0..MAX_DIALS {
        match TcpStream::connect_timeout(&addr, Duration::from_millis(200)) {
            Ok(stream) => queued.push(stream),
            Err(e) if e.kind() == ErrorKind::TimedOut => return Some((listener, queued)),
            Err(_) => return None,
        }
    }
    None
}

#[test]
fn a_node_that_drops_syns_holds_no_dial_past_its_wait() {
    let Some((listener, _queued)) = stalled_node() else {
        eprintln!("skipped: every dial to a full backlog completed on this host");
        return;
    };
    let addr = listener.local_addr().unwrap().to_string();

    // The health poller's call, on a fresh handle with its poll timeout.
    let poll_timeout = Duration::from_millis(300);
    let started = Instant::now();
    let polled = NodeConn::new(addr.as_str(), Some(poll_timeout)).call_line(r#"{"op":"health"}"#);
    let elapsed = started.elapsed();
    assert!(polled.is_err(), "a stalled node answered: {polled:?}");
    assert!(
        elapsed < poll_timeout + Duration::from_millis(700),
        "the poll dial took {elapsed:?}"
    );

    // A routed request: the router dials its primary inline, and its
    // health poller dials the same node in the background.
    let node_timeout = Duration::from_secs(1);
    let router = Router::start(RouterConfig {
        nodes: vec![addr],
        replicas: 1,
        node_timeout,
        ..RouterConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(router.local_addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(60))).unwrap();
    let started = Instant::now();
    let reply = client
        .call_line(r#"{"op":"optimize","capacity_bytes":1024,"flavor":"hvt","method":"m2"}"#)
        .unwrap();
    let elapsed = started.elapsed();
    assert_ne!(
        reply.get("status").and_then(Json::as_str),
        Some("ok"),
        "{}",
        reply.render()
    );
    assert!(
        elapsed < node_timeout + Duration::from_millis(1_500),
        "answered after {elapsed:?}: {}",
        reply.render()
    );
    // Joins the poller, whose dials are bounded by the node timeout.
    let started = Instant::now();
    router.shutdown();
    assert!(started.elapsed() < node_timeout + Duration::from_millis(1_500));
}
