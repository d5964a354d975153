//! End-to-end TCP exercise: a real server on an ephemeral port, a cold
//! optimize, a byte-identical cached repeat, protocol error envelopes,
//! and a graceful shutdown that leaves no thread behind.

use std::sync::Arc;

use sram_coopt::{CoOptimizationFramework, DesignSpace};
use sram_serve::{CacheConfig, Client, Engine, Json, Request, Server, ServerConfig};

fn engine() -> Arc<Engine> {
    Arc::new(Engine::new(
        CoOptimizationFramework::paper_mode()
            .with_space(DesignSpace::coarse())
            .with_threads(2),
        CacheConfig::default(),
    ))
}

#[test]
fn optimize_roundtrip_caches_and_shuts_down_cleanly() {
    let engine = engine();
    let server = Server::start(Arc::clone(&engine), ServerConfig::default()).expect("server binds");
    let mut client = Client::connect(server.local_addr()).expect("client connects");

    let request = Request::from_line(
        r#"{"op":"optimize","capacity_bytes":1024,"flavor":"hvt","method":"m2","id":"e2e-1"}"#,
    )
    .expect("well-formed query");
    let cold = client.call(&request).expect("cold call succeeds");
    assert_eq!(cold.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(cold.get("id").and_then(Json::as_str), Some("e2e-1"));
    assert_eq!(cold.get("cached").and_then(Json::as_bool), Some(false));

    let warm = client.call(&request).expect("warm call succeeds");
    assert_eq!(warm.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(
        cold.get("result").map(Json::render),
        warm.get("result").map(Json::render),
        "cached repeat must be byte-identical"
    );
    assert!(engine.cache_counters().hits >= 1);

    drop(client);
    server.shutdown();
}

#[test]
fn cache_counters_over_tcp_match_the_in_process_engine() {
    // Misses, hits (one traced), and introspection ops, in one order.
    // Over TCP the hits are answered on the connection thread and the
    // rest through the job queue; the counters must not tell.
    let a = r#"{"id":"a","op":"optimize","capacity_bytes":1024,"flavor":"hvt","method":"m2"}"#;
    let b = r#"{"id":"b","op":"optimize","capacity_bytes":2048,"flavor":"hvt","method":"m2"}"#;
    let c = r#"{"id":"c","op":"evaluate-point","capacity_bytes":1024,"flavor":"lvt","method":"m1","rows":64,"vssc_mv":0,"n_pre":10,"n_wr":8}"#;
    let traced = r#"{"id":"t","op":"optimize","capacity_bytes":1024,"flavor":"hvt","method":"m2","trace":true}"#;
    let lines = [
        a,
        a,
        b,
        r#"{"op":"health"}"#,
        traced,
        b,
        c,
        c,
        a,
        r#"{"op":"metrics"}"#,
    ];
    let direct = engine();
    let direct_replies: Vec<Json> = lines
        .iter()
        .map(|line| direct.handle(&Request::from_line(line).expect("well-formed")))
        .collect();

    let served = engine();
    let server = Server::start(
        Arc::clone(&served),
        ServerConfig {
            cache_file: None,
            ..ServerConfig::default()
        },
    )
    .expect("server binds");
    let mut client = Client::connect(server.local_addr()).expect("client connects");
    for (line, direct_reply) in lines.iter().zip(&direct_replies) {
        let reply = client.call_line(line).expect("reply arrives");
        assert_eq!(
            reply.get("status").and_then(Json::as_str),
            Some("ok"),
            "{}",
            reply.render()
        );
        if line.contains("optimize") || line.contains("evaluate-point") {
            for field in ["id", "cached", "result"] {
                assert_eq!(
                    reply.get(field).map(Json::render),
                    direct_reply.get(field).map(Json::render),
                    "{field} of {line}"
                );
            }
        }
    }
    drop(client);
    server.shutdown();

    assert_eq!(served.cache_counters(), direct.cache_counters());
    assert_eq!(served.requests(), direct.requests());
    let counters = served.cache_counters();
    assert_eq!((counters.hits, counters.misses), (5, 3));
}

#[test]
fn protocol_errors_come_back_as_envelopes_not_disconnects() {
    // The parse-error count below is a gated probe.
    sram_probe::set_level(sram_probe::Level::Summary);
    let parse_errors = || sram_probe::probe_handle!(counter "serve.request.parse_errors").get();
    let parse_errors_before = parse_errors();
    let server = Server::start(engine(), ServerConfig::default()).expect("server binds");
    let mut client = Client::connect(server.local_addr()).expect("client connects");

    let garbled = client.call_line("this is not json").expect("reply arrives");
    assert_eq!(garbled.get("status").and_then(Json::as_str), Some("error"));

    let unknown = client
        .call_line(r#"{"op":"transmogrify"}"#)
        .expect("reply arrives");
    assert_eq!(unknown.get("status").and_then(Json::as_str), Some("error"));
    assert!(
        unknown
            .get("error")
            .and_then(Json::as_str)
            .is_some_and(|m| m.contains("transmogrify")),
        "error names the bad op: {}",
        unknown.render()
    );
    // Other tests in this binary may send bad lines too, so the count
    // moves by at least the two sent here.
    assert!(parse_errors() - parse_errors_before >= 2);

    // The connection survived both malformed lines.
    let ok = client
        .call_line(r#"{"op":"evaluate-point","capacity_bytes":1024,"flavor":"hvt","method":"m2","rows":64,"vssc_mv":-100,"n_pre":4,"n_wr":2}"#)
        .expect("reply arrives");
    assert_eq!(
        ok.get("status").and_then(Json::as_str),
        Some("ok"),
        "{}",
        ok.render()
    );

    drop(client);
    server.shutdown();
}

#[test]
fn metrics_query_returns_live_snapshot_over_tcp() {
    let engine = engine();
    let server = Server::start(Arc::clone(&engine), ServerConfig::default()).expect("server binds");
    let mut client = Client::connect(server.local_addr()).expect("client connects");

    let warmup = client
        .call_line(r#"{"op":"optimize","capacity_bytes":1024,"flavor":"hvt","method":"m2"}"#)
        .expect("warmup succeeds");
    assert_eq!(warmup.get("status").and_then(Json::as_str), Some("ok"));

    for _ in 0..2 {
        let metrics = client
            .call_line(r#"{"op":"metrics","id":"m"}"#)
            .expect("metrics reply arrives");
        assert_eq!(metrics.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(metrics.get("id").and_then(Json::as_str), Some("m"));
        assert_eq!(metrics.get("cached").and_then(Json::as_bool), Some(false));
        let result = metrics.get("result").expect("metrics has a result");
        assert!(result.get("uptime_s").and_then(Json::as_f64).unwrap() >= 0.0);
        assert!(result.get("requests").and_then(Json::as_f64).unwrap() >= 2.0);
        assert_eq!(
            result.get("characterizations").and_then(Json::as_f64),
            Some(1.0)
        );
        let cache = result
            .get("cache")
            .expect("metrics carries the cache block");
        assert_eq!(cache.get("entries").and_then(Json::as_f64), Some(1.0));
        assert!(result.get("counters").is_some());
    }
    // The metrics replies never entered the result cache.
    assert_eq!(engine.cache_counters().entries, 1);

    // `stats` is not an op: an error reply, not a disconnect.
    let stats = client
        .call_line(r#"{"op":"stats","id":"st"}"#)
        .expect("error reply arrives");
    assert_eq!(stats.get("status").and_then(Json::as_str), Some("error"));
    assert!(
        stats
            .get("error")
            .and_then(Json::as_str)
            .is_some_and(|m| m.contains("unknown op \"stats\"")),
        "{}",
        stats.render()
    );

    drop(client);
    server.shutdown();
}

#[test]
fn traced_request_over_tcp_carries_the_full_span_tree() {
    let engine = engine();
    let server = Server::start(Arc::clone(&engine), ServerConfig::default()).expect("server binds");
    let mut client = Client::connect(server.local_addr()).expect("client connects");

    let resp = client
        .call_line(
            r#"{"op":"optimize","capacity_bytes":1024,"flavor":"lvt","method":"m1","trace":true}"#,
        )
        .expect("traced call succeeds");
    assert_eq!(
        resp.get("status").and_then(Json::as_str),
        Some("ok"),
        "{}",
        resp.render()
    );
    let tree = resp.get("trace").expect("traced response carries a tree");
    assert_eq!(
        tree.get("name").and_then(Json::as_str),
        Some("serve.request")
    );
    // The root covers parse → queue wait → evaluate; the engine's
    // characterize/execute spans nest under the adopted root.
    let mut names = Vec::new();
    collect_names(tree, &mut names);
    for expected in [
        "serve.parse",
        "serve.queue_wait",
        "serve.evaluate",
        "serve.characterize",
        "serve.execute",
    ] {
        assert!(names.contains(&expected), "missing {expected}: {names:?}");
    }

    // An untraced request on the same connection stays lean.
    let plain = client
        .call_line(r#"{"op":"optimize","capacity_bytes":1024,"flavor":"lvt","method":"m1"}"#)
        .expect("plain call succeeds");
    assert!(plain.get("trace").is_none());

    drop(client);
    server.shutdown();
}

#[test]
fn propagated_trace_ctx_reroots_the_tree_and_honors_remote_sampling() {
    let server = Server::start(engine(), ServerConfig::default()).expect("server binds");
    let mut client = Client::connect(server.local_addr()).expect("client connects");

    // sampled=true: the node forces tracing on (no local `trace` flag
    // needed) and its `serve.request` root adopts the remote parent.
    let resp = client
        .call_line(
            r#"{"op":"optimize","capacity_bytes":1024,"flavor":"hvt","method":"m2","trace_ctx":"00-00000000deadbeef-0000000000000042-01"}"#,
        )
        .expect("traced call succeeds");
    assert_eq!(
        resp.get("status").and_then(Json::as_str),
        Some("ok"),
        "{}",
        resp.render()
    );
    let tree = resp.get("trace").expect("sampled ctx forces a tree");
    assert_eq!(
        tree.get("name").and_then(Json::as_str),
        Some("serve.request")
    );
    assert_eq!(
        tree.get("trace_id").and_then(Json::as_str),
        Some("00000000deadbeef")
    );
    // The parent is read back from the root span's begin event, so this
    // asserts the tree actually re-rooted under the remote span id.
    assert_eq!(
        tree.get("parent_span").and_then(Json::as_u64),
        Some(0x42),
        "{}",
        tree.render()
    );

    // sampled=false: the remote decision short-circuits tracing even
    // when the local trace flag asks for it.
    let off = client
        .call_line(
            r#"{"op":"optimize","capacity_bytes":1024,"flavor":"hvt","method":"m2","trace":true,"trace_ctx":"00-00000000deadbeef-0000000000000042-00"}"#,
        )
        .expect("unsampled call succeeds");
    assert_eq!(off.get("status").and_then(Json::as_str), Some("ok"));
    assert!(
        off.get("trace").is_none(),
        "sampled=false must suppress the tree: {}",
        off.render()
    );

    drop(client);
    server.shutdown();
}

fn collect_names<'j>(node: &'j Json, out: &mut Vec<&'j str>) {
    if let Some(name) = node.get("name").and_then(Json::as_str) {
        out.push(name);
    }
    if let Some(children) = node.get("children").and_then(Json::as_array) {
        for child in children {
            collect_names(child, out);
        }
    }
}

#[test]
fn shutdown_is_graceful_for_connected_clients() {
    let server = Server::start(engine(), ServerConfig::default()).expect("server binds");
    let addr = server.local_addr();
    let client = Client::connect(addr).expect("client connects");
    // Shut down with the client still connected; the server must join
    // its acceptor, connection, and worker threads without hanging.
    server.shutdown();
    drop(client);
    // The port is released: a fresh connection attempt must fail.
    assert!(
        Client::connect(addr).is_err(),
        "socket must be closed after shutdown"
    );
}
