//! Own-process exercise of the telemetry surface: `metrics`/`health`
//! over the wire, SLO burn flipping the verdict, and per-root trace
//! sampling on the serve path.
//!
//! Everything lives in ONE test function: the telemetry ring, SLO
//! counters, and sampling state are process globals, and `cargo test`
//! runs sibling `#[test]`s concurrently.

use std::sync::Arc;

use sram_coopt::{CoOptimizationFramework, DesignSpace};
use sram_serve::{slo, CacheConfig, Client, Engine, Json, Server, ServerConfig};

fn engine() -> Arc<Engine> {
    Arc::new(Engine::new(
        CoOptimizationFramework::paper_mode()
            .with_space(DesignSpace::coarse())
            .with_threads(2),
        CacheConfig::default(),
    ))
}

#[test]
fn telemetry_surface_end_to_end() {
    let engine = engine();
    let server = Server::start(Arc::clone(&engine), ServerConfig::default()).expect("server binds");
    let mut client = Client::connect(server.local_addr()).expect("client connects");

    // Clean run: health is ok over the wire.
    let health = client
        .call_line(r#"{"op":"health","id":"h0"}"#)
        .expect("health reply");
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    let result = health.get("result").expect("health result");
    assert_eq!(result.get("verdict").and_then(Json::as_str), Some("ok"));
    assert!(
        result
            .get("queue")
            .and_then(|q| q.get("capacity"))
            .and_then(Json::as_f64)
            .unwrap()
            > 0.0,
        "capacity gauge set at server start"
    );

    // Drive some real traffic so latency quantiles exist, then close a
    // window deterministically (no reliance on sampler timing).
    for cap in [128u64, 256, 512, 1024] {
        let resp = client
            .call_line(&format!(
                r#"{{"op":"optimize","capacity_bytes":{cap},"flavor":"hvt","method":"m2"}}"#
            ))
            .expect("optimize reply");
        assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));
    }
    sram_probe::telemetry::force_sample();

    // Metrics: the closed window carries the latency quantiles.
    let metrics = client
        .call_line(r#"{"op":"metrics","id":"m0"}"#)
        .expect("metrics reply");
    assert_eq!(metrics.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(metrics.get("cached").and_then(Json::as_bool), Some(false));
    let result = metrics.get("result").expect("metrics result");
    assert!(result.get("windows").and_then(Json::as_f64).unwrap() >= 1.0);
    let latency = result
        .get("quantiles")
        .and_then(|q| q.get("serve.request.latency_ns"))
        .expect("latency quantiles present");
    for key in ["p50", "p90", "p99"] {
        let value = latency.get(key).and_then(Json::as_f64);
        assert!(
            value.is_some_and(|v| v > 0.0),
            "{key}: {}",
            latency.render()
        );
    }

    // SLO burn: saturate one op's breach counter far past the
    // unhealthy threshold and close a window — the verdict must flip.
    for _ in 0..50 {
        slo::record("optimize", 3_600_000_000_000); // one hour "latency"
    }
    sram_probe::telemetry::force_sample();
    let health = client
        .call_line(r#"{"op":"health","id":"h1"}"#)
        .expect("health reply");
    let result = health.get("result").expect("health result");
    let verdict = result.get("verdict").and_then(Json::as_str).unwrap();
    assert!(
        verdict == "unhealthy" || verdict == "degraded",
        "saturated SLO breaches must move the verdict, got {verdict}: {}",
        health.render()
    );
    let reasons = result.get("reasons").and_then(Json::as_array).unwrap();
    assert!(
        reasons
            .iter()
            .filter_map(Json::as_str)
            .any(|r| r.contains("optimize") && r.contains("SLO")),
        "reasons name the burning op: {}",
        health.render()
    );

    // Trace sampling on the serve path: rate 0 drops the span tree,
    // rate 1 restores it, deterministically.
    sram_probe::trace::set_sampling(0.0, 7);
    let untraced = client
        .call_line(r#"{"op":"metrics","trace":true}"#)
        .expect("metrics reply");
    assert!(
        untraced.get("trace").is_none(),
        "rate 0 must sample no roots: {}",
        untraced.render()
    );
    sram_probe::trace::set_sampling(1.0, sram_probe::trace::DEFAULT_SAMPLE_SEED);
    let traced = client
        .call_line(r#"{"op":"metrics","trace":true}"#)
        .expect("metrics reply");
    assert!(
        traced.get("trace").is_some(),
        "rate 1 must sample every root: {}",
        traced.render()
    );
    assert_eq!(sram_probe::trace::dropped(), 0, "no ring pressure drops");

    drop(client);
    server.shutdown();
}
