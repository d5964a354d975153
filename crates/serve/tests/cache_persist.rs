//! Result-cache persistence: spill on graceful shutdown, warm start on
//! the next boot, and recovery from corrupt or truncated spill files
//! and from a spill path that cannot be read or written.
//!
//! The `serve.cache.*` persistence probes are checked as "moved by at
//! least": the tests of this binary share the probe registry.

use std::path::PathBuf;
use std::sync::Arc;

use sram_coopt::{CoOptimizationFramework, DesignSpace};
use sram_probe::{Level, Snapshot};
use sram_serve::{CacheConfig, Client, Engine, Json, Request, Server, ServerConfig};

/// Turns the (level-gated) persistence probes on and returns the
/// registry as it stands, for [`moved`].
fn probes_on() -> Snapshot {
    sram_probe::set_level(Level::Summary);
    sram_probe::snapshot()
}

/// How far counter `name` moved since `before`.
fn moved(before: &Snapshot, name: &str) -> u64 {
    let count = |snap: &Snapshot| snap.counters.get(name).copied().unwrap_or(0);
    count(&sram_probe::snapshot()).saturating_sub(count(before))
}

fn engine() -> Arc<Engine> {
    Arc::new(Engine::new(
        CoOptimizationFramework::paper_mode()
            .with_space(DesignSpace::coarse())
            .with_threads(2),
        CacheConfig::default(),
    ))
}

/// A unique scratch path, removed on drop.
struct ScratchFile(PathBuf);

impl ScratchFile {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "sram-serve-cache-{}-{tag}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        Self(path)
    }
}

impl Drop for ScratchFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

const OPTIMIZE: &str =
    r#"{"id":"c1","op":"optimize","capacity_bytes":1024,"flavor":"hvt","method":"m2"}"#;

#[test]
fn shutdown_spills_and_restart_warm_starts_the_cache() {
    let scratch = ScratchFile::new("roundtrip");
    let before = probes_on();

    // First server lifetime: answer one query cold, spill on shutdown.
    let config = ServerConfig {
        cache_file: Some(scratch.0.clone()),
        ..ServerConfig::default()
    };
    let server = Server::start(engine(), config.clone()).expect("first server binds");
    let mut client = Client::connect(server.local_addr()).expect("client connects");
    let cold = client.call_line(OPTIMIZE).expect("cold call succeeds");
    assert_eq!(cold.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(cold.get("cached").and_then(Json::as_bool), Some(false));
    drop(client);
    server.shutdown();
    assert!(scratch.0.exists(), "shutdown wrote the spill file");
    assert!(moved(&before, "serve.cache.spilled") >= 1);
    assert!(moved(&before, "serve.cache.persisted") >= 1);

    // Second lifetime: the same query is a cache hit with the identical
    // payload, without a single new characterization.
    let warm_engine = engine();
    let server = Server::start(Arc::clone(&warm_engine), config).expect("second server binds");
    let mut client = Client::connect(server.local_addr()).expect("client reconnects");
    let warm = client.call_line(OPTIMIZE).expect("warm call succeeds");
    assert_eq!(warm.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(
        cold.get("result").map(Json::render),
        warm.get("result").map(Json::render),
        "warm-started result must be byte-identical"
    );
    assert_eq!(warm_engine.characterizations(), 0);
    assert!(moved(&before, "serve.cache.warm_started") >= 1);
    assert!(moved(&before, "serve.cache.warmed") >= 1);
    drop(client);
    server.shutdown();
}

#[test]
fn save_load_roundtrip_preserves_every_entry() {
    let scratch = ScratchFile::new("saveload");
    let before = probes_on();
    let first = engine();
    for line in [
        OPTIMIZE,
        r#"{"op":"optimize","capacity_bytes":256,"flavor":"hvt","method":"m2"}"#,
    ] {
        let reply = first.handle(&Request::from_line(line).expect("well-formed"));
        assert_eq!(reply.get("status").and_then(Json::as_str), Some("ok"));
    }
    let saved = first.save_cache(&scratch.0).expect("save succeeds");
    assert_eq!(saved, 2);
    assert!(moved(&before, "serve.cache.persisted") >= 2);

    let second = engine();
    let loaded = second.load_cache(&scratch.0).expect("load succeeds");
    assert_eq!(loaded, 2);
    assert!(moved(&before, "serve.cache.warmed") >= 2);
    let reply = second.handle(&Request::from_line(OPTIMIZE).expect("well-formed"));
    assert_eq!(reply.get("cached").and_then(Json::as_bool), Some(true));
}

#[test]
fn corrupt_and_truncated_lines_are_skipped_not_fatal() {
    let scratch = ScratchFile::new("corrupt");
    let before = probes_on();
    let first = engine();
    let reply = first.handle(&Request::from_line(OPTIMIZE).expect("well-formed"));
    assert_eq!(reply.get("status").and_then(Json::as_str), Some("ok"));
    first.save_cache(&scratch.0).expect("save succeeds");

    // Sandwich the valid line between garbage, a schema-less object,
    // and a truncation mid-object (a crash during a previous spill).
    let valid = std::fs::read_to_string(&scratch.0).expect("spill file readable");
    let valid_line = valid.lines().next().expect("one entry");
    let mangled = format!(
        "not json at all\n{{\"wrong\":\"shape\"}}\n{valid_line}\n{}",
        &valid_line[..valid_line.len() / 2]
    );
    std::fs::write(&scratch.0, mangled).expect("rewrite spill file");

    let second = engine();
    let loaded = second
        .load_cache(&scratch.0)
        .expect("partial load succeeds");
    assert_eq!(loaded, 1, "only the intact entry is restored");
    // Garbage, the schema-less object and the truncated tail.
    assert!(moved(&before, "serve.cache.load_errors") >= 3);
    let reply = second.handle(&Request::from_line(OPTIMIZE).expect("well-formed"));
    assert_eq!(reply.get("cached").and_then(Json::as_bool), Some(true));

    // A missing file at startup is simply a cold start.
    let missing = ScratchFile::new("missing");
    let server = Server::start(
        engine(),
        ServerConfig {
            cache_file: Some(missing.0.clone()),
            ..ServerConfig::default()
        },
    )
    .expect("server starts without a spill file");
    server.shutdown();
    assert!(missing.0.exists(), "shutdown still writes the (empty) file");
}

#[test]
fn a_spill_path_that_cannot_be_read_or_written_is_counted_not_fatal() {
    // A directory exists, so start tries to load it, and neither
    // reading nor writing it as a file can succeed.
    let dir = std::env::temp_dir().join(format!("sram-serve-cache-{}-dir", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let before = probes_on();
    let server = Server::start(
        engine(),
        ServerConfig {
            cache_file: Some(dir.clone()),
            ..ServerConfig::default()
        },
    )
    .expect("an unreadable spill file is no reason to refuse to start");
    assert!(moved(&before, "serve.cache.load_failed") >= 1);
    let mut client = Client::connect(server.local_addr()).expect("client connects");
    let reply = client.call_line(OPTIMIZE).expect("the node still serves");
    assert_eq!(reply.get("status").and_then(Json::as_str), Some("ok"));
    drop(client);
    server.shutdown();
    assert!(moved(&before, "serve.cache.save_failed") >= 1);
    std::fs::remove_dir_all(&dir).ok();
}
