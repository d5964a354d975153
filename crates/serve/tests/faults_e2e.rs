//! Fault-injection end-to-end tests: worker panic isolation, bounded
//! retry, queue backpressure, and deadline handling — all driven by
//! deterministic [`sram_faults`] plans against a real TCP server.
//!
//! The fault registry is process-global, so every test that installs a
//! plan serializes behind one mutex and uninstalls on drop (even if the
//! test itself panics). Probe counters are global and cumulative, so
//! assertions are on deltas.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use sram_coopt::{CoOptimizationFramework, DesignSpace};
use sram_faults::{FaultPlan, FaultRule};
use sram_serve::{CacheConfig, Client, Engine, Json, Request, Server, ServerConfig};

/// The fires a plan's point has drawn so far.
fn fired(point: &str) -> u64 {
    sram_faults::counts()
        .into_iter()
        .find(|(p, _)| p == point)
        .map_or(0, |(_, n)| n)
}

static GATE: Mutex<()> = Mutex::new(());

/// Installs a plan for the duration of one test, holding the gate so
/// concurrent tests cannot see each other's faults.
struct PlanGuard {
    _gate: MutexGuard<'static, ()>,
}

impl PlanGuard {
    fn install(plan: &FaultPlan) -> Self {
        let guard = Self::hold();
        sram_faults::install(plan);
        guard
    }

    /// Holds the gate with no plan installed yet, for set-up that must
    /// run fault-free before the test installs its plan.
    fn hold() -> Self {
        let gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
        // Counters default to off; these tests assert on their deltas.
        sram_probe::set_level(sram_probe::Level::Summary);
        Self { _gate: gate }
    }
}

impl Drop for PlanGuard {
    fn drop(&mut self) {
        sram_faults::uninstall();
    }
}

fn engine() -> Arc<Engine> {
    Arc::new(Engine::new(
        CoOptimizationFramework::paper_mode()
            .with_space(DesignSpace::coarse())
            .with_threads(2),
        CacheConfig::default(),
    ))
}

fn counter(name: &'static str) -> u64 {
    sram_probe::snapshot()
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}

fn optimize_line(capacity: u64, id: &str) -> String {
    format!(
        r#"{{"id":"{id}","op":"optimize","capacity_bytes":{capacity},"flavor":"hvt","method":"m2"}}"#
    )
}

#[test]
fn worker_panics_are_isolated_and_the_server_keeps_answering() {
    let plan = FaultPlan::new(7).rule(FaultRule::always("serve.worker_panic", 2));
    let _guard = PlanGuard::install(&plan);
    let panics_before = counter("serve.worker.panics");
    let respawns_before = counter("serve.worker.respawns");

    let config = ServerConfig {
        workers: 1,
        cache_file: None,
        ..ServerConfig::default()
    };
    let server = Server::start(engine(), config).expect("server binds");
    let mut client = Client::connect(server.local_addr()).expect("client connects");

    // The first two dequeues consume the plan's two panic fires: each
    // request gets a typed internal reply instead of a hung channel.
    for id in ["p1", "p2"] {
        let reply = client
            .call_line(&optimize_line(1024, id))
            .expect("reply arrives despite the panic");
        assert_eq!(
            reply.get("status").and_then(Json::as_str),
            Some("internal"),
            "{}",
            reply.render()
        );
        assert_eq!(reply.get("id").and_then(Json::as_str), Some(id));
        assert_eq!(reply.get("retryable").and_then(Json::as_bool), Some(true));
    }

    // The plan is exhausted; the respawned worker answers normally.
    let reply = client
        .call_line(&optimize_line(1024, "p3"))
        .expect("server still serves after two panics");
    assert_eq!(
        reply.get("status").and_then(Json::as_str),
        Some("ok"),
        "{}",
        reply.render()
    );

    assert_eq!(counter("serve.worker.panics") - panics_before, 2);
    assert_eq!(counter("serve.worker.respawns") - respawns_before, 2);

    drop(client);
    server.shutdown();
}

#[test]
fn transient_characterization_failures_recover_via_bounded_retry() {
    // Two injected NaN measurements: attempts 1 and 2 fail, attempt 3
    // (the last allowed) succeeds.
    let plan = FaultPlan::new(11).rule(FaultRule::always("cell.characterize_nan", 2));
    let _guard = PlanGuard::install(&plan);
    let attempts_before = counter("serve.retry.attempts");
    let recovered_before = counter("serve.retry.recovered");
    let injected_before = counter("faults.injected");

    let engine = engine();
    let request = Request::from_line(&optimize_line(1024, "r1")).expect("well-formed");
    let reply = engine.handle(&request);
    assert_eq!(
        reply.get("status").and_then(Json::as_str),
        Some("ok"),
        "{}",
        reply.render()
    );

    assert_eq!(counter("serve.retry.attempts") - attempts_before, 2);
    assert_eq!(counter("serve.retry.recovered") - recovered_before, 1);
    assert_eq!(counter("faults.injected") - injected_before, 2);
    assert_eq!(engine.characterizations(), 1, "one LUT despite retries");
}

#[test]
fn full_queue_rejects_with_busy_while_the_worker_is_pinned() {
    // One slow characterization pins the single worker long enough for
    // the queue (capacity 1) to fill and overflow.
    let plan = FaultPlan::new(13).rule(FaultRule::always("cell.slow", 1).with_latency_ms(400));
    let _guard = PlanGuard::install(&plan);
    let rejected_before = counter("serve.request.rejected");

    let config = ServerConfig {
        workers: 1,
        queue_capacity: 1,
        cache_file: None,
        ..ServerConfig::default()
    };
    let server = Server::start(engine(), config).expect("server binds");
    let addr = server.local_addr();

    std::thread::scope(|scope| {
        // A: dequeued immediately, then stalls in the injected 400 ms
        // characterization sleep.
        let a = scope.spawn(move || {
            let mut client = Client::connect(addr).expect("client a connects");
            client
                .call_line(&optimize_line(128, "a"))
                .expect("a replies")
        });
        std::thread::sleep(Duration::from_millis(120));
        // B: fills the queue's single slot and waits.
        let b = scope.spawn(move || {
            let mut client = Client::connect(addr).expect("client b connects");
            client
                .call_line(&optimize_line(256, "b"))
                .expect("b replies")
        });
        std::thread::sleep(Duration::from_millis(60));
        // C: immediate busy rejection — the backpressure signal.
        let mut client = Client::connect(addr).expect("client c connects");
        let c = client
            .call_line(&optimize_line(512, "c"))
            .expect("c replies immediately");
        assert_eq!(
            c.get("status").and_then(Json::as_str),
            Some("busy"),
            "{}",
            c.render()
        );
        assert_eq!(c.get("retryable").and_then(Json::as_bool), Some(true));

        for reply in [a.join().expect("a"), b.join().expect("b")] {
            assert_eq!(
                reply.get("status").and_then(Json::as_str),
                Some("ok"),
                "{}",
                reply.render()
            );
        }
    });

    assert!(counter("serve.request.rejected") > rejected_before);
    server.shutdown();
}

#[test]
fn deadline_expired_while_queued_is_rejected_at_dequeue() {
    // Pin the worker for 300 ms; a request with a 50 ms deadline sits
    // in the queue past its budget and must be expired at dequeue, not
    // executed.
    let plan = FaultPlan::new(17).rule(FaultRule::always("cell.slow", 1).with_latency_ms(300));
    let _guard = PlanGuard::install(&plan);
    let expired_before = counter("serve.request.expired");

    let config = ServerConfig {
        workers: 1,
        cache_file: None,
        ..ServerConfig::default()
    };
    let server = Server::start(engine(), config).expect("server binds");
    let addr = server.local_addr();

    std::thread::scope(|scope| {
        let pin = scope.spawn(move || {
            let mut client = Client::connect(addr).expect("pin client connects");
            client
                .call_line(&optimize_line(128, "pin"))
                .expect("pin replies")
        });
        std::thread::sleep(Duration::from_millis(100));
        let mut client = Client::connect(addr).expect("client connects");
        let line = r#"{"id":"late","op":"optimize","capacity_bytes":256,"flavor":"hvt","method":"m2","deadline_ms":50}"#;
        let reply = client.call_line(line).expect("typed reply, not a hang");
        assert_eq!(
            reply.get("status").and_then(Json::as_str),
            Some("deadline_exceeded"),
            "{}",
            reply.render()
        );
        assert_eq!(reply.get("retryable").and_then(Json::as_bool), Some(false));
        assert_eq!(
            pin.join()
                .expect("pin")
                .get("status")
                .and_then(Json::as_str),
            Some("ok")
        );
    });

    assert_eq!(counter("serve.request.expired") - expired_before, 1);
    server.shutdown();
}

#[test]
fn deadline_firing_mid_request_returns_a_typed_error_promptly() {
    // A 50 ms injected characterization delay guarantees the 1 ms
    // deadline has passed by the time the search starts; the first
    // slice-boundary check must cancel it.
    let plan = FaultPlan::new(19).rule(FaultRule::always("cell.slow", 1).with_latency_ms(50));
    let _guard = PlanGuard::install(&plan);

    let server = Server::start(
        engine(),
        ServerConfig {
            cache_file: None,
            ..ServerConfig::default()
        },
    )
    .expect("server binds");
    let mut client = Client::connect(server.local_addr()).expect("client connects");

    let started = Instant::now();
    let line = r#"{"id":"dl","op":"optimize","capacity_bytes":1024,"flavor":"hvt","method":"m2","deadline_ms":1}"#;
    let reply = client.call_line(line).expect("typed reply, not a hang");
    assert_eq!(
        reply.get("status").and_then(Json::as_str),
        Some("deadline_exceeded"),
        "{}",
        reply.render()
    );
    // Bounded promptly: injected delay + one search slice + overhead,
    // nowhere near a full sweep with no cancellation.
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "cancellation took {:?}",
        started.elapsed()
    );

    drop(client);
    server.shutdown();
}

#[test]
fn a_warm_hit_is_answered_while_the_only_worker_is_pinned() {
    let _guard = PlanGuard::hold();
    let config = ServerConfig {
        workers: 1,
        cache_file: None,
        ..ServerConfig::default()
    };
    let server = Server::start(engine(), config).expect("server binds");
    let addr = server.local_addr();
    let mut client = Client::connect(addr).expect("client connects");
    let warm = client
        .call_line(&optimize_line(1024, "warm"))
        .expect("cold miss replies");
    assert_eq!(warm.get("cached").and_then(Json::as_bool), Some(false));
    let inline_before = counter("serve.request.inline_hits");

    // The next characterization (lvt/m1, a miss) sleeps 400 ms inside
    // the only worker.
    sram_faults::install(
        &FaultPlan::new(23).rule(FaultRule::always("cell.slow", 1).with_latency_ms(400)),
    );
    std::thread::scope(|scope| {
        let pin = scope.spawn(move || {
            let mut client = Client::connect(addr).expect("pin client connects");
            client
                .call_line(r#"{"id":"pin","op":"optimize","capacity_bytes":1024,"flavor":"lvt","method":"m1"}"#)
                .expect("pin replies")
        });
        let pinned_by = Instant::now() + Duration::from_secs(30);
        while fired("cell.slow") == 0 {
            assert!(
                Instant::now() < pinned_by,
                "the miss never reached the worker"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        // A queued hit would wait out the 400 ms sleep; an inline one
        // does not wait for the worker at all.
        let started = Instant::now();
        let hit = client
            .call_line(&optimize_line(1024, "hit"))
            .expect("hit replies");
        let waited = started.elapsed();
        assert_eq!(hit.get("id").and_then(Json::as_str), Some("hit"));
        assert_eq!(
            hit.get("cached").and_then(Json::as_bool),
            Some(true),
            "{}",
            hit.render()
        );
        assert!(
            waited < Duration::from_millis(200),
            "the hit waited {waited:?} for the pinned worker"
        );
        assert!(!pin.is_finished(), "the pinned miss finished first");
        let pinned = pin.join().expect("pin");
        assert_eq!(
            pinned.get("status").and_then(Json::as_str),
            Some("ok"),
            "{}",
            pinned.render()
        );
    });
    assert_eq!(counter("serve.request.inline_hits") - inline_before, 1);

    drop(client);
    server.shutdown();
}
