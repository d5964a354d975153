//! `telemetry-soak`: mixed multi-client TCP load (traced optimizes plus
//! `metrics` calls) against one query server with sampled tracing on,
//! verifying the windowed telemetry surface end to end.
//!
//! Phases beyond the shared driver:
//!
//! 1. **sampling** — per-root trace sampling must be deterministic: the
//!    same seed and rate over the same root keys must accept the exact
//!    same subset twice, and the accepted fraction must sit near the
//!    configured rate (that proportionality is what makes sampling a
//!    ring-pressure control rather than a coin flip);
//! 2. **clean round** — a warmed node answers the load at sample rate
//!    `SAMPLE_RATE`; afterwards `metrics` over the wire must carry a
//!    closed window, its Prometheus text and JSON forms must agree
//!    exactly on every latency quantile (they are rendered from one
//!    export — any drift is a bug), and `health` must say `ok`;
//! 3. **faulted round** — the same load on the same node under two
//!    worker panics and one connection drop; once the window closes,
//!    `health` must leave `ok`. A health surface that never degrades
//!    under injected faults is decoration, not monitoring.

use sram_probe::trace;
use sram_serve::{Client, Json, Request};

use super::{flag, inv, verdict_rank, Op, Outcome, Rhs, Scenario, Soak, Topology};

/// Per-root trace sample rate the soak drives load under.
const SAMPLE_RATE: f64 = 0.25;
/// Seed for the sampling phase.
const SAMPLE_SEED: u64 = 0x7E1E_50AC;
/// Root keys drawn in the sampling phase.
const SAMPLE_KEYS: u64 = 4096;
/// Tolerance on the observed accept fraction. At 4096 draws the
/// binomial standard deviation of the fraction is ~0.007, so 0.05 is a
/// seven-sigma envelope — loose enough to never flake, tight enough to
/// catch a broken hash.
const SAMPLE_TOLERANCE: f64 = 0.05;

/// Capacities the optimize load cycles through.
const CAPACITIES: [u64; 4] = [128, 512, 1024, 4096];

fn optimize(capacity: u64) -> String {
    format!(
        r#""op":"optimize","capacity_bytes":{capacity},"flavor":"hvt","method":"m2","trace":true"#
    )
}

fn query(client: usize, r: usize) -> String {
    if r % 3 == 2 {
        r#""op":"metrics","trace":true"#.to_owned()
    } else {
        optimize(CAPACITIES[(client + r) % CAPACITIES.len()])
    }
}

/// The telemetry scenario row.
pub(crate) const SCENARIO: Scenario = Scenario {
    title:
        "Telemetry soak (sram-probe + sram-serve): windowed metrics, SLO health, sampled tracing",
    topology: Topology::Node { workers: 2 },
    seed: 0x7E1E_FA17,
    faults: &[("serve.worker_panic", 2, 0), ("serve.conn_drop", 1, 0)],
    clients: 3,
    requests_per_client: 8,
    max_attempts: 10,
    reply_timeout: std::time::Duration::from_secs(30),
    query,
    invariants: &[
        inv("sampling_identical", Op::Eq, Rhs::Num(1.0)),
        inv("sampling_error", Op::Le, Rhs::Num(SAMPLE_TOLERANCE)),
        inv("clean_verdict", Op::Eq, Rhs::Num(0.0)),
        inv("windows", Op::Ge, Rhs::Num(1.0)),
        inv("quantiles_compared", Op::Eq, Rhs::Num(3.0)),
        inv("quantile_drift", Op::Eq, Rhs::Num(0.0)),
        inv("probe.trace.dropped", Op::Eq, Rhs::Num(0.0)),
        inv("fault_verdict", Op::Ge, Rhs::Num(1.0)),
        // The soak's two forced samples, at least.
        inv("telemetry.windows.sampled", Op::Ge, Rhs::Num(2.0)),
        // The panics the health surface degrades on.
        inv("serve.worker.panics", Op::Ge, Rhs::Num(1.0)),
        inv("serve.slo.optimize.total", Op::Ge, Rhs::Num(1.0)),
        // One `health` call after each round.
        inv("serve.health.revision", Op::Ge, Rhs::Num(2.0)),
    ],
};

/// Pulls `<metric>{quantile="<q>"} <value>` out of the text exposition.
fn text_quantile(text: &str, metric: &str, q: &str) -> Option<f64> {
    let needle = format!("{metric}{{quantile=\"{q}\"}} ");
    text.lines()
        .find(|l| l.starts_with(&needle))
        .and_then(|l| l[needle.len()..].trim().parse().ok())
}

fn call(client: &mut Client, line: &str) -> Result<Json, String> {
    let reply = client.call_line(line).map_err(|e| format!("{line}: {e}"))?;
    if reply.get("status").and_then(Json::as_str) != Some("ok") {
        return Err(format!("{line}: non-ok reply {}", reply.render()));
    }
    reply
        .get("result")
        .cloned()
        .ok_or_else(|| format!("{line}: reply without result"))
}

/// Records the `health` verdict (ranked) under `key`, and the verdict
/// with its reasons as a report note.
fn verdict(soak: &mut Soak<'_>, client: &mut Client, key: &'static str) -> Result<(), String> {
    let result = call(client, r#"{"op":"health"}"#)?;
    let verdict = result
        .get("verdict")
        .and_then(Json::as_str)
        .ok_or("health reply without verdict")?;
    let reasons: Vec<&str> = result
        .get("reasons")
        .and_then(Json::as_array)
        .map(|rs| rs.iter().filter_map(Json::as_str).collect())
        .unwrap_or_default();
    soak.set(key, verdict_rank(verdict));
    soak.note(format!("{key}: health {verdict} {reasons:?}"));
    Ok(())
}

/// Runs every phase.
///
/// # Errors
///
/// Any transport failure, unanswered request, or malformed
/// `metrics`/`health` reply.
pub(crate) fn soak(threads: usize) -> Result<Outcome, String> {
    super::drive(&SCENARIO, threads, |soak| {
        // Phase 1: deterministic per-root sampling at a fractional rate.
        soak.sample_at(SAMPLE_RATE, SAMPLE_SEED);
        let draw = || -> Vec<bool> { (0..SAMPLE_KEYS).map(trace::sampled).collect() };
        let (first, second) = (draw(), draw());
        let accepted = first.iter().filter(|hit| **hit).count();
        let fraction = accepted as f64 / SAMPLE_KEYS as f64;
        soak.set("sampling_identical", flag(first == second));
        soak.set("sampling_error", (fraction - SAMPLE_RATE).abs());
        soak.note(format!(
            "sampling: {SAMPLE_KEYS} roots at rate {SAMPLE_RATE} -> fraction {fraction:.3}"
        ));

        // Warm every distinct query in-process first so wire latencies
        // are cache hits and the clean verdict is not at the mercy of a
        // cold LUT build blowing the SLO.
        soak.start()?;
        let net = soak.net()?;
        let (addr, engine) = (net.addr, net.engine.clone().ok_or("no engine")?);
        for capacity in CAPACITIES {
            let line = format!("{{{}}}", optimize(capacity));
            let request = Request::from_line(&line).map_err(|e| format!("warm parse: {e}"))?;
            let reply = engine.handle(&request);
            if reply.get("status").and_then(Json::as_str) != Some("ok") {
                return Err(format!("warm-up failed: {}", reply.render()));
            }
        }

        // Phase 2: clean round, then a deterministically closed window.
        soak.round(false, |soak| soak.wave("t", &|_, _| Ok(())))?;
        sram_probe::telemetry::force_sample();
        let mut client = super::connect(addr, SCENARIO.reply_timeout)?;
        let metrics = call(&mut client, r#"{"op":"metrics"}"#)?;
        let text = metrics
            .get("text")
            .and_then(Json::as_str)
            .ok_or("metrics reply without text exposition")?;
        let latency = metrics
            .get("quantiles")
            .and_then(|q| q.get("serve.request.latency_ns"));
        let (mut drift, mut compared) = (0.0f64, 0.0);
        for (q, key) in [("0.5", "p50"), ("0.9", "p90"), ("0.99", "p99")] {
            let from_text = text_quantile(text, "sram_serve_request_latency_ns", q);
            let from_json = latency.and_then(|l| l.get(key)).and_then(Json::as_f64);
            if let (Some(t), Some(j)) = (from_text, from_json) {
                drift = drift.max((t - j).abs());
                compared += 1.0;
            }
        }
        let windows = metrics.get("windows").and_then(Json::as_f64);
        soak.set("windows", windows.unwrap_or(0.0));
        soak.set("quantile_drift", drift);
        soak.set("quantiles_compared", compared);
        verdict(soak, &mut client, "clean_verdict")?;

        // Phase 3: the same load under the fault plan.
        soak.round(true, |soak| soak.wave("f", &|_, _| Ok(())))?;
        sram_probe::telemetry::force_sample();
        verdict(soak, &mut client, "fault_verdict")
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

    #[test]
    fn text_quantile_parses_the_exposition_line() {
        let text = "# header\nsram_x{quantile=\"0.5\"} 1.25e3\nsram_x_count 4\n";
        assert_eq!(text_quantile(text, "sram_x", "0.5"), Some(1250.0));
        assert_eq!(text_quantile(text, "sram_x", "0.9"), None);
    }
}
