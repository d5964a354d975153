//! `serve-bench`: exercises the `sram-serve` query server end to end —
//! batch coalescing, the content-addressed result cache, the TCP
//! transport, and graceful shutdown — and reports the measured
//! cache speedup.
//!
//! Six phases:
//!
//! 1. **batch** — a batch of same-technology queries through the
//!    in-process API; the engine must perform exactly one cell
//!    characterization for the whole batch.
//! 2. **cross-batch** — a *second* batch of new queries on the same
//!    technology; the characterization count must not move and every
//!    member must be counted as cross-batch coalesced.
//! 3. **cache** — the same optimization twice, timed; the repeat must
//!    be served from the cache with a byte-identical result payload.
//! 4. **tcp** — a real `std::net` round trip: start a server on an
//!    ephemeral port, query it, confirm the reply matches the
//!    in-process result, shut down gracefully.
//! 5. **trace** — a traced optimize through a fresh engine in
//!    *full-simulation* mode (the paper model's analytic
//!    characterization never enters the spice or cell layers), inside
//!    a trace scope of the bench's own; the scope's events must hold
//!    one search whose every walked slice nests under it on the
//!    search's own thread, one cell characterization with spice
//!    solves and transients under it, export well-formed Chrome JSON
//!    (written to `$SRAM_TRACE_OUT` when set), and hold spans of the
//!    spice, cell, core, and serve layers. Two overhead
//!    gates ride on the traced run's wall time: the *disabled*
//!    `trace_span!` fast path, which must record nothing, times the
//!    run's span count, must cost under `MAX_DISABLED_OVERHEAD` of
//!    it, and stitching plus
//!    validating one cross-node timeline (a winner and a cancelled
//!    hedge loser, both carrying the run's span tree) — what every
//!    traced, sampled router forward pays — under
//!    `MAX_STITCH_OVERHEAD`.
//! 6. **yield** — a `yield-check` op against the batch engine; the op
//!    always enters the cell layer's Monte Carlo engine, so this is
//!    where the `cell.*` observability probes earn their assertion
//!    site: the run must register cell characterizations (counted and
//!    timed) plus one Monte Carlo run covering every requested sample.

use std::sync::Arc;
use std::time::Instant;

use sram_coopt::{CoOptimizationFramework, DesignSpace};
use sram_probe::trace::{Phase, TraceEvent};
use sram_serve::{CacheConfig, Client, Engine, Json, Request, ServeError, Server, ServerConfig};

/// Structured outcome of the serve bench (consumed by the integration
/// tests; the text report is built from it).
#[derive(Debug, Clone)]
pub struct ServeBench {
    /// Queries in the batch phase.
    pub batch_size: usize,
    /// Cell characterizations the batch performed (must be 1).
    pub characterizations: u64,
    /// Queries that shared a characterization pass (must be
    /// `batch_size - 1`).
    pub coalesced: u64,
    /// Queries in the second (cross-batch) phase.
    pub cross_batch_size: usize,
    /// Queries that reused a LUT characterized by an earlier batch
    /// (must equal `cross_batch_size`).
    pub cross_coalesced: u64,
    /// `serve.batch.characterizations` over the whole run, every phase
    /// and engine included.
    pub run_characterizations: u64,
    /// `serve.batch.cross_coalesced` over the whole run, every phase
    /// and engine included.
    pub run_cross_coalesced: u64,
    /// `serve.request.total` over the whole run, every phase and engine
    /// included.
    pub run_requests: u64,
    /// `serve.cache.hits` over the whole run, every phase and engine
    /// included.
    pub run_cache_hits: u64,
    /// Wall time of the cold (uncached) optimization, nanoseconds.
    pub cold_ns: u128,
    /// Wall time of the repeated (cached) query, nanoseconds.
    pub warm_ns: u128,
    /// `cold_ns / warm_ns`.
    pub speedup: f64,
    /// Whether the cached result payload was byte-identical.
    pub identical_payload: bool,
    /// Whether the TCP round trip returned the same payload as the
    /// in-process API.
    pub tcp_consistent: bool,
    /// Cache hits observed by the engine across all phases.
    pub cache_hits: u64,
    /// Cache misses observed by the engine across all phases.
    pub cache_misses: u64,
    /// Cell characterizations the run added to the `cell.*` probe
    /// plane (delta of `cell.characterizations`; the traced
    /// full-simulation phase and the Monte Carlo phase both pay some).
    pub cell_characterizations: u64,
    /// Timed characterization samples added to the
    /// `cell.characterize_ns` histogram (delta of its count).
    pub cell_characterize_ns_samples: u64,
    /// Monte Carlo runs the yield phase added (delta of
    /// `cell.mc_runs`).
    pub mc_runs: u64,
    /// Monte Carlo samples the yield phase added (delta of
    /// `cell.mc_samples`; must cover `YIELD_SAMPLES`).
    pub mc_samples: u64,
    /// Did the yield-check reply carry a design plus a yield analysis?
    pub yield_ok: bool,
    /// Spans captured by the traced run.
    pub trace_spans: usize,
    /// Did the Chrome export validate (parse + B/E pairing)?
    pub trace_chrome_valid: bool,
    /// Did the traced run record spans of every instrumented layer?
    pub trace_layers_ok: bool,
    /// Wall time of the traced run, nanoseconds.
    pub traced_wall_ns: u128,
    /// Per-call cost of a *disabled* `trace_span!`, nanoseconds.
    pub disabled_ns_per_call: f64,
    /// `disabled_ns_per_call × trace_spans / traced_wall_ns`.
    pub disabled_overhead_ratio: f64,
    /// Spans in the stitched timeline (router root, two attempts, and
    /// both node subtrees).
    pub stitch_spans: u64,
    /// Per-call cost of `stitch` + `validate`, nanoseconds.
    pub stitch_ns_per_call: f64,
    /// `stitch_ns_per_call / traced_wall_ns`.
    pub stitch_overhead_ratio: f64,
}

/// Monte Carlo samples the yield phase requests. Small on purpose:
/// the phase asserts probe wiring, not statistical power (the `yield`
/// experiment owns the real μ−kσ study).
const YIELD_SAMPLES: u64 = 64;

/// Ceiling on the disabled-tracing overhead: the instrumentation must
/// cost less than 5 % of the traced workload's wall time when tracing
/// is off.
const MAX_DISABLED_OVERHEAD: f64 = 0.05;

/// Ceiling on the span-stitching overhead: assembling and validating
/// one cross-node timeline must cost less than 5 % of the traced
/// workload's wall time (in practice it is orders of magnitude below —
/// a regression tripwire, not a tuning target).
const MAX_STITCH_OVERHEAD: f64 = 0.05;

/// Disabled `trace_span!` calls timed by the overhead gate.
const DISABLED_SPAN_ITERS: u64 = 2_000_000;

/// `stitch` + `validate` calls timed by the stitching gate.
const STITCH_ITERS: u64 = 50;

fn engine(threads: usize) -> Engine {
    Engine::new(
        CoOptimizationFramework::paper_mode()
            .with_space(DesignSpace::coarse())
            .with_threads(threads),
        CacheConfig::default(),
    )
}

fn request(line: &str) -> Result<Request, ServeError> {
    Request::from_line(line)
}

fn result_payload(response: &Json) -> Option<String> {
    response.get("result").map(Json::render)
}

/// Validates a Chrome trace export the hard way: parse it with the
/// wire-JSON parser, then replay every `B`/`E` against a per-lane
/// stack (LIFO nesting, no unmatched ends, nothing left open).
fn chrome_export_is_well_formed(chrome: &str) -> bool {
    let Ok(parsed) = Json::parse(chrome) else {
        return false;
    };
    let Some(events) = parsed.get("traceEvents").and_then(Json::as_array) else {
        return false;
    };
    let mut stacks: Vec<(f64, Vec<String>)> = Vec::new();
    for event in events {
        let (Some(ph), Some(tid), Some(name)) = (
            event.get("ph").and_then(Json::as_str),
            event.get("tid").and_then(Json::as_f64),
            event.get("name").and_then(Json::as_str),
        ) else {
            return false;
        };
        #[expect(
            clippy::float_cmp,
            reason = "tids are small integers carried as JSON numbers; exact match is the point"
        )]
        let lane = match stacks.iter().position(|(t, _)| *t == tid) {
            Some(i) => i,
            None => {
                stacks.push((tid, Vec::new()));
                stacks.len() - 1
            }
        };
        match ph {
            "B" => stacks[lane].1.push(name.to_string()),
            "E" => {
                if stacks[lane].1.pop().as_deref() != Some(name) {
                    return false; // unmatched or misnested end
                }
            }
            "X" => {} // complete events carry their own duration
            "M" => {} // metadata (process_name lane labels)
            _ => return false,
        }
    }
    !events.is_empty() && stacks.iter().all(|(_, stack)| stack.is_empty())
}

/// Phase 5's assertions on the traced 1 KB LVT-M1 optimize's events:
/// exactly one `coopt.search`, one `coopt.slice` per slice it reports
/// walking, each parented to the search span and run on its thread,
/// exactly one `cell.characterize`, and at least one `spice.dc_sweep`,
/// one `spice.dc_solve` and one `spice.transient` under it.
fn check_traced_optimize(events: &[TraceEvent]) -> Result<(), ServeError> {
    let spans = |name: &str| -> Vec<&TraceEvent> {
        events
            .iter()
            .filter(|e| e.name == name && e.phase == Phase::Begin)
            .collect()
    };
    let fail = |what: String| Err(ServeError::Remote(format!("traced optimize: {what}")));
    let searches = spans("coopt.search");
    let [search] = searches.as_slice() else {
        return fail(format!("{} coopt.search spans, expected 1", searches.len()));
    };
    let reported = events
        .iter()
        .find(|e| e.id == search.id && e.phase == Phase::End)
        .and_then(|end| end.args.iter().find(|(key, _)| *key == "walked"))
        .map_or(-1, |&(_, n)| n);
    let slices = spans("coopt.slice");
    if slices.len() as i64 != reported {
        return fail(format!(
            "{} coopt.slice spans for a search that walked {reported} slices",
            slices.len()
        ));
    }
    if let Some(stray) = slices.iter().find(|s| s.parent != search.id) {
        return fail(format!(
            "coopt.slice {} has parent {}, not the search span {}",
            stray.id, stray.parent, search.id
        ));
    }
    if slices.iter().any(|s| s.tid != search.tid) {
        return fail("a slice ran off the search's own thread".into());
    }
    let characterizations = spans("cell.characterize").len();
    if characterizations != 1 {
        return fail(format!(
            "{characterizations} cell.characterize spans, expected 1"
        ));
    }
    for name in ["spice.dc_sweep", "spice.dc_solve", "spice.transient"] {
        if spans(name).is_empty() {
            return fail(format!("no {name} span"));
        }
    }
    Ok(())
}

/// Times [`STITCH_ITERS`] stitch + validate passes over a two-node
/// timeline — a winner and a cancelled hedge loser, both carrying
/// `tree` stamped with the adoption proof a node adds on the wire.
/// Returns `(spans, ns per call)`.
fn time_stitching(tree: &Json, total_ns: u64) -> Result<(u64, f64), ServeError> {
    use sram_cluster::stitch::{self, AttemptPiece};
    let mut subtree = tree.clone();
    if let Json::Obj(pairs) = &mut subtree {
        pairs.push(("parent_span".into(), Json::Num(7.0)));
    }
    let ctx = sram_probe::trace::TraceCtx {
        trace_id: sram_probe::trace::trace_id(1),
        parent_span: 7,
        sampled: true,
    };
    let attempt = |node: &str, via, hedge_loser, send_ns, rtt_ns| AttemptPiece {
        node: node.into(),
        via,
        hedge_loser,
        send_ns,
        rtt_ns,
        tree: Some(subtree.clone()),
        error: None,
    };
    let pieces = [
        attempt("127.0.0.1:1", "hedge", false, 1_000, total_ns / 2),
        attempt("127.0.0.1:2", "primary", true, 0, total_ns),
    ];
    let mut spans = 0;
    let started = Instant::now();
    for _ in 0..STITCH_ITERS {
        let stitched = stitch::stitch(&ctx, total_ns, &pieces);
        spans = stitch::validate(&stitched)
            .map_err(|e| ServeError::Remote(format!("stitched timeline: {e}")))?;
        std::hint::black_box(&stitched);
    }
    Ok((
        spans,
        started.elapsed().as_nanos() as f64 / STITCH_ITERS as f64,
    ))
}

/// Runs all six phases.
///
/// # Errors
///
/// Propagates query, transport, and internal-consistency failures.
fn bench(threads: usize) -> Result<ServeBench, ServeError> {
    // The cell.* probe assertions below read summary-level counters, so
    // the bench turns collection on when the environment hasn't.
    if !sram_probe::enabled(sram_probe::Level::Summary) {
        sram_probe::set_level(sram_probe::Level::Summary);
    }
    // The whole-run deltas below come from this snapshot and one more
    // at the end; the bench asserts metrics of crates it does not own.
    let before = sram_probe::snapshot();

    let engine = Arc::new(engine(threads));

    // Phase 1: batch coalescing. Same technology, three capacities.
    let batch: Vec<Request> = [128u64, 256, 1024]
        .iter()
        .map(|bytes| {
            request(&format!(
                r#"{{"op":"optimize","capacity_bytes":{bytes},"flavor":"hvt","method":"m2"}}"#
            ))
        })
        .collect::<Result<_, _>>()?;
    let responses = engine.handle_batch(&batch);
    for response in &responses {
        if response.get("status").and_then(Json::as_str) != Some("ok") {
            return Err(ServeError::Remote(format!(
                "batch query failed: {}",
                response.render()
            )));
        }
    }
    // Snapshot the within-batch counters here: the cross batch below
    // coalesces internally too and would inflate `coalesced`.
    let characterizations = engine.characterizations();
    let coalesced = engine.coalesced();

    // Phase 1b: a later batch of *new* queries on the same technology
    // must ride on the LUT the first batch already paid for.
    let cross_batch: Vec<Request> = [512u64, 2048]
        .iter()
        .map(|bytes| {
            request(&format!(
                r#"{{"op":"optimize","capacity_bytes":{bytes},"flavor":"hvt","method":"m2"}}"#
            ))
        })
        .collect::<Result<_, _>>()?;
    let cross_responses = engine.handle_batch(&cross_batch);
    for response in &cross_responses {
        if response.get("status").and_then(Json::as_str) != Some("ok") {
            return Err(ServeError::Remote(format!(
                "cross-batch query failed: {}",
                response.render()
            )));
        }
    }
    // Snapshot cross-batch reuse here: the cache and trace phases
    // below issue further queries that keep moving the counters.
    let cross_coalesced = engine.cross_coalesced();
    if engine.characterizations() != characterizations {
        return Err(ServeError::Remote(format!(
            "cross batch re-characterized: {} -> {}",
            characterizations,
            engine.characterizations()
        )));
    }

    // Phase 2: cold vs. cached on a fresh capacity.
    let probe = request(r#"{"op":"optimize","capacity_bytes":4096,"flavor":"hvt","method":"m2"}"#)?;
    let cold_started = Instant::now();
    let cold = engine.handle(&probe);
    let cold_ns = cold_started.elapsed().as_nanos();
    let warm_started = Instant::now();
    let warm = engine.handle(&probe);
    let warm_ns = warm_started.elapsed().as_nanos().max(1);
    let identical_payload = result_payload(&cold).is_some()
        && result_payload(&cold) == result_payload(&warm)
        && warm.get("cached").and_then(Json::as_bool) == Some(true);

    // Phase 3: TCP round trip against the same engine + graceful stop.
    let server = Server::start(Arc::clone(&engine), ServerConfig::default())?;
    let mut client = Client::connect(server.local_addr())?;
    let remote = client.call(&probe)?;
    let tcp_consistent = remote.get("cached").and_then(Json::as_bool) == Some(true)
        && result_payload(&remote) == result_payload(&cold);
    drop(client);
    server.shutdown();

    // Phase 5: trace an optimize through a fresh full-simulation
    // engine, so the trace holds spans from all four layers (the
    // device-equation LUT pass drives spice and cell; the search drives
    // coopt; the engine itself contributes the serve spans). The
    // paper-model engine above never touches the spice or cell layers.
    // The bench's own scope receives the request scope's events when
    // the engine finishes it.
    let sim_engine = Engine::new(
        CoOptimizationFramework::simulated_mode()
            .with_space(DesignSpace::coarse())
            .with_threads(threads),
        CacheConfig::default(),
    );
    let traced_request = request(
        r#"{"op":"optimize","capacity_bytes":1024,"flavor":"lvt","method":"m1","trace":true}"#,
    )?;
    let scope = sram_probe::trace::Scope::begin();
    let traced_started = Instant::now();
    let traced = sim_engine.handle(&traced_request);
    let traced_wall_ns = traced_started.elapsed().as_nanos().max(1);
    let events = scope.finish();
    let Some(traced_tree) = traced
        .get("trace")
        .filter(|_| traced.get("status").and_then(Json::as_str) == Some("ok"))
    else {
        return Err(ServeError::Remote(
            "traced request did not return a span tree".into(),
        ));
    };
    check_traced_optimize(&events)?;
    let trace_spans = events.iter().filter(|e| e.phase != Phase::End).count();
    let chrome = sram_probe::trace::chrome_trace_json(&events);
    let trace_chrome_valid = chrome_export_is_well_formed(&chrome);
    let trace_layers_ok = ["spice.", "cell.", "coopt.", "serve."]
        .iter()
        .all(|layer| events.iter().any(|e| e.name.starts_with(layer)));
    if let Some(path) = sram_probe::env_var!("SRAM_TRACE_OUT").get() {
        if !path.is_empty() {
            std::fs::write(&path, &chrome)
                .map_err(|e| ServeError::Remote(format!("writing {path}: {e}")))?;
        }
    }
    // Overhead gates, both relative to the traced run's wall time.
    sram_probe::trace::set_tracing(false);
    let started = Instant::now();
    for _ in 0..DISABLED_SPAN_ITERS {
        let span = sram_probe::trace_span!("bench.overhead_calibration");
        std::hint::black_box(&span);
    }
    let disabled_ns_per_call = started.elapsed().as_nanos() as f64 / DISABLED_SPAN_ITERS as f64;
    let calibration = |e: &TraceEvent| e.name == "bench.overhead_calibration";
    if sram_probe::trace::capture().iter().any(calibration) {
        return Err(ServeError::Remote(
            "a trace_span! recorded an event with tracing off".into(),
        ));
    }
    let (stitch_spans, stitch_ns_per_call) = time_stitching(traced_tree, traced_wall_ns as u64)?;

    // Phase 6: a yield-check against the batch engine. Unlike the
    // paper-mode optimize (which never leaves the analytic model), the
    // yield op always drops into the cell layer's Monte Carlo engine,
    // making this the natural assertion site for the cell.* probes.
    let yield_request = request(&format!(
        r#"{{"op":"yield-check","capacity_bytes":1024,"flavor":"hvt","method":"m2","samples":{YIELD_SAMPLES}}}"#
    ))?;
    let yielded = engine.handle(&yield_request);
    let yield_ok = yielded.get("status").and_then(Json::as_str) == Some("ok")
        && yielded
            .get("result")
            .is_some_and(|r| r.get("design").is_some() && r.get("yield").is_some());
    if !yield_ok {
        return Err(ServeError::Remote(format!(
            "yield-check failed: {}",
            yielded.render()
        )));
    }
    let run = sram_probe::snapshot().diff(&before);
    let counter = |name: &str| run.counters.get(name).copied().unwrap_or(0);
    let cell_characterizations = counter("cell.characterizations");
    let cell_characterize_ns_samples = run
        .histograms
        .get("cell.characterize_ns")
        .map_or(0, |h| h.count);
    let mc_runs = counter("cell.mc_runs");
    let mc_samples = counter("cell.mc_samples");
    let run_characterizations = counter("serve.batch.characterizations");
    let run_cross_coalesced = counter("serve.batch.cross_coalesced");
    let run_requests = counter("serve.request.total");
    let run_cache_hits = counter("serve.cache.hits");

    let counters = engine.cache_counters();
    Ok(ServeBench {
        batch_size: batch.len(),
        characterizations,
        coalesced,
        cross_batch_size: cross_batch.len(),
        cross_coalesced,
        run_characterizations,
        run_cross_coalesced,
        run_requests,
        run_cache_hits,
        cold_ns,
        warm_ns,
        speedup: cold_ns as f64 / warm_ns as f64,
        identical_payload,
        tcp_consistent,
        cache_hits: counters.hits,
        cache_misses: counters.misses,
        cell_characterizations,
        cell_characterize_ns_samples,
        mc_runs,
        mc_samples,
        yield_ok,
        trace_spans,
        trace_chrome_valid,
        trace_layers_ok,
        traced_wall_ns,
        disabled_ns_per_call,
        disabled_overhead_ratio: disabled_ns_per_call * trace_spans as f64 / traced_wall_ns as f64,
        stitch_spans,
        stitch_ns_per_call,
        stitch_overhead_ratio: stitch_ns_per_call / traced_wall_ns as f64,
    })
}

/// Formats the serve bench report.
///
/// # Errors
///
/// Propagates `bench` failures.
pub fn run(threads: usize) -> Result<String, ServeError> {
    report(&bench(threads)?)
}

/// Renders one bench outcome, failing on any broken check.
fn report(b: &ServeBench) -> Result<String, ServeError> {
    let mut out = String::from("Query server (sram-serve): batching + content-addressed cache\n\n");
    out.push_str(&format!(
        "  batch:  {} same-technology queries -> {} characterization pass(es), {} coalesced\n",
        b.batch_size, b.characterizations, b.coalesced
    ));
    out.push_str(&format!(
        "          {} later queries reused the earlier batch's LUT ({} cross-batch coalesced)\n",
        b.cross_batch_size, b.cross_coalesced
    ));
    out.push_str(&format!(
        "  cache:  cold optimize {:.3} ms -> cached repeat {:.1} us ({:.0}x speedup)\n",
        b.cold_ns as f64 / 1e6,
        b.warm_ns as f64 / 1e3,
        b.speedup
    ));
    out.push_str(&format!(
        "          identical payload: {}; hits {} / misses {}\n",
        if b.identical_payload { "yes" } else { "NO" },
        b.cache_hits,
        b.cache_misses
    ));
    out.push_str(&format!(
        "  tcp:    round trip consistent with in-process API: {}; graceful shutdown: yes\n",
        if b.tcp_consistent { "yes" } else { "NO" }
    ));
    out.push_str(&format!(
        "  trace:  {} spans captured; Chrome export {}; layers {}\n",
        b.trace_spans,
        if b.trace_chrome_valid {
            "well-formed"
        } else {
            "INVALID"
        },
        if b.trace_layers_ok {
            "spice+cell+coopt+serve"
        } else {
            "MISSING"
        }
    ));
    out.push_str(&format!(
        "          overhead: disabled trace_span! {:.2} ns/call -> {:.5} of the {:.1} ms traced wall (budget {MAX_DISABLED_OVERHEAD})\n",
        b.disabled_ns_per_call,
        b.disabled_overhead_ratio,
        b.traced_wall_ns as f64 / 1e6
    ));
    out.push_str(&format!(
        "          stitch: {}-span cross-node timeline in {:.1} us/call -> {:.6} of it (budget {MAX_STITCH_OVERHEAD})\n",
        b.stitch_spans,
        b.stitch_ns_per_call / 1e3,
        b.stitch_overhead_ratio
    ));
    out.push_str(&format!(
        "  yield:  {} Monte Carlo run(s), {} samples; {} cell characterizations ({} timed)\n",
        b.mc_runs, b.mc_samples, b.cell_characterizations, b.cell_characterize_ns_samples
    ));
    if b.characterizations != 1 || b.coalesced != b.batch_size as u64 - 1 {
        return Err(ServeError::Remote(format!(
            "batch coalescing broken: {} characterizations, {} coalesced for {} queries",
            b.characterizations, b.coalesced, b.batch_size
        )));
    }
    if b.cross_coalesced != b.cross_batch_size as u64 {
        return Err(ServeError::Remote(format!(
            "cross-batch coalescing broken: {} cross-coalesced for {} queries",
            b.cross_coalesced, b.cross_batch_size
        )));
    }
    if !b.identical_payload || !b.tcp_consistent {
        return Err(ServeError::Remote(
            "cached/TCP results diverged from the cold result".into(),
        ));
    }
    if !b.trace_chrome_valid || !b.trace_layers_ok {
        return Err(ServeError::Remote(
            "trace capture failed validation (export or layer coverage)".into(),
        ));
    }
    if b.disabled_overhead_ratio >= MAX_DISABLED_OVERHEAD
        || b.stitch_overhead_ratio >= MAX_STITCH_OVERHEAD
    {
        return Err(ServeError::Remote(format!(
            "tracing overhead over budget: disabled {:.4}, stitching {:.4}",
            b.disabled_overhead_ratio, b.stitch_overhead_ratio
        )));
    }
    // Root + two attempts + a subtree under each, at minimum.
    if b.stitch_spans < 5 {
        return Err(ServeError::Remote(format!(
            "stitched timeline lost its branches: {} spans",
            b.stitch_spans
        )));
    }
    if b.mc_runs < 1 || b.mc_samples < YIELD_SAMPLES {
        return Err(ServeError::Remote(format!(
            "cell Monte Carlo probes did not move: {} runs, {} samples (wanted >= 1 run, >= {} samples)",
            b.mc_runs, b.mc_samples, YIELD_SAMPLES
        )));
    }
    if b.cell_characterizations < 1 || b.cell_characterize_ns_samples < 1 {
        return Err(ServeError::Remote(format!(
            "cell characterization probes did not move: {} counted, {} timed",
            b.cell_characterizations, b.cell_characterize_ns_samples
        )));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One bench run shared by the tests that read it: the run's
    /// whole-run counter deltas are exact only when no other bench runs
    /// at the same time.
    fn shared_bench() -> &'static ServeBench {
        static BENCH: std::sync::OnceLock<ServeBench> = std::sync::OnceLock::new();
        BENCH.get_or_init(|| bench(2).expect("bench runs"))
    }

    #[test]
    fn serve_bench_coalesces_and_caches() {
        let b = shared_bench();
        assert_eq!(b.characterizations, 1, "one LUT pass for the whole batch");
        // One LUT pass for the hvt batch, one for the traced lvt
        // simulation run.
        assert_eq!(
            b.run_characterizations, 2,
            "batches did not share LUT passes"
        );
        // 2 from the cross-batch phase, plus the cache phase's cold
        // query and the yield phase's hvt/m2 check, both of which also
        // ride on the first batch's LUT.
        assert_eq!(b.run_cross_coalesced, 4, "cross-batch reuse not counted");
        // 3 batch + 2 cross-batch queries, the cold, warm and TCP
        // repeats, the traced run and the yield check.
        assert_eq!(b.run_requests, 10, "serve.request.total missed a query");
        assert_eq!(b.run_cache_hits, 2, "the warm and TCP repeats are hits");
        assert_eq!(b.coalesced, b.batch_size as u64 - 1);
        assert_eq!(
            b.cross_coalesced, b.cross_batch_size as u64,
            "every cross-batch query must reuse the earlier LUT"
        );
        assert!(b.identical_payload, "cached payload must be identical");
        assert!(b.tcp_consistent, "TCP reply must match in-process reply");
        assert!(b.cache_hits >= 2, "warm repeat + TCP repeat are hits");
        assert!(b.trace_spans > 0, "traced run must record spans");
        assert!(b.trace_chrome_valid, "Chrome export must validate");
        assert!(b.trace_layers_ok, "the trace must hold all four layers");
        assert!(b.disabled_overhead_ratio < MAX_DISABLED_OVERHEAD);
        assert!(b.stitch_spans >= 5, "stitch_spans = {}", b.stitch_spans);
        assert!(b.stitch_overhead_ratio < MAX_STITCH_OVERHEAD);
        assert!(b.yield_ok, "yield-check must return design + yield");
        assert!(
            b.mc_runs >= 1,
            "yield phase must register a Monte Carlo run"
        );
        assert!(
            b.mc_samples >= YIELD_SAMPLES,
            "every requested Monte Carlo sample must be counted: {} < {}",
            b.mc_samples,
            YIELD_SAMPLES
        );
        assert!(
            b.cell_characterizations >= 1,
            "simulation + Monte Carlo phases must count cell characterizations"
        );
        assert!(
            b.cell_characterize_ns_samples >= 1,
            "cell characterizations must be timed into cell.characterize_ns"
        );
    }

    #[test]
    fn chrome_validator_rejects_misnesting() {
        assert!(!chrome_export_is_well_formed("not json"));
        assert!(!chrome_export_is_well_formed(r#"{"traceEvents":[]}"#));
        // Unmatched end.
        assert!(!chrome_export_is_well_formed(
            r#"{"traceEvents":[{"ph":"E","tid":1,"name":"a","pid":1,"ts":0}]}"#
        ));
        // Misnested pair.
        assert!(!chrome_export_is_well_formed(
            r#"{"traceEvents":[
                {"ph":"B","tid":1,"name":"a","pid":1,"ts":0},
                {"ph":"B","tid":1,"name":"b","pid":1,"ts":1},
                {"ph":"E","tid":1,"name":"a","pid":1,"ts":2},
                {"ph":"E","tid":1,"name":"b","pid":1,"ts":3}
            ]}"#
        ));
        // Proper nesting passes; metadata lane labels ("M") are fine.
        assert!(chrome_export_is_well_formed(
            r#"{"traceEvents":[
                {"ph":"M","tid":0,"name":"process_name","pid":1,"args":{"name":"sram"}},
                {"ph":"B","tid":1,"name":"a","pid":1,"ts":0},
                {"ph":"B","tid":1,"name":"b","pid":1,"ts":1},
                {"ph":"E","tid":1,"name":"b","pid":1,"ts":2},
                {"ph":"E","tid":1,"name":"a","pid":1,"ts":3},
                {"ph":"X","tid":1001,"name":"c","pid":1,"ts":0,"dur":3}
            ]}"#
        ));
    }

    #[test]
    fn report_mentions_the_headline_numbers() {
        let text = report(shared_bench()).expect("report renders");
        assert!(text.contains("characterization pass(es)"));
        assert!(text.contains("speedup"));
        assert!(text.contains("graceful shutdown: yes"));
        assert!(text.contains("Monte Carlo run(s)"));
    }
}
