//! The query engine: the in-process API behind both the TCP server and
//! the `serve-bench` experiment.
//!
//! Three layers stack here:
//!
//! 1. **Result cache** ([`crate::ResultCache`]) — a repeated query is
//!    answered without touching the framework at all.
//! 2. **LUT store** — cell characterizations keyed by
//!    `(flavor, method)`. The store's mutex is held *across* a build,
//!    so a technology is characterized exactly once no matter how many
//!    batches race for it (the invariant `serve-bench` asserts).
//! 3. **Executors** — cache-missing queries run against the shared
//!    [`CellCharacterization`] through the framework's injectable-LUT
//!    entry points ([`CoOptimizationFramework::optimize_with_cell`]),
//!    which borrow `&self` and therefore fan out across worker threads.
//!
//! [`Engine::handle_batch`] is the batching scheduler: cache hits are
//! answered immediately, the misses are grouped by
//! [`crate::Query::char_key`], each group's characterization runs once,
//! and duplicate queries inside a batch are deduplicated by canonical
//! key so the search itself also runs once.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use sram_faults::CancelToken;

use crate::cache::{CacheConfig, CacheCounters, ResultCache};
use crate::error::{wire_status, ServeError};
use crate::query::{Query, Request};
use crate::Json;
use sram_array::{ArrayModel, ArrayOrganization, Capacity};
use sram_cell::{CellCharacterization, MarginStats, YieldAnalysis};
use sram_coopt::{
    CoOptimizationFramework, CooptError, Method, OptimalDesign, SearchStatistics, YieldConstraint,
};
use sram_device::VtFlavor;
use sram_probe::hash::fnv1a64;
use sram_probe::HistogramSnapshot;
use sram_units::Voltage;

/// The sigma multiplier reported by yield-check responses (the paper's
/// headline constraint is `μ − 3σ ≥ 0`).
const YIELD_K: f64 = 3.0;

/// Total characterization attempts per LUT build (one initial try plus
/// up to two retries) when the failure is transient.
const RETRY_ATTEMPTS: u32 = 3;

/// Base backoff before the first retry; doubles per attempt (1 ms,
/// 2 ms). Deterministic — no jitter — so fault-plan replays take the
/// same path.
const RETRY_BASE_BACKOFF: Duration = Duration::from_millis(1);

/// Queue fill fraction above which `health` degrades — the router
/// should start hedging before the queue rejects with `busy`.
const QUEUE_PRESSURE_DEGRADED: f64 = 0.8;

/// Long-window (whole ring) SLO burn above which `health` degrades:
/// burning faster than 1× means the error budget will not last.
const BURN_DEGRADED_LONG: f64 = 1.0;

/// Short-window (newest window) SLO burn above which `health` is
/// unhealthy — an active fire, not a slow leak.
const BURN_UNHEALTHY_SHORT: f64 = 10.0;

/// The query engine: framework + LUT store + result cache.
pub struct Engine {
    framework: CoOptimizationFramework,
    cache: ResultCache,
    luts: Mutex<HashMap<(VtFlavor, Method), Arc<CellCharacterization>>>,
    characterizations: AtomicU64,
    coalesced: AtomicU64,
    cross_coalesced: AtomicU64,
    requests: AtomicU64,
    errors: AtomicU64,
    health_revision: AtomicU64,
    started: Instant,
}

impl Engine {
    /// Wraps a framework with a result cache of the given size.
    #[must_use]
    pub fn new(framework: CoOptimizationFramework, cache: CacheConfig) -> Self {
        Self {
            framework,
            cache: ResultCache::new(cache),
            luts: Mutex::new(HashMap::new()),
            characterizations: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            cross_coalesced: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            health_revision: AtomicU64::new(0),
            started: Instant::now(),
        }
    }

    /// The wrapped framework.
    #[must_use]
    pub fn framework(&self) -> &CoOptimizationFramework {
        &self.framework
    }

    /// Result-cache counters.
    #[must_use]
    pub fn cache_counters(&self) -> CacheCounters {
        self.cache.counters()
    }

    /// Cell characterization passes performed so far.
    #[must_use]
    pub fn characterizations(&self) -> u64 {
        self.characterizations.load(Ordering::Relaxed)
    }

    /// Queries that shared a characterization pass with an earlier
    /// member of their own batch instead of paying for one.
    #[must_use]
    pub fn coalesced(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }

    /// Cache-missing queries that reused a LUT characterized by an
    /// *earlier batch* — the cross-batch analogue of
    /// [`Engine::coalesced`].
    #[must_use]
    pub fn cross_coalesced(&self) -> u64 {
        self.cross_coalesced.load(Ordering::Relaxed)
    }

    /// Requests handled (hits, misses, and errors).
    #[must_use]
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Requests that produced an error response.
    #[must_use]
    fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Returns the shared characterization for a technology, building
    /// it at most once. The returned flag is `true` when this call
    /// performed the build.
    ///
    /// The store lock is deliberately held across the build: two
    /// batches racing for the same `(flavor, method)` must not both pay
    /// for the LUT pass. Distinct technologies briefly serialize behind
    /// the build; there are only four `(flavor, method)` pairs, so the
    /// window closes after warm-up.
    fn lut(
        &self,
        key: (VtFlavor, Method),
    ) -> Result<(Arc<CellCharacterization>, bool), ServeError> {
        let mut store = self.luts.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(cell) = store.get(&key) {
            return Ok((Arc::clone(cell), false));
        }
        let _span = sram_probe::probe_span!("serve.batch.characterize_ns");
        let _trace = sram_probe::trace_span!("serve.characterize");
        let cell = Arc::new(self.characterize_with_retry(key)?);
        store.insert(key, Arc::clone(&cell));
        self.characterizations.fetch_add(1, Ordering::Relaxed);
        sram_probe::probe_inc!("serve.batch.characterizations");
        Ok((cell, true))
    }

    /// Characterizes with bounded retry: transient failures (injected
    /// NaN measurements, non-convergent SPICE sweeps) get up to
    /// [`RETRY_ATTEMPTS`] tries with a deterministic doubling backoff;
    /// anything fatal propagates immediately.
    fn characterize_with_retry(
        &self,
        key: (VtFlavor, Method),
    ) -> Result<CellCharacterization, ServeError> {
        let mut attempt: u32 = 0;
        loop {
            match self.framework.characterize_cell(key.0, key.1) {
                Ok(cell) => {
                    if attempt > 0 {
                        sram_probe::probe_inc!("serve.retry.recovered");
                    }
                    return Ok(cell);
                }
                Err(e) => {
                    let err = ServeError::from(e);
                    if attempt + 1 >= RETRY_ATTEMPTS || !err.is_retryable() {
                        return Err(err);
                    }
                    attempt += 1;
                    sram_probe::probe_inc!("serve.retry.attempts");
                    std::thread::sleep(RETRY_BASE_BACKOFF * 2u32.pow(attempt - 1));
                }
            }
        }
    }

    /// Handles one request (a batch of one). When the request's
    /// `trace` flag is set, it runs in its own trace scope and the
    /// response carries the request's span tree under `"trace"`.
    #[must_use]
    pub fn handle(&self, request: &Request) -> Json {
        if !request.trace {
            return self.handle_one(request);
        }
        let scope = sram_probe::trace::Scope::begin();
        let request_span = sram_probe::probe_handle!(trace "serve.request");
        let root =
            sram_probe::trace::TraceSpan::begin_at(request_span, sram_probe::trace::now_ns());
        let root_id = root.id();
        let mut response = self.handle_one(request);
        drop(root);
        if let Some(tree) = sram_probe::trace::span_tree(&scope.finish(), root_id) {
            if let Json::Obj(pairs) = &mut response {
                pairs.push(("trace".into(), trace_json(&tree)));
            }
        }
        response
    }

    fn handle_one(&self, request: &Request) -> Json {
        self.handle_batch(std::slice::from_ref(request))
            .pop()
            .unwrap_or_else(|| {
                error_response(None, &ServeError::InvalidQuery("empty batch".into()))
            })
    }

    /// Answers `request` from the result cache alone, with the reply
    /// [`Engine::handle_batch`] would give for it. `None` for a miss
    /// and for the introspection ops; a miss is not counted here, so
    /// the batch that runs the request next counts it once.
    #[must_use]
    pub fn cached_response(&self, request: &Request) -> Option<Json> {
        if matches!(request.query, Query::Metrics | Query::Health) {
            return None;
        }
        let canonical = request.query.canonical();
        let result = self
            .cache
            .get_hit(fnv1a64(canonical.as_bytes()), &canonical)?;
        self.requests.fetch_add(1, Ordering::Relaxed);
        sram_probe::probe_inc!("serve.request.total");
        Some(ok_response(request.id.as_deref(), true, &result))
    }

    /// Handles a batch with no deadlines or shutdown awareness — every
    /// request runs under a never-cancelled token. See
    /// [`Engine::handle_batch_cancel`].
    #[must_use]
    pub fn handle_batch(&self, requests: &[Request]) -> Vec<Json> {
        self.handle_batch_cancel(requests, &[])
    }

    /// Handles a batch: answers cache hits immediately, groups the
    /// misses by technology so each group shares one characterization
    /// pass, deduplicates identical queries, and returns responses in
    /// request order.
    ///
    /// `tokens` pairs with `requests` by index (missing entries act as
    /// never-cancelled). A token that fires mid-execution turns into a
    /// typed `deadline_exceeded` / `shutting_down` error envelope for
    /// its request. Deduplicated queries run under the most permissive
    /// member token, so one client's tight deadline cannot starve a
    /// duplicate that asked for longer.
    #[must_use]
    pub fn handle_batch_cancel(&self, requests: &[Request], tokens: &[CancelToken]) -> Vec<Json> {
        sram_probe::probe_record!("serve.batch.size", requests.len() as u64);
        self.requests
            .fetch_add(requests.len() as u64, Ordering::Relaxed);
        sram_probe::probe_add!("serve.request.total", requests.len() as u64);

        let mut responses: Vec<Option<Json>> = vec![None; requests.len()];

        // Pass 1: introspection queries (always live, never cached),
        // then the result cache.
        let mut misses: Vec<usize> = Vec::new();
        for (i, req) in requests.iter().enumerate() {
            let direct = match req.query {
                Query::Metrics => Some(self.metrics_json()),
                Query::Health => Some(self.health_json()),
                _ => None,
            };
            if let Some(result) = direct {
                responses[i] = Some(ok_response(req.id.as_deref(), false, &result));
                continue;
            }
            let canonical = req.query.canonical();
            match self.cache.get(req.query.key(), &canonical) {
                Some(result) => responses[i] = Some(ok_response(req.id.as_deref(), true, &result)),
                None => misses.push(i),
            }
        }

        // Pass 2: group misses by technology; one LUT pass per group.
        let mut groups: Vec<((VtFlavor, Method), Vec<usize>)> = Vec::new();
        for &i in &misses {
            let Some(key) = requests[i].query.char_key() else {
                continue;
            };
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, members)) => members.push(i),
                None => groups.push((key, vec![i])),
            }
        }

        for (key, members) in groups {
            let (cell, built) = match self.lut(key) {
                Ok(pair) => pair,
                Err(err) => {
                    // Characterization failed: every member of the
                    // group fails the same way.
                    for &i in &members {
                        self.errors.fetch_add(1, Ordering::Relaxed);
                        sram_probe::probe_inc!("serve.request.errors");
                        responses[i] = Some(error_response(requests[i].id.as_deref(), &err));
                    }
                    continue;
                }
            };
            // Batch-local accounting: every group member beyond the
            // first rode along on a characterization it didn't pay for.
            let shared = members.len() as u64 - 1;
            if shared > 0 {
                self.coalesced.fetch_add(shared, Ordering::Relaxed);
                sram_probe::probe_add!("serve.batch.coalesced", shared);
            }
            // Cross-batch accounting: the whole group reused a LUT an
            // *earlier* batch paid to characterize.
            if !built {
                let reused = members.len() as u64;
                self.cross_coalesced.fetch_add(reused, Ordering::Relaxed);
                sram_probe::probe_add!("serve.batch.cross_coalesced", reused);
            }

            // Deduplicate identical queries inside the group: the
            // search runs once, every duplicate shares the result.
            let mut unique: Vec<(String, Vec<usize>)> = Vec::new();
            for &i in &members {
                let canonical = requests[i].query.canonical();
                match unique.iter_mut().find(|(c, _)| *c == canonical) {
                    Some((_, idxs)) => idxs.push(i),
                    None => unique.push((canonical, vec![i])),
                }
            }

            for (canonical, idxs) in unique {
                let first = idxs[0];
                let cancel = most_permissive_token(tokens, &idxs);
                match self.execute(&requests[first].query, &cell, &cancel) {
                    Ok(result) => {
                        let result = Arc::new(result);
                        self.cache.insert(
                            requests[first].query.key(),
                            &canonical,
                            Arc::clone(&result),
                        );
                        for &i in &idxs {
                            responses[i] =
                                Some(ok_response(requests[i].id.as_deref(), false, &result));
                        }
                    }
                    Err(err) => {
                        for &i in &idxs {
                            self.errors.fetch_add(1, Ordering::Relaxed);
                            sram_probe::probe_inc!("serve.request.errors");
                            responses[i] = Some(error_response(requests[i].id.as_deref(), &err));
                        }
                    }
                }
            }
        }

        responses
            .into_iter()
            .map(|r| {
                r.unwrap_or_else(|| {
                    error_response(None, &ServeError::InvalidQuery("request lost".into()))
                })
            })
            .collect()
    }

    /// Executes one cache-missing query against a resolved
    /// characterization, honoring `cancel` at each query's natural
    /// cooperation points (search slices, Monte Carlo samples).
    fn execute(
        &self,
        query: &Query,
        cell: &CellCharacterization,
        cancel: &CancelToken,
    ) -> Result<Json, ServeError> {
        let _span = sram_probe::probe_span!("serve.request.exec_ns");
        let _trace = sram_probe::trace_span!("serve.execute");
        match *query {
            Query::Optimize {
                capacity_bytes,
                flavor,
                method,
                objective,
            } => {
                let design = self.framework.optimize_with_cell_cancel(
                    cell,
                    Capacity::from_bytes(capacity_bytes as usize),
                    flavor,
                    method,
                    objective.objective(),
                    cancel,
                )?;
                Ok(design_json(&design))
            }
            Query::EvaluatePoint {
                capacity_bytes,
                flavor: _,
                method,
                rows,
                vssc_mv,
                n_pre,
                n_wr,
            } => {
                let vssc = Voltage::from_millivolts(vssc_mv as f64);
                if method == Method::M1 && vssc_mv != 0 {
                    return Err(ServeError::InvalidQuery(
                        "method m1 has no negative-Gnd rail; vssc_mv must be 0".into(),
                    ));
                }
                let bits = Capacity::from_bytes(capacity_bytes as usize).bits();
                if !bits.is_multiple_of(rows as usize) || bits / rows as usize > u32::MAX as usize {
                    return Err(ServeError::InvalidQuery(format!(
                        "capacity of {bits} bits does not divide into {rows} rows"
                    )));
                }
                let cols = (bits / rows as usize) as u32;
                let org = ArrayOrganization::new(rows, cols, self.framework.word_bits())
                    .map_err(|e| ServeError::InvalidQuery(e.to_string()))?;
                let constraint = YieldConstraint {
                    delta: self.framework.delta(),
                };
                let feasible = constraint.check_snapshot(cell, vssc);
                let metrics = ArrayModel::new(
                    org,
                    cell,
                    self.framework.periphery(),
                    self.framework.params(),
                )
                .with_precharge_fins(n_pre)
                .with_write_fins(n_wr)
                .with_vssc(vssc)
                .evaluate()
                .map_err(CooptError::Array)?;
                Ok(Json::Obj(vec![
                    ("feasible".into(), Json::Bool(feasible)),
                    (
                        "read_delay_s".into(),
                        Json::Num(metrics.read_delay.seconds()),
                    ),
                    (
                        "write_delay_s".into(),
                        Json::Num(metrics.write_delay.seconds()),
                    ),
                    ("delay_s".into(), Json::Num(metrics.delay.seconds())),
                    ("energy_j".into(), Json::Num(metrics.energy.joules())),
                    ("edp_js".into(), Json::Num(metrics.edp().joule_seconds())),
                ]))
            }
            Query::ParetoFront {
                capacity_bytes,
                flavor: _,
                method,
            } => {
                let capacity = Capacity::from_bytes(capacity_bytes as usize);
                let (front, stats) = self
                    .framework
                    .pareto_front(cell, capacity, method, cancel)?;
                let points: Vec<Json> = front
                    .sorted_by_delay()
                    .into_iter()
                    .map(|p| {
                        let d = p.tag;
                        Json::Obj(vec![
                            ("energy_j".into(), Json::Num(p.energy.joules())),
                            ("delay_s".into(), Json::Num(p.delay.seconds())),
                            ("rows".into(), Json::Num(f64::from(d.organization.rows()))),
                            ("n_pre".into(), Json::Num(f64::from(d.n_pre))),
                            ("n_wr".into(), Json::Num(f64::from(d.n_wr))),
                            (
                                "vssc_mv".into(),
                                Json::Num(f64::from(metrics_vssc_mv(d.vssc))),
                            ),
                        ])
                    })
                    .collect();
                Ok(Json::Obj(vec![
                    ("front_size".into(), Json::Num(points.len() as f64)),
                    ("points".into(), Json::Arr(points)),
                    ("stats".into(), stats_json(&stats)),
                ]))
            }
            Query::YieldCheck {
                capacity_bytes,
                flavor,
                method,
                samples,
            } => {
                let design = self.framework.optimize_with_cell_cancel(
                    cell,
                    Capacity::from_bytes(capacity_bytes as usize),
                    flavor,
                    method,
                    crate::query::ObjectiveKind::Edp.objective(),
                    cancel,
                )?;
                let analysis = self.framework.verify_statistical_yield_cancel(
                    &design,
                    samples as usize,
                    cancel,
                )?;
                Ok(Json::Obj(vec![
                    ("design".into(), design_json(&design)),
                    ("yield".into(), yield_json(&analysis)),
                ]))
            }
            // Introspection ops never reach the executor (answered in
            // pass 1, skipped by the grouping); keep the match total.
            Query::Metrics => Ok(self.metrics_json()),
            Query::Health => Ok(self.health_json()),
        }
    }

    /// Windowed telemetry for the `metrics` op: the Prometheus text
    /// exposition under `"text"` plus a JSON rendering of the same
    /// [`sram_probe::telemetry::Export`], so the two forms cannot
    /// drift — `reproduce telemetry-soak` hard-fails if they do. The
    /// reply also carries the engine's uptime, its ungated counters,
    /// and the result cache's occupancy (the per-shard cache block a
    /// cluster collector reads), so one op is the node's whole
    /// snapshot.
    #[must_use]
    pub fn metrics_json(&self) -> Json {
        let export = sram_probe::telemetry::export();
        let counters: Vec<(String, Json)> = export
            .counters
            .iter()
            .map(|(name, stat)| {
                (
                    (*name).to_string(),
                    Json::Obj(vec![
                        ("total".into(), Json::Num(stat.total as f64)),
                        ("delta".into(), Json::Num(stat.delta as f64)),
                        ("rate".into(), Json::Num(stat.rate)),
                        ("last_rate".into(), Json::Num(stat.last_rate)),
                    ]),
                )
            })
            .collect();
        let gauges: Vec<(String, Json)> = export
            .gauges
            .iter()
            .map(|(name, value)| ((*name).to_string(), Json::Num(*value)))
            .collect();
        let quantiles: Vec<(String, Json)> = export
            .histograms
            .iter()
            .map(|(name, h)| ((*name).to_string(), histogram_json(h)))
            .collect();
        let cache = self.cache.counters();
        let num = |v: u64| Json::Num(v as f64);
        Json::Obj(vec![
            (
                "uptime_s".into(),
                Json::Num(self.started.elapsed().as_secs_f64()),
            ),
            ("requests".into(), num(self.requests())),
            ("errors".into(), num(self.errors())),
            ("characterizations".into(), num(self.characterizations())),
            ("coalesced".into(), num(self.coalesced())),
            ("cross_coalesced".into(), num(self.cross_coalesced())),
            (
                "cache".into(),
                Json::Obj(vec![
                    ("entries".into(), num(cache.entries)),
                    ("bytes".into(), num(cache.bytes)),
                    ("hits".into(), num(cache.hits)),
                    ("misses".into(), num(cache.misses)),
                    ("insertions".into(), num(cache.insertions)),
                    ("evictions".into(), num(cache.evictions)),
                ]),
            ),
            ("window_ms".into(), Json::Num(export.window_ms as f64)),
            ("slots".into(), Json::Num(export.slots as f64)),
            ("windows".into(), Json::Num(export.windows.len() as f64)),
            ("span_s".into(), Json::Num(export.span_s)),
            ("counters".into(), Json::Obj(counters)),
            ("gauges".into(), Json::Obj(gauges)),
            ("quantiles".into(), Json::Obj(quantiles)),
            ("text".into(), Json::Str(export.to_prometheus())),
        ])
    }

    /// Health verdict for the `health` op: `ok|degraded|unhealthy`
    /// plus the reasons, computed from worker liveness (panic/respawn
    /// counters), queue pressure, windowed expiry/reject rates, and
    /// per-op SLO burn ([`crate::slo`]). This is the contract a
    /// cluster router polls to decide hedging, draining, or failover.
    ///
    /// Each reply carries a monotonic `revision` counter (and mirrors
    /// it to the ungated `serve.health.revision` gauge) so a poller
    /// that interleaves snapshots across reconnects can cheaply detect
    /// a stale or out-of-order reply: a revision at or below the last
    /// one seen from this process is old news and should be skipped.
    #[must_use]
    fn health_json(&self) -> Json {
        let revision = self.health_revision.fetch_add(1, Ordering::Relaxed) + 1;
        // Ungated direct handle: health must report with probes off.
        sram_probe::probe_handle!(gauge "serve.health.revision").set(revision as f64);
        let export = sram_probe::telemetry::export();
        let has_ring = !export.windows.is_empty();
        // Windowed delta when the ring has data; lifetime total as the
        // cold-start fallback so faults are never invisible.
        let recent = |counter: &'static sram_probe::Counter| {
            if has_ring {
                export.counters.get(counter.name()).map_or(0, |s| s.delta)
            } else {
                counter.get()
            }
        };
        let rate = |name: &str| export.counters.get(name).map_or(0.0, |s| s.rate);

        let panics_counter = sram_probe::probe_handle!(counter "serve.worker.panics");
        let panics = panics_counter.get();
        let respawns = sram_probe::probe_handle!(counter "serve.worker.respawns").get();
        let depth = sram_probe::probe_handle!(gauge "serve.queue.depth").get();
        let capacity = sram_probe::probe_handle!(gauge "serve.queue.capacity").get();
        let cache = self.cache.counters();
        let slo = crate::slo::statuses(&export);

        let mut degraded: Vec<String> = Vec::new();
        let mut unhealthy: Vec<String> = Vec::new();
        if respawns < panics {
            unhealthy.push(format!(
                "worker down: {panics} panics but only {respawns} respawns"
            ));
        } else if recent(panics_counter) > 0 {
            degraded.push(format!(
                "worker panics in window: {}",
                recent(panics_counter)
            ));
        }
        if capacity > 0.0 && depth / capacity >= QUEUE_PRESSURE_DEGRADED {
            degraded.push(format!("queue pressure: {depth:.0}/{capacity:.0}"));
        }
        let rejected = recent(sram_probe::probe_handle!(counter "serve.request.rejected"));
        if rejected > 0 {
            degraded.push(format!("busy rejections in window: {rejected}"));
        }
        let expired = recent(sram_probe::probe_handle!(counter "serve.request.expired"));
        if expired > 0 {
            degraded.push(format!("deadline expiries in window: {expired}"));
        }
        for s in &slo {
            if s.burn_short > BURN_UNHEALTHY_SHORT {
                unhealthy.push(format!(
                    "{} SLO burning {:.1}x in the newest window",
                    s.op, s.burn_short
                ));
            } else if s.burn_long > BURN_DEGRADED_LONG {
                degraded.push(format!(
                    "{} SLO burning {:.1}x over the ring",
                    s.op, s.burn_long
                ));
            }
        }

        let verdict = if !unhealthy.is_empty() {
            "unhealthy"
        } else if !degraded.is_empty() {
            "degraded"
        } else {
            "ok"
        };
        let reasons: Vec<Json> = unhealthy
            .into_iter()
            .chain(degraded)
            .map(Json::Str)
            .collect();
        let slo_json: Vec<(String, Json)> = slo
            .iter()
            .map(|s| {
                (
                    s.op.to_string(),
                    Json::Obj(vec![
                        ("objective_ms".into(), Json::Num(s.objective_ms as f64)),
                        ("total".into(), Json::Num(s.total as f64)),
                        ("breach".into(), Json::Num(s.breach as f64)),
                        ("burn_long".into(), Json::Num(s.burn_long)),
                        ("burn_short".into(), Json::Num(s.burn_short)),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("verdict".into(), Json::Str(verdict.into())),
            ("revision".into(), Json::Num(revision as f64)),
            ("reasons".into(), Json::Arr(reasons)),
            ("windows".into(), Json::Num(export.windows.len() as f64)),
            ("span_s".into(), Json::Num(export.span_s)),
            (
                "workers".into(),
                Json::Obj(vec![
                    ("panics".into(), Json::Num(panics as f64)),
                    ("respawns".into(), Json::Num(respawns as f64)),
                ]),
            ),
            (
                "queue".into(),
                Json::Obj(vec![
                    ("depth".into(), Json::Num(depth)),
                    ("capacity".into(), Json::Num(capacity)),
                ]),
            ),
            (
                "cache".into(),
                Json::Obj(vec![
                    ("entries".into(), Json::Num(cache.entries as f64)),
                    ("bytes".into(), Json::Num(cache.bytes as f64)),
                ]),
            ),
            (
                "rates".into(),
                Json::Obj(vec![
                    (
                        "expired_per_s".into(),
                        Json::Num(rate("serve.request.expired")),
                    ),
                    (
                        "rejected_per_s".into(),
                        Json::Num(rate("serve.request.rejected")),
                    ),
                    (
                        "errors_per_s".into(),
                        Json::Num(rate("serve.request.errors")),
                    ),
                ]),
            ),
            ("slo".into(), Json::Obj(slo_json)),
        ])
    }

    /// Spills the result cache to `path`, one `{"q":…,"r":…}` JSON
    /// object per line, sorted by canonical query so the file is
    /// byte-stable for identical cache contents. Returns the number of
    /// entries written.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn save_cache(&self, path: &Path) -> Result<usize, ServeError> {
        let entries = self.cache.export();
        let mut out = String::new();
        for (canonical, value) in &entries {
            let line = Json::Obj(vec![
                ("q".into(), Json::Str(canonical.clone())),
                ("r".into(), (**value).clone()),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        std::fs::write(path, out)?;
        sram_probe::probe_add!("serve.cache.persisted", entries.len() as u64);
        Ok(entries.len())
    }

    /// Warm-starts the result cache from a file written by
    /// [`Engine::save_cache`]. Corrupt or truncated lines are skipped
    /// (counted on `serve.cache.load_errors`), never fatal — a partial
    /// warm start beats an empty cache, and a wrong answer is impossible
    /// because entries are re-keyed from their stored canonical string.
    /// Returns the number of entries restored.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures (an unreadable file, not a
    /// malformed one).
    pub fn load_cache(&self, path: &Path) -> Result<usize, ServeError> {
        let text = std::fs::read_to_string(path)?;
        let mut loaded = 0usize;
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            let entry = match Json::parse(line) {
                Ok(v) => v,
                Err(_) => {
                    sram_probe::probe_inc!("serve.cache.load_errors");
                    continue;
                }
            };
            let (Some(canonical), Some(result)) =
                (entry.get("q").and_then(Json::as_str), entry.get("r"))
            else {
                sram_probe::probe_inc!("serve.cache.load_errors");
                continue;
            };
            self.cache.insert(
                fnv1a64(canonical.as_bytes()),
                canonical,
                Arc::new(result.clone()),
            );
            loaded += 1;
        }
        sram_probe::probe_add!("serve.cache.warmed", loaded as u64);
        Ok(loaded)
    }
}

/// The most permissive token among a dedup group's members: a member
/// with no deadline wins outright; otherwise the latest deadline does.
/// Indices missing from `tokens` count as never-cancelled.
fn most_permissive_token(tokens: &[CancelToken], idxs: &[usize]) -> CancelToken {
    let mut best: Option<CancelToken> = None;
    for &i in idxs {
        let token = tokens.get(i).cloned().unwrap_or_default();
        best = Some(match best {
            None => token,
            Some(held) => match (held.deadline(), token.deadline()) {
                (None, _) => held,
                (_, None) => token,
                (Some(a), Some(b)) => {
                    if b > a {
                        token
                    } else {
                        held
                    }
                }
            },
        });
    }
    best.unwrap_or_default()
}

/// Renders a reconstructed span tree as wire JSON. Start times are
/// rebased to the root span so clients see offsets, not process epoch.
#[must_use]
pub(crate) fn trace_json(node: &sram_probe::trace::SpanNode) -> Json {
    trace_json_rebased(node, node.start_ns)
}

fn trace_json_rebased(node: &sram_probe::trace::SpanNode, epoch: u64) -> Json {
    let args: Vec<(String, Json)> = node
        .args
        .iter()
        .map(|&(key, value)| (key.to_string(), Json::Num(value as f64)))
        .collect();
    let children: Vec<Json> = node
        .children
        .iter()
        .map(|child| trace_json_rebased(child, epoch))
        .collect();
    Json::Obj(vec![
        ("name".into(), Json::Str(node.name.to_string())),
        (
            "start_ns".into(),
            Json::Num(node.start_ns.saturating_sub(epoch) as f64),
        ),
        ("dur_ns".into(), Json::Num(node.dur_ns as f64)),
        ("args".into(), Json::Obj(args)),
        ("children".into(), Json::Arr(children)),
    ])
}

fn metrics_vssc_mv(vssc: Voltage) -> i32 {
    // Millivolt grid values round exactly.
    vssc.millivolts().round() as i32
}

fn margin_json(stats: &MarginStats) -> Json {
    Json::Obj(vec![
        ("mean_mv".into(), Json::Num(stats.mean.millivolts())),
        ("sigma_mv".into(), Json::Num(stats.sigma.millivolts())),
        ("worst_mv".into(), Json::Num(stats.worst.millivolts())),
        ("samples".into(), Json::Num(stats.samples as f64)),
    ])
}

fn yield_json(analysis: &YieldAnalysis) -> Json {
    Json::Obj(vec![
        ("hsnm".into(), margin_json(&analysis.hsnm)),
        ("rsnm".into(), margin_json(&analysis.rsnm)),
        ("wm".into(), margin_json(&analysis.wm)),
        ("k".into(), Json::Num(YIELD_K)),
        ("passes".into(), Json::Bool(analysis.passes(YIELD_K))),
        (
            "worst_statistical_margin_mv".into(),
            Json::Num(analysis.worst_statistical_margin(YIELD_K).millivolts()),
        ),
    ])
}

/// Renders an [`OptimalDesign`] to its wire form.
#[must_use]
fn design_json(design: &OptimalDesign) -> Json {
    Json::Obj(vec![
        (
            "capacity_bytes".into(),
            Json::Num(design.capacity.bytes() as f64),
        ),
        ("label".into(), Json::Str(design.label())),
        (
            "rows".into(),
            Json::Num(f64::from(design.organization.rows())),
        ),
        (
            "cols".into(),
            Json::Num(f64::from(design.organization.cols())),
        ),
        ("n_pre".into(), Json::Num(f64::from(design.n_pre))),
        ("n_wr".into(), Json::Num(f64::from(design.n_wr))),
        ("vddc_mv".into(), Json::Num(design.vddc.millivolts())),
        ("vssc_mv".into(), Json::Num(design.vssc.millivolts())),
        ("vwl_mv".into(), Json::Num(design.vwl.millivolts())),
        ("delay_s".into(), Json::Num(design.delay().seconds())),
        ("energy_j".into(), Json::Num(design.energy().joules())),
        ("edp_js".into(), Json::Num(design.edp().joule_seconds())),
        ("stats".into(), stats_json(&design.stats)),
    ])
}

/// Renders a walk's statistics, the `stats` of the `optimize` and
/// `pareto-front` replies: of the `examined` candidates, the `feasible`
/// ones (those meeting the yield constraint) split into `evaluated`,
/// `eval_errors` and `pruned` (only `optimize` prunes).
fn stats_json(stats: &SearchStatistics) -> Json {
    let count = |n: usize| Json::Num(n as f64);
    Json::Obj(vec![
        ("examined".into(), count(stats.examined)),
        ("feasible".into(), count(stats.feasible)),
        ("evaluated".into(), count(stats.evaluated)),
        ("eval_errors".into(), count(stats.eval_errors)),
        ("pruned".into(), count(stats.pruned)),
    ])
}

/// Renders a histogram for the `metrics` and `cluster-metrics` replies:
/// count, sum, p50/p90/p99 and the sparse `[index, count]` log-linear
/// buckets, which let a collector rebuild the histogram and merge it
/// across nodes losslessly instead of averaging per-node percentiles.
#[must_use]
pub fn histogram_json(h: &HistogramSnapshot) -> Json {
    let buckets = h
        .log_linear()
        .iter()
        .map(|&(index, count)| {
            Json::Arr(vec![Json::Num(f64::from(index)), Json::Num(count as f64)])
        })
        .collect();
    Json::Obj(vec![
        ("count".into(), Json::Num(h.count as f64)),
        ("sum".into(), Json::Num(h.sum as f64)),
        ("p50".into(), Json::Num(h.quantile(0.50))),
        ("p90".into(), Json::Num(h.quantile(0.90))),
        ("p99".into(), Json::Num(h.quantile(0.99))),
        ("buckets".into(), Json::Arr(buckets)),
    ])
}

/// Builds a success envelope: `{"id":…,"status":"ok","cached":…,"result":…}`.
#[must_use]
fn ok_response(id: Option<&str>, cached: bool, result: &Json) -> Json {
    let mut pairs: Vec<(String, Json)> = Vec::new();
    if let Some(id) = id {
        pairs.push(("id".into(), Json::Str(id.to_string())));
    }
    pairs.push(("status".into(), Json::Str("ok".into())));
    pairs.push(("cached".into(), Json::Bool(cached)));
    pairs.push(("result".into(), result.clone()));
    Json::Obj(pairs)
}

/// Builds an error envelope:
/// `{"id":…,"status":…,"error":…,"retryable":…}` where the status is
/// [`wire_status`] (`"busy"`, `"shutting_down"`, `"deadline_exceeded"`,
/// `"internal"`, `"error"`) and `retryable` tells the client whether
/// resending the same request can plausibly succeed.
#[must_use]
pub fn error_response(id: Option<&str>, error: &ServeError) -> Json {
    let mut pairs: Vec<(String, Json)> = Vec::new();
    if let Some(id) = id {
        pairs.push(("id".into(), Json::Str(id.to_string())));
    }
    pairs.push(("status".into(), Json::Str(wire_status(error).into())));
    pairs.push(("error".into(), Json::Str(error.to_string())));
    pairs.push(("retryable".into(), Json::Bool(error.is_retryable())));
    Json::Obj(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sram_coopt::DesignSpace;

    fn coarse_engine() -> Engine {
        Engine::new(
            CoOptimizationFramework::paper_mode().with_space(DesignSpace::coarse()),
            CacheConfig::default(),
        )
    }

    fn req(line: &str) -> Request {
        Request::from_line(line).unwrap()
    }

    #[test]
    fn repeated_query_is_served_from_cache_with_identical_result() {
        let engine = coarse_engine();
        let r = req(r#"{"op":"optimize","capacity_bytes":1024,"flavor":"hvt","method":"m2"}"#);
        let first = engine.handle(&r);
        let second = engine.handle(&r);
        assert_eq!(first.get("cached").and_then(Json::as_bool), Some(false));
        assert_eq!(second.get("cached").and_then(Json::as_bool), Some(true));
        assert_eq!(
            first.get("result").map(Json::render),
            second.get("result").map(Json::render),
            "cache must return the identical payload"
        );
        let c = engine.cache_counters();
        assert_eq!((c.hits, c.misses), (1, 1));
    }

    #[test]
    fn batch_shares_one_characterization() {
        let engine = coarse_engine();
        let batch: Vec<Request> = [128u64, 256, 1024]
            .iter()
            .map(|b| {
                req(&format!(
                    r#"{{"op":"optimize","capacity_bytes":{b},"flavor":"hvt","method":"m2"}}"#
                ))
            })
            .collect();
        let responses = engine.handle_batch(&batch);
        assert_eq!(responses.len(), 3);
        for r in &responses {
            assert_eq!(r.get("status").and_then(Json::as_str), Some("ok"));
        }
        assert_eq!(engine.characterizations(), 1);
        assert_eq!(engine.coalesced(), 2);
    }

    #[test]
    fn duplicate_queries_in_a_batch_share_one_search() {
        let engine = coarse_engine();
        let line = r#"{"op":"optimize","capacity_bytes":1024,"flavor":"hvt","method":"m2"}"#;
        let batch = vec![req(line), req(line)];
        let responses = engine.handle_batch(&batch);
        assert_eq!(
            responses[0].get("result").map(Json::render),
            responses[1].get("result").map(Json::render)
        );
        // One search means one cache insertion.
        assert_eq!(engine.cache_counters().insertions, 1);
    }

    #[test]
    fn evaluate_point_reports_metrics_and_feasibility() {
        let engine = coarse_engine();
        let r = req(
            r#"{"op":"evaluate-point","capacity_bytes":1024,"flavor":"hvt","method":"m2","rows":64,"vssc_mv":-100,"n_pre":10,"n_wr":8}"#,
        );
        let resp = engine.handle(&r);
        assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));
        let result = resp.get("result").unwrap();
        assert!(result.get("delay_s").and_then(Json::as_f64).unwrap() > 0.0);
        assert!(result.get("energy_j").and_then(Json::as_f64).unwrap() > 0.0);
        assert!(result.get("feasible").and_then(Json::as_bool).is_some());
    }

    #[test]
    fn indivisible_capacity_is_an_error_envelope() {
        let engine = coarse_engine();
        let r = req(
            r#"{"op":"evaluate-point","capacity_bytes":100,"flavor":"hvt","method":"m2","rows":64,"vssc_mv":0,"n_pre":10,"n_wr":8}"#,
        );
        let resp = engine.handle(&r);
        assert_eq!(resp.get("status").and_then(Json::as_str), Some("error"));
        assert_eq!(engine.errors(), 1);
    }

    #[test]
    fn pareto_front_is_nonempty_and_sorted() {
        let engine = coarse_engine();
        let r = req(r#"{"op":"pareto-front","capacity_bytes":1024,"flavor":"hvt","method":"m2"}"#);
        let resp = engine.handle(&r);
        assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));
        let result = resp.get("result").unwrap();
        let points = result.get("points").and_then(Json::as_array).unwrap();
        assert!(!points.is_empty());
        let delays: Vec<f64> = points
            .iter()
            .map(|p| p.get("delay_s").and_then(Json::as_f64).unwrap())
            .collect();
        assert!(delays.windows(2).all(|w| w[0] <= w[1]), "sorted by delay");
    }

    #[test]
    fn pareto_front_and_optimize_replies_account_for_the_same_space() {
        let engine = coarse_engine();
        let key = r#""capacity_bytes":1024,"flavor":"hvt","method":"m2""#;
        let stats = |op: &str| {
            let reply = engine.handle(&req(&format!(r#"{{"op":"{op}",{key}}}"#)));
            let stats = reply.get("result").and_then(|r| r.get("stats")).cloned();
            let stats =
                stats.unwrap_or_else(|| panic!("{op} reply without stats: {}", reply.render()));
            move |field: &str| stats.get(field).and_then(Json::as_f64).unwrap()
        };
        let (front, best) = (stats("pareto-front"), stats("optimize"));
        // The coarse space at 1 KB: 7 organizations x 5 V_SSC levels x 32
        // fin pairs.
        assert_eq!(front("examined"), 1_120.0);
        assert_eq!(front("feasible"), front("evaluated") + front("eval_errors"));
        assert_eq!(front("pruned"), 0.0);
        assert_eq!(best("examined"), front("examined"));
        assert_eq!(
            best("evaluated") + best("eval_errors") + best("pruned"),
            front("feasible")
        );
        assert!(best("pruned") > 0.0, "the optimize search prunes");
    }

    #[test]
    fn pareto_front_min_edp_point_is_the_optimize_winner() {
        // The Pareto walk visits every candidate the search walks, in the
        // same slice order, and the search skips only candidates that
        // cannot win; the front's least E*D point must be the search's
        // winner, bit for bit.
        let engine = coarse_engine();
        let num = |j: &Json, k: &str| j.get(k).and_then(Json::as_f64).unwrap();
        let edp = |p: &Json| num(p, "energy_j") * num(p, "delay_s");
        for cap in [1024, 4096] {
            for (flavor, method) in [("hvt", "m2"), ("lvt", "m1")] {
                let key =
                    format!(r#""capacity_bytes":{cap},"flavor":"{flavor}","method":"{method}""#);
                let front = engine.handle(&req(&format!(r#"{{"op":"pareto-front",{key}}}"#)));
                let best = engine.handle(&req(&format!(r#"{{"op":"optimize",{key}}}"#)));
                let best = best.get("result").unwrap();
                let points = front
                    .get("result")
                    .and_then(|r| r.get("points"))
                    .and_then(Json::as_array)
                    .unwrap();
                let min = points
                    .iter()
                    .min_by(|a, b| edp(a).total_cmp(&edp(b)))
                    .unwrap();
                for field in ["rows", "n_pre", "n_wr"] {
                    assert_eq!(num(min, field), num(best, field), "{key}: {field}");
                }
                assert_eq!(num(min, "vssc_mv"), num(best, "vssc_mv").round(), "{key}");
                assert_eq!(edp(min), num(best, "edp_js"), "{key}");
            }
        }
    }

    #[test]
    fn second_batch_reuses_the_first_batches_characterization() {
        let engine = coarse_engine();
        let first = engine.handle(&req(
            r#"{"op":"optimize","capacity_bytes":128,"flavor":"hvt","method":"m2"}"#,
        ));
        assert_eq!(first.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(engine.characterizations(), 1);
        assert_eq!(engine.cross_coalesced(), 0);
        // A later batch of *new* queries on the same technology pays
        // for no LUT pass — every member is cross-batch coalesced.
        let batch = vec![
            req(r#"{"op":"optimize","capacity_bytes":256,"flavor":"hvt","method":"m2"}"#),
            req(
                r#"{"op":"evaluate-point","capacity_bytes":1024,"flavor":"hvt","method":"m2","rows":64,"vssc_mv":0,"n_pre":10,"n_wr":8}"#,
            ),
        ];
        let responses = engine.handle_batch(&batch);
        for r in &responses {
            assert_eq!(r.get("status").and_then(Json::as_str), Some("ok"));
        }
        assert_eq!(engine.characterizations(), 1, "LUT built exactly once");
        assert_eq!(engine.cross_coalesced(), 2);
    }

    #[test]
    fn metrics_query_reports_live_counters_and_is_never_cached() {
        let engine = coarse_engine();
        let _ = engine.handle(&req(
            r#"{"op":"optimize","capacity_bytes":128,"flavor":"hvt","method":"m2"}"#,
        ));
        for _ in 0..2 {
            let resp = engine.handle(&req(r#"{"op":"metrics","id":"m"}"#));
            assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));
            assert_eq!(resp.get("cached").and_then(Json::as_bool), Some(false));
            let result = resp.get("result").unwrap();
            assert!(result.get("uptime_s").and_then(Json::as_f64).unwrap() >= 0.0);
            assert!(result.get("requests").and_then(Json::as_f64).unwrap() >= 2.0);
            assert_eq!(
                result.get("characterizations").and_then(Json::as_f64),
                Some(1.0)
            );
            let cache = result.get("cache").unwrap();
            assert_eq!(cache.get("entries").and_then(Json::as_f64), Some(1.0));
            assert_eq!(cache.get("insertions").and_then(Json::as_f64), Some(1.0));
        }
        // Metrics answers never enter the result cache.
        assert_eq!(engine.cache_counters().entries, 1);
    }

    #[test]
    fn metrics_and_health_are_answered_live_and_never_cached() {
        let engine = coarse_engine();
        let m = engine.handle(&req(r#"{"op":"metrics","id":"m"}"#));
        assert_eq!(m.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(m.get("cached").and_then(Json::as_bool), Some(false));
        let result = m.get("result").unwrap();
        let text = result.get("text").and_then(Json::as_str).unwrap();
        assert!(text.starts_with("# sram-edp telemetry"), "{text}");
        assert!(result.get("counters").is_some());
        assert!(result.get("quantiles").is_some());
        assert!(result.get("window_ms").and_then(Json::as_f64).unwrap() > 0.0);

        let h = engine.handle(&req(r#"{"op":"health","id":"h"}"#));
        assert_eq!(h.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(h.get("cached").and_then(Json::as_bool), Some(false));
        let result = h.get("result").unwrap();
        let verdict = result.get("verdict").and_then(Json::as_str).unwrap();
        assert!(
            ["ok", "degraded", "unhealthy"].contains(&verdict),
            "{verdict}"
        );
        assert!(result.get("reasons").and_then(Json::as_array).is_some());
        let workers = result.get("workers").unwrap();
        assert!(workers.get("panics").and_then(Json::as_f64).is_some());
        assert!(result.get("queue").is_some());
        assert!(result.get("slo").is_some());
        // Neither op touched the result cache.
        assert_eq!(engine.cache_counters().entries, 0);
    }

    #[test]
    fn traced_request_inlines_its_span_tree() {
        let engine = coarse_engine();
        let resp = engine.handle(&req(
            r#"{"op":"optimize","capacity_bytes":128,"flavor":"lvt","method":"m1","trace":true}"#,
        ));
        assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));
        let tree = resp.get("trace").expect("traced response carries a tree");
        assert_eq!(
            tree.get("name").and_then(Json::as_str),
            Some("serve.request")
        );
        assert_eq!(tree.get("start_ns").and_then(Json::as_f64), Some(0.0));
        let children = tree.get("children").and_then(Json::as_array).unwrap();
        let names: Vec<&str> = children
            .iter()
            .filter_map(|c| c.get("name").and_then(Json::as_str))
            .collect();
        assert!(names.contains(&"serve.characterize"), "{names:?}");
        assert!(names.contains(&"serve.execute"), "{names:?}");
        // An untraced request carries no tree.
        let plain = engine.handle(&req(
            r#"{"op":"optimize","capacity_bytes":128,"flavor":"lvt","method":"m1"}"#,
        ));
        assert!(plain.get("trace").is_none());
    }

    #[test]
    fn id_is_echoed_in_both_envelopes() {
        let engine = coarse_engine();
        let ok = engine.handle(&req(
            r#"{"id":"a1","op":"evaluate-point","capacity_bytes":1024,"flavor":"hvt","method":"m2","rows":64,"vssc_mv":0,"n_pre":10,"n_wr":8}"#,
        ));
        assert_eq!(ok.get("id").and_then(Json::as_str), Some("a1"));
        let err = engine.handle(&req(
            r#"{"id":"a2","op":"evaluate-point","capacity_bytes":100,"flavor":"hvt","method":"m2","rows":64,"vssc_mv":0,"n_pre":10,"n_wr":8}"#,
        ));
        assert_eq!(err.get("id").and_then(Json::as_str), Some("a2"));
    }

    #[test]
    fn hvt_yield_check_answers_for_both_methods() {
        // Seed 0x51a7's 64 HVT samples include cells whose write probe
        // sits just past the fold of the stored state, where the DC
        // solve does not converge; the run must answer regardless.
        let engine = coarse_engine();
        for method in ["m1", "m2"] {
            let r = engine.handle(&req(&format!(
                r#"{{"op":"yield-check","capacity_bytes":1024,"flavor":"hvt","method":"{method}","samples":64}}"#
            )));
            assert_eq!(
                r.get("status").and_then(Json::as_str),
                Some("ok"),
                "hvt/{method}: {}",
                r.render()
            );
            let wm = r
                .get("result")
                .and_then(|r| r.get("yield"))
                .and_then(|y| y.get("wm"));
            let samples = wm.and_then(|m| m.get("samples")).and_then(Json::as_u64);
            assert_eq!(samples, Some(64), "hvt/{method}: {}", r.render());
        }
    }

    #[test]
    fn health_revision_is_strictly_monotonic() {
        let engine = coarse_engine();
        let first = engine.health_json();
        let second = engine.health_json();
        let r1 = first.get("revision").and_then(Json::as_u64).unwrap();
        let r2 = second.get("revision").and_then(Json::as_u64).unwrap();
        assert!(r2 > r1, "revision must advance on every health snapshot");
    }
}
