//! The router: one TCP front door over N serve nodes.
//!
//! Requests arrive on the same line-delimited JSON protocol the nodes
//! speak, so a client cannot tell a router from a node — except that
//! the router stamps every forwarded reply with `"node"` (which node
//! answered), `"epoch"` (the ring generation it routed under), and
//! `"via"` (`primary`/`hedge`/`failover`), which is what lets the
//! cluster soak audit affinity externally.
//!
//! Routing policy per op:
//!
//! * **query ops** (`optimize`, `evaluate-point`, …) — consistent-hash
//!   the request's canonical content-addressed key onto the ring and
//!   forward to the primary owner. Cache affinity falls out: the same
//!   canonical query always lands on the node whose LRU already holds
//!   it. The connection thread sends to the primary and waits for the
//!   reply itself, so a warm hit spawns no thread. A reply slower than
//!   a windowed-p99-derived delay moves to a thread of its own and a
//!   second replica is hedged at once; first reply wins, the loser
//!   observes a shared [`CancelToken`] and discards its reply. A
//!   transport failure fails over to the next ring candidate
//!   immediately.
//! * **introspection ops** (`metrics`, `health`) — never cached and
//!   meaningless to shard: fan out to every configured node and return
//!   the per-node replies under `"nodes"`.
//! * **`cluster-stats`** — answered by the router itself (the nodes
//!   would reject the op): ring membership, per-node poller state, and
//!   the router's own counters. Never cached, never forwarded. It is
//!   the one router op that sweeps no node, so it stays cheap to poll
//!   and no node fault can disturb its answer.
//! * **`cluster-metrics` / `cluster-health`** — answered by the router
//!   from a fresh [`crate::collector`] sweep, one `metrics` request per
//!   node: merged histograms with cluster-wide p50/p90/p99, the
//!   per-shard cache-hit breakdown, and an SLO burn over every node's
//!   telemetry ring. Never cached, never forwarded.
//!
//! A request with `"trace": true` additionally gets a distributed
//! trace: the router makes one seeded sampling decision, attaches a
//! `trace_ctx` to every forwarded attempt, and stitches the returned
//! span trees — the winner *and* any cancelled hedge loser, marked
//! `hedge_loser: true` — into one clock-rebased timeline
//! ([`crate::stitch`]) that replaces the winner's node-local tree in
//! the reply.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sram_faults::CancelToken;
use sram_probe::log::LogValue;
use sram_probe::probe_handle;
use sram_probe::trace::TraceCtx;
use sram_serve::front::{self, Front, Service, Serving};
use sram_serve::{error_response, Json, Request, ServeError};

use crate::collector;
use crate::poller::{poll_loop, Membership};
use crate::pool::{Exchange, InFlight, Pool};
use crate::ring::DEFAULT_VNODES;
use crate::stitch::{self, AttemptPiece};

/// Hedge delay is recomputed from the telemetry window at most this
/// often — the export walks every counter, too heavy per request.
const HEDGE_RECOMPUTE: Duration = Duration::from_millis(250);

/// Upper bound on the derived hedge delay: beyond this a hedge no
/// longer rescues tail latency, it just doubles load.
const HEDGE_CAP_MS: f64 = 250.0;

/// Monotonic per-request key feeding the seeded trace sampler and the
/// deterministic trace-id stream.
static ROUTE_KEY: AtomicU64 = AtomicU64::new(0);

/// Router sizing and timing knobs; the caller that starts a router sets
/// the fields.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Backend node addresses (static membership; the ring holds the
    /// healthy subset).
    pub nodes: Vec<String>,
    /// Distinct ring candidates tried per key: the primary plus
    /// `replicas - 1` hedge/failover targets.
    pub replicas: usize,
    /// Floor (and cold-start value) for the hedge delay, milliseconds.
    pub hedge_ms: u64,
    /// Health-poll cadence.
    pub poll_interval: Duration,
    /// Per-attempt node read timeout.
    pub node_timeout: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            nodes: Vec::new(),
            replicas: 2,
            hedge_ms: 10,
            poll_interval: Duration::from_millis(25),
            node_timeout: Duration::from_secs(10),
        }
    }
}

/// Cached hedge-delay derivation (see [`hedge_delay`]).
struct HedgeState {
    computed_at: Option<Instant>,
    delay: Duration,
}

/// State shared by the connection threads and the poller.
struct RouterInner {
    config: RouterConfig,
    membership: Mutex<Membership>,
    pool: Pool,
    hedge: Mutex<HedgeState>,
}

/// How an attempt reached its node — stamped onto the reply.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Via {
    Primary,
    Hedge,
    Failover,
}

impl Via {
    fn as_str(self) -> &'static str {
        match self {
            Self::Primary => "primary",
            Self::Hedge => "hedge",
            Self::Failover => "failover",
        }
    }
}

/// A running router; [`Router::shutdown`] (or drop) stops it.
pub struct Router {
    addr: SocketAddr,
    front: Serving,
    poller: Option<JoinHandle<()>>,
}

impl Router {
    /// Binds the front door and starts the health poller and acceptor.
    ///
    /// # Errors
    ///
    /// Bind failures, or [`ServeError::Protocol`] when `config.nodes`
    /// is empty (a router with nothing behind it can only say busy).
    pub fn start(config: RouterConfig) -> Result<Self, ServeError> {
        if config.nodes.is_empty() {
            return Err(ServeError::Protocol(
                "router config names no backend nodes".into(),
            ));
        }
        let front = Front::bind(&config.addr)?;
        let addr = front.local_addr();

        sram_probe::telemetry::start();
        let inner = Arc::new(RouterInner {
            membership: Mutex::new(Membership::seed(&config.nodes, DEFAULT_VNODES)),
            pool: Pool::new(Some(config.node_timeout)),
            hedge: Mutex::new(HedgeState {
                computed_at: None,
                delay: Duration::from_millis(config.hedge_ms.max(1)),
            }),
            config,
        });
        let stop = Arc::new(AtomicBool::new(false));

        #[expect(
            clippy::disallowed_methods,
            reason = "the health poller exits on `stop` and is joined by `halt` (shutdown or drop)"
        )]
        let poller = {
            let inner = Arc::clone(&inner);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                poll_loop(
                    &inner.membership,
                    &inner.config.nodes,
                    &stop,
                    inner.config.poll_interval,
                    inner.config.node_timeout,
                );
            })
        };

        Ok(Self {
            addr,
            front: front.serve(stop, Routing(inner)),
            poller: Some(poller),
        })
    }

    /// The actual bound address (resolves ephemeral ports).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stop accepting, join connections, join the
    /// poller.
    pub fn shutdown(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.front.stop();
        if let Some(poller) = self.poller.take() {
            let _ = poller.join();
        }
        sram_probe::telemetry::stop();
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        if self.poller.is_some() {
            self.halt();
        }
    }
}

/// The router's [`Service`]: every line is routed by [`handle_line`].
struct Routing(Arc<RouterInner>);

impl Service for Routing {
    fn reply(&self, line: &[u8]) -> Option<Json> {
        Some(match front::text(line) {
            Ok(text) => handle_line(&self.0, text),
            Err(e) => {
                sram_probe::probe_inc!("cluster.request.parse_errors");
                error_response(None, &e)
            }
        })
    }
}

/// Routes one request line to a reply.
fn handle_line(inner: &Arc<RouterInner>, line: &str) -> Json {
    let Ok(parsed) = Json::parse(line) else {
        sram_probe::probe_inc!("cluster.request.parse_errors");
        return error_response(
            None,
            &ServeError::Protocol("request is not valid JSON".into()),
        );
    };
    let id = parsed.get("id").and_then(Json::as_str).map(str::to_owned);
    let op = parsed.get("op").and_then(Json::as_str).unwrap_or("");
    if op == "cluster-stats" {
        return cluster_stats(inner, id.as_deref());
    }
    if op == "cluster-metrics" || op == "cluster-health" {
        // Fresh sweep per call, never cached: a stale quantile plane
        // is worse than a slow one.
        let sweep = collector::poll(&inner.config.nodes, |node, request_line| {
            inner.pool.call(node, request_line)
        });
        return if op == "cluster-metrics" {
            collector::cluster_metrics_json(&sweep, id.as_deref())
        } else {
            collector::cluster_health_json(&sweep, id.as_deref())
        };
    }
    // Same strictness as a node: a request the nodes would reject is
    // rejected here, without burning a forward on it.
    let request = match Request::from_json(&parsed) {
        Ok(r) => r,
        Err(e) => {
            sram_probe::probe_inc!("cluster.request.parse_errors");
            return error_response(id.as_deref(), &e);
        }
    };
    if matches!(op, "metrics" | "health") {
        return fan_out(inner, id.as_deref(), line, op);
    }
    let key = request.query.key();
    let (candidates, epoch) = {
        let guard = inner
            .membership
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        (
            guard.ring.candidates(key, inner.config.replicas.max(1)),
            guard.ring.epoch(),
        )
    };
    if candidates.is_empty() {
        // No healthy node: tell the client to retry (`busy` is the
        // protocol's retryable backpressure reply).
        return error_response(id.as_deref(), &ServeError::Busy);
    }
    forward(inner, &request, line, id.as_deref(), &candidates, epoch)
}

/// One attempt's outcome. Every attempt reports — including cancelled
/// hedge losers, whose replies the client never sees but whose span
/// trees the stitcher keeps.
struct AttemptReport {
    index: usize,
    via: Via,
    result: Result<Json, ServeError>,
    /// Send time, ns since the forward started (router clock).
    send_ns: u64,
    /// Round-trip time, ns (0 when cancelled before the wire).
    rtt_ns: u64,
    /// `true` when the attempt observed the cancel token — it lost the
    /// race and its reply was discarded.
    loser: bool,
}

/// The primary's exchange when its reply did not arrive within the
/// inline wait: still in flight, and when it was sent.
struct Handoff {
    inflight: InFlight,
    send_ns: u64,
    started: Instant,
}

/// How a forward the primary did not answer inline enters [`race`].
enum Seed {
    /// The primary failed: fail over.
    Failed(AttemptReport),
    /// The primary's reply is still on the wire: hand it off and hedge.
    Pending(Handoff),
}

/// What the slow path's attempt threads share.
struct Race {
    inner: Arc<RouterInner>,
    line: Arc<str>,
    tx: mpsc::Sender<AttemptReport>,
    token: CancelToken,
    t0: Instant,
}

/// Forwards a query line to its ring candidates with hedging and
/// failover; returns exactly one reply.
///
/// The connection thread sends to the primary and waits for the reply
/// itself: a warm hit crosses no thread and no channel. A primary that
/// fails, or has not answered within the hedge delay, goes to [`race`].
fn forward(
    inner: &Arc<RouterInner>,
    request: &Request,
    line: &str,
    id: Option<&str>,
    candidates: &[String],
    epoch: u64,
) -> Json {
    sram_probe::probe_inc!("cluster.request.routed");
    // A traced request (that is not already carrying someone else's
    // context) gets a distributed trace: one seeded sampling decision
    // here governs every node it touches, and the propagated parent
    // span is what their trees re-root under.
    let trace_ctx = if request.trace && request.trace_ctx.is_none() {
        let key = ROUTE_KEY.fetch_add(1, Ordering::Relaxed);
        let sampled = sram_probe::trace::sampled(key);
        let trace_id = sram_probe::trace::trace_id(key);
        let ctx = TraceCtx {
            trace_id,
            // Chained through the id stream: deterministic, nonzero,
            // and independent of the trace id itself. Masked to 53 bits
            // because span ids ride the wire as JSON numbers (exact
            // integer range of `f64`); the 16-hex trace id is a string
            // and keeps all 64 bits.
            parent_span: (sram_probe::trace::trace_id(trace_id) & ((1 << 53) - 1)).max(1),
            sampled,
        };
        let mut forwarded = request.clone();
        forwarded.trace_ctx = Some(ctx);
        probe_handle!(counter "cluster.trace.propagated").inc();
        Some((ctx, forwarded.to_json().render()))
    } else {
        None
    };
    let wire_line: &str = trace_ctx.as_ref().map_or(line, |(_, l)| l.as_str());
    let t0 = Instant::now();
    let route = Route {
        request,
        id,
        candidates,
        epoch,
        stitch: trace_ctx
            .as_ref()
            .map(|(ctx, _)| *ctx)
            .filter(|ctx| ctx.sampled),
        t0,
        // Hard ceiling on this forward: every candidate gets its
        // timeout, plus slack. A request can never outwait this — "no
        // hangs" is the soak's first invariant.
        deadline: t0
            + inner
                .config
                .node_timeout
                .saturating_mul(candidates.len().max(1) as u32)
            + Duration::from_secs(1),
    };
    let hedge_after = hedge_delay(inner);
    // A primary with a replica behind it waits the hedge delay; one
    // without waits out the forward.
    let wait = if candidates.len() > 1 {
        hedge_after
    } else {
        route.deadline.saturating_duration_since(Instant::now())
    };
    let send_ns = t0.elapsed().as_nanos() as u64;
    let started = Instant::now();
    let seed = match inner.pool.call_within(&candidates[0], wire_line, wait) {
        Exchange::Done(result) => {
            let report = AttemptReport {
                index: 0,
                via: Via::Primary,
                rtt_ns: record_rtt(started, &result),
                result,
                send_ns,
                loser: false,
            };
            if report.result.is_ok() {
                return respond(&route, report, &[], false);
            }
            Seed::Failed(report)
        }
        Exchange::Pending(inflight) => Seed::Pending(Handoff {
            inflight,
            send_ns,
            started,
        }),
    };
    race(inner, &route, wire_line, hedge_after, seed)
}

/// The slow path of [`forward`]: every further attempt runs on a thread
/// of its own and reports on a channel; the first good reply wins. A
/// handed-off primary finishes on such a thread, and the hedge goes out
/// at once, since the hedge delay already ran out inline. A traced
/// request waits for every attempt, so the losers' span trees are
/// stitched too.
fn race(
    inner: &Arc<RouterInner>,
    route: &Route<'_>,
    line: &str,
    hedge_after: Duration,
    seed: Seed,
) -> Json {
    let candidates = route.candidates;
    let (tx, rx) = mpsc::channel::<AttemptReport>();
    let token = CancelToken::never();
    let shared = Race {
        inner: Arc::clone(inner),
        line: Arc::from(line),
        tx,
        token: token.clone(),
        t0: route.t0,
    };
    let mut hedge_wait = hedge_after;
    match seed {
        // Reported like any other attempt, so the loop below fails over
        // from it.
        Seed::Failed(report) => {
            let _ = shared.tx.send(report);
        }
        Seed::Pending(handoff) => {
            // Ungated: tests assert a warm forward never gets here.
            probe_handle!(counter "cluster.forward.handoffs").inc();
            spawn_attempt(&shared, candidates, 0, Via::Primary, Some(handoff));
            hedge_wait = Duration::ZERO;
        }
    }
    let mut spawned = 1usize;
    let mut failed = 0usize;
    let mut hedged = false;
    let deadline = route.deadline;

    let mut winner: Option<AttemptReport> = None;
    let mut reports: Vec<AttemptReport> = Vec::new();
    loop {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        if winner.is_some() && reports.len() + 1 >= spawned {
            break; // every attempt reported; nothing left to stitch
        }
        let remaining = deadline - now;
        let wait = if winner.is_none() && !hedged && spawned < candidates.len() {
            hedge_wait.min(remaining)
        } else {
            remaining
        };
        match rx.recv_timeout(wait) {
            Ok(report) => {
                if winner.is_none() && !report.loser && report.result.is_ok() {
                    token.cancel();
                    if report.via == Via::Hedge {
                        probe_handle!(counter "cluster.hedge.wins").inc();
                    }
                    winner = Some(report);
                    if route.stitch.is_none() {
                        // Untraced: answer now; straggler reports go
                        // to a dropped channel and vanish, as before.
                        break;
                    }
                    continue;
                }
                if winner.is_none() && !report.loser && report.result.is_err() {
                    failed += 1;
                    if spawned < candidates.len() {
                        // The pool's bounded retry already ran; this
                        // node is not answering — move down the ring
                        // now rather than waiting out the hedge timer.
                        sram_probe::probe_inc!("cluster.forward.failovers");
                        spawn_attempt(&shared, candidates, spawned, Via::Failover, None);
                        spawned += 1;
                        hedge_wait = hedge_after;
                    } else if failed >= spawned {
                        // Every candidate failed: retryable
                        // backpressure.
                        return error_response(route.id, &ServeError::Busy);
                    }
                }
                reports.push(report);
            }
            Err(RecvTimeoutError::Timeout) => {
                if winner.is_none() && !hedged && spawned < candidates.len() {
                    hedged = true;
                    // Ungated: the soaks assert the hedge fired under
                    // their injected `cell.slow` latency.
                    probe_handle!(counter "cluster.hedge.fired").inc();
                    spawn_attempt(&shared, candidates, spawned, Via::Hedge, None);
                    spawned += 1;
                }
                // Otherwise keep draining until the deadline.
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    token.cancel();
    let Some(winner) = winner else {
        return error_response(
            route.id,
            &ServeError::Internal("cluster forward timed out on every candidate".into()),
        );
    };
    respond(route, winner, &reports, hedged)
}

/// Records a successful round trip; returns its length in ns.
fn record_rtt(started: Instant, result: &Result<Json, ServeError>) -> u64 {
    let rtt_ns = started.elapsed().as_nanos() as u64;
    if result.is_ok() {
        // Ungated: the hedge-delay derivation needs the p99 stream even
        // with probes off.
        probe_handle!(histogram "cluster.forward.latency_ns").record(rtt_ns);
    }
    rtt_ns
}

/// Runs one slow-path attempt on its own thread, which reports on the
/// race's channel: the rest of a handed-off exchange, or a whole hedge
/// or failover exchange.
fn spawn_attempt(
    shared: &Race,
    candidates: &[String],
    index: usize,
    via: Via,
    handoff: Option<Handoff>,
) {
    let inner = Arc::clone(&shared.inner);
    let addr = candidates[index].clone();
    let line = Arc::clone(&shared.line);
    let tx = shared.tx.clone();
    let token = shared.token.clone();
    let t0 = shared.t0;
    #[expect(
        clippy::disallowed_methods,
        reason = "a slow-path attempt is never joined: it reports on `tx`, and a losing twin \
                  exits once its pool call returns, within `node_timeout`"
    )]
    std::thread::spawn(move || {
        let (result, send_ns, started) = match handoff {
            Some(h) => (
                inner.pool.finish(&addr, &line, h.inflight),
                h.send_ns,
                h.started,
            ),
            None if token.is_cancelled() => {
                // Cancelled before the wire was touched: the race was
                // already decided, don't load the node at all.
                probe_handle!(counter "cluster.hedge.cancelled").inc();
                let _ = tx.send(AttemptReport {
                    index,
                    via,
                    result: Err(ServeError::Internal("cancelled before send".into())),
                    send_ns: t0.elapsed().as_nanos() as u64,
                    rtt_ns: 0,
                    loser: true,
                });
                return;
            }
            None => {
                let send_ns = t0.elapsed().as_nanos() as u64;
                let started = Instant::now();
                (inner.pool.call(&addr, &line), send_ns, started)
            }
        };
        let rtt_ns = record_rtt(started, &result);
        // Lost the race after doing the work: the hedged twin already
        // answered the client, so this reply is discarded — but still
        // reported, so the stitcher can keep the loser's side of the
        // race on the timeline.
        let loser = token.is_cancelled();
        if loser {
            probe_handle!(counter "cluster.hedge.cancelled").inc();
        }
        let _ = tx.send(AttemptReport {
            index,
            via,
            result,
            send_ns,
            rtt_ns,
            loser,
        });
    });
}

/// What a forward's reply is built from, besides its attempts, and
/// its deadline.
struct Route<'a> {
    request: &'a Request,
    id: Option<&'a str>,
    candidates: &'a [String],
    epoch: u64,
    /// The distributed trace to stitch: set when the request is traced
    /// and sampled.
    stitch: Option<TraceCtx>,
    /// When the forward started (router clock).
    t0: Instant,
    /// When the forward gives up waiting for a reply.
    deadline: Instant,
}

/// Builds the client's reply from the winning attempt: stamps its route,
/// stitches every attempt's span tree under a traced request, and logs
/// a slow query.
fn respond(
    route: &Route<'_>,
    winner: AttemptReport,
    reports: &[AttemptReport],
    hedged: bool,
) -> Json {
    let Route {
        request,
        id,
        candidates,
        epoch,
        stitch,
        t0,
        ..
    } = *route;
    let total_ns = t0.elapsed().as_nanos() as u64;
    // Winners are only recorded on Ok replies; the Err arm is a
    // defensive fallthrough rather than a reachable path.
    let mut reply = match winner.result {
        Ok(reply) => reply,
        Err(err) => return error_response(id, &err),
    };
    if let Json::Obj(pairs) = &mut reply {
        pairs.push(("node".into(), Json::Str(candidates[winner.index].clone())));
        pairs.push(("epoch".into(), Json::Num(epoch as f64)));
        pairs.push(("via".into(), Json::Str(winner.via.as_str().into())));
    }
    if let Some(ctx) = &stitch {
        let winner_piece = AttemptPiece {
            node: candidates[winner.index].clone(),
            via: winner.via.as_str(),
            hedge_loser: false,
            send_ns: winner.send_ns,
            rtt_ns: winner.rtt_ns,
            tree: reply.get("trace").cloned(),
            error: None,
        };
        let mut pieces = vec![winner_piece];
        for report in reports {
            pieces.push(AttemptPiece {
                node: candidates[report.index].clone(),
                via: report.via.as_str(),
                hedge_loser: report.loser,
                send_ns: report.send_ns,
                rtt_ns: report.rtt_ns,
                tree: report
                    .result
                    .as_ref()
                    .ok()
                    .and_then(|r| r.get("trace").cloned()),
                error: report.result.as_ref().err().map(ToString::to_string),
            });
        }
        pieces.sort_by_key(|p| p.send_ns);
        let losers = pieces
            .iter()
            .filter(|p| p.hedge_loser && p.tree.is_some())
            .count() as u64;
        let stitched = stitch::stitch(ctx, total_ns, &pieces);
        probe_handle!(counter "cluster.trace.stitched").inc();
        probe_handle!(counter "cluster.trace.losers").add(losers);
        match stitch::validate(&stitched) {
            Ok(spans) => probe_handle!(counter "cluster.trace.stitched_spans").add(spans),
            Err(_) => probe_handle!(counter "cluster.trace.forests").inc(),
        }
        if let Json::Obj(pairs) = &mut reply {
            pairs.retain(|(k, _)| k != "trace");
            pairs.push(("trace".into(), stitched));
        }
    }
    front::log_slow_query(
        "cluster.slow_query",
        request.query.op(),
        id,
        total_ns,
        &reply,
        &[
            ("via", LogValue::Str(winner.via.as_str().into())),
            ("hedged", LogValue::Bool(hedged)),
        ],
    );
    reply
}

/// Derives the hedge delay from the windowed p99 of forward latency:
/// `clamp(p99 × 1.2, hedge_ms floor, 250 ms cap)`, recomputed at most
/// every [`HEDGE_RECOMPUTE`]. Cold start (no quantile stream yet)
/// falls back to the floor, so hedging works from the first request.
fn hedge_delay(inner: &RouterInner) -> Duration {
    let mut cached = inner.hedge.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(at) = cached.computed_at {
        if at.elapsed() < HEDGE_RECOMPUTE {
            return cached.delay;
        }
    }
    let floor = inner.config.hedge_ms.max(1) as f64;
    let p99_ms = sram_probe::telemetry::export()
        .histograms
        .get("cluster.forward.latency_ns")
        .map_or(0.0, |h| h.quantile(0.99) / 1e6);
    let ms = (p99_ms * 1.2).clamp(floor, HEDGE_CAP_MS.max(floor));
    probe_handle!(gauge "cluster.hedge.delay_ms").set(ms);
    cached.computed_at = Some(Instant::now());
    cached.delay = Duration::from_micros((ms * 1_000.0) as u64);
    cached.delay
}

/// Fans an introspection op out to every configured node; the reply
/// carries each node's answer (or its typed error) under `"nodes"`.
fn fan_out(inner: &Arc<RouterInner>, id: Option<&str>, line: &str, op: &str) -> Json {
    sram_probe::probe_inc!("cluster.fanout.requests");
    let mut nodes: Vec<(String, Json)> = Vec::with_capacity(inner.config.nodes.len());
    for node in &inner.config.nodes {
        let reply = inner
            .pool
            .call(node, line)
            .unwrap_or_else(|e| error_response(None, &e));
        nodes.push((node.clone(), reply));
    }
    crate::own_reply(op, id, [("nodes".to_owned(), Json::Obj(nodes))])
}

/// The router-local `cluster-stats` reply: ring membership, per-node
/// poller state, hedge policy, and the router's counters. Never
/// cached, never forwarded.
fn cluster_stats(inner: &Arc<RouterInner>, id: Option<&str>) -> Json {
    macro_rules! counter {
        ($name:literal) => {
            Json::Num(probe_handle!(counter $name).get() as f64)
        };
    }
    let (epoch, members, vnodes, nodes) = {
        let guard = inner
            .membership
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let members: Vec<Json> = guard
            .ring
            .members()
            .iter()
            .map(|m| Json::Str(m.clone()))
            .collect();
        let nodes: Vec<Json> = guard
            .states
            .iter()
            .map(|(name, status)| {
                Json::Obj(vec![
                    ("node".into(), Json::Str(name.clone())),
                    ("state".into(), Json::Str(status.state.as_str().into())),
                    ("revision".into(), Json::Num(status.last_revision as f64)),
                    ("failures".into(), Json::Num(f64::from(status.failures))),
                ])
            })
            .collect();
        (guard.ring.epoch(), members, guard.ring.vnodes(), nodes)
    };
    crate::own_reply(
        "cluster-stats",
        id,
        [
            ("epoch".to_owned(), Json::Num(epoch as f64)),
            (
                "ring".to_owned(),
                Json::Obj(vec![
                    ("members".into(), Json::Arr(members)),
                    ("vnodes".into(), Json::Num(vnodes as f64)),
                ]),
            ),
            ("nodes".to_owned(), Json::Arr(nodes)),
            (
                "hedge".to_owned(),
                Json::Obj(vec![
                    (
                        "delay_ms".into(),
                        Json::Num(probe_handle!(gauge "cluster.hedge.delay_ms").get()),
                    ),
                    ("fired".into(), counter!("cluster.hedge.fired")),
                    ("wins".into(), counter!("cluster.hedge.wins")),
                    ("cancelled".into(), counter!("cluster.hedge.cancelled")),
                ]),
            ),
            (
                "forward".to_owned(),
                Json::Obj(vec![
                    ("routed".into(), counter!("cluster.request.routed")),
                    ("retries".into(), counter!("cluster.forward.retries")),
                    ("failovers".into(), counter!("cluster.forward.failovers")),
                ]),
            ),
            (
                "membership".to_owned(),
                Json::Obj(vec![
                    ("evicted".into(), counter!("cluster.node.evicted")),
                    ("rejoined".into(), counter!("cluster.node.rejoined")),
                    ("drained".into(), counter!("cluster.node.drained")),
                    ("stale".into(), counter!("cluster.health.stale")),
                ]),
            ),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sram_serve::Client;

    #[test]
    fn default_config_matches_the_documented_defaults() {
        let d = RouterConfig::default();
        assert_eq!(d.replicas, 2);
        assert_eq!(d.hedge_ms, 10);
        assert!(d.nodes.is_empty());
    }

    #[test]
    fn start_refuses_an_empty_node_list() {
        assert!(Router::start(RouterConfig::default()).is_err());
    }

    #[test]
    fn routes_queries_and_answers_cluster_stats_itself() {
        // The fan-out count below is a gated probe.
        sram_probe::set_level(sram_probe::Level::Summary);
        let node = sram_serve::spawn_local_node("127.0.0.1:0", 2, 16).unwrap();
        let router = Router::start(RouterConfig {
            nodes: vec![node.local_addr().to_string()],
            replicas: 1,
            ..RouterConfig::default()
        })
        .unwrap();
        let mut client = Client::connect(router.local_addr()).unwrap();
        client.set_timeout(Some(Duration::from_secs(60))).unwrap();

        let query = r#"{"op":"optimize","capacity_bytes":1024,"flavor":"hvt","method":"m2"}"#;
        let reply = client.call_line(query).unwrap();
        assert_eq!(reply.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(
            reply.get("node").and_then(Json::as_str),
            Some(node.local_addr().to_string().as_str()),
            "forwarded replies carry the answering node"
        );
        assert_eq!(reply.get("via").and_then(Json::as_str), Some("primary"));
        assert!(reply.get("epoch").and_then(Json::as_u64).is_some());

        // The same canonical query must be a cache hit on the same
        // node — the affinity the ring exists to provide.
        let again = client.call_line(query).unwrap();
        assert_eq!(again.get("cached").and_then(Json::as_bool), Some(true));
        assert_eq!(
            again.get("node").and_then(Json::as_str),
            reply.get("node").and_then(Json::as_str),
        );
        // Straight at the node, the same query is a hit too.
        let hit = Client::connect(node.local_addr()).unwrap().call_line(query);
        assert_eq!(
            hit.unwrap().get("cached").and_then(Json::as_bool),
            Some(true)
        );
        // `stats` is no op: rejected at the router, not forwarded.
        let stats = client.call_line(r#"{"op":"stats","id":"s"}"#).unwrap();
        assert_eq!(stats.get("id").and_then(Json::as_str), Some("s"));
        assert!(stats.render().contains("unknown op"), "{}", stats.render());

        let stats = client.call_line(r#"{"op":"cluster-stats"}"#).unwrap();
        assert_eq!(
            stats.get("op").and_then(Json::as_str),
            Some("cluster-stats")
        );
        assert!(stats.get("epoch").and_then(Json::as_u64).is_some());
        assert_eq!(
            stats
                .get("ring")
                .and_then(|r| r.get("vnodes"))
                .and_then(Json::as_u64),
            Some(DEFAULT_VNODES as u64),
            "{}",
            stats.render()
        );

        // Other tests in this binary fan out too, so the count moves by
        // at least the one `health` line sent here.
        let fanout = || probe_handle!(counter "cluster.fanout.requests").get();
        let fanned_before = fanout();
        let health = client.call_line(r#"{"op":"health"}"#).unwrap();
        assert!(fanout() - fanned_before >= 1, "health is a fan-out");
        let nodes = health.get("nodes").unwrap();
        assert!(
            nodes
                .get(&node.local_addr().to_string())
                .and_then(|n| n.get("result"))
                .and_then(|r| r.get("verdict"))
                .and_then(Json::as_str)
                .is_some(),
            "health fans out per node: {health:?}"
        );

        router.shutdown();
        node.shutdown();
    }

    #[test]
    fn a_stalled_node_is_answered_by_the_forward_deadline() {
        // Bound but never accepted: a connection completes in the
        // backlog, the request is written, and no reply ever comes.
        let stalled = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let node_timeout = Duration::from_secs(1);
        let router = Router::start(RouterConfig {
            nodes: vec![stalled.local_addr().unwrap().to_string()],
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
        // One candidate: the deadline is one node timeout plus 1 s. The
        // pool retries a read timeout, so waiting out its retries would
        // take three node timeouts.
        assert!(
            elapsed < node_timeout + Duration::from_millis(1_500),
            "answered after {elapsed:?}: {}",
            reply.render()
        );

        router.shutdown();
    }

    #[test]
    fn traced_requests_stitch_and_metrics_ops_federate() {
        // The merged latency histogram below is a gated probe stream.
        sram_probe::set_level(sram_probe::Level::Summary);
        let node = sram_serve::spawn_local_node("127.0.0.1:0", 2, 16).unwrap();
        let router = Router::start(RouterConfig {
            nodes: vec![node.local_addr().to_string()],
            replicas: 1,
            ..RouterConfig::default()
        })
        .unwrap();
        let mut client = Client::connect(router.local_addr()).unwrap();
        client.set_timeout(Some(Duration::from_secs(60))).unwrap();

        let reply = client
            .call_line(
                r#"{"op":"optimize","capacity_bytes":2048,"flavor":"lvt","method":"m2","trace":true}"#,
            )
            .unwrap();
        assert_eq!(reply.get("status").and_then(Json::as_str), Some("ok"));
        let tree = reply.get("trace").expect("traced reply carries a tree");
        assert_eq!(
            tree.get("name").and_then(Json::as_str),
            Some("cluster.request"),
            "{}",
            tree.render()
        );
        // One connected timeline: root + attempt + the node's subtree,
        // whose adopted parent is the router's root span.
        let spans = stitch::validate(tree).expect("stitched tree is connected");
        assert!(spans >= 3, "expected a full timeline, got {spans} spans");
        let attempt = &tree.get("children").and_then(Json::as_array).unwrap()[0];
        assert_eq!(
            attempt.get("name").and_then(Json::as_str),
            Some("cluster.attempt")
        );
        assert_eq!(
            attempt.get("hedge_loser").and_then(Json::as_bool),
            Some(false)
        );
        // Close a telemetry window so the node's export holds the
        // traced request's latency.
        sram_probe::telemetry::force_sample();
        let metrics = client.call_line(r#"{"op":"cluster-metrics"}"#).unwrap();
        assert_eq!(
            metrics.get("op").and_then(Json::as_str),
            Some("cluster-metrics")
        );
        let merged = metrics
            .get("merged")
            .and_then(|m| m.get("serve.request.latency_ns"))
            .expect("merged latency histogram");
        assert!(merged.get("p99").and_then(Json::as_f64).unwrap() > 0.0);
        assert!(merged
            .get("buckets")
            .and_then(Json::as_array)
            .is_some_and(|b| !b.is_empty()));
        assert!(metrics
            .get("shards")
            .and_then(|s| s.get(&node.local_addr().to_string()))
            .is_some());

        let health = client.call_line(r#"{"op":"cluster-health"}"#).unwrap();
        assert!(
            health.get("verdict").and_then(Json::as_str).is_some(),
            "{}",
            health.render()
        );
        assert_eq!(health.get("nodes_failed").and_then(Json::as_u64), Some(0));

        router.shutdown();
        node.shutdown();
    }
}
