//! The serve node: a [`crate::front`] over a bounded job queue.
//!
//! Thread layout (all plain `std::thread` — each spawn carries the
//! `#[expect]` that clippy's thread-discipline ban asks for):
//!
//! * **acceptor and connection threads** — the shared TCP front
//!   ([`crate::front`]). A connection thread parses each request line,
//!   answers a result-cache hit itself, enqueues everything else, and
//!   writes back whatever reply the worker sends;
//! * **workers** — drain the bounded job queue in batches and run them
//!   through [`Engine::handle_batch`], so queries that pile up under
//!   load are coalesced into shared characterization passes.
//!
//! Backpressure is explicit: the job queue has a fixed capacity and a
//! full queue turns into an immediate `"busy"` reply (the HTTP-429
//! analogue) rather than an ever-growing buffer. Shutdown is graceful:
//! in-flight requests complete, new ones are rejected, and threads are
//! joined in accept → connection → worker order.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sram_faults::CancelToken;
use sram_probe::probe_handle;
use sram_probe::trace::TraceSpan;

use crate::engine::{error_response, Engine};
use crate::error::ServeError;
use crate::front::{self, Front, Service, Serving};
use crate::query::Request;
use crate::Json;

/// Environment variable naming the cache spill file ([`ServerConfig`]
/// default). When set, the server warm-starts its result cache from the
/// file at startup and spills the cache back on graceful shutdown.
const SRAM_CACHE_FILE_ENV: sram_probe::EnvVar = sram_probe::env_var!("SRAM_CACHE_FILE");

/// Most jobs a worker drains into one [`Engine::handle_batch`] call.
const MAX_BATCH: usize = 16;

/// Monotone key distinguishing traced roots for deterministic
/// per-root sampling ([`sram_probe::trace::sampled`]).
static REQUEST_KEY: AtomicU64 = AtomicU64::new(0);

/// Server sizing knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Worker threads draining the job queue.
    pub workers: usize,
    /// Bounded job-queue capacity; a full queue rejects with `"busy"`.
    pub queue_capacity: usize,
    /// Result-cache spill file: loaded (if present) at startup, written
    /// on graceful shutdown. `None` disables persistence. The default
    /// reads the `SRAM_CACHE_FILE` environment variable.
    pub cache_file: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 64,
            cache_file: SRAM_CACHE_FILE_ENV.get_os().map(PathBuf::from),
        }
    }
}

/// One queued request with its reply channel.
struct Job {
    request: Request,
    enqueued: Instant,
    /// Enqueue time on the trace clock — lets the worker emit the
    /// queue-wait interval even though it did not observe the start.
    enqueued_ns: u64,
    deadline: Option<Instant>,
    /// The request's trace scope and root span, when it is traced.
    trace: Option<sram_probe::trace::TraceContext>,
    reply: mpsc::Sender<Json>,
}

struct QueueInner {
    jobs: VecDeque<Job>,
    open: bool,
}

/// Bounded MPMC job queue: `Mutex` + `Condvar`, no busy-waiting.
struct JobQueue {
    inner: Mutex<QueueInner>,
    ready: Condvar,
    capacity: usize,
}

impl JobQueue {
    fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(QueueInner {
                jobs: VecDeque::new(),
                open: true,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueues without blocking; a full or closed queue is the
    /// caller's problem to report.
    fn push(&self, job: Job) -> Result<(), ServeError> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if !inner.open {
            return Err(ServeError::ShuttingDown);
        }
        if inner.jobs.len() >= self.capacity {
            return Err(ServeError::Busy);
        }
        inner.jobs.push_back(job);
        // Ungated: `health` reads queue pressure with probes off.
        probe_handle!(gauge "serve.queue.depth").set(inner.jobs.len() as f64);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for work; drains up to `max` jobs at once. `None` means
    /// the queue is closed and drained — the worker should exit.
    fn pop_batch(&self, max: usize) -> Option<Vec<Job>> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if !inner.jobs.is_empty() {
                let n = inner.jobs.len().min(max.max(1));
                let batch: Vec<Job> = inner.jobs.drain(..n).collect();
                probe_handle!(gauge "serve.queue.depth").set(inner.jobs.len() as f64);
                return Some(batch);
            }
            if !inner.open {
                return None;
            }
            inner = self
                .ready
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn close(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.open = false;
        drop(inner);
        self.ready.notify_all();
    }
}

/// Per-worker registry of the jobs it currently holds, written before a
/// batch is processed and cleared after every reply is sent. If the
/// worker panics mid-batch, the respawn wrapper drains this registry and
/// sends each stranded client a typed `"internal"` reply — the channel
/// never hangs.
type Inflight = Mutex<Vec<(Option<String>, mpsc::Sender<Json>)>>;

/// A running server; dropped or [`Server::shutdown`] to stop.
pub struct Server {
    addr: SocketAddr,
    front: Serving,
    workers: Vec<JoinHandle<()>>,
    queue: Arc<JobQueue>,
    engine: Arc<Engine>,
    cache_file: Option<PathBuf>,
}

impl Server {
    /// Binds and starts the front, connection pool, and workers.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn start(engine: Arc<Engine>, config: ServerConfig) -> Result<Self, ServeError> {
        let front = Front::bind(&config.addr)?;
        let addr = front.local_addr();

        if let Some(path) = &config.cache_file {
            if path.exists() {
                match engine.load_cache(path) {
                    Ok(n) => sram_probe::probe_add!("serve.cache.warm_started", n as u64),
                    Err(_) => sram_probe::probe_inc!("serve.cache.load_failed"),
                }
            }
        }

        let shutdown = Arc::new(AtomicBool::new(false));
        let queue = Arc::new(JobQueue::new(config.queue_capacity));

        // Telemetry rides along with the server: the sampler thread
        // starts here and is joined by `stop`. The capacity gauge is
        // set directly (ungated) — `health` reads queue pressure as
        // depth/capacity and must work with probes off.
        probe_handle!(gauge "serve.queue.capacity").set(config.queue_capacity.max(1) as f64);
        sram_probe::telemetry::start();
        sram_probe::log::log_event(
            sram_probe::log::LogLevel::Info,
            "serve.started",
            &[(
                "workers",
                sram_probe::log::LogValue::U64(config.workers.max(1) as u64),
            )],
        );

        let mut workers = Vec::with_capacity(config.workers.max(1));
        for _ in 0..config.workers.max(1) {
            let engine = Arc::clone(&engine);
            let queue = Arc::clone(&queue);
            let shutdown = Arc::clone(&shutdown);
            #[expect(
                clippy::disallowed_methods,
                reason = "worker handles are kept in `workers` and joined last on shutdown"
            )]
            workers.push(std::thread::spawn(move || {
                worker_thread(&engine, &queue, MAX_BATCH, &shutdown);
            }));
        }

        let node = Node {
            shutdown: Arc::clone(&shutdown),
            queue: Arc::clone(&queue),
            engine: Arc::clone(&engine),
        };
        Ok(Server {
            addr,
            front: front.serve(shutdown, node),
            workers,
            queue,
            engine,
            cache_file: config.cache_file,
        })
    }

    /// The actual bound address (resolves ephemeral ports).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stop accepting, let connections finish their
    /// in-flight request, drain the queue, join everything.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        // Connections exit at their next poll tick (after receiving any
        // in-flight reply, which needs the workers still running).
        self.front.stop();
        self.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Workers are gone, so the cache is quiescent — spill it now.
        if let Some(path) = self.cache_file.take() {
            match self.engine.save_cache(&path) {
                Ok(n) => sram_probe::probe_add!("serve.cache.spilled", n as u64),
                Err(_) => sram_probe::probe_inc!("serve.cache.save_failed"),
            }
        }
        // Drops the telemetry refcount taken in `start`; the sampler
        // thread takes a final drain sample and is joined here.
        sram_probe::telemetry::stop();
        sram_probe::log::log_event(sram_probe::log::LogLevel::Info, "serve.stopped", &[]);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.stop();
        }
    }
}

/// Spawns an in-process serve node on `addr` (port 0 for ephemeral),
/// backed by a fresh paper-mode engine over the coarse design space —
/// the building block for in-process test clusters (`cluster-soak`,
/// router benchmarks) where each "node" is a full server with its own
/// engine, cache, and worker pool. Cache persistence is disabled so
/// sibling nodes never fight over one `SRAM_CACHE_FILE`.
///
/// # Errors
///
/// Propagates bind failures.
pub fn spawn_local_node(
    addr: &str,
    workers: usize,
    queue_capacity: usize,
) -> Result<Server, ServeError> {
    let engine = Arc::new(Engine::new(
        sram_coopt::CoOptimizationFramework::paper_mode()
            .with_space(sram_coopt::DesignSpace::coarse()),
        crate::cache::CacheConfig::default(),
    ));
    Server::start(
        engine,
        ServerConfig {
            addr: addr.to_string(),
            workers,
            queue_capacity,
            cache_file: None,
        },
    )
}

/// The node's [`Service`]: the shutdown flag, the job queue, and the
/// engine whose result cache it answers hits from.
struct Node {
    shutdown: Arc<AtomicBool>,
    queue: Arc<JobQueue>,
    engine: Arc<Engine>,
}

impl Service for Node {
    fn admit(&self) -> bool {
        if sram_faults::should_fire("serve.node_kill") {
            // Process-scope kill: the node goes dark as a unit. The
            // front raises the shutdown flag, so every connection and
            // worker winds down at its next poll tick, and drops the
            // listener, so new dials are refused — the closest a
            // thread-per-node test cluster gets to `kill -9` without
            // owning real processes. Ungated counter: the soak asserts
            // the kill count regardless of probe level.
            probe_handle!(counter "serve.node.injected_kills").inc();
            return false;
        }
        sram_probe::probe_inc!("serve.conn.accepted");
        true
    }

    fn reply(&self, line: &[u8]) -> Option<Json> {
        if sram_faults::should_fire("serve.conn_drop") {
            // Simulated transport failure: the client sees a clean EOF
            // with no reply and must reconnect.
            sram_probe::probe_inc!("serve.conn.injected_drops");
            return None;
        }
        Some(match front::text(line) {
            Ok(text) => serve_line(text, self),
            Err(e) => {
                sram_probe::probe_inc!("serve.request.parse_errors");
                error_response(None, &e)
            }
        })
    }
}

/// Parses one request line and answers it: a result-cache hit here, on
/// the connection thread, anything else through the job queue.
///
/// A request with `"trace": true` opens its own trace scope and a
/// `serve.request` root span covering parse → queue wait → evaluate →
/// respond (a hit has no queue wait and no evaluate); the span tree
/// rebuilt from the scope's events is inlined in the response under
/// `"trace"`.
fn serve_line(line: &str, node: &Node) -> Json {
    let t_parse = sram_probe::trace::now_ns();
    if line.is_empty() {
        return error_response(None, &ServeError::Protocol("empty request line".into()));
    }
    let request = match Request::from_line(line) {
        Ok(r) => r,
        Err(e) => {
            sram_probe::probe_inc!("serve.request.parse_errors");
            return error_response(None, &e);
        }
    };
    if node.shutdown.load(Ordering::SeqCst) {
        return error_response(request.id.as_deref(), &ServeError::ShuttingDown);
    }

    // The root span starts retroactively at the parse timestamp so the
    // tree covers the whole request, not just the queued part. Traced
    // requests pass through per-root sampling: at `SRAM_TRACE_SAMPLE`
    // below 1, only a seeded, deterministic fraction of roots open a
    // scope, so a loaded node keeps representative traces. A propagated
    // `trace_ctx` overrides both: the upstream caller already made the
    // sampling decision (once per distributed trace), so `sampled:
    // false` short-circuits tracing entirely and `sampled: true` opens a
    // scope and re-roots our `serve.request` span under the caller's
    // parent span id.
    let trace_ctx = request.trace_ctx;
    let sampled = match trace_ctx {
        Some(ctx) => ctx.sampled,
        None => {
            request.trace && sram_probe::trace::sampled(REQUEST_KEY.fetch_add(1, Ordering::Relaxed))
        }
    };
    let scope = sampled.then(sram_probe::trace::Scope::begin);
    let request_span = probe_handle!(trace "serve.request");
    let root = match (&scope, trace_ctx) {
        (Some(scope), Some(ctx)) => {
            let _adopt = sram_probe::trace::adopt(&scope.context(ctx.parent_span));
            TraceSpan::begin_at(request_span, t_parse)
        }
        (Some(_), None) => TraceSpan::begin_at(request_span, t_parse),
        (None, _) => TraceSpan::disabled(),
    };
    let root_id = root.id();
    let trace = scope.as_ref().map(|scope| scope.context(root_id));
    if let Some(trace) = &trace {
        let parse = probe_handle!(trace "serve.parse");
        trace.emit_complete(parse, t_parse, sram_probe::trace::now_ns(), &[]);
    }

    let now = Instant::now();
    let deadline = request
        .deadline_ms
        .map(|ms| now + Duration::from_millis(ms));
    let id = request.id.clone();
    let op = request.query.op();
    let mut response = match inline_hit(&node.engine, &request, deadline) {
        Some(hit) => hit,
        None => {
            let (tx, rx) = mpsc::channel();
            let job = Job {
                request,
                enqueued: now,
                enqueued_ns: sram_probe::trace::now_ns(),
                deadline,
                trace,
                reply: tx,
            };
            if let Err(e) = node.queue.push(job) {
                if matches!(e, ServeError::Busy) {
                    // Ungated (health keys off the busy-reject rate).
                    probe_handle!(counter "serve.request.rejected").inc();
                }
                return error_response(id.as_deref(), &e);
            }
            match rx.recv() {
                Ok(json) => json,
                // Worker pool went away mid-request (shutdown race).
                Err(_) => error_response(id.as_deref(), &ServeError::ShuttingDown),
            }
        }
    };
    let latency_ns = now.elapsed().as_nanos() as u64;
    // The latency histogram and SLO counters bypass the probe level
    // gate: `metrics`/`health` must report with probes off.
    probe_handle!(histogram "serve.request.latency_ns").record(latency_ns);
    crate::slo::record(op, latency_ns);
    if let Some(scope) = scope {
        drop(root); // close the root before reading its interval back
        let events = scope.finish();
        if let Some(tree) = sram_probe::trace::span_tree(&events, root_id) {
            if let Json::Obj(pairs) = &mut response {
                let mut tree_json = crate::engine::trace_json(&tree);
                if let (Some(ctx), Json::Obj(tree_pairs)) = (trace_ctx, &mut tree_json) {
                    // Stamp the distributed identity on the returned
                    // root so the caller can stitch without guessing.
                    // `parent_span` is read back from the root's begin
                    // event, not echoed from the request, so it proves
                    // the adoption actually re-rooted the tree.
                    let adopted = events
                        .iter()
                        .find(|e| e.id == root_id && e.phase == sram_probe::trace::Phase::Begin)
                        .map_or(0, |e| e.parent);
                    tree_pairs.push((
                        "trace_id".into(),
                        Json::Str(format!("{:016x}", ctx.trace_id)),
                    ));
                    tree_pairs.push(("parent_span".into(), Json::Num(adopted as f64)));
                }
                pairs.push(("trace".into(), tree_json));
            }
        }
    }
    front::log_slow_query(
        "serve.slow_query",
        op,
        id.as_deref(),
        latency_ns,
        &response,
        &[],
    );
    response
}

/// Answers a result-cache hit on the connection thread, with the reply
/// a worker would give it. `None` sends the request to the job queue:
/// a miss, an introspection op, or a request whose deadline has already
/// passed, which the worker expires with the reply and counters such a
/// request has always had.
fn inline_hit(engine: &Engine, request: &Request, deadline: Option<Instant>) -> Option<Json> {
    if deadline.is_some_and(|d| d <= Instant::now()) {
        return None;
    }
    let hit = engine.cached_response(request)?;
    sram_probe::probe_inc!("serve.request.inline_hits");
    Some(hit)
}

/// Worker shell: runs [`worker_loop`] inside `catch_unwind` and respawns
/// it after a panic, first draining the inflight registry so every
/// client holding a reply channel gets a typed `"internal"` reply
/// instead of a hung `recv`.
///
/// Soundness of `catch_unwind` here: the worker shares only the job
/// queue, the engine, and the inflight registry across the unwind
/// boundary, and each is either lock-free or repaired on reacquire —
/// queue and cache locks use `PoisonError::into_inner` (their invariants
/// hold at every release point), the engine's LUT store holds completed
/// immutable characterizations only, and the inflight registry is never
/// locked across the panic window (see DESIGN.md §11).
fn worker_thread(engine: &Engine, queue: &JobQueue, max_batch: usize, shutdown: &Arc<AtomicBool>) {
    let inflight: Inflight = Mutex::new(Vec::new());
    loop {
        let ran = catch_unwind(AssertUnwindSafe(|| {
            worker_loop(engine, queue, max_batch, shutdown, &inflight);
        }));
        match ran {
            Ok(()) => return, // queue closed and drained — normal exit
            Err(_) => {
                // Direct registry handles (not the gated macros): the
                // health verdict keys off these counters even with
                // probes off, and panics are rare enough that the
                // registry lookup cost is irrelevant.
                probe_handle!(counter "serve.worker.panics").inc();
                let stranded: Vec<(Option<String>, mpsc::Sender<Json>)> = {
                    let mut guard = inflight.lock().unwrap_or_else(PoisonError::into_inner);
                    guard.drain(..).collect()
                };
                for (id, reply) in stranded {
                    let _ = reply.send(error_response(
                        id.as_deref(),
                        &ServeError::Internal("worker panicked while processing request".into()),
                    ));
                }
                probe_handle!(counter "serve.worker.respawns").inc();
                sram_probe::log::log_event(
                    sram_probe::log::LogLevel::Error,
                    "serve.worker_panic",
                    &[],
                );
            }
        }
    }
}

/// Worker body: drain a batch, expire stale deadlines, run the rest.
///
/// Deadline handling happens twice: requests whose deadline passed while
/// they sat in the queue are rejected here with a typed
/// `deadline_exceeded` reply (and the `serve.request.expired` counter),
/// and the rest carry a [`CancelToken`] into the engine so a deadline
/// that fires mid-search is honored at the next slice boundary. The
/// token also observes the server's shutdown flag.
///
/// Traced jobs get three extras, each recorded into the job's own
/// scope: a `serve.queue_wait` interval (stamped by the enqueuing
/// thread, emitted here as a complete event), the engine's spans (the
/// batch adopts the first traced job's context, so they nest under its
/// root), and a `serve.evaluate` interval spanning the batch execution.
fn worker_loop(
    engine: &Engine,
    queue: &JobQueue,
    max_batch: usize,
    shutdown: &Arc<AtomicBool>,
    inflight: &Inflight,
) {
    while let Some(jobs) = queue.pop_batch(max_batch) {
        // Draw the panic fault once per dequeued job so a plan's
        // `max_fires` cap is consumed deterministically regardless of
        // how jobs batch together.
        let mut doomed = false;
        for _ in &jobs {
            doomed |= sram_faults::should_fire("serve.worker_panic");
        }
        let now = Instant::now();
        let mut live: Vec<Job> = Vec::with_capacity(jobs.len());
        for job in jobs {
            match job.deadline {
                Some(deadline) if deadline <= now => {
                    // Ungated (health keys off the expiry rate).
                    probe_handle!(counter "serve.request.expired").inc();
                    let _ = job.reply.send(error_response(
                        job.request.id.as_deref(),
                        &ServeError::DeadlineExceeded,
                    ));
                }
                _ => live.push(job),
            }
        }
        if live.is_empty() {
            continue;
        }
        {
            let mut guard = inflight.lock().unwrap_or_else(PoisonError::into_inner);
            guard.clear();
            for job in &live {
                guard.push((job.request.id.clone(), job.reply.clone()));
            }
        }
        #[expect(
            clippy::panic,
            reason = "fault-plan injection point; the worker_thread shell isolates and respawns"
        )]
        if doomed {
            panic!("injected worker panic (fault plan)");
        }
        let t_eval = sram_probe::trace::now_ns();
        for job in &live {
            if let Some(trace) = &job.trace {
                let queue_wait = probe_handle!(trace "serve.queue_wait");
                trace.emit_complete(queue_wait, job.enqueued_ns, t_eval, &[]);
            }
        }
        let requests: Vec<Request> = live.iter().map(|j| j.request.clone()).collect();
        let tokens: Vec<CancelToken> = live
            .iter()
            .map(|j| CancelToken::linked(j.deadline, Arc::clone(shutdown)))
            .collect();
        let responses = {
            let _adopt = live
                .iter()
                .find_map(|j| j.trace.as_ref())
                .map(sram_probe::trace::adopt);
            engine.handle_batch_cancel(&requests, &tokens)
        };
        let t_done = sram_probe::trace::now_ns();
        let batch = live.len() as i64;
        for (job, response) in live.into_iter().zip(responses) {
            sram_probe::probe_record!(
                "serve.request.queue_wait_ns",
                job.enqueued.elapsed().as_nanos() as u64
            );
            if let Some(trace) = &job.trace {
                let evaluate = probe_handle!(trace "serve.evaluate");
                trace.emit_complete(evaluate, t_eval, t_done, &[("batch", batch)]);
            }
            let _ = job.reply.send(response);
        }
        inflight
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tx_only_job(id: &str) -> (Job, mpsc::Receiver<Json>) {
        let (tx, rx) = mpsc::channel();
        let request = Request::from_line(&format!(
            r#"{{"id":"{id}","op":"optimize","capacity_bytes":128,"flavor":"hvt","method":"m2"}}"#
        ))
        .unwrap();
        (
            Job {
                request,
                enqueued: Instant::now(),
                enqueued_ns: sram_probe::trace::now_ns(),
                deadline: None,
                trace: None,
                reply: tx,
            },
            rx,
        )
    }

    #[test]
    fn queue_rejects_when_full_and_after_close() {
        let queue = JobQueue::new(1);
        let (a, _rx_a) = tx_only_job("a");
        let (b, _rx_b) = tx_only_job("b");
        queue.push(a).unwrap();
        assert!(matches!(queue.push(b), Err(ServeError::Busy)));
        queue.close();
        let (c, _rx_c) = tx_only_job("c");
        assert!(matches!(queue.push(c), Err(ServeError::ShuttingDown)));
    }

    #[test]
    fn an_expired_hit_gets_the_reply_an_expired_job_gets() {
        let engine = Engine::new(
            sram_coopt::CoOptimizationFramework::paper_mode()
                .with_space(sram_coopt::DesignSpace::coarse()),
            crate::cache::CacheConfig::default(),
        );
        let request = Request::from_line(
            r#"{"id":"late","op":"optimize","capacity_bytes":128,"flavor":"hvt","method":"m2","deadline_ms":1}"#,
        )
        .unwrap();
        let fresh = engine.handle(&request);
        assert_eq!(fresh.get("cached").and_then(Json::as_bool), Some(false));

        // A live deadline: the hit is answered here, with the bytes the
        // batch path gives.
        let live = inline_hit(
            &engine,
            &request,
            Some(Instant::now() + Duration::from_secs(60)),
        );
        assert_eq!(
            live.map(|r| r.render()),
            Some(engine.handle(&request).render())
        );

        // A passed deadline: no lookup here; the request queues, and
        // the worker expires it as it always has.
        let before = engine.cache_counters();
        let deadline = Some(Instant::now());
        assert!(inline_hit(&engine, &request, deadline).is_none());
        assert_eq!(engine.cache_counters(), before);
        let (mut job, rx) = tx_only_job("late");
        job.request = request;
        job.deadline = deadline;
        let queue = JobQueue::new(1);
        queue.push(job).unwrap();
        queue.close();
        worker_thread(&engine, &queue, 1, &Arc::new(AtomicBool::new(false)));
        assert_eq!(
            rx.recv().unwrap().render(),
            error_response(Some("late"), &ServeError::DeadlineExceeded).render()
        );
        assert_eq!(engine.cache_counters(), before);
    }

    #[test]
    fn pop_batch_drains_up_to_max_and_ends_on_close() {
        let queue = JobQueue::new(8);
        let mut receivers = Vec::new();
        for i in 0..3 {
            let (job, rx) = tx_only_job(&i.to_string());
            queue.push(job).unwrap();
            receivers.push(rx);
        }
        let batch = queue.pop_batch(2).unwrap();
        assert_eq!(batch.len(), 2);
        let batch = queue.pop_batch(2).unwrap();
        assert_eq!(batch.len(), 1);
        queue.close();
        assert!(queue.pop_batch(2).is_none());
    }
}
