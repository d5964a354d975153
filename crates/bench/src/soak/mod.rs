//! The fault-injection soaks: one driver, four scenarios.
//!
//! Each soak is one row of a table — topology × fault table × load ×
//! invariant table (`Scenario`) — plus the phases only that scenario
//! has ([`chaos`], [`telemetry`], [`cluster`], [`trace`]). This module
//! owns everything they share:
//!
//! * **topology** (`Net`): one `Server` over a coarse paper-mode
//!   engine, or N local nodes behind a [`Router`]. Dropping a `Net`
//!   shuts the router and every node down, so every exit path cleans
//!   up;
//! * **the fault plan** (`Scenario::plan`): built from the fault
//!   table, whose caps are also the expected per-point fire counts, so
//!   the two cannot drift. Every rule fires with probability 1 under
//!   its cap: which request observes a fault varies, the totals never
//!   do;
//! * **the client loop** (`Soak::wave`): resend on `internal` or
//!   `busy`, reconnect after a clean EOF, hard-fail on a reply timeout
//!   or an exhausted attempt budget, check the id of every `ok` reply,
//!   run the scenario's per-reply hook, and end every client with an
//!   id echo — a doubled or dropped reply anywhere earlier misaligns
//!   it;
//! * **rounds and counter deltas** (`Soak::round`): a round arms the
//!   plan (or not), runs its waves, and records its tallies, per-point
//!   fires, and probe deltas; the whole soak records deltas, gauges,
//!   and phase results once more at the end;
//! * **checks** (`report`): every invariant row is evaluated on the
//!   whole soak or on every round, and any broken row fails the soak.
//!
//! Every soak installs a process-global fault plan, so the end-to-end
//! runs live in `tests/*_soak.rs`, one scenario per process. The unit
//! tests here and in each scenario only touch global-free pieces.

pub mod chaos;
pub mod cluster;
pub mod telemetry;
pub mod trace;

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use sram_cluster::{Router, RouterConfig};
use sram_coopt::{CoOptimizationFramework, DesignSpace};
use sram_faults::{FaultPlan, FaultRule};
use sram_serve::{CacheConfig, Client, Engine, Json, ServeError, Server, ServerConfig};

/// Named results of a soak: tallies, fires, probe deltas, gauges, and
/// phase results, keyed by the names the invariant tables use.
pub(crate) type Values = BTreeMap<&'static str, f64>;

/// Per-reply hook: sees the request line and every `ok` reply.
pub(crate) type Hook<'a> = &'a (dyn Fn(&str, &Json) -> Result<(), String> + Sync);

/// One fault-table row: `(point, cap, latency_ms)`.
pub(crate) type FaultRow = (&'static str, u64, u64);

/// Job-queue depth of each cluster node.
const NODE_QUEUE: usize = 16;

/// Pause after a `busy` reply before the resend.
const BUSY_BACKOFF: Duration = Duration::from_millis(20);

/// Rows every scenario checks.
const COMMON: &[Invariant] = &[
    per_round("answered", Op::Eq, Rhs::Key("requests")),
    per_round("faults.injected", Op::Eq, Rhs::Key("registry_injected")),
    inv("faults.injected", Op::Eq, Rhs::Caps),
    inv(
        "serve.conn.injected_drops",
        Op::Eq,
        Rhs::Cap("serve.conn_drop"),
    ),
    inv("serve.conn.accepted", Op::Ge, Rhs::Key("clients")),
    inv("serve.cache.insertions", Op::Ge, Rhs::Num(1.0)),
    // A node answers a request from its job queue (one queue wait) or,
    // for a result-cache hit, on the connection thread (one inline hit);
    // both paths record the request's latency.
    inv("answered", Op::Le, Rhs::Sum(REPLY_PATHS)),
    inv("serve.request.latency_ns", Op::Ge, Rhs::Key("answered")),
    inv("serve.request.latency_ns", Op::Ge, Rhs::Sum(REPLY_PATHS)),
];

/// The two ways a node answers: through the job queue, or inline.
const REPLY_PATHS: &[&str] = &["serve.request.queue_wait_ns", "serve.request.inline_hits"];

/// Where the clients connect.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Topology {
    /// One `Server` over a coarse paper-mode engine.
    Node {
        /// Worker threads.
        workers: usize,
    },
    /// Local serve nodes behind a consistent-hash [`Router`].
    Cluster {
        /// Node count.
        nodes: usize,
        /// Worker threads per node.
        workers: usize,
        /// Ring candidates per key.
        replicas: usize,
        /// Hedge-delay floor, milliseconds.
        hedge_ms: u64,
        /// Health-poll interval, milliseconds.
        poll_ms: u64,
    },
}

/// The comparison of an invariant row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    /// Equal.
    Eq,
    /// At least.
    Ge,
    /// At most.
    Le,
    /// Strictly below.
    Lt,
}

/// The right-hand side of an invariant row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Rhs {
    /// A constant.
    Num(f64),
    /// Another value of the same value set.
    Key(&'static str),
    /// The sum of several values of the same value set.
    Sum(&'static [&'static str]),
    /// The fault-table cap of a point times the faulted rounds in
    /// scope (0 for a point the table does not list).
    Cap(&'static str),
    /// The sum of every cap times the faulted rounds in scope.
    Caps,
}

impl Rhs {
    /// The value-set keys the bound reads.
    fn keys(self) -> Vec<&'static str> {
        match self {
            Rhs::Key(key) => vec![key],
            Rhs::Sum(keys) => keys.to_vec(),
            Rhs::Num(_) | Rhs::Cap(_) | Rhs::Caps => Vec::new(),
        }
    }
}

/// One invariant row: `key op rhs`, checked on the whole soak or on
/// every round.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Invariant {
    /// The checked value.
    pub(crate) key: &'static str,
    /// The comparison.
    pub(crate) op: Op,
    /// What the value is compared with.
    pub(crate) rhs: Rhs,
    /// Check every round's values instead of the whole soak's.
    pub(crate) each_round: bool,
}

/// A whole-soak row.
#[must_use]
pub(crate) const fn inv(key: &'static str, op: Op, rhs: Rhs) -> Invariant {
    Invariant {
        key,
        op,
        rhs,
        each_round: false,
    }
}

/// A row checked on every round.
#[must_use]
pub(crate) const fn per_round(key: &'static str, op: Op, rhs: Rhs) -> Invariant {
    Invariant {
        key,
        op,
        rhs,
        each_round: true,
    }
}

/// One soak scenario: topology × fault table × load × invariant table.
#[derive(Debug)]
pub(crate) struct Scenario {
    /// Report heading.
    pub(crate) title: &'static str,
    /// Where the clients connect.
    pub(crate) topology: Topology,
    /// Fault-plan seed.
    pub(crate) seed: u64,
    /// The fault table; also the expected fires per faulted round.
    pub(crate) faults: &'static [FaultRow],
    /// Concurrent clients per wave.
    pub(crate) clients: usize,
    /// Requests each client sees answered exactly once, per wave.
    pub(crate) requests_per_client: usize,
    /// Resend budget per request; a request needing more is hung.
    pub(crate) max_attempts: usize,
    /// Client-side reply timeout — the hang detector.
    pub(crate) reply_timeout: Duration,
    /// Body (every field but the id) of client `c`'s `r`-th request.
    pub(crate) query: fn(usize, usize) -> String,
    /// Rows only this scenario checks (see also the common rows and
    /// the fault-table rows, [`Scenario::checks`]).
    pub(crate) invariants: &'static [Invariant],
}

impl Scenario {
    /// The fault plan the table describes.
    #[must_use]
    pub(crate) fn plan(&self) -> FaultPlan {
        self.faults
            .iter()
            .fold(FaultPlan::new(self.seed), |plan, &(point, cap, latency)| {
                plan.rule(FaultRule::always(point, cap).with_latency_ms(latency))
            })
    }

    /// The fault-table cap of `point` (0 when unlisted).
    #[must_use]
    pub(crate) fn cap(&self, point: &str) -> u64 {
        self.faults
            .iter()
            .find(|row| row.0 == point)
            .map_or(0, |row| row.1)
    }

    /// Every row this scenario checks: the common rows, its own table,
    /// and one fires-equal-cap row per fault-table point, every round.
    pub(crate) fn checks(&self) -> impl Iterator<Item = Invariant> + '_ {
        COMMON.iter().chain(self.invariants).copied().chain(
            self.faults
                .iter()
                .map(|&(point, ..)| per_round(point, Op::Eq, Rhs::Cap(point))),
        )
    }

    /// The probes the rows read: every dotted key that is not a fault
    /// point names a counter, a histogram (its sample count), or a
    /// gauge.
    fn probes(&self) -> impl Iterator<Item = &'static str> + '_ {
        let rhs_keys = self.checks().flat_map(|i| i.rhs.keys());
        self.checks()
            .map(|i| i.key)
            .chain(rhs_keys)
            .filter(|key| key.contains('.') && self.faults.iter().all(|f| f.0 != *key))
    }

    /// The id-echo op: answered by the front door itself.
    fn echo_op(&self) -> &'static str {
        match self.topology {
            Topology::Node { .. } => "metrics",
            Topology::Cluster { .. } => "cluster-stats",
        }
    }

    /// Evaluates one row on one value set: `(value, bound, holds)`.
    fn eval(&self, row: &Invariant, values: &Values) -> (Option<f64>, Option<f64>, bool) {
        let faulted = values.get("fault_rounds").copied().unwrap_or(0.0);
        let bound = match row.rhs {
            Rhs::Num(n) => Some(n),
            Rhs::Key(key) => values.get(key).copied(),
            Rhs::Sum(keys) => keys.iter().map(|key| values.get(key).copied()).sum(),
            Rhs::Cap(point) => Some(faulted * self.cap(point) as f64),
            Rhs::Caps => Some(faulted * self.faults.iter().map(|r| r.1).sum::<u64>() as f64),
        };
        let value = values.get(row.key).copied();
        #[expect(
            clippy::float_cmp,
            reason = "`Op::Eq` compares integer counts carried as f64, exact below 2^53"
        )]
        let holds = match (value, bound) {
            (Some(v), Some(b)) => match row.op {
                Op::Eq => v == b,
                Op::Ge => v >= b,
                Op::Le => v <= b,
                Op::Lt => v < b,
            },
            _ => false,
        };
        (value, bound, holds)
    }
}

/// What a soak recorded.
#[derive(Debug, Clone, Default)]
pub(crate) struct Outcome {
    /// Per-round values: tallies, fires, registry total, probe deltas.
    pub(crate) rounds: Vec<Values>,
    /// Whole-soak values: summed round values, probe deltas over the
    /// whole soak, gauges, and phase results.
    pub(crate) soak: Values,
    /// Free-form report lines (verdict reasons, violation details).
    pub(crate) notes: Vec<String>,
}

/// A running topology. Dropping it shuts everything down: fields drop
/// in declaration order, so the router goes first and no forward races
/// a closing node.
pub(crate) struct Net {
    /// The router, when the topology has one; held for its drop.
    _router: Option<Router>,
    /// Live nodes by address.
    pub(crate) nodes: BTreeMap<String, Server>,
    /// The engine behind a single-node topology.
    pub(crate) engine: Option<Arc<Engine>>,
    /// The front door: the router, or the only node.
    pub(crate) addr: SocketAddr,
}

impl Net {
    fn start(topology: Topology, threads: usize) -> Result<Self, String> {
        match topology {
            Topology::Node { workers } => {
                let engine = Arc::new(Engine::new(
                    CoOptimizationFramework::paper_mode()
                        .with_space(DesignSpace::coarse())
                        .with_threads(threads),
                    CacheConfig::default(),
                ));
                let server = Server::start(
                    Arc::clone(&engine),
                    ServerConfig {
                        workers,
                        cache_file: None,
                        ..ServerConfig::default()
                    },
                )
                .map_err(|e| format!("server start: {e}"))?;
                let addr = server.local_addr();
                Ok(Self {
                    _router: None,
                    nodes: BTreeMap::from([(addr.to_string(), server)]),
                    engine: Some(engine),
                    addr,
                })
            }
            Topology::Cluster {
                nodes,
                workers,
                replicas,
                hedge_ms,
                poll_ms,
            } => {
                let mut servers = BTreeMap::new();
                for _ in 0..nodes {
                    let server = spawn_node("127.0.0.1:0", workers)?;
                    servers.insert(server.local_addr().to_string(), server);
                }
                let router = Router::start(RouterConfig {
                    nodes: servers.keys().cloned().collect(),
                    replicas,
                    hedge_ms,
                    poll_interval: Duration::from_millis(poll_ms),
                    ..RouterConfig::default()
                })
                .map_err(|e| format!("router start: {e}"))?;
                let addr = router.local_addr();
                // Let the first poll round see every node healthy, so a
                // kill lands under traffic rather than on the first dial.
                std::thread::sleep(Duration::from_millis(100));
                Ok(Self {
                    _router: Some(router),
                    nodes: servers,
                    engine: None,
                    addr,
                })
            }
        }
    }
}

/// Spawns one cluster node on `addr` (port 0 for an ephemeral port).
fn spawn_node(addr: &str, workers: usize) -> Result<Server, String> {
    sram_serve::spawn_local_node(addr, workers, NODE_QUEUE)
        .map_err(|e| format!("node spawn on {addr}: {e}"))
}

/// Dials `addr` with the scenario's reply timeout.
pub(crate) fn connect(addr: SocketAddr, timeout: Duration) -> Result<Client, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    client
        .set_timeout(Some(timeout))
        .map_err(|e| format!("set_timeout: {e}"))?;
    Ok(client)
}

/// `ok = 0`, `degraded = 1`, `unhealthy = 2`, anything else `-1`.
pub(crate) fn verdict_rank(verdict: &str) -> f64 {
    match verdict {
        "ok" => 0.0,
        "degraded" => 1.0,
        "unhealthy" => 2.0,
        _ => -1.0,
    }
}

/// `true → 1`, `false → 0`.
pub(crate) fn flag(b: bool) -> f64 {
    f64::from(u8::from(b))
}

/// Current readings of the probes `s` reads; one not yet registered
/// reads 0.
fn probes(s: &Scenario) -> Values {
    let snap = sram_probe::snapshot();
    s.probes()
        .map(|name| {
            let value = snap.counters.get(name).map(|&v| v as f64);
            let value = value.or_else(|| snap.histograms.get(name).map(|h| h.count as f64));
            (name, value.or_else(|| snap.gauges.get(name).copied()))
        })
        .map(|(name, value)| (name, value.unwrap_or(0.0)))
        .collect()
}

/// Probe deltas since `before` (gauges too; [`Soak::finish`] replaces
/// those with their final readings).
fn deltas(s: &Scenario, before: &Values) -> Values {
    let mut now = probes(s);
    for (name, value) in &mut now {
        *value -= before.get(name).copied().unwrap_or(0.0);
    }
    now
}

/// Keeps the injected worker panics (which are the point of the
/// exercise) from spraying backtraces over the report; every other
/// panic still reaches the previous hook.
fn silence_injected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|s| s.contains("(fault plan)"));
            if !injected {
                previous(info);
            }
        }));
    });
}

/// Drives client `index` of wave `wave` to completion (the client loop
/// described in the module docs).
fn client(
    s: &Scenario,
    addr: SocketAddr,
    wave: &str,
    index: usize,
    hook: Hook<'_>,
) -> Result<Values, String> {
    let mut conn = connect(addr, s.reply_timeout)?;
    let keys = ["requests", "answered", "internal", "busy", "reconnects"];
    let mut tally: Values = keys.iter().map(|&key| (key, 0.0)).collect();
    let mut bump = |key| *tally.entry(key).or_default() += 1.0;
    for r in 0..s.requests_per_client {
        let id = format!("{wave}{index}-r{r}");
        let line = format!(r#"{{"id":"{id}",{}}}"#, (s.query)(index, r));
        bump("requests");
        let mut attempts = 0;
        loop {
            attempts += 1;
            if attempts > s.max_attempts {
                return Err(format!(
                    "request {id} unanswered after {} attempts",
                    s.max_attempts
                ));
            }
            match conn.call_line(&line) {
                Ok(reply) => match reply.get("status").and_then(Json::as_str) {
                    Some("ok") => {
                        if reply.get("id").and_then(Json::as_str) != Some(id.as_str()) {
                            return Err(format!(
                                "reply stream misaligned at {id}: {}",
                                reply.render()
                            ));
                        }
                        hook(&line, &reply)?;
                        bump("answered");
                        break;
                    }
                    Some("internal") => bump("internal"),
                    Some("busy") => {
                        bump("busy");
                        std::thread::sleep(BUSY_BACKOFF);
                    }
                    other => {
                        return Err(format!(
                            "request {id}: unexpected status {other:?}: {}",
                            reply.render()
                        ))
                    }
                },
                Err(ServeError::Remote(_)) => {
                    // A dropped connection: clean EOF, no reply.
                    bump("reconnects");
                    conn = connect(addr, s.reply_timeout)?;
                }
                Err(e) if e.is_timeout() => {
                    return Err(format!("request {id}: reply timed out — hang"));
                }
                Err(e) => return Err(format!("request {id}: transport error: {e}")),
            }
        }
    }
    // Exactly-once epilogue: the echo is answered by the front door
    // itself, so a doubled or dropped reply earlier on this connection
    // comes back as a misaligned id.
    let fin = format!("fin-{wave}{index}");
    let reply = conn
        .call_line(&format!(r#"{{"id":"{fin}","op":"{}"}}"#, s.echo_op()))
        .map_err(|e| format!("final echo: {e}"))?;
    if reply.get("id").and_then(Json::as_str) != Some(fin.as_str()) {
        return Err(format!(
            "double or dropped reply detected: final echo was {}",
            reply.render()
        ));
    }
    Ok(tally)
}

/// One running soak: its scenario, topology, and what it has recorded.
pub(crate) struct Soak<'s> {
    /// The scenario being soaked.
    scenario: &'s Scenario,
    threads: usize,
    net: Option<Net>,
    /// Tallies of the round in progress.
    tally: Values,
    out: Outcome,
    start: Values,
    /// Trace sampling to restore when the soak ends.
    sampling: Option<(f64, u64)>,
}

impl Soak<'_> {
    /// Starts the topology, shutting down a running one first.
    ///
    /// # Errors
    ///
    /// Bind and start-up failures.
    pub(crate) fn start(&mut self) -> Result<(), String> {
        self.net = None;
        self.net = Some(Net::start(self.scenario.topology, self.threads)?);
        Ok(())
    }

    /// The running topology.
    ///
    /// # Errors
    ///
    /// When [`Soak::start`] has not run.
    pub(crate) fn net(&mut self) -> Result<&mut Net, String> {
        self.net
            .as_mut()
            .ok_or_else(|| "no topology started".to_owned())
    }

    /// Records a phase result.
    pub(crate) fn set(&mut self, key: &'static str, value: f64) {
        self.out.soak.insert(key, value);
    }

    /// Adds a line to the report.
    pub(crate) fn note(&mut self, line: String) {
        self.out.notes.push(line);
    }

    /// Sets trace sampling for the rest of the soak; the setting in
    /// force before comes back when the soak ends, on every exit path.
    pub(crate) fn sample_at(&mut self, rate: f64, seed: u64) {
        self.sampling
            .get_or_insert_with(sram_probe::trace::sampling);
        sram_probe::trace::set_sampling(rate, seed);
    }

    /// Runs one round: arms the fault plan when `faulted`, runs `body`
    /// (the round's waves), then records the round's tallies, per-point
    /// fires, registry total, and probe deltas, and disarms the plan.
    ///
    /// # Errors
    ///
    /// Propagates `body`'s failure (the plan is disarmed either way).
    pub(crate) fn round(
        &mut self,
        faulted: bool,
        body: impl FnOnce(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        let before = probes(self.scenario);
        self.tally.clear();
        if faulted {
            sram_faults::install(&self.scenario.plan());
        }
        let result = body(self);
        let fires = sram_faults::counts();
        let registry = sram_faults::injected_total();
        sram_faults::uninstall();
        result?;
        let mut values = std::mem::take(&mut self.tally);
        values.insert("fault_rounds", flag(faulted));
        values.insert("registry_injected", registry as f64);
        for &(point, ..) in self.scenario.faults {
            let fired = fires.iter().find(|(p, _)| p == point).map_or(0, |f| f.1);
            values.insert(point, fired as f64);
        }
        values.extend(deltas(self.scenario, &before));
        self.out.rounds.push(values);
        Ok(())
    }

    /// Runs one wave: the scenario's clients, concurrently, against the
    /// front door; `hook` sees every `ok` reply.
    ///
    /// # Errors
    ///
    /// The first client failure (hang, unanswered request, misaligned
    /// reply, or a hook rejection).
    pub(crate) fn wave(&mut self, name: &str, hook: Hook<'_>) -> Result<(), String> {
        let addr = self.net()?.addr;
        let s = self.scenario;
        let results: Vec<Result<Values, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..s.clients)
                .map(|i| scope.spawn(move || client(s, addr, name, i, hook)))
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("client thread panicked".to_owned()))
                })
                .collect()
        });
        for result in results {
            for (key, n) in result? {
                *self.tally.entry(key).or_default() += n;
            }
        }
        Ok(())
    }

    /// Shuts the topology down and records the whole-soak values.
    fn finish(mut self) -> Outcome {
        self.net = None;
        let mut soak = Values::new();
        for round in &self.out.rounds {
            for (&key, &value) in round {
                *soak.entry(key).or_default() += value;
            }
        }
        soak.extend(deltas(self.scenario, &self.start));
        let gauges = sram_probe::snapshot().gauges;
        for name in self.scenario.probes() {
            if let Some(&value) = gauges.get(name) {
                soak.insert(name, value);
            }
        }
        // The scenario constants rows compare against.
        soak.insert("clients", self.scenario.clients as f64);
        if let Topology::Cluster {
            nodes,
            replicas,
            hedge_ms,
            ..
        } = self.scenario.topology
        {
            // A routed request tries at most its `replicas` ring
            // candidates, so it fails over at most `replicas - 1` times.
            let cap = replicas.saturating_sub(1) as f64;
            let routed = soak.get("cluster.request.routed").copied();
            soak.extend([
                ("nodes", nodes as f64),
                ("hedge_ms", hedge_ms as f64),
                ("failover_cap", cap),
                ("failover_budget", cap * routed.unwrap_or(0.0)),
            ]);
        }
        soak.append(&mut self.out.soak);
        self.out.soak = soak;
        std::mem::take(&mut self.out)
    }
}

impl Drop for Soak<'_> {
    fn drop(&mut self) {
        if let Some((rate, seed)) = self.sampling.take() {
            sram_probe::trace::set_sampling(rate, seed);
        }
    }
}

/// Runs a scenario: `body` drives its phases and rounds on a fresh
/// [`Soak`]; the driver then shuts the topology down and records the
/// whole-soak values. Check them with [`report`].
///
/// # Errors
///
/// Any failure `body` reports: a hang, an unanswered or doubly-answered
/// request, a failed start-up, or a malformed reply.
pub(crate) fn drive(
    scenario: &Scenario,
    threads: usize,
    body: impl FnOnce(&mut Soak<'_>) -> Result<(), String>,
) -> Result<Outcome, String> {
    // Counter assertions need the probe layer on regardless of the
    // environment.
    sram_probe::set_level(sram_probe::Level::Summary);
    silence_injected_panics();
    let mut soak = Soak {
        scenario,
        threads,
        net: None,
        tally: Values::new(),
        out: Outcome::default(),
        start: probes(scenario),
        sampling: None,
    };
    body(&mut soak)?;
    Ok(soak.finish())
}

fn show(value: Option<f64>) -> String {
    value.map_or_else(|| "missing".to_owned(), |v| format!("{v}"))
}

/// Renders a finished soak and checks every invariant row.
///
/// # Errors
///
/// Lists every broken row, followed by the full report.
pub(crate) fn report(s: &Scenario, o: &Outcome) -> Result<String, String> {
    let mut out = format!("{}\n\n", s.title);
    let mut fired = Vec::new(); // the fires of each faulted round
    for (i, round) in o.rounds.iter().enumerate() {
        let get = |key| show(round.get(key).copied());
        let mut fires: Vec<String> = s
            .faults
            .iter()
            .map(|&(point, ..)| format!("{point}={}", get(point)))
            .collect();
        fires.sort();
        let faulted = round.get("fault_rounds") == Some(&1.0);
        if faulted {
            fired.push(fires.join(", "));
        }
        out.push_str(&format!(
            "  round {} ({}): {}/{} answered, {} internal, {} busy, {} reconnects; fires {}\n",
            i + 1,
            if faulted { "faulted" } else { "clean" },
            get("answered"),
            get("requests"),
            get("internal"),
            get("busy"),
            get("reconnects"),
            fires.join(", "),
        ));
    }
    if fired.len() > 1 {
        let same = fired.windows(2).all(|w| w[0] == w[1]);
        let how = if same { "identically" } else { "DIFFERENTLY" };
        out.push_str(&format!("  every faulted round fired {how}\n"));
    }
    for note in &o.notes {
        out.push_str(&format!("  {note}\n"));
    }
    out.push_str(&format!("\n  {:<38} {:>14}  bound\n", "invariant", "value"));
    let mut broken = Vec::new();
    for row in s.checks() {
        let scopes: Vec<(String, &Values)> = if row.each_round {
            o.rounds
                .iter()
                .enumerate()
                .map(|(i, v)| (format!("{} [round {}]", row.key, i + 1), v))
                .collect()
        } else {
            vec![(row.key.to_owned(), &o.soak)]
        };
        if scopes.is_empty() {
            broken.push(format!("{}: no round ran", row.key));
        }
        for (label, values) in scopes {
            let (value, bound, holds) = s.eval(&row, values);
            let op = match row.op {
                Op::Eq => "==",
                Op::Ge => ">=",
                Op::Le => "<=",
                Op::Lt => "<",
            };
            let rhs = match row.rhs {
                Rhs::Num(_) => show(bound),
                Rhs::Key(key) => format!("{key} ({})", show(bound)),
                Rhs::Sum(keys) => format!("{} ({})", keys.join(" + "), show(bound)),
                Rhs::Cap(point) => format!("cap of {point} ({})", show(bound)),
                Rhs::Caps => format!("sum of caps ({})", show(bound)),
            };
            let line = format!("{label:<38} {:>14}  {op} {rhs}", show(value));
            out.push_str(&format!(
                "  {line}{}\n",
                if holds { "" } else { "   <- BROKEN" }
            ));
            if !holds {
                broken.push(line);
            }
        }
    }
    if broken.is_empty() {
        Ok(out)
    } else {
        Err(format!(
            "{} invariant(s) broken:\n  {}\n\n{out}",
            broken.len(),
            broken.join("\n  ")
        ))
    }
}

/// An outcome in which every row of `s` holds, derived from the table
/// itself: one faulted round, and passes over the rows until none is
/// broken, each broken row's key set to its bound (a missing bound key
/// reads 0) — except that a broken `<=`/`<` row with a key bound raises
/// that key, so every step raises a value and the passes converge.
#[cfg(test)]
pub(crate) fn healthy(s: &Scenario) -> Outcome {
    let faulted = Values::from([("fault_rounds", 1.0)]);
    let mut o = Outcome {
        rounds: vec![faulted.clone()],
        soak: faulted,
        notes: Vec::new(),
    };
    let mut broken = Vec::new();
    for _ in 0..32 {
        broken.clear();
        for row in s.checks() {
            let values = if row.each_round {
                &mut o.rounds[0]
            } else {
                &mut o.soak
            };
            for key in row.rhs.keys() {
                values.entry(key).or_insert(0.0);
            }
            let (value, Some(bound), false) = s.eval(&row, values) else {
                continue;
            };
            broken.push(row.key);
            let strict = flag(row.op == Op::Lt);
            match (row.rhs, value) {
                (Rhs::Key(key), Some(v)) if matches!(row.op, Op::Le | Op::Lt) => {
                    values.insert(key, v + strict)
                }
                _ => values.insert(row.key, bound - strict),
            };
        }
        if broken.is_empty() {
            return o;
        }
    }
    panic!("{}: rows still broken after 32 passes: {broken:?}", s.title);
}

/// Asserts that the healthy outcome passes and names every row, and
/// that breaking any one row — in the whole-soak values or in a round —
/// fails.
#[cfg(test)]
fn assert_every_row_is_enforced(s: &Scenario) {
    let healthy = healthy(s);
    let text = report(s, &healthy).unwrap_or_else(|e| panic!("healthy outcome fails: {e}"));
    for row in s.checks() {
        assert!(text.contains(row.key), "report misses {}", row.key);
        let mut broken = healthy.clone();
        let values = if row.each_round {
            &mut broken.rounds[0]
        } else {
            &mut broken.soak
        };
        let bound = s
            .eval(&row, values)
            .1
            .expect("healthy outcome has every bound");
        let sabotage = match row.op {
            Op::Eq | Op::Le => bound + 1.0,
            Op::Ge => bound - 1.0,
            Op::Lt => bound,
        };
        values.insert(row.key, sabotage);
        assert!(
            report(s, &broken).is_err(),
            "{} {:?} {:?} violation must be fatal",
            row.key,
            row.op,
            row.rhs
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCENARIOS: [&Scenario; 4] = [
        &chaos::SCENARIO,
        &telemetry::SCENARIO,
        &cluster::SCENARIO,
        &trace::SCENARIO,
    ];

    #[test]
    fn each_plan_fires_exactly_its_caps() {
        for s in SCENARIOS {
            let mut set = sram_faults::ActiveSet::new(&s.plan());
            for _ in 0..1_000 {
                for &(point, ..) in s.faults {
                    set.should_fire(point);
                }
            }
            let mut expected: Vec<(String, u64)> = s
                .faults
                .iter()
                .map(|&(point, cap, _)| (point.to_owned(), cap))
                .collect();
            expected.sort();
            assert_eq!(
                set.counts(),
                expected,
                "{}: caps bound every point",
                s.title
            );
        }
    }

    #[test]
    fn every_scenario_rejects_each_broken_invariant() {
        for s in SCENARIOS {
            assert_every_row_is_enforced(s);
        }
    }

    #[test]
    fn healthy_converges_when_a_later_row_raises_a_bound_key() {
        // `merged_p50 >= 1` raises p50 after the first row set p90 to
        // it; fixing the second row by lowering p90 would undo the first.
        const ROWS: &[Invariant] = &[
            inv("merged_p90", Op::Ge, Rhs::Key("merged_p50")),
            inv("merged_p90", Op::Le, Rhs::Key("merged_p99")),
            inv("merged_p50", Op::Ge, Rhs::Num(1.0)),
        ];
        let s = Scenario {
            invariants: ROWS,
            ..chaos::SCENARIO
        };
        report(&s, &healthy(&s)).unwrap_or_else(|e| panic!("healthy outcome fails: {e}"));
    }

    #[test]
    fn a_soak_without_rounds_fails_its_per_round_rows() {
        let s = &chaos::SCENARIO;
        let mut o = healthy(s);
        o.rounds.clear();
        let err = report(s, &o).unwrap_err();
        assert!(err.contains("answered: no round ran"), "{err}");
    }

    #[test]
    fn verdicts_rank_in_severity_order() {
        assert_eq!(verdict_rank("ok"), 0.0);
        assert!(verdict_rank("unhealthy") > verdict_rank("degraded"));
        assert!(verdict_rank("<missing>") < 0.0);
    }
}
