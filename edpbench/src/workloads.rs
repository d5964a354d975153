//! The four workloads: set-up, the timed ops, and the check of every
//! output each op returns.
//!
//! | workload | one op | what does the work |
//! |---|---|---|
//! | `table4-full` | the M1 and M2 Table-4 rows of one (capacity, flavor), full space, `nproc` threads | array model + exhaustive search |
//! | `sim-stack` | characterize + coarse 4 KB search + Monte Carlo for one (flavor, method) pair | device, MNA solver, VTC/butterfly, Monte Carlo |
//! | `serve-mixed` | one request to one server: optimize / evaluate-point / pareto-front | first-touch searches and the result cache |
//! | `cluster-hot` | one all-hit request through a router to two nodes, 1 in 64 traced | router hop, TCP, serve parse/cache, stitching |
//!
//! Op counts are fixed per run (not durations), so both sides of a
//! comparison do the same work.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use sram_array::Capacity;
use sram_cell::{AssistVoltages, CellCharacterizer, MonteCarloConfig, YieldAnalyzer};
use sram_cluster::{Router, RouterConfig};
use sram_coopt::{CoOptimizationFramework, DesignSpace, EnergyDelayProduct, Method};
use sram_device::{DeviceLibrary, VtFlavor};
use sram_probe::Snapshot;
use sram_serve::{CacheConfig, Client, Engine, Json, Request, Server, ServerConfig};

use crate::gen::{self, CLIENTS};
use crate::golden::{self, SimOutput, Table4Row};
use crate::spans::{Recorder, SelfTimes};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Workload {
    Table4Full,
    SimStack,
    ServeMixed,
    ClusterHot,
}

impl Workload {
    pub(crate) const ALL: [Workload; 4] = [
        Workload::Table4Full,
        Workload::SimStack,
        Workload::ServeMixed,
        Workload::ClusterHot,
    ];

    pub(crate) fn name(self) -> &'static str {
        match self {
            Workload::Table4Full => "table4-full",
            Workload::SimStack => "sim-stack",
            Workload::ServeMixed => "serve-mixed",
            Workload::ClusterHot => "cluster-hot",
        }
    }

    pub(crate) fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether every call runs on the benchmark thread, so in-program
    /// spans can be drained between calls (the network workloads run
    /// theirs on server threads).
    pub(crate) fn drains_spans(self) -> bool {
        matches!(self, Workload::Table4Full | Workload::SimStack)
    }
}

/// How much work one run does.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Size {
    pub(crate) table4_passes: usize,
    pub(crate) sim_cycles: usize,
    pub(crate) mc_samples: usize,
    pub(crate) serve_per_client: usize,
    pub(crate) cluster_per_client: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub(crate) setup_reps: usize,
}

impl Size {
    /// The run length that takes about `seconds` per workload on a
    /// 2-core box (10 s: 10 Table-4 passes of 10 ops, 10 sim-stack
    /// cycles of 4 ops, 2 × 1,500 serve-mixed and 2 × 40,000
    /// cluster-hot requests).
    pub(crate) fn for_seconds(seconds: u32) -> Self {
        let s = seconds.max(1) as usize;
        Self {
            table4_passes: s,
            sim_cycles: s,
            mc_samples: 16,
            serve_per_client: 150 * s,
            cluster_per_client: 4_000 * s,
            setup_reps: 5,
        }
    }

    /// A quarter of the ops and a single set-up: the traced run.
    pub(crate) fn quarter(self) -> Self {
        Self {
            table4_passes: self.table4_passes.div_ceil(4),
            sim_cycles: self.sim_cycles.div_ceil(4),
            serve_per_client: self.serve_per_client.div_ceil(4),
            cluster_per_client: self.cluster_per_client.div_ceil(4),
            setup_reps: 1,
            ..self
        }
    }
}

/// Most failure messages kept per run (the count is always exact).
const MAX_REPORTED: usize = 20;

/// What one run of a workload did.
#[derive(Debug, Default)]
pub(crate) struct Outcome {
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
    pub(crate) failures: Vec<String>,
    pub(crate) latencies_ms: Vec<f64>,
    pub(crate) wall_s: f64,
    pub(crate) setup_s: Vec<f64>,
    /// Replies that carried a `cached` flag, and how many were hits.
    pub(crate) replies: u64,
    pub(crate) hits: u64,
    pub(crate) busy_replies: u64,
    /// In-program self time per layer (drained runs only).
    pub(crate) self_times: SelfTimes,
    /// Per-op outputs (sim-stack).
    pub(crate) outputs: Vec<Json>,
    /// Probe counters and histograms over the timed ops (set-up
    /// excluded).
    pub(crate) probes: Snapshot,
}

impl Outcome {
    /// Records one op that began at `t0`.
    fn record(&mut self, t0: Instant, result: Result<(), String>) {
        self.attempted += 1;
        self.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if let Err(message) = result {
            self.failed += 1;
            if self.failures.len() < MAX_REPORTED {
                self.failures.push(message);
            }
        }
    }

    fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = MAX_REPORTED.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.into_iter().take(room));
        self.latencies_ms.extend(other.latencies_ms);
        self.replies += other.replies;
        self.hits += other.hits;
        self.busy_replies += other.busy_replies;
    }
}

pub(crate) fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// The timed part of a run: wall time and the probe counters over it.
struct Clock {
    started: Instant,
    before: Snapshot,
}

impl Clock {
    /// Starts timing; a traced run first drops the set-up's spans.
    fn start(traced: bool) -> Self {
        if traced {
            sram_probe::trace::clear();
        }
        let before = sram_probe::snapshot();
        Self {
            started: Instant::now(),
            before,
        }
    }

    fn stop(self, out: &mut Outcome) {
        out.wall_s = self.started.elapsed().as_secs_f64();
        out.probes = sram_probe::snapshot().diff(&self.before);
    }
}

/// Runs `setup` `reps` times, timing each, and keeps the last fixture;
/// `teardown` disposes of the others outside the timed region.
fn set_up<T>(
    reps: usize,
    times: &mut Vec<f64>,
    mut setup: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T),
) -> Result<T, String> {
    let mut kept = None;
    for _ in 0..reps.max(1) {
        if let Some(old) = kept.take() {
            teardown(old);
        }
        let t0 = Instant::now();
        kept = Some(setup()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    kept.ok_or_else(|| "no set-up ran".to_owned())
}

/// Runs one workload. With `traced`, in-program spans are drained
/// between calls (compute workloads) and `rec` records the benchmark's
/// own spans; the caller sets the probe level and the trace switch.
pub(crate) fn run(
    workload: Workload,
    seed: u64,
    size: Size,
    traced: bool,
    rec: &mut Recorder,
) -> Result<Outcome, String> {
    match workload {
        Workload::Table4Full => table4_full(size, traced, rec),
        Workload::SimStack => sim_stack(seed, size, traced, rec),
        Workload::ServeMixed => serve_mixed(seed, size, rec),
        Workload::ClusterHot => cluster_hot(seed, size, rec),
    }
}

/// The four `(flavor, method)` pairs, in Table-4 order.
const PAIRS: [(VtFlavor, Method); 4] = [
    (VtFlavor::Lvt, Method::M1),
    (VtFlavor::Lvt, Method::M2),
    (VtFlavor::Hvt, Method::M1),
    (VtFlavor::Hvt, Method::M2),
];

/// Table-4 row `row` as `(bytes, flavor, method)`, in
/// `optimize_table4` order.
fn table4_key(row: usize) -> (usize, VtFlavor, Method) {
    const CAPACITIES: [usize; 5] = [128, 256, 1024, 4096, 16 * 1024];
    let (flavor, method) = PAIRS[row % PAIRS.len()];
    (CAPACITIES[row / PAIRS.len()], flavor, method)
}

/// Table-4 rows per op: the M1 and M2 optima of one (capacity, flavor).
/// A single row would split the ops into two equal groups an order of
/// magnitude apart (M1 rows ~5 ms, M2 rows ~100 ms, since M1 searches
/// only V_SSC = 0), which puts the median on the gap between them.
const ROWS_PER_OP: usize = 2;

/// One op is the M1 and M2 Table-4 rows of one (capacity, flavor) over
/// the full Section-5 space, each checked against the golden table.
/// Each pass runs the 20 rows the way `optimize_table4()` does: in its
/// order, on one fresh framework, so each (flavor, method) LUT is built
/// once per pass. Set-up warms the search with the costliest row.
fn table4_full(size: Size, traced: bool, rec: &mut Recorder) -> Result<Outcome, String> {
    let threads = nproc();
    let fresh = || CoOptimizationFramework::paper_mode().with_threads(threads);
    let mut out = Outcome::default();
    let golden = set_up(
        size.setup_reps,
        &mut out.setup_s,
        || {
            let golden = golden::table4()?;
            let last = golden
                .len()
                .checked_sub(1)
                .ok_or("golden table4.csv is empty")?;
            let (bytes, flavor, method) = table4_key(last);
            let warm = fresh()
                .optimize(Capacity::from_bytes(bytes), flavor, method)
                .map_err(|e| format!("warm-up row: {e}"))?;
            golden::check_design(&warm, &golden[last])?;
            Ok(golden)
        },
        drop,
    )?;

    let clock = Clock::start(traced);
    for _ in 0..size.table4_passes {
        let mut framework = fresh();
        for first in (0..golden.len()).step_by(ROWS_PER_OP) {
            let t0 = Instant::now();
            let parent = rec.open("bench.table4_op", None);
            let mut checked = Ok(());
            for (row, reference) in golden.iter().enumerate().skip(first).take(ROWS_PER_OP) {
                let (bytes, flavor, method) = table4_key(row);
                let design = rec.span("coopt.optimize", parent, || {
                    framework.optimize(Capacity::from_bytes(bytes), flavor, method)
                });
                checked = checked.and(
                    design
                        .map_err(|e| format!("row {row}: optimize: {e}"))
                        .and_then(|design| golden::check_design(&design, reference)),
                );
            }
            rec.close(parent);
            out.record(t0, checked);
            if traced {
                out.self_times.drain();
            }
        }
    }
    clock.stop(&mut out);
    Ok(out)
}

/// One `(flavor, method)` step on a fresh simulated framework:
/// characterize the pair (rail minimization + LUT build), search the
/// coarse 4 KB space on that LUT, then a Monte Carlo yield run at the
/// optimum's rails. Step `op` runs pair `op % 4`.
fn sim_op(
    mc_seed: u64,
    op: usize,
    size: Size,
    traced: bool,
    rec: &mut Recorder,
    parent: Option<usize>,
    self_times: &mut SelfTimes,
) -> Result<SimOutput, String> {
    let (flavor, method) = PAIRS[op % PAIRS.len()];
    let mut drain = || {
        if traced {
            self_times.drain();
        }
    };
    let framework = CoOptimizationFramework::simulated_mode().with_space(DesignSpace::coarse());
    let cell = rec
        .span("coopt.characterize_cell", parent, || {
            framework.characterize_cell(flavor, method)
        })
        .map_err(|e| format!("op {op}: characterize: {e}"))?;
    drain();
    let design = rec
        .span("coopt.optimize_with_cell", parent, || {
            framework.optimize_with_cell(
                &cell,
                Capacity::from_bytes(4096),
                flavor,
                method,
                &EnergyDelayProduct,
            )
        })
        .map_err(|e| format!("op {op}: optimize: {e}"))?;
    drain();
    let bias = AssistVoltages::nominal(framework.vdd())
        .with_vddc(design.vddc)
        .with_vssc(design.vssc)
        .with_vwl(design.vwl);
    let analyzer = YieldAnalyzer::new(
        CellCharacterizer::new(&DeviceLibrary::sevennm(), flavor).with_vdd(framework.vdd()),
        MonteCarloConfig {
            samples: size.mc_samples,
            seed: mc_seed,
            vtc_points: 25,
        },
    );
    let mc = rec
        .span("cell.yield_run", parent, || analyzer.run(&bias))
        .map_err(|e| format!("op {op}: Monte Carlo: {e}"))?;
    drain();
    let stats = |m: sram_cell::MarginStats| [m.mean.millivolts(), m.sigma.millivolts()];
    Ok(SimOutput {
        rails_mv: [design.vddc.millivolts(), design.vwl.millivolts()],
        optimum: [
            f64::from(design.organization.rows()),
            f64::from(design.organization.cols()),
            f64::from(design.n_pre),
            f64::from(design.n_wr),
            design.vssc.millivolts(),
        ],
        mc_mv: [stats(mc.hsnm), stats(mc.rsnm), stats(mc.wm)],
    })
}

fn sim_stack(seed: u64, size: Size, traced: bool, rec: &mut Recorder) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let golden = set_up(
        size.setup_reps,
        &mut out.setup_s,
        || {
            let golden = golden::sim_stack()?;
            let (flavor, method) = PAIRS[PAIRS.len() - 1];
            CoOptimizationFramework::simulated_mode()
                .with_space(DesignSpace::coarse())
                .characterize_cell(flavor, method)
                .map_err(|e| format!("warm-up characterization: {e}"))?;
            Ok(golden)
        },
        drop,
    )?;

    let clock = Clock::start(traced);
    for op in 0..size.sim_cycles * PAIRS.len() {
        let t0 = Instant::now();
        let parent = rec.open("bench.sim_step", None);
        let mc_seed = golden.mc_seed(seed, op);
        let checked =
            sim_op(mc_seed, op, size, traced, rec, parent, &mut out.self_times).and_then(|got| {
                out.outputs.push(got.to_json());
                golden.check(seed, size.mc_samples, op, PAIRS.len(), &got)
            });
        rec.close(parent);
        out.record(t0, checked);
    }
    clock.stop(&mut out);
    Ok(out)
}

/// What a client checks each reply against.
struct Expect<'a> {
    /// Canonical key → rendered result. Keys missing here are learned
    /// from their first reply.
    reference: &'a BTreeMap<String, String>,
    /// Canonical key → golden Table-4 row (serve-mixed's full-space
    /// EDP keys).
    table4: &'a BTreeMap<String, Table4Row>,
}

/// One client's closed loop over its lines.
fn drive(
    mut client: Client,
    lines: &[(String, String)],
    expect: &Expect<'_>,
    mut rec: Recorder,
    span_name: &'static str,
) -> (Outcome, Recorder) {
    let mut out = Outcome::default();
    let mut first: BTreeMap<&str, String> = BTreeMap::new();
    for (line, key) in lines {
        let t0 = Instant::now();
        let reply = rec.span(span_name, None, || client.call_line(line));
        let checked = reply
            .map_err(|e| format!("{line}: transport: {e}"))
            .and_then(|reply| check_reply(&reply, line, key, expect, &mut first, &mut out));
        out.record(t0, checked);
    }
    (out, rec)
}

fn check_reply<'k>(
    reply: &Json,
    line: &str,
    key: &'k str,
    expect: &Expect<'_>,
    first: &mut BTreeMap<&'k str, String>,
    out: &mut Outcome,
) -> Result<(), String> {
    let status = reply.get("status").and_then(Json::as_str).unwrap_or("");
    if status == "busy" {
        out.busy_replies += 1;
    }
    if status != "ok" {
        return Err(format!("{line}: {}", reply.render()));
    }
    if let Some(cached) = reply.get("cached").and_then(Json::as_bool) {
        out.replies += 1;
        out.hits += u64::from(cached);
    }
    let result = reply
        .get("result")
        .ok_or_else(|| format!("{line}: reply without result"))?;
    let rendered = result.render();
    let expected = match expect.reference.get(key) {
        Some(reference) => reference,
        None => first.entry(key).or_insert_with(|| rendered.clone()),
    };
    if rendered != *expected {
        return Err(format!("{line}: result {rendered} differs from {expected}"));
    }
    if let Some(row) = expect.table4.get(key) {
        golden::check_result(result, row)?;
    }
    if let Some(tree) = reply.get("trace") {
        sram_cluster::stitch::validate(tree).map_err(|e| format!("{line}: stitched trace: {e}"))?;
    }
    Ok(())
}

/// Pairs each line with its canonical cache key.
fn keyed(lines: Vec<String>) -> Result<Vec<(String, String)>, String> {
    lines
        .into_iter()
        .map(|line| canonical(&line).map(|key| (line, key)))
        .collect()
}

fn canonical(line: &str) -> Result<String, String> {
    Ok(Request::from_line(line)
        .map_err(|e| format!("{line}: {e}"))?
        .query
        .canonical())
}

/// Runs the clients on scoped threads, one connection each; returns
/// the merged outcome and the clients' spans.
fn closed_loop(
    clients: Vec<Client>,
    lines: &[Vec<(String, String)>],
    expect: &Expect<'_>,
    rec: &mut Recorder,
    span_name: &'static str,
) -> Outcome {
    let clock = Clock::start(false);
    let lanes: Vec<(Outcome, Recorder)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(lines)
            .map(|(client, lines)| {
                let lane_rec = rec.fork();
                scope.spawn(move || drive(client, lines, expect, lane_rec, span_name))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    let mut lost = Outcome::default();
                    lost.record(Instant::now(), Err("client thread panicked".into()));
                    (lost, Recorder::new(Instant::now(), false))
                })
            })
            .collect()
    });
    let mut out = Outcome::default();
    clock.stop(&mut out);
    for (lane, lane_rec) in lanes {
        out.absorb(lane);
        rec.absorb(lane_rec);
    }
    out
}

fn connect(addr: std::net::SocketAddr) -> Result<Vec<Client>, String> {
    (0..CLIENTS)
        .map(|_| Client::connect(addr).map_err(|e| format!("connect {addr}: {e}")))
        .collect()
}

/// One server (default config, paper-model engine over the full space,
/// one search thread per request, no cache file) and two clients.
fn serve_mixed(seed: u64, size: Size, rec: &mut Recorder) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let (server, clients, lines, table4) = set_up(
        size.setup_reps,
        &mut setup_s,
        || {
            let lines = gen::client_lines(Workload::ServeMixed, seed, size.serve_per_client)
                .into_iter()
                .map(keyed)
                .collect::<Result<Vec<_>, _>>()?;
            let golden = golden::table4()?;
            let mut table4 = BTreeMap::new();
            for (row, reference) in golden.into_iter().enumerate() {
                let (bytes, flavor, method) = table4_key(row);
                let line = format!(
                    r#"{{"op":"optimize","capacity_bytes":{bytes},"flavor":"{}","method":"{}"}}"#,
                    if flavor == VtFlavor::Lvt {
                        "lvt"
                    } else {
                        "hvt"
                    },
                    if method == Method::M1 { "m1" } else { "m2" },
                );
                table4.insert(canonical(&line)?, reference);
            }
            let engine = Arc::new(Engine::new(
                CoOptimizationFramework::paper_mode().with_threads(1),
                CacheConfig::default(),
            ));
            let server = Server::start(engine, ServerConfig::default())
                .map_err(|e| format!("server start: {e}"))?;
            let clients = connect(server.local_addr())?;
            Ok((server, clients, lines, table4))
        },
        |(server, clients, _, _)| {
            drop(clients);
            server.shutdown();
        },
    )?;
    let reference = BTreeMap::new();
    let expect = Expect {
        reference: &reference,
        table4: &table4,
    };
    let mut out = closed_loop(clients, &lines, &expect, rec, "serve.call");
    out.setup_s = setup_s;
    server.shutdown();
    Ok(out)
}

pub(crate) struct Cluster {
    nodes: Vec<Server>,
    router: Router,
}

impl Cluster {
    /// Two coarse-space nodes (2 workers, queue 64) behind a router
    /// with the default config (2 replicas).
    pub(crate) fn start() -> Result<Self, String> {
        let nodes = (0..2)
            .map(|_| {
                sram_serve::spawn_local_node("127.0.0.1:0", 2, 64)
                    .map_err(|e| format!("node start: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let router = Router::start(RouterConfig {
            nodes: nodes.iter().map(|n| n.local_addr().to_string()).collect(),
            ..RouterConfig::default()
        })
        .map_err(|e| format!("router start: {e}"))?;
        Ok(Self { nodes, router })
    }

    pub(crate) fn addr(&self) -> std::net::SocketAddr {
        self.router.local_addr()
    }

    pub(crate) fn shutdown(self) {
        self.router.shutdown();
        for node in self.nodes {
            node.shutdown();
        }
    }
}

/// The expected result of every EDP key: an in-process engine with the
/// nodes' configuration (paper model, coarse space).
pub(crate) fn coarse_reference() -> Result<BTreeMap<String, String>, String> {
    let engine = Engine::new(
        CoOptimizationFramework::paper_mode().with_space(DesignSpace::coarse()),
        CacheConfig::default(),
    );
    gen::edp_keys()
        .iter()
        .map(|line| {
            let request = Request::from_line(line).map_err(|e| format!("{line}: {e}"))?;
            let reply = engine.handle(&request);
            let result = reply
                .get("result")
                .filter(|_| reply.get("status").and_then(Json::as_str) == Some("ok"))
                .ok_or_else(|| format!("reference engine: {line}: {}", reply.render()))?;
            Ok((request.query.canonical(), result.render()))
        })
        .collect()
}

/// Sends every EDP key once through the router, checking each result.
pub(crate) fn warm(
    addr: std::net::SocketAddr,
    reference: &BTreeMap<String, String>,
) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    for line in gen::edp_keys() {
        let reply = client
            .call_line(&line)
            .map_err(|e| format!("warm-up {line}: {e}"))?;
        let result = reply.get("result").map(Json::render);
        if result.as_ref() != reference.get(&canonical(&line)?) {
            return Err(format!("warm-up {line}: {}", reply.render()));
        }
    }
    Ok(())
}

fn cluster_hot(seed: u64, size: Size, rec: &mut Recorder) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let (cluster, clients, lines, reference) = set_up(
        size.setup_reps,
        &mut setup_s,
        || {
            let lines = gen::client_lines(Workload::ClusterHot, seed, size.cluster_per_client)
                .into_iter()
                .map(keyed)
                .collect::<Result<Vec<_>, _>>()?;
            let reference = coarse_reference()?;
            let cluster = Cluster::start()?;
            warm(cluster.addr(), &reference)?;
            let clients = connect(cluster.addr())?;
            Ok((cluster, clients, lines, reference))
        },
        |(cluster, clients, _, _)| {
            drop(clients);
            cluster.shutdown();
        },
    )?;
    let table4 = BTreeMap::new();
    let expect = Expect {
        reference: &reference,
        table4: &table4,
    };
    let mut out = closed_loop(clients, &lines, &expect, rec, "cluster.call");
    out.setup_s = setup_s;
    cluster.shutdown();
    Ok(out)
}
