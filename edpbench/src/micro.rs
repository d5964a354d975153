//! Microbenchmarks of the public entry points of each layer: the layer
//! times of the traced run, each the median of repeated calls with its
//! min and max.

use std::hint::black_box;
use std::time::Instant;

use sram_array::{ArrayModel, ArrayOrganization, Capacity};
use sram_cell::{
    AssistVoltages, CellCharacterization, CellCharacterizer, CharacterizationGrid,
    MonteCarloConfig, Sram6t, YieldAnalyzer,
};
use sram_cluster::stitch::{self, AttemptPiece};
use sram_coopt::{CoOptimizationFramework, DesignSpace, EnergyDelayProduct, Method};
use sram_device::{DeviceLibrary, FinFet, VtFlavor};
use sram_probe::trace::TraceCtx;
use sram_probe::Snapshot;
use sram_serve::{CacheConfig, Client, Engine, Json, Request};
use sram_spice::DcSolver;
use sram_units::Voltage;

use crate::gen;
use crate::golden;
use crate::spans::Recorder;
use crate::stats::Spread;
use crate::workloads::{self, Workload};

/// How many calls each microbenchmark makes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Calls {
    /// Calls of a microbenchmark whose call takes under ~50 ms.
    pub(crate) light: usize,
    /// Calls of the searches and the rail minimization (~100–400 ms
    /// each), kept fewer so `edpbench all` stays under 2.5 minutes.
    pub(crate) heavy: usize,
    /// Capacity searched by `coopt.search_ms` and
    /// `coopt.parallel_efficiency`.
    pub(crate) search_bytes: usize,
    /// Router/direct pairs behind `cluster.hop_us`.
    pub(crate) hop_pairs: usize,
    /// Request lines parsed per `serve.parse_us` call.
    pub(crate) parse_lines: usize,
}

impl Calls {
    pub(crate) const DEFAULT: Calls = Calls {
        light: 31,
        heavy: 7,
        search_bytes: 16 * 1024,
        hop_pairs: 2_000,
        parse_lines: 1_500,
    };
}

/// One microbenchmark's result, in its metric's unit.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Micro {
    pub(crate) name: &'static str,
    pub(crate) unit: &'static str,
    pub(crate) spread: Spread,
}

/// Times `calls` calls of `f`, in seconds.
fn sample<T>(calls: usize, mut f: impl FnMut() -> Result<T, String>) -> Result<Vec<f64>, String> {
    (0..calls.max(1))
        .map(|_| {
            let t0 = Instant::now();
            black_box(f()?);
            Ok(t0.elapsed().as_secs_f64())
        })
        .collect()
}

/// Scales seconds to the metric's unit.
fn scaled(samples: Vec<f64>, factor: f64) -> Spread {
    Spread::of(samples.into_iter().map(|s| s * factor).collect())
}

/// Runs every microbenchmark. Fails on the first error a measured call
/// returns.
pub(crate) fn run(seed: u64, calls: Calls, rec: &mut Recorder) -> Result<Vec<Micro>, String> {
    let mut out = Vec::new();
    let mut push = |name, unit, spread| out.push(Micro { name, unit, spread });
    let lib = DeviceLibrary::sevennm();
    let vdd = lib.nominal_vdd();
    let flavor = VtFlavor::Hvt;
    let paper = CoOptimizationFramework::paper_mode();
    let rails = paper
        .rails(flavor, Method::M2)
        .map_err(|e| format!("paper rails: {e}"))?;
    // The HVT-M2 Table-4 operating point: paper rails, V_SSC = −240 mV.
    let bias = AssistVoltages::nominal(vdd)
        .with_vddc(rails.vddc)
        .with_vssc(Voltage::from_millivolts(-240.0))
        .with_vwl(rails.vwl);
    let chr = CellCharacterizer::new(&lib, flavor).with_vtc_points(31);

    // device: one call evaluates a 32×32 (V_GS, V_DS) grid on each of
    // the four devices.
    let devices: Vec<FinFet> = [VtFlavor::Lvt, VtFlavor::Hvt]
        .into_iter()
        .flat_map(|f| [lib.nfet(f).clone(), lib.pfet(f).clone()])
        .map(|params| FinFet::new(params, 1))
        .collect();
    let grid: Vec<Voltage> = (0..32).map(|k| vdd * (f64::from(k) / 31.0)).collect();
    let evaluations = (devices.len() * grid.len() * grid.len()) as f64;
    let samples = rec.span("device.ids", None, || {
        sample(calls.light, || {
            let mut total = 0.0;
            for device in &devices {
                for &vgs in &grid {
                    for &vds in &grid {
                        total += device.ids(black_box(vgs), black_box(vds)).amps();
                    }
                }
            }
            Ok(total)
        })
    })?;
    push("device.ids_ns", "ns", scaled(samples, 1e9 / evaluations));

    // spice: the DC operating point of the HVT hold netlist.
    let (circuit, _) = Sram6t::new(&lib, flavor).hold_circuit(&AssistVoltages::nominal(vdd), vdd);
    let solver = DcSolver::new();
    let samples = rec.span("spice.dc_solve", None, || {
        sample(calls.light, || {
            solver
                .solve(&circuit)
                .map_err(|e| format!("hold DC solve: {e}"))
        })
    })?;
    push("spice.dc_solve_us", "us", scaled(samples, 1e6));

    // cell
    let samples = rec.span("cell.read_snm", None, || {
        sample(calls.light, || {
            chr.read_snm(&bias).map_err(|e| format!("read SNM: {e}"))
        })
    })?;
    push("cell.read_snm_ms", "ms", scaled(samples, 1e3));
    let grid_spec = CharacterizationGrid::paper_default(rails.vddc, rails.vwl);
    let samples = rec.span("cell.characterize", None, || {
        sample(calls.light, || {
            CellCharacterization::characterize(&chr, &grid_spec)
                .map_err(|e| format!("characterize: {e}"))
        })
    })?;
    push("cell.characterize_ms", "ms", scaled(samples, 1e3));
    // Seeds from sim-stack's converging pool: about 1 varied cell in 500
    // fails the write-margin DC solve, which would fail the whole run.
    let mc_seeds = golden::sim_stack()?;
    let mut call = 0;
    let samples = rec.span("cell.mc_sample", None, || {
        sample(calls.light, || {
            call += 1;
            YieldAnalyzer::new(
                CellCharacterizer::new(&lib, flavor),
                MonteCarloConfig {
                    samples: 1,
                    seed: mc_seeds.mc_seed(seed, call),
                    vtc_points: 25,
                },
            )
            .run(&bias)
            .map_err(|e| format!("Monte Carlo sample: {e}"))
        })
    })?;
    push("cell.mc_sample_ms", "ms", scaled(samples, 1e3));

    // array: every coarse-space point of 4 KB HVT-M2.
    let cell = paper
        .characterize_cell(flavor, Method::M2)
        .map_err(|e| format!("paper LUT: {e}"))?;
    let coarse = DesignSpace::coarse();
    let mut points = Vec::new();
    for org in ArrayOrganization::enumerate(
        Capacity::from_bytes(4096),
        paper.word_bits(),
        coarse.rows_range(),
    ) {
        for &vssc in coarse.vssc_values() {
            for n_pre in coarse.npre_values() {
                for n_wr in coarse.nwr_values() {
                    points.push((org, vssc, n_pre, n_wr));
                }
            }
        }
    }
    let samples = rec.span("array.evaluate", None, || {
        sample(calls.light, || {
            let mut energy = 0.0;
            for &(org, vssc, n_pre, n_wr) in &points {
                energy += ArrayModel::new(org, &cell, paper.periphery(), paper.params())
                    .with_precharge_fins(n_pre)
                    .with_write_fins(n_wr)
                    .with_vssc(vssc)
                    .evaluate()
                    .map_err(|e| format!("array point: {e}"))?
                    .energy
                    .joules();
            }
            Ok(energy)
        })
    })?;
    push(
        "array.eval_ns",
        "ns",
        scaled(samples, 1e9 / points.len() as f64),
    );

    // coopt: the search at one thread and at nproc threads, and the
    // simulated rail minimization.
    let nproc = workloads::nproc();
    let search = |threads: usize| {
        let framework = CoOptimizationFramework::paper_mode().with_threads(threads);
        sample(calls.heavy, || {
            framework
                .optimize_with_cell(
                    &cell,
                    Capacity::from_bytes(calls.search_bytes),
                    flavor,
                    Method::M2,
                    &EnergyDelayProduct,
                )
                .map_err(|e| format!("search: {e}"))
        })
    };
    let one = rec.span("coopt.search", None, || search(1))?;
    let all = rec.span("coopt.search", None, || search(nproc))?;
    let efficiency = Spread::of(one.clone()).median / (nproc as f64 * Spread::of(all).median);
    push("coopt.search_ms", "ms", scaled(one, 1e3));
    push(
        "coopt.parallel_efficiency",
        "ratio",
        Spread::of(vec![efficiency]),
    );
    let simulated = CoOptimizationFramework::simulated_mode();
    let samples = rec.span("coopt.rails", None, || {
        sample(calls.heavy, || {
            simulated
                .rails(flavor, Method::M2)
                .map_err(|e| format!("simulated rails: {e}"))
        })
    })?;
    push("coopt.rails_ms", "ms", scaled(samples, 1e3));

    // serve
    let [lines, _] = gen::client_lines(Workload::ServeMixed, seed, calls.parse_lines);
    let samples = rec.span("serve.parse", None, || {
        sample(calls.light, || {
            lines
                .iter()
                .map(|l| Request::from_line(l).map_err(|e| format!("{l}: {e}")))
                .collect::<Result<Vec<_>, _>>()
        })
    })?;
    push(
        "serve.parse_us",
        "us",
        scaled(samples, 1e6 / lines.len() as f64),
    );
    let engine = Engine::new(
        CoOptimizationFramework::paper_mode().with_threads(1),
        CacheConfig::default(),
    );
    let request = Request::from_line(HIT_LINE).map_err(|e| e.to_string())?;
    let _ = engine.handle(&request);
    let samples = rec.span("serve.hit", None, || {
        sample(calls.light, || cache_hit(&engine.handle(&request)))
    })?;
    push("serve.hit_us", "us", scaled(samples, 1e6));
    let node = sram_serve::spawn_local_node("127.0.0.1:0", 2, 64)
        .map_err(|e| format!("node start: {e}"))?;
    let tcp = {
        let mut client = Client::connect(node.local_addr()).map_err(|e| e.to_string())?;
        let mut call = || {
            client
                .call_line(HIT_LINE)
                .map_err(|e| format!("node call: {e}"))
        };
        call()?;
        call()?;
        rec.span("serve.tcp_hit", None, || {
            sample(calls.light, || cache_hit(&call()?))
        })
    };
    node.shutdown();
    push("serve.tcp_hit_us", "us", scaled(tcp?, 1e6));

    // cluster
    let (hop, stitch_samples) = cluster(calls, rec)?;
    push("cluster.hop_us", "us", hop);
    push("cluster.stitch_us", "us", scaled(stitch_samples, 1e6));
    Ok(out)
}

/// The request every cache-hit microbenchmark repeats.
const HIT_LINE: &str = r#"{"op":"optimize","capacity_bytes":128,"flavor":"hvt","method":"m2"}"#;

/// `calls` warm cache hits sent straight to a fresh node; returns the
/// probe counters and histograms over them, so the caller must have the
/// probes on.
pub(crate) fn idle_node_hits(calls: usize) -> Result<Snapshot, String> {
    let node = sram_serve::spawn_local_node("127.0.0.1:0", 2, 64)
        .map_err(|e| format!("node start: {e}"))?;
    let result = (|| {
        let mut client = Client::connect(node.local_addr()).map_err(|e| e.to_string())?;
        let mut call = || {
            client
                .call_line(HIT_LINE)
                .map_err(|e| format!("node call: {e}"))
        };
        call()?;
        let before = sram_probe::snapshot();
        for _ in 0..calls.max(1) {
            cache_hit(&call()?)?;
        }
        Ok(sram_probe::snapshot().diff(&before))
    })();
    node.shutdown();
    result
}

fn cache_hit(reply: &Json) -> Result<(), String> {
    if reply.get("cached").and_then(Json::as_bool) == Some(true) {
        Ok(())
    } else {
        Err(format!("expected a cache hit: {}", reply.render()))
    }
}

/// The router hop (via-router minus direct round trip of the same warm
/// hit, in alternating order) and the stitching of traced replies, on
/// the cluster-hot cluster.
fn cluster(calls: Calls, rec: &mut Recorder) -> Result<(Spread, Vec<f64>), String> {
    let reference = workloads::coarse_reference()?;
    let cluster = workloads::Cluster::start()?;
    let result: Result<(Spread, Vec<f64>), String> = (|| {
        workloads::warm(cluster.addr(), &reference)?;
        let keys = gen::edp_keys();
        let mut via = Client::connect(cluster.addr()).map_err(|e| e.to_string())?;
        let reply = via
            .call_line(&keys[0])
            .map_err(|e| format!("router call: {e}"))?;
        let owner = reply
            .get("node")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("router reply names no node: {}", reply.render()))?;
        let mut direct = Client::connect(owner).map_err(|e| e.to_string())?;
        let hit = |client: &mut Client| -> Result<f64, String> {
            let t0 = Instant::now();
            let reply = client
                .call_line(&keys[0])
                .map_err(|e| format!("hop call: {e}"))?;
            let elapsed = t0.elapsed().as_secs_f64();
            cache_hit(&reply)?;
            Ok(elapsed)
        };
        hit(&mut direct)?;
        let hops = rec.span("cluster.hop", None, || {
            (0..calls.hop_pairs.max(1))
                .map(|i| {
                    let (routed, straight) = if i % 2 == 0 {
                        (hit(&mut via)?, hit(&mut direct)?)
                    } else {
                        let straight = hit(&mut direct)?;
                        (hit(&mut via)?, straight)
                    };
                    Ok((routed - straight) * 1e6)
                })
                .collect::<Result<Vec<f64>, String>>()
        })?;

        let mut pieces = Vec::new();
        for (i, key) in keys.iter().cycle().take(calls.light.max(1)).enumerate() {
            let line = gen::traced(key);
            let reply = via
                .call_line(&line)
                .map_err(|e| format!("traced call {i}: {e}"))?;
            let tree = reply
                .get("trace")
                .ok_or_else(|| format!("traced reply without a tree: {}", reply.render()))?;
            pieces.push(rebuild(tree)?);
        }
        let mut next = pieces.iter().cycle();
        let stitches = rec.span("cluster.stitch", None, || {
            sample(calls.light, || {
                let (ctx, total_ns, attempts) =
                    next.next().ok_or_else(|| "no traced replies".to_owned())?;
                let tree = stitch::stitch(ctx, *total_ns, attempts);
                stitch::validate(&tree)
            })
        })?;
        Ok((Spread::of(hops), stitches))
    })();
    cluster.shutdown();
    result
}

/// The attempt pieces a router stitched into `tree`, rebuilt from the
/// reply so the stitch can be timed on its own.
fn rebuild(tree: &Json) -> Result<(TraceCtx, u64, Vec<AttemptPiece>), String> {
    let malformed = || format!("malformed stitched tree: {}", tree.render());
    let trace_id = tree
        .get("trace_id")
        .and_then(Json::as_str)
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        .ok_or_else(malformed)?;
    let ctx = TraceCtx {
        trace_id,
        parent_span: tree
            .get("root_span")
            .and_then(Json::as_u64)
            .ok_or_else(malformed)?,
        sampled: true,
    };
    let total_ns = tree
        .get("dur_ns")
        .and_then(Json::as_u64)
        .ok_or_else(malformed)?;
    let attempts = tree
        .get("children")
        .and_then(Json::as_array)
        .ok_or_else(malformed)?
        .iter()
        .map(|attempt| {
            let via = match attempt.get("via").and_then(Json::as_str) {
                Some("primary") => "primary",
                Some("hedge") => "hedge",
                Some("failover") => "failover",
                _ => return Err(malformed()),
            };
            Ok(AttemptPiece {
                node: attempt
                    .get("node")
                    .and_then(Json::as_str)
                    .ok_or_else(malformed)?
                    .to_owned(),
                via,
                hedge_loser: attempt
                    .get("hedge_loser")
                    .and_then(Json::as_bool)
                    .unwrap_or(false),
                send_ns: attempt.get("start_ns").and_then(Json::as_u64).unwrap_or(0),
                rtt_ns: attempt.get("dur_ns").and_then(Json::as_u64).unwrap_or(0),
                tree: attempt
                    .get("children")
                    .and_then(Json::as_array)
                    .and_then(|c| c.first())
                    .cloned(),
                error: attempt
                    .get("error")
                    .and_then(Json::as_str)
                    .map(str::to_owned),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok((ctx, total_ns, attempts))
}
