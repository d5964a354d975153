//! `edpbench` — the end-to-end benchmark of the SRAM EDP stack, with a
//! per-layer ledger from a separate traced run. `README.md` in this
//! directory defines the workloads and metrics and how to read them.
//!
//! ```text
//! edpbench run --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! edpbench all [--seed N] [--seconds S] [--out-dir DIR]
//! ```
//!
//! `run` measures one workload in this process and prints every metric
//! as `workload metric value unit`, then one JSON line
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics untraced, the per-layer metrics with `--trace 1`
//! (`--traced`). `all` re-executes itself once per workload, untraced
//! then traced, because probe and trace state is process-global.

mod gen;
mod golden;
mod micro;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use sram_probe::{HistogramSnapshot, Level, Snapshot};
use sram_serve::Json;

use micro::{Calls, Micro};
use spans::Recorder;
use stats::Spread;
use workloads::{Outcome, Size, Workload};

/// Environment knobs that change what a run measures; any of them set
/// (exactly, or as a prefix) makes the benchmark refuse to run.
const GUARDED_ENV: [&str; 8] = [
    "SRAM_FAULTS",
    "SRAM_PROBE",
    "SRAM_TRACE",
    "SRAM_TELEMETRY_",
    "SRAM_CLUSTER_",
    "SRAM_SLO_",
    "SRAM_LOG",
    "SRAM_CACHE_FILE",
];

const USAGE: &str = "usage:
  edpbench run --workload <table4-full|sim-stack|serve-mixed|cluster-hot> [--seed N] [--seconds S] [--trace 0|1 | --traced] [--out FILE]
  edpbench all [--seed N] [--seconds S] [--out-dir DIR]";

fn main() -> ExitCode {
    if let Some(var) = guarded_env() {
        eprintln!(
            "edpbench: {var} is set; unset every SRAM_FAULTS, SRAM_PROBE, SRAM_TRACE*, \
             SRAM_TELEMETRY*, SRAM_CLUSTER_*, SRAM_SLO*, SRAM_LOG* and SRAM_CACHE_FILE \
             variable so the run measures the default configuration"
        );
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("edpbench: {message}");
            ExitCode::FAILURE
        }
    }
}

fn guarded_env() -> Option<String> {
    std::env::vars_os()
        .filter_map(|(name, _)| name.into_string().ok())
        .find(|name| GUARDED_ENV.iter().any(|g| name.starts_with(g)))
}

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u32,
    traced: bool,
    out: Option<PathBuf>,
    out_dir: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: 10,
        traced: false,
        out: None,
        out_dir: PathBuf::from("target/edpbench"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload = Some(
                    Workload::parse(name)
                        .ok_or_else(|| format!("unknown workload {name:?}\n{USAGE}"))?,
                );
            }
            "--seed" => {
                parsed.seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_owned())?;
            }
            "--seconds" => {
                parsed.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or("--seconds needs a whole number from 1 to 600")?;
            }
            "--trace" => {
                parsed.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--traced" => parsed.traced = true,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            "--out-dir" => parsed.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unexpected argument {other:?}\n{USAGE}")),
        }
    }
    Ok(parsed)
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    match args.split_first() {
        Some((command, rest)) if command == "run" => run_command(&parse_args(rest)?),
        Some((command, rest)) if command == "all" => all_command(&parse_args(rest)?),
        _ => Err(USAGE.to_owned()),
    }
}

/// One metric as reported: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// The result of one `run`: what the result line reports plus the
/// details written to `--out`.
struct Record {
    workload: Workload,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    details: Vec<(String, Json)>,
}

impl Record {
    /// A record over one or more runs of `workload` (a traced run also
    /// counts its untraced baseline's ops).
    fn new(workload: Workload, outcomes: &[&Outcome], mut metrics: Vec<Metric>) -> Self {
        metrics.sort_by_key(|m| m.0);
        let failures = outcomes
            .iter()
            .flat_map(|o| o.failures.iter().map(|f| Json::Str(f.clone())))
            .collect();
        Self {
            workload,
            attempted: outcomes.iter().map(|o| o.attempted).sum(),
            failed: outcomes.iter().map(|o| o.failed).sum(),
            metrics,
            details: vec![("failures".into(), Json::Arr(failures))],
        }
    }

    fn detail(&mut self, key: &str, value: Json) {
        self.details.push((key.to_owned(), value));
    }

    fn metrics_json(&self) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|&(name, value, unit)| {
                    (
                        name.to_owned(),
                        Json::Obj(vec![
                            ("value".into(), Json::Num(value)),
                            ("unit".into(), Json::Str(unit.into())),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// The last stdout line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    fn summary(&self) -> Json {
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.failed == 0)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), self.metrics_json()),
        ])
    }

    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("workload".into(), Json::Str(self.workload.name().into())),
            ("correct".into(), Json::Bool(self.failed == 0)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            (
                "error_rate".into(),
                Json::Num(self.failed as f64 / self.attempted.max(1) as f64),
            ),
            ("metrics".into(), self.metrics_json()),
        ];
        pairs.extend(self.details.iter().cloned());
        Json::Obj(pairs)
    }
}

fn loadavg() -> Json {
    let text = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    Json::Arr(
        text.split_whitespace()
            .take(3)
            .filter_map(|v| v.parse().ok())
            .map(Json::Num)
            .collect(),
    )
}

/// Peak resident set (`VmHWM`) of this process, MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status for VmHWM: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// End-to-end metrics: tracing off, probes at their default. The median
/// latency goes into the run record only: serve-mixed's is a cache hit
/// taken almost entirely in the run's last 1–2 s, at a level (~25 µs or
/// ~55–75 µs) that holds for seconds and so is drawn about once per run
/// (README, Bounds).
fn untraced_run(workload: Workload, seed: u64, size: Size) -> Result<Record, String> {
    let mut rec = Recorder::new(Instant::now(), false);
    let outcome = workloads::run(workload, seed, size, false, &mut rec)?;
    let latencies = stats::sorted(outcome.latencies_ms.clone());
    let p50 = stats::nearest_rank(&latencies, 50).ok_or("the run attempted no ops")?;
    let (p99, p99_share) = stats::tail(&latencies).ok_or("the run attempted no ops")?;
    let metrics = vec![
        ("setup_s", Spread::of(outcome.setup_s.clone()).median, "s"),
        (
            "ops_per_s",
            outcome.attempted as f64 / outcome.wall_s,
            "op/s",
        ),
        ("p99_ms", p99, "ms"),
        ("peak_rss_mb", peak_rss_mb()?, "MiB"),
    ];
    let mut record = Record::new(workload, &[&outcome], metrics);
    let nums = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect());
    record.detail("p50_ms", Json::Num(p50));
    record.detail("latencies_ms", nums(&outcome.latencies_ms));
    record.detail("p99_ms_share_at_or_below", Json::Num(p99_share));
    record.detail("setup_samples_s", nums(&outcome.setup_s));
    record.detail("wall_s", Json::Num(outcome.wall_s));
    if !outcome.outputs.is_empty() {
        record.detail("outputs", Json::Arr(outcome.outputs.clone()));
    }
    Ok(record)
}

/// The tail (ms, [`stats::log2_tail`]) of the samples of several
/// nanosecond histograms taken together.
fn merged_tail_ms(histograms: &[Option<&HistogramSnapshot>]) -> f64 {
    let mut buckets = std::collections::BTreeMap::new();
    for &(bucket, count) in histograms.iter().flatten().flat_map(|h| &h.buckets) {
        *buckets.entry(bucket).or_insert(0) += count;
    }
    let buckets: Vec<(u32, u64)> = buckets.into_iter().collect();
    stats::log2_tail(&buckets).map_or(0.0, |ns| ns / 1e6)
}

const QUEUE_WAIT: &str = "serve.request.queue_wait_ns";

/// The per-layer metrics of one traced run. `base` is the same quarter
/// run untraced, `traced` the traced one; `idle_waits` holds the probes
/// over [`micro::idle_node_hits`], which add a few queue waits to every
/// workload, so that table4-full and sim-stack, which send no requests,
/// also measure one.
fn per_layer(
    workload: Workload,
    base: &Outcome,
    traced: &Outcome,
    idle_waits: &Snapshot,
    capture: Spread,
    micros: &[Micro],
) -> Vec<Metric> {
    let delta = &traced.probes;
    let ops = traced.attempted.max(1) as f64;
    let count = |name: &str| delta.counters.get(name).copied().unwrap_or(0) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let seconds = |names: &[&str]| {
        names
            .iter()
            .filter_map(|n| delta.histograms.get(n))
            .fold(0.0, |total, h| total + h.sum as f64 / 1e9)
    };
    // Self time from drained spans where the workload's calls run on
    // this thread; elsewhere the span histograms, whose layers do not
    // nest in those (paper-model) workloads.
    let busy = |layer: &str, histograms: &[&str]| {
        let busy_s = if workload.drains_spans() {
            traced.self_times.seconds(layer)
        } else {
            seconds(histograms)
        };
        ratio(busy_s, traced.wall_s)
    };
    let hedges = count("cluster.hedge.fired");
    let mut metrics: Vec<Metric> = micros
        .iter()
        .map(|m| (m.name, m.spread.median, m.unit))
        .collect();
    metrics.extend([
        (
            "spice.newton_iterations_per_op",
            count("spice.newton_iterations") / ops,
            "count/op",
        ),
        (
            "spice.lu_factorizations_per_op",
            count("spice.lu_factorizations") / ops,
            "count/op",
        ),
        (
            "spice.dc_solves_per_op",
            count("spice.dc_solves") / ops,
            "count/op",
        ),
        (
            "spice.busy_share",
            busy("spice", &["spice.dc_solve_ns", "spice.transient_ns"]),
            "ratio",
        ),
        (
            "cell.mc_samples_per_op",
            count("cell.mc_samples") / ops,
            "count/op",
        ),
        (
            "cell.busy_share",
            busy("cell", &["cell.characterize_ns", "cell.mc_run_ns"]),
            "ratio",
        ),
        (
            "coopt.points_per_s",
            ratio(
                count("coopt.candidates_examined"),
                seconds(&["coopt.search_ns"]),
            ),
            "1/s",
        ),
        (
            "coopt.evaluated_per_op",
            count("coopt.candidates_evaluated") / ops,
            "count/op",
        ),
        (
            "coopt.busy_share",
            busy("coopt", &["coopt.search_ns"]),
            "ratio",
        ),
        (
            "serve.cache_hit_ratio",
            ratio(traced.hits as f64, traced.replies as f64),
            "ratio",
        ),
        (
            "serve.queue_wait_p99_ms",
            merged_tail_ms(&[
                delta.histograms.get(QUEUE_WAIT),
                idle_waits.histograms.get(QUEUE_WAIT),
            ]),
            "ms",
        ),
        (
            "serve.batch_size_mean",
            delta
                .histograms
                .get("serve.batch.size")
                .map_or(0.0, HistogramSnapshot::mean),
            "count",
        ),
        (
            "serve.characterizations",
            count("serve.batch.characterizations"),
            "count",
        ),
        ("serve.busy_replies", traced.busy_replies as f64, "count"),
        ("cluster.hedges_per_kreq", 1e3 * hedges / ops, "count/kreq"),
        (
            "cluster.hedge_win_ratio",
            ratio(count("cluster.hedge.wins"), hedges),
            "ratio",
        ),
        (
            "cluster.failovers",
            count("cluster.forward.failovers"),
            "count",
        ),
        ("probe.capture_ms", capture.median, "ms"),
        (
            "probe.tracing_overhead",
            ratio(
                traced.attempted as f64 / traced.wall_s,
                base.attempted as f64 / base.wall_s,
            ),
            "ratio",
        ),
    ]);
    metrics
}

/// Per-layer metrics: the same workload and seed at a quarter of the
/// ops, untraced (the tracing-overhead baseline) then traced with
/// probes at `Detail`, then the microbenchmarks with both off again.
fn traced_run(workload: Workload, seed: u64, size: Size, calls: Calls) -> Result<Record, String> {
    let size = size.quarter();
    let epoch = Instant::now();
    let base = workloads::run(
        workload,
        seed,
        size,
        false,
        &mut Recorder::new(epoch, false),
    )?;

    sram_probe::set_level(Level::Detail);
    sram_probe::trace::set_tracing(true);
    sram_probe::trace::clear();
    let dropped_before = sram_probe::trace::dropped();
    let mut rec = Recorder::new(epoch, true);
    let traced = workloads::run(workload, seed, size, true, &mut rec);
    let capture = Spread::of(
        (0..calls.light)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(sram_probe::trace::capture());
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect(),
    );
    let dropped = sram_probe::trace::dropped() - dropped_before;
    sram_probe::trace::set_tracing(false);
    let idle_waits = micro::idle_node_hits(calls.light);
    sram_probe::set_level(Level::Off);
    sram_probe::trace::clear();
    let traced = traced?;
    let idle_waits = idle_waits?;
    if traced.self_times.full_windows > 0 {
        return Err(format!(
            "a trace ring filled up between drains {} times; the self times are incomplete",
            traced.self_times.full_windows
        ));
    }

    let micros = micro::run(seed, calls, &mut rec)?;
    let metrics = per_layer(workload, &base, &traced, &idle_waits, capture, &micros);
    let mut record = Record::new(workload, &[&base, &traced], metrics);
    record.detail(
        "micro",
        Json::Obj(
            micros
                .iter()
                .map(|m| {
                    (
                        m.name.to_owned(),
                        Json::Obj(vec![
                            ("median".into(), Json::Num(m.spread.median)),
                            ("min".into(), Json::Num(m.spread.min)),
                            ("max".into(), Json::Num(m.spread.max)),
                            ("calls".into(), Json::Num(m.spread.calls as f64)),
                            ("unit".into(), Json::Str(m.unit.into())),
                        ]),
                    )
                })
                .collect(),
        ),
    );
    record.detail("trace_events_dropped", Json::Num(dropped as f64));
    record.detail(
        "layer_seconds",
        Json::Obj(
            rec.layer_seconds()
                .into_iter()
                .map(|(layer, s)| (layer, Json::Num(s)))
                .collect(),
        ),
    );
    record.detail("spans", rec.to_json());
    Ok(record)
}

fn run_command(args: &Args) -> Result<ExitCode, String> {
    let workload = args
        .workload
        .ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    let load_start = loadavg();
    let size = Size::for_seconds(args.seconds);
    let mut record = if args.traced {
        traced_run(workload, args.seed, size, Calls::DEFAULT)?
    } else {
        untraced_run(workload, args.seed, size)?
    };
    record.detail("seed", Json::Num(args.seed as f64));
    record.detail("seconds", Json::Num(f64::from(args.seconds)));
    record.detail("traced", Json::Bool(args.traced));
    record.detail("nproc", Json::Num(workloads::nproc() as f64));
    record.detail("loadavg_start", load_start);
    record.detail("loadavg_end", loadavg());
    if let Some(path) = &args.out {
        std::fs::write(path, record.to_json().render() + "\n")
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    for &(name, value, unit) in &record.metrics {
        println!("{} {name} {value} {unit}", workload.name());
    }
    println!("{}", record.summary().render());
    Ok(ExitCode::SUCCESS)
}

/// Prints one run record's metrics; `false` when it reports failures.
fn print_record(path: &Path) -> Result<bool, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let record = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let workload = record.get("workload").and_then(Json::as_str).unwrap_or("?");
    if let Some(Json::Obj(metrics)) = record.get("metrics") {
        for (name, metric) in metrics {
            let value = metric
                .get("value")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN);
            let unit = metric.get("unit").and_then(Json::as_str).unwrap_or("?");
            println!("{workload} {name} {value} {unit}");
        }
    }
    Ok(record.get("correct").and_then(Json::as_bool) == Some(true))
}

fn all_command(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("creating {}: {e}", args.out_dir.display()))?;
    let mut all_ok = true;
    for workload in Workload::ALL {
        for traced in [false, true] {
            let suffix = if traced { "-traced" } else { "" };
            let out = args
                .out_dir
                .join(format!("{}{suffix}.json", workload.name()));
            let status = Command::new(&exe)
                .args(["run", "--workload", workload.name()])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--out")
                .arg(&out)
                .stdout(Stdio::null())
                .status()
                .map_err(|e| format!("running {}: {e}", exe.display()))?;
            if !status.success() {
                eprintln!(
                    "edpbench: {} {suffix} run failed: {status}",
                    workload.name()
                );
                all_ok = false;
                continue;
            }
            all_ok &= print_record(&out)?;
        }
    }
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
    const LEDGER_JSON: &str = include_str!("../ledger.json");

    fn listed(spec: &Json, key: &str) -> Vec<(String, String)> {
        spec.get(key)
            .and_then(Json::as_array)
            .unwrap_or_default()
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn emitted(record: &Record) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = record
            .metrics
            .iter()
            .map(|&(name, _, unit)| (name.to_owned(), unit.to_owned()))
            .collect();
        out.sort();
        out
    }

    /// Runs every workload at a test size, untraced and traced, one
    /// after the other in this one test so no two share the
    /// process-global probe and trace state.
    #[test]
    fn every_listed_metric_is_emitted_with_its_unit() {
        let spec = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let names: Vec<&str> = spec
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        let all: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, all);
        let mut end_to_end = listed(&spec, "end_to_end");
        let mut per_layer = listed(&spec, "per_layer");
        end_to_end.sort();
        per_layer.sort();

        let ledger = Json::parse(LEDGER_JSON).expect("ledger.json parses");
        let mut predicted: Vec<String> = match &ledger {
            Json::Obj(pairs) => pairs.iter().map(|(name, _)| name.clone()).collect(),
            _ => Vec::new(),
        };
        predicted.sort();
        let per_layer_names: Vec<String> = per_layer.iter().map(|m| m.0.clone()).collect();
        assert_eq!(predicted, per_layer_names, "ledger.json vs BENCHMARK.json");

        let size = Size {
            table4_passes: 1,
            sim_cycles: 1,
            mc_samples: 2,
            serve_per_client: 12,
            cluster_per_client: 80,
            setup_reps: 1,
        };
        let calls = Calls {
            light: 2,
            heavy: 1,
            search_bytes: 1024,
            hop_pairs: 4,
            parse_lines: 10,
        };
        for workload in Workload::ALL {
            let record = untraced_run(workload, 1, size).expect("untraced run");
            assert_eq!(emitted(&record), end_to_end, "{}", workload.name());
            let record = traced_run(workload, 1, size, calls).expect("traced run");
            assert_eq!(emitted(&record), per_layer, "{} traced", workload.name());
            for &(name, value, _) in &record.metrics {
                assert!(value.is_finite(), "{name} = {value}");
            }
        }
    }

    #[test]
    fn arguments_parse_and_reject_strays() {
        let args = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let parsed = parse_args(&args("--workload sim-stack --seed 2 --seconds 3 --trace 1"))
            .expect("valid");
        assert_eq!(parsed.workload, Some(Workload::SimStack));
        assert_eq!((parsed.seed, parsed.seconds, parsed.traced), (2, 3, true));
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--trace 2")).is_err());
        assert!(parse_args(&args("--seconds 0")).is_err());
        assert!(parse_args(&args("--bogus")).is_err());
        assert!(parse_args(&args("--seed")).is_err());
    }
}
