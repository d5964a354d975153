//! Regenerates the figures and tables of the paper's evaluation.
//!
//! Run `reproduce --help` for the experiment list — it is generated
//! from [`sram_bench::cli::EXPERIMENTS`], the same table the runner
//! executes, so it cannot drift from the implementation.
//!
//! With `SRAM_PROBE=1|2` (or `--probe-json <path>`, which force-enables
//! collection) the run ends with a per-experiment wall-clock and
//! instrumentation-counter footer; `--probe-json` additionally writes
//! the collected metrics as JSON.

#![warn(clippy::float_cmp)]

use std::process::ExitCode;
use std::time::{Duration, Instant};

use sram_bench::cli::{self, Selection};
use sram_probe::Level;

fn main() -> ExitCode {
    let mut which: Option<String> = None;
    let mut probe_json: Option<std::path::PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                print!("{}", cli::usage());
                return ExitCode::SUCCESS;
            }
            "--probe-json" => {
                let Some(path) = args.next() else {
                    eprintln!("--probe-json requires a path argument");
                    return ExitCode::FAILURE;
                };
                probe_json = Some(path.into());
            }
            name if which.is_none() && !name.starts_with('-') => {
                which = Some(name.to_owned());
            }
            other => {
                eprintln!("unexpected argument `{other}`\n");
                eprint!("{}", cli::usage());
                return ExitCode::FAILURE;
            }
        }
    }
    let which = which.unwrap_or_else(|| "all".to_owned());

    // --probe-json must collect even when SRAM_PROBE is unset.
    if probe_json.is_some() && !sram_probe::enabled(Level::Summary) {
        sram_probe::set_level(Level::Summary);
    }
    let probing = sram_probe::enabled(Level::Summary);

    let Selection::Run { chosen, skipped } = cli::select(&which) else {
        eprintln!("unknown experiment `{which}`\n");
        eprint!("{}", cli::usage());
        return ExitCode::FAILURE;
    };

    let threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4);

    let baseline = sram_probe::snapshot();
    let mut timings: Vec<(&str, Duration)> = Vec::with_capacity(chosen.len());
    for experiment in &chosen {
        println!(
            "==================== {} ====================",
            experiment.name
        );
        let started = Instant::now();
        match (experiment.run)(threads) {
            Ok(text) => println!("{text}"),
            Err(e) => {
                eprintln!("{} failed: {e}", experiment.name);
                return ExitCode::FAILURE;
            }
        }
        timings.push((experiment.name, started.elapsed()));
    }

    if !skipped.is_empty() {
        let names: Vec<&str> = skipped.iter().map(|e| e.name).collect();
        println!(
            "note: `all` skipped opt-in experiment(s): {} — run them explicitly by name",
            names.join(", ")
        );
    }

    if probing {
        println!("==================== probe summary ====================");
        let name_width = timings.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        println!("wall clock per experiment:");
        for (name, elapsed) in &timings {
            println!("  {name:<name_width$}  {elapsed:>10.2?}");
        }
        print!("{}", sram_probe::snapshot().diff(&baseline).render_table());
    }

    if let Some(path) = probe_json {
        let json = sram_probe::snapshot().diff(&baseline).to_json();
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("failed to write probe JSON to {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("probe metrics written to {}", path.display());
    }
    ExitCode::SUCCESS
}
