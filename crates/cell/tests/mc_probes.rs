//! The Monte Carlo probes that the parallel sample loop touches.
//!
//! A cancelled run counts itself once and measures nothing, and a
//! traced run nests every simulator span under its `cell.mc_run` span,
//! whichever worker thread recorded it. Every run, cancelled or not,
//! times itself once in `cell.mc_run_ns`. A read bias that collapses
//! every butterfly counts each sample in `cell.mc_collapsed`, and a
//! write bias under which no cell flips counts each sample in
//! `cell.mc_wm_bracketing_failed`.
//!
//! The probe registry is process-global, so this binary holds exactly
//! one test: a second test in the same process could move the counters
//! between a snapshot and its diff.

use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

use sram_cell::{AssistVoltages, CellCharacterizer, CellError, MonteCarloConfig, YieldAnalyzer};
use sram_device::{DeviceLibrary, VtFlavor};
use sram_faults::CancelToken;
use sram_probe::trace::{Phase, Scope};
use sram_probe::{Level, Snapshot};
use sram_units::Voltage;

fn counter(diff: &Snapshot, name: &str) -> u64 {
    diff.counters.get(name).copied().unwrap_or(0)
}

fn timed_runs(diff: &Snapshot) -> u64 {
    diff.histograms.get("cell.mc_run_ns").map_or(0, |h| h.count)
}

#[test]
fn cancelled_and_traced_runs_report_their_probes() {
    sram_probe::set_level(Level::Detail);
    let lib = DeviceLibrary::sevennm();
    let mv = Voltage::from_millivolts;
    // The HVT-M2 sim-stack design's rails.
    let bias = AssistVoltages::nominal(lib.nominal_vdd())
        .with_vddc(mv(560.0))
        .with_vwl(mv(530.0))
        .with_vssc(mv(-240.0));
    let analyzer = |samples| {
        YieldAnalyzer::new(
            CellCharacterizer::new(&lib, VtFlavor::Hvt),
            MonteCarloConfig {
                samples,
                seed: 1,
                vtc_points: 25,
            },
        )
    };

    // An expired token: the run stops before its first sample and
    // counts one cancelled run, whichever worker saw the token first.
    let expired = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
    let before = sram_probe::snapshot();
    let err = analyzer(16)
        .run_with_cancel(&bias, &expired)
        .expect_err("an expired token cancels the run");
    let diff = sram_probe::snapshot().diff(&before);
    assert!(matches!(err, CellError::Cancelled(_)), "{err}");
    assert_eq!(counter(&diff, "cell.mc_cancelled"), 1);
    assert_eq!(counter(&diff, "cell.mc_samples"), 0);
    assert_eq!(timed_runs(&diff), 1, "a cancelled run is timed once");

    // A traced run: every simulator span descends from the run's span.
    let before = sram_probe::snapshot();
    let scope = Scope::begin();
    analyzer(8).run(&bias).expect("the HVT-M2 run completes");
    let events = scope.finish();
    let diff = sram_probe::snapshot().diff(&before);
    assert_eq!(timed_runs(&diff), 1, "one run, one cell.mc_run_ns sample");
    assert_eq!(counter(&diff, "cell.mc_collapsed"), 0);
    assert_eq!(counter(&diff, "cell.mc_wm_bracketing_failed"), 0);
    let spans: HashMap<u64, (&str, u64)> = events
        .iter()
        .filter(|e| e.phase != Phase::End)
        .map(|e| (e.id, (e.name, e.parent)))
        .collect();
    let runs = spans
        .values()
        .filter(|&&(name, _)| name == "cell.mc_run")
        .count();
    assert_eq!(runs, 1, "one run, one cell.mc_run span");
    let under_run = |mut id: u64| {
        while let Some(&(name, parent)) = spans.get(&id) {
            if name == "cell.mc_run" {
                return true;
            }
            id = parent;
        }
        false
    };
    let spice: Vec<_> = events
        .iter()
        .filter(|e| e.phase != Phase::End && e.name.starts_with("spice."))
        .collect();
    assert!(!spice.is_empty(), "the run traced no simulator span");
    for span in &spice {
        assert!(
            under_run(span.parent),
            "{} (tid {}) does not descend from cell.mc_run",
            span.name,
            span.tid
        );
    }
    let tids: HashSet<u32> = spice.iter().map(|e| e.tid).collect();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores >= 2 {
        assert!(
            tids.len() >= 2,
            "{cores} cores, but the samples ran on tids {tids:?}"
        );
    }

    // A cell ground raised to 1 mV below a boosted cell supply: no read
    // butterfly keeps an eye, so every sample's RSNM collapses to zero.
    // The hold and write biases stay nominal.
    let collapsed = AssistVoltages::nominal(lib.nominal_vdd())
        .with_vddc(mv(700.0))
        .with_vssc(mv(699.0));
    let before = sram_probe::snapshot();
    let analysis = analyzer(4)
        .run(&collapsed)
        .expect("collapse is a zero margin");
    let diff = sram_probe::snapshot().diff(&before);
    assert_eq!(counter(&diff, "cell.mc_collapsed"), 4);
    assert_eq!(counter(&diff, "cell.mc_wm_bracketing_failed"), 0);
    assert_eq!(analysis.rsnm.worst, Voltage::ZERO);

    // A write bitline driven to twice Vdd holds the stored 1 through the
    // access transistor: no wordline level on the search grid flips the
    // cell, so every sample's write-margin search fails to bracket.
    let unwritable = AssistVoltages::nominal(lib.nominal_vdd()).with_vbl(mv(900.0));
    let before = sram_probe::snapshot();
    let analysis = analyzer(4)
        .run(&unwritable)
        .expect("no flip is a zero margin");
    let diff = sram_probe::snapshot().diff(&before);
    assert_eq!(counter(&diff, "cell.mc_wm_bracketing_failed"), 4);
    assert_eq!(counter(&diff, "cell.mc_collapsed"), 0);
    assert_eq!(analysis.wm.worst, Voltage::ZERO);
    assert_eq!(timed_runs(&diff), 1);
}
