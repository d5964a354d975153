//! The `coopt.*` probes of the search and of the Pareto front report
//! exactly the work their `SearchStatistics` count, pruned candidates
//! included.
//!
//! The probe registry is process-global, so this binary holds exactly
//! one test: a second test in the same process could move the counters
//! between a snapshot and its diff.

use sram_array::{ArrayParams, Capacity, Periphery};
use sram_cell::CellCharacterization;
use sram_coopt::{
    CooptError, DesignSpace, EnergyDelayProduct, Search, SearchStatistics, YieldConstraint,
};
use sram_device::DeviceLibrary;
use sram_probe::{Level, Snapshot};
use sram_units::Voltage;

/// `(organization, V_SSC)` slices of the coarse space at 1 KB.
const SLICES: u64 = 35;

fn counter(diff: &Snapshot, name: &str) -> u64 {
    diff.counters.get(name).copied().unwrap_or(0)
}

fn samples(diff: &Snapshot, name: &str) -> u64 {
    diff.histograms.get(name).map_or(0, |h| h.count)
}

/// Asserts the per-search probes of one run against its statistics.
fn assert_probes_match(diff: &Snapshot, stats: &SearchStatistics) {
    assert_eq!(counter(diff, "coopt.searches"), 1);
    assert_eq!(samples(diff, "coopt.search_ns"), 1);
    assert_walk_probes_match(diff, stats);
}

/// Asserts the work probes every walk adds, once, against its
/// statistics.
fn assert_walk_probes_match(diff: &Snapshot, stats: &SearchStatistics) {
    assert_eq!(counter(diff, "coopt.slices"), SLICES);
    let pairs = [
        ("coopt.candidates_examined", stats.examined),
        ("coopt.candidates_evaluated", stats.evaluated),
        ("coopt.candidate_eval_errors", stats.eval_errors),
        ("coopt.candidates_infeasible_yield", stats.infeasible),
        ("coopt.candidates_pruned", stats.pruned),
    ];
    for (name, expected) in pairs {
        assert_eq!(counter(diff, name), expected as u64, "{name}");
    }
}

#[test]
fn search_probes_equal_search_statistics() {
    sram_probe::set_level(Level::Detail);
    let lib = DeviceLibrary::sevennm();
    let cell = CellCharacterization::paper_hvt(lib.nominal_vdd());
    let periphery = Periphery::new(&lib);
    let params = ArrayParams::paper_defaults();
    let space = DesignSpace::coarse();
    let capacity = Capacity::from_bytes(1024);
    let search = |constraint| Search::new(&cell, &periphery, &params, &space, constraint, 64);

    // One worker, then three (which change nothing): the EDP bound
    // prunes the same candidates on both, and the probes count them.
    let mut pruned = Vec::new();
    for threads in [1, 3] {
        let before = sram_probe::snapshot();
        let out = search(YieldConstraint::paper_delta(cell.vdd()))
            .with_threads(threads)
            .run(capacity, &EnergyDelayProduct)
            .expect("the coarse 1 KB HVT space is feasible");
        let diff = sram_probe::snapshot().diff(&before);
        assert_eq!(out.stats.examined, 1_120, "35 slices x 32 fin pairs");
        assert_eq!(out.stats.feasible, 1_120);
        assert!(
            out.stats.pruned > 0,
            "the EDP bound prunes: {:?}",
            out.stats
        );
        assert_probes_match(&diff, &out.stats);
        assert_eq!(diff.gauges.get("coopt.best_score"), Some(&out.score));
        pruned.push(out.stats);
    }
    assert_eq!(pruned[0], pruned[1], "the work does not depend on threads");

    // The Pareto front walks the same space and adds the same work
    // counts, though it is no search run.
    let before = sram_probe::snapshot();
    let (front, stats) = search(YieldConstraint::paper_delta(cell.vdd()))
        .pareto_front(capacity)
        .expect("an uncancelled front");
    let diff = sram_probe::snapshot().diff(&before);
    assert!(!front.is_empty());
    assert_eq!(counter(&diff, "coopt.candidates_evaluated"), 1_120);
    assert_walk_probes_match(&diff, &stats);
    assert_eq!(counter(&diff, "coopt.searches"), 0);

    // No V_SSC meets a 1 V margin: every candidate is yield-infeasible.
    let strict = YieldConstraint {
        delta: Voltage::from_volts(1.0),
    };
    let before = sram_probe::snapshot();
    let err = search(strict)
        .run(capacity, &EnergyDelayProduct)
        .expect_err("no candidate meets a 1 V margin");
    let diff = sram_probe::snapshot().diff(&before);
    let CooptError::Infeasible { examined, .. } = err else {
        panic!("expected Infeasible, got {err:?}");
    };
    let stats = SearchStatistics {
        examined,
        infeasible: examined,
        ..SearchStatistics::default()
    };
    assert_probes_match(&diff, &stats);
}
