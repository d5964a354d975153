//! Snapshot / diff / reset lifecycle, and the off-level no-op path.
//!
//! One `#[test]` on purpose: the steps share the process-global
//! registry and level, so their order matters.

use sram_probe::{probe_gauge, probe_inc, probe_span, Level};

#[test]
fn snapshot_diff_reset_lifecycle() {
    // Level off: macros must record nothing, spans must be no-ops.
    sram_probe::set_level(Level::Off);
    probe_inc!("spice.dc_solves");
    probe_gauge!("coopt.best_score", 4.2);
    {
        let _span = probe_span!("spice.dc_solve_ns");
    }
    assert!(sram_probe::snapshot().is_empty());

    // Summary level: everything records.
    sram_probe::set_level(Level::Summary);
    probe_inc!("spice.dc_solves");
    probe_inc!("spice.dc_solves");
    probe_gauge!("coopt.best_score", 4.2);
    {
        let _span = probe_span!("spice.dc_solve_ns");
    }
    let first = sram_probe::snapshot();
    assert_eq!(first.counters["spice.dc_solves"], 2);
    assert_eq!(first.gauges["coopt.best_score"], 4.2);
    assert_eq!(first.histograms["spice.dc_solve_ns"].count, 1);

    // Detail-only probes stay silent at Summary (the metric is not
    // even registered until the level allows it)...
    probe_inc!(detail "spice.lu_factorizations");
    let at_summary = sram_probe::snapshot();
    assert_eq!(
        at_summary
            .counters
            .get("spice.lu_factorizations")
            .copied()
            .unwrap_or(0),
        0
    );
    // ...and record at Detail.
    sram_probe::set_level(Level::Detail);
    probe_inc!(detail "spice.lu_factorizations");
    assert_eq!(
        sram_probe::snapshot().counters["spice.lu_factorizations"],
        1
    );
    sram_probe::set_level(Level::Summary);

    // Diff isolates the increment since the first snapshot.
    probe_inc!("spice.dc_solves");
    let second = sram_probe::snapshot();
    let delta = second.diff(&first);
    assert_eq!(delta.counters["spice.dc_solves"], 1);
    assert_eq!(delta.histograms["spice.dc_solve_ns"].count, 0);

    // Reset zeroes values but keeps names registered.
    sram_probe::reset();
    let after = sram_probe::snapshot();
    assert!(after.is_empty());
    assert!(after.counters.contains_key("spice.dc_solves"));
    probe_inc!("spice.dc_solves");
    assert_eq!(sram_probe::snapshot().counters["spice.dc_solves"], 1);
}
