//! `SRAM_PROBE=0` spans must compile to near-zero work: no histogram
//! registration, no clock read, no recording.
//!
//! This lives in its own integration-test binary (its own process) so
//! the registry is guaranteed empty at startup, and as a single test
//! function because every phase mutates the process-global level.

use sram_probe::{probe_span, trace_span, Level};

#[test]
fn disabled_spans_are_near_zero_work() {
    // Phase 1: Level::Off — nothing registers, nothing records.
    sram_probe::set_level(Level::Off);
    {
        let _span = probe_span!("spice.dc_solve_ns");
        let _detail = probe_span!(detail "spice.transient_ns");
        let _trace = trace_span!("spice.dc_solve");
    }
    // Raising the level afterward must reveal an empty registry: the
    // disabled branch never called `sram_probe::histogram`, so nothing
    // was registered, let alone recorded.
    sram_probe::set_level(Level::Summary);
    let snap = sram_probe::snapshot();
    assert!(
        !snap.histograms.contains_key("spice.dc_solve_ns"),
        "disabled probe_span! must not register its histogram: {:?}",
        snap.histograms.keys().collect::<Vec<_>>()
    );
    assert!(!snap.histograms.contains_key("spice.transient_ns"));
    assert!(snap.is_empty(), "no metric activity at all was expected");
    // The disabled trace span likewise left no events behind.
    assert!(
        !sram_probe::trace::capture()
            .iter()
            .any(|e| e.name == "spice.dc_solve"),
        "disabled trace_span! must not emit events"
    );

    // Phase 2: Summary — detail spans stay unregistered, summary spans
    // record.
    {
        let _detail = probe_span!(detail "cell.mc_run_ns");
        let _summary = probe_span!("cell.characterize_ns");
    }
    let snap = sram_probe::snapshot();
    assert!(
        !snap.histograms.contains_key("cell.mc_run_ns"),
        "detail spans must stay unregistered at Summary"
    );
    assert_eq!(snap.histograms["cell.characterize_ns"].count, 1);

    // Phase 3: a coarse budget check. A disabled span site must cost
    // on the order of a branch, not a clock read. The budget is loose
    // enough for slow CI machines while still catching an accidental
    // `Instant::now()` (~20–40 ns each, plus the register/record path
    // it would drag in); debug builds pay unoptimized call overhead on
    // every macro expansion, so their budget is wider. Taking the best
    // of several rounds discards scheduler preemption noise — a real
    // per-call regression slows every round equally.
    sram_probe::set_level(Level::Off);
    const CALLS: u32 = 200_000;
    const ROUNDS: usize = 5;
    let budget_ns = if cfg!(debug_assertions) { 150.0 } else { 50.0 };
    let mut best = f64::INFINITY;
    for _ in 0..ROUNDS {
        let start = std::time::Instant::now();
        for _ in 0..CALLS {
            let _span = probe_span!("coopt.search_ns");
            let _trace = trace_span!("coopt.search");
            std::hint::black_box(());
        }
        let per_call = start.elapsed().as_nanos() as f64 / f64::from(CALLS);
        best = best.min(per_call);
    }
    assert!(
        best < budget_ns,
        "disabled span pair cost {best:.1} ns/call, expected branch-like (budget {budget_ns})"
    );
    assert!(
        !sram_probe::snapshot()
            .histograms
            .contains_key("coopt.search_ns"),
        "the cost loop must not have registered anything"
    );
}
