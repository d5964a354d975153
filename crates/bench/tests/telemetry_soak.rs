//! End-to-end telemetry-soak run. Lives in its own test binary (own
//! process) because the soak mutates process globals (trace sampling
//! state, the telemetry ring, the fault registry). Every condition it
//! checks is a row of the scenario's invariant table, so a passing
//! report is the whole assertion.

#[test]
fn telemetry_soak_passes_every_invariant() {
    let report = sram_bench::soak::telemetry::run(2).unwrap_or_else(|e| panic!("{e}"));
    assert!(report.contains("fault_verdict"), "{report}");
}
