//! End-to-end chaos-soak run. Lives in its own test binary (own
//! process) because the soak installs a process-global fault plan that
//! would otherwise leak panics and latency into unrelated unit tests.
//! Every condition it checks is a row of the scenario's invariant
//! table, so a passing report is the whole assertion.

#[test]
fn chaos_soak_answers_everything_and_reproduces_fault_counts() {
    let report = sram_bench::soak::chaos::run(2).unwrap_or_else(|e| panic!("{e}"));
    assert!(report.contains("round 2 (faulted)"), "{report}");
}
