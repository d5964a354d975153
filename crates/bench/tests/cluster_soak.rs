//! End-to-end cluster-soak run. Lives in its own test binary (own
//! process) because the soak installs a process-global fault plan that
//! would otherwise leak its node kill and panics into unrelated tests.
//! Every condition it checks is a row of the scenario's invariant
//! table, so a passing report is the whole assertion.

#[test]
fn cluster_soak_fails_over_and_preserves_affinity() {
    let report = sram_bench::soak::cluster::run(2).unwrap_or_else(|e| panic!("{e}"));
    assert!(report.contains("cluster.affinity.violations"), "{report}");
}
