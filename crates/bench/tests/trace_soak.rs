//! End-to-end trace-soak run. Lives in its own test binary (own
//! process) because the soak installs a process-global fault plan and
//! a sampling override that would otherwise leak into unrelated tests.
//! Every condition it checks is a row of the scenario's invariant
//! table, so a passing report is the whole assertion.

#[test]
fn trace_soak_stitches_every_tree_and_federates_quantiles() {
    let report = sram_bench::soak::trace::run(2).unwrap_or_else(|e| panic!("{e}"));
    assert!(report.contains("cluster.trace.forests"), "{report}");
}
