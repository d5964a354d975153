//! Fixture: the probe crate owns the `probe.`, `telemetry.`, and
//! `log.` namespaces — the `metrics.`-prefixed name is the single
//! `probe-naming` finding here.

/// Samples the telemetry ring and registers its bookkeeping metrics.
pub fn sampler() {
    sram_probe::probe_inc!("telemetry.windows_fixture");
    sram_probe::probe_inc!("log.events_fixture");
    sram_probe::probe_inc!("probe.trace.fixture");
    sram_probe::probe_inc!("metrics.wrong_home");
}
