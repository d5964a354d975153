//! Fixture: the fault layer must namespace its metrics under `faults.`
//! — one `probe-naming` finding (wrong crate prefix); the well-formed
//! name is fine.

/// Registers one mis-namespaced metric.
pub fn arm() {
    sram_probe::probe_inc!("serve.not_ours");
    sram_probe::probe_inc!("faults.injected");
}
