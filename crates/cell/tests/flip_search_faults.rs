//! What an injected `spice.nonconverge` does to the flip search.
//!
//! The search's one full DC solve is the pinned hold state it starts
//! from; its continuation steps (`DcSolver::continue_from`) draw no
//! fault, because a failed step is read as the fold and a fake one
//! would move the margin without a trace. So a fire fails the whole
//! search with the injected `SpiceError::NonConvergent`, which Monte
//! Carlo propagates and the serve engine retries, and a search that
//! draws no fire returns the fault-free value.
//!
//! The fault registry is process-global, so this binary holds exactly
//! one test.

use sram_cell::{AssistVoltages, CellCharacterizer, CellError};
use sram_device::{DeviceLibrary, VtFlavor};
use sram_faults::{FaultPlan, FaultRule};
use sram_spice::{DcSolver, SpiceError};
use sram_units::Voltage;

fn fires() -> u64 {
    sram_faults::counts().iter().map(|(_, fires)| fires).sum()
}

#[test]
fn an_injected_nonconvergence_fails_the_search_at_its_hold_state() {
    let chr = CellCharacterizer::new(&DeviceLibrary::sevennm(), VtFlavor::Hvt);
    let bias = AssistVoltages::nominal(chr.vdd());
    let clean = chr.wordline_flip_voltage(&bias);
    assert!(clean.is_ok(), "{clean:?}");
    let (mut ckt, nodes) = chr.cell().write_dc_circuit(&bias, chr.vdd(), Voltage::ZERO);
    let hold = DcSolver::new()
        .nodeset(nodes.q, bias.vddc)
        .nodeset(nodes.qb, bias.vssc)
        .solve(&ckt)
        .expect("the hold state converges");

    // Every draw fires: the search stops at its first solve.
    sram_faults::install(&FaultPlan::new(7).rule(FaultRule::sometimes("spice.nonconverge", 1.0)));
    let err = chr.wordline_flip_voltage(&bias).unwrap_err();
    assert!(
        matches!(
            err,
            CellError::Simulation(SpiceError::NonConvergent {
                analysis: "dc (injected)",
                ..
            })
        ),
        "{err}"
    );
    assert_eq!(fires(), 1);
    // A continuation step under the same plan draws nothing and converges.
    ckt.set_source_voltage("VWL", Voltage::from_millivolts(10.0))
        .unwrap();
    let step = DcSolver::new()
        .continue_from(&ckt, &hold)
        .expect("a step draws no fault");
    assert!(step.voltage(nodes.q) > step.voltage(nodes.qb));
    assert_eq!(fires(), 1);

    // One fire: it fails one search, and the next returns the clean value.
    sram_faults::install(&FaultPlan::new(7).rule(FaultRule::always("spice.nonconverge", 1)));
    assert!(chr.wordline_flip_voltage(&bias).is_err());
    assert_eq!(chr.wordline_flip_voltage(&bias), clean);
    assert_eq!(fires(), 1);
    sram_faults::uninstall();
}
