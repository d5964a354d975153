//! Whole Monte Carlo runs of the seeds whose write-margin probes once
//! fell back to letting the cell settle.
//!
//! The 16-sample runs of these seeds once failed at the sim-stack
//! biases because one cold write-margin DC probe did not converge, and
//! later needed one settling fallback per run. The continuation flip
//! search runs no cold probe, so no run takes a fallback now; each run
//! must complete and equal, to the bit, a serial run whose write
//! margins come from the cold bisection (`common::bisected_flip_voltage`),
//! fallbacks and all.

mod common;

use common::{bisected_flip_voltage, rails_bias, serial_monte_carlo, sim_stack_rails};
use sram_cell::{CellCharacterizer, CellError, MonteCarloConfig, YieldAnalyzer};
use sram_device::{DeviceLibrary, VtFlavor};
use sram_faults::{ordered_map, CancelToken};

#[test]
fn failing_seeds_now_complete_and_count_their_fallbacks() {
    let lib = DeviceLibrary::sevennm();
    // (flavor, Monte Carlo seed): the seeds left out of the sim-stack
    // seed pool.
    let runs = [
        (VtFlavor::Lvt, 21),
        (VtFlavor::Lvt, 49),
        (VtFlavor::Hvt, 29),
        (VtFlavor::Hvt, 57),
        (VtFlavor::Hvt, 62),
    ];
    let cases: Vec<_> = runs
        .iter()
        .flat_map(|&(flavor, seed)| sim_stack_rails(flavor).map(|rails| (flavor, seed, rails)))
        .collect();
    let config = |seed| MonteCarloConfig {
        samples: 16,
        seed,
        vtc_points: 25,
    };
    let at = |&(flavor, seed, rails): &(VtFlavor, u64, (f64, f64, f64))| {
        format!("{flavor} seed {seed} at V_WL {} mV", rails.1)
    };
    let analyses: Vec<_> = cases
        .iter()
        .map(|case @ &(flavor, seed, rails)| {
            let analyzer = YieldAnalyzer::new(CellCharacterizer::new(&lib, flavor), config(seed));
            analyzer
                .run(&rails_bias(lib.nominal_vdd(), rails))
                .unwrap_or_else(|e| panic!("{}: {e}", at(case)))
        })
        .collect();
    // Each reference is one serial loop; the ten run side by side.
    let references = ordered_map(&cases, &CancelToken::never(), |&(flavor, seed, rails)| {
        let chr = CellCharacterizer::new(&lib, flavor);
        let bias = rails_bias(lib.nominal_vdd(), rails);
        Ok::<_, CellError>(serial_monte_carlo(
            &chr,
            config(seed),
            &bias,
            bisected_flip_voltage,
        ))
    })
    .expect("never cancelled");
    for ((case, analysis), reference) in cases.iter().zip(analyses).zip(references) {
        assert!(
            analysis == reference,
            "{}: {analysis:?} != {reference:?}",
            at(case)
        );
    }
}
