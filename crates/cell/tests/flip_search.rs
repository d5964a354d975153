//! The continuation flip search against the cold bisection it replaced
//! (`common::bisected_flip_voltage`): the same `Voltage` to the bit, or
//! the same error, on every cell below.

mod common;

use common::{bisected_flip_voltage, sample, CENSUS};
use sram_cell::{AssistVoltages, CellCharacterizer, CellError};
use sram_device::{DeviceLibrary, VtFlavor};
use sram_faults::{ordered_map, CancelToken};
use sram_units::Voltage;

/// Runs both searches for every `(label, cell, bias)` on one worker per
/// core and requires equal results.
fn agree(cases: &[(String, CellCharacterizer, AssistVoltages)]) {
    let results = ordered_map(cases, &CancelToken::never(), |(_, chr, bias)| {
        Ok::<_, CellError>((
            chr.wordline_flip_voltage(bias),
            bisected_flip_voltage(chr, bias),
        ))
    })
    .expect("never cancelled");
    for ((label, _, _), (search, oracle)) in cases.iter().zip(results) {
        assert_eq!(search, oracle, "{label}");
    }
}

#[test]
fn varied_cells_at_the_sim_stack_write_bias() {
    // The first 16 draws of seeds 1-13: 208 cells per flavor.
    let lib = DeviceLibrary::sevennm();
    let bias = AssistVoltages::nominal(lib.nominal_vdd());
    let mut cases = Vec::new();
    for flavor in [VtFlavor::Lvt, VtFlavor::Hvt] {
        for seed in 1..=13 {
            for index in 0..16 {
                let label = format!("{flavor} seed {seed} #{index}");
                cases.push((label, sample(flavor, seed, index), bias));
            }
        }
    }
    agree(&cases);
}

#[test]
fn census_cells() {
    let cases: Vec<_> = CENSUS
        .iter()
        .map(|&(flavor, seed, index)| {
            let chr = sample(flavor, seed, index);
            let bias = AssistVoltages::nominal(chr.vdd());
            (format!("{flavor} seed {seed} #{index}"), chr, bias)
        })
        .collect();
    agree(&cases);
}

#[test]
fn cells_at_other_supplies_and_bitline_levels() {
    // Vdd 500 mV with V_BL -100 mV spans 1.1 V: 11 halvings, not 10.
    let mv = Voltage::from_millivolts;
    let mut cases = Vec::new();
    for flavor in [VtFlavor::Lvt, VtFlavor::Hvt] {
        for vdd in [mv(400.0), mv(500.0)] {
            for vbl in [mv(0.0), mv(-100.0)] {
                let bias = AssistVoltages::nominal(vdd).with_vbl(vbl);
                let at = format!("{flavor} at Vdd {vdd}, V_BL {vbl}");
                let nominal = CellCharacterizer::new(&DeviceLibrary::sevennm(), flavor);
                cases.push((format!("nominal {at}"), nominal.with_vdd(vdd), bias));
                for index in 0..8 {
                    let chr = sample(flavor, 100, index).with_vdd(vdd);
                    cases.push((format!("seed 100 #{index} {at}"), chr, bias));
                }
            }
        }
    }
    agree(&cases);
}
