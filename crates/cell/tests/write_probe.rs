//! The cold write probe (`common::write_flips`), the oracle of the
//! continuation flip search: it decides the plain cases, and its
//! settling form agrees with converged probes on either side of the
//! flip.

mod common;

use common::{settles_flipped, write_flips};
use sram_cell::{AssistVoltages, CellCharacterizer};
use sram_device::{DeviceLibrary, VtFlavor};
use sram_units::{Time, Voltage};

fn vdd() -> Voltage {
    Voltage::from_millivolts(450.0)
}

fn chr(flavor: VtFlavor) -> CellCharacterizer {
    CellCharacterizer::new(&DeviceLibrary::sevennm(), flavor)
}

#[test]
fn wordline_off_never_flips() {
    let c = chr(VtFlavor::Hvt);
    let bias = AssistVoltages::nominal(vdd());
    assert!(!write_flips(&c, &bias, Voltage::ZERO).unwrap().0);
}

#[test]
fn strong_wordline_flips() {
    let c = chr(VtFlavor::Hvt);
    let bias = AssistVoltages::nominal(vdd());
    assert!(write_flips(&c, &bias, Voltage::from_volts(0.9)).unwrap().0);
}

#[test]
fn settling_agrees_with_converged_probes_either_side_of_the_flip() {
    for flavor in [VtFlavor::Lvt, VtFlavor::Hvt] {
        let c = chr(flavor);
        let bias = AssistVoltages::nominal(vdd());
        let flip = c.wordline_flip_voltage(&bias).unwrap();
        for (offset_mv, flips) in [(-20.0, false), (20.0, true)] {
            let v = flip + Voltage::from_millivolts(offset_mv);
            assert_eq!(
                write_flips(&c, &bias, v).unwrap().0,
                flips,
                "{flavor} DC at {v}"
            );
            assert_eq!(
                settles_flipped(&c, &bias, v, Time::from_nanoseconds(2.0)).unwrap(),
                flips,
                "{flavor} transient at {v}"
            );
        }
    }
}
