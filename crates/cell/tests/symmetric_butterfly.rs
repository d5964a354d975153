//! `hold_snm` and `read_snm`, which sweep one VTC when the cell's two
//! halves have equal devices, against the butterfly of both halves'
//! sweeps (`common::butterfly_vtcs`): the same `Result`, its volts equal
//! to the bit, for nominal cells (one sweep) and varied ones (two).

mod common;

use common::{butterfly_vtcs, same_margin, sample};
use sram_cell::{butterfly_snm, AssistVoltages, CellCharacterizer, CellError, VtcMode};
use sram_device::{DeviceLibrary, VtFlavor};
use sram_faults::{ordered_map, CancelToken};
use sram_units::Voltage;

/// `(Vdd, V_DDC, V_SSC)` in mV: each supply with `V_DDC` at, above and
/// below it, and `V_SSC` at 0, negative and positive.
const BIASES: [(f64, f64, f64); 12] = [
    (450.0, 450.0, 0.0),
    (450.0, 560.0, 0.0),
    (450.0, 300.0, 0.0),
    (450.0, 610.0, -240.0),
    (450.0, 450.0, 100.0),
    (400.0, 400.0, 0.0),
    (400.0, 500.0, -100.0),
    (400.0, 300.0, 150.0),
    (500.0, 500.0, 0.0),
    (500.0, 600.0, -240.0),
    (500.0, 400.0, 0.0),
    (500.0, 500.0, 200.0),
];

/// The nominal cell and three varied ones of `flavor`, hold and read,
/// at every bias, with 25-, 31- and 61-point VTCs in turn: 96
/// butterflies, each measured both ways on one worker per core.
fn agree(flavor: VtFlavor) {
    let lib = DeviceLibrary::sevennm();
    let mv = Voltage::from_millivolts;
    let cells = std::iter::once(("nominal".to_string(), CellCharacterizer::new(&lib, flavor)))
        .chain((0..3).map(|index| (format!("seed 300 #{index}"), sample(flavor, 300, index))));
    let mut cases = Vec::new();
    for (c, (cell, chr)) in cells.enumerate() {
        for (b, (vdd, vddc, vssc)) in BIASES.into_iter().enumerate() {
            let bias = AssistVoltages::nominal(mv(vdd))
                .with_vddc(mv(vddc))
                .with_vssc(mv(vssc));
            for (m, mode) in [VtcMode::Hold, VtcMode::Read].into_iter().enumerate() {
                let points = [25, 31, 61][(c + b + m) % 3];
                let label = format!(
                    "{flavor} {cell} {mode:?} at Vdd {vdd} mV, V_DDC {vddc} mV, \
                     V_SSC {vssc} mV, {points} points"
                );
                let chr = chr.clone().with_vdd(mv(vdd)).with_vtc_points(points);
                cases.push((label, chr, mode, bias, points));
            }
        }
    }
    let results = ordered_map(
        &cases,
        &CancelToken::never(),
        |(_, chr, mode, bias, points)| {
            let measured = match mode {
                VtcMode::Hold => chr.hold_snm(bias),
                VtcMode::Read => chr.read_snm(bias),
            };
            let oracle = butterfly_vtcs(chr, *mode, bias, *points)
                .and_then(|(left, right)| butterfly_snm(&left, &right));
            Ok::<_, CellError>((measured, oracle))
        },
    )
    .expect("never cancelled");
    for ((label, ..), (measured, oracle)) in cases.iter().zip(results) {
        assert!(
            same_margin(&measured, &oracle),
            "{label}: {measured:?} vs {oracle:?}"
        );
    }
}

#[test]
fn lvt_margins_equal_the_two_sweep_butterfly() {
    agree(VtFlavor::Lvt);
}

#[test]
fn hvt_margins_equal_the_two_sweep_butterfly() {
    agree(VtFlavor::Hvt);
}
