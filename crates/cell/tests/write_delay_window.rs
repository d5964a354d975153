//! `write_delay`, whose transient ends at the first step where `Q` has
//! met `QB`, against the same measurement on the whole 60 ps window
//! (`common::full_window_write_delay`): the same `Time` to the bit, or
//! the same error, for nominal and varied cells.

mod common;

use common::{full_window_write_delay, sample};
use sram_cell::{AssistVoltages, CellCharacterizer, CellError};
use sram_device::{DeviceLibrary, VtFlavor};
use sram_faults::{ordered_map, CancelToken};
use sram_units::Voltage;

/// The write biases at supply `vdd`: at 450 mV the LUT's `V_WL` grid
/// (450–630 mV), Fig. 5's wordline-overdrive (450–650 mV) and
/// negative-bitline (0 to −200 mV) sweeps; at 400 and 500 mV the
/// wordline at, and 60 and 120 mV above, the supply and a −100 mV
/// bitline. Every supply adds a 150 mV wordline that cannot flip the
/// cell.
fn biases(vdd: f64) -> Vec<(String, AssistVoltages)> {
    let mv = Voltage::from_millivolts;
    let nominal = AssistVoltages::nominal(mv(vdd));
    let (wordlines, bitlines): (Vec<f64>, Vec<f64>) = if vdd == 450.0 {
        let lut = (0..=6).map(|k| 450.0 + 30.0 * f64::from(k));
        let fig5a = (0..=8).map(|k| 450.0 + 25.0 * f64::from(k));
        let fig5b = (1..=8).map(|k| -25.0 * f64::from(k));
        (lut.chain(fig5a).collect(), fig5b.collect())
    } else {
        (vec![vdd, vdd + 60.0, vdd + 120.0], vec![-100.0])
    };
    let wordlines = wordlines.into_iter().chain([150.0]).map(|vwl| {
        let at = format!("Vdd {vdd} mV, V_WL {vwl} mV");
        (at, nominal.with_vwl(mv(vwl)))
    });
    let bitlines = bitlines.into_iter().map(|vbl| {
        let at = format!("Vdd {vdd} mV, V_BL {vbl} mV");
        (at, nominal.with_vbl(mv(vbl)))
    });
    wordlines.chain(bitlines).collect()
}

/// The nominal cell and three varied ones of `flavor` at every bias of
/// every supply, each delay measured both ways on one worker per core.
fn agree(flavor: VtFlavor) {
    let lib = DeviceLibrary::sevennm();
    let cells = std::iter::once(("nominal".to_string(), CellCharacterizer::new(&lib, flavor)))
        .chain((0..3).map(|index| (format!("seed 400 #{index}"), sample(flavor, 400, index))));
    let mut cases = Vec::new();
    for (cell, chr) in cells {
        for vdd in [400.0, 450.0, 500.0] {
            let chr = chr.clone().with_vdd(Voltage::from_millivolts(vdd));
            for (at, bias) in biases(vdd) {
                cases.push((format!("{flavor} {cell} at {at}"), chr.clone(), bias));
            }
        }
    }
    let results = ordered_map(&cases, &CancelToken::never(), |(_, chr, bias)| {
        Ok::<_, CellError>((chr.write_delay(bias), full_window_write_delay(chr, bias)))
    })
    .expect("never cancelled");
    let mut failed = 0;
    for ((label, ..), (delay, oracle)) in cases.iter().zip(results) {
        let same = match (&delay, &oracle) {
            (Ok(a), Ok(b)) => a.seconds().to_bits() == b.seconds().to_bits(),
            (Err(a), Err(b)) => a == b,
            _ => false,
        };
        assert!(same, "{label}: {delay:?} vs {oracle:?}");
        failed += usize::from(matches!(delay, Err(CellError::MeasurementFailed { .. })));
    }
    assert!(
        failed >= 12,
        "every cell at every supply has a wordline too weak to write: {failed}"
    );
}

#[test]
fn lvt_delays_equal_the_full_window_run() {
    agree(VtFlavor::Lvt);
}

#[test]
fn hvt_delays_equal_the_full_window_run() {
    agree(VtFlavor::Hvt);
}
