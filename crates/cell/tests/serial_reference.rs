//! The parallel Monte Carlo run and the parallel snapshot return the
//! bits of serial loops written out here from the public API.

mod common;

use common::{margin_or_zero, rails_bias, serial_monte_carlo, sim_stack_rails};
use sram_cell::{
    AssistVoltages, CellCharacterization, CellCharacterizer, CharacterizationGrid,
    MonteCarloConfig, YieldAnalyzer,
};
use sram_device::{DeviceLibrary, VtFlavor};
use sram_units::Voltage;

#[test]
fn monte_carlo_equals_the_serial_loop() {
    let lib = DeviceLibrary::sevennm();
    // (flavor, seed): two of the seeds left out of the sim-stack seed
    // pool, whose runs once took the write-probe fallback
    // (`write_fallback_runs.rs`).
    for (flavor, seed) in [(VtFlavor::Lvt, 21), (VtFlavor::Hvt, 29)] {
        for rails in sim_stack_rails(flavor) {
            let bias = rails_bias(lib.nominal_vdd(), rails);
            let vwl = rails.1;
            let chr = CellCharacterizer::new(&lib, flavor);
            let config = MonteCarloConfig {
                samples: 16,
                seed,
                vtc_points: 25,
            };
            let parallel = YieldAnalyzer::new(chr.clone(), config)
                .run(&bias)
                .unwrap_or_else(|e| panic!("{flavor} seed {seed} at V_WL {vwl} mV: {e}"));
            let serial = serial_monte_carlo(
                &chr,
                config,
                &bias,
                CellCharacterizer::wordline_flip_voltage,
            );
            for (got, want) in [
                (parallel.hsnm, serial.hsnm),
                (parallel.rsnm, serial.rsnm),
                (parallel.wm, serial.wm),
            ] {
                let at = format!("{flavor} seed {seed} at V_WL {vwl} mV, {}", want.kind);
                assert_eq!(got.mean, want.mean, "mean, {at}");
                assert_eq!(got.sigma, want.sigma, "sigma, {at}");
                assert_eq!(got.worst, want.worst, "worst, {at}");
                assert_eq!(got.samples, want.samples, "samples, {at}");
            }
        }
    }
}

#[test]
fn snapshot_equals_the_direct_measurements() {
    let lib = DeviceLibrary::sevennm();
    let mv = Voltage::from_millivolts;
    // Each flavor at its simulated M2 rails.
    for (flavor, vddc, vwl) in [(VtFlavor::Lvt, 610.0, 490.0), (VtFlavor::Hvt, 560.0, 530.0)] {
        let chr = CellCharacterizer::new(&lib, flavor).with_vtc_points(31);
        let grid = CharacterizationGrid::paper_default(mv(vddc), mv(vwl));
        let snapshot = CellCharacterization::characterize(&chr, &grid)
            .unwrap_or_else(|e| panic!("{flavor}: {e}"));
        let nominal = AssistVoltages::nominal(chr.vdd());

        assert_eq!(
            snapshot.leakage(),
            chr.leakage_power(&nominal).unwrap(),
            "{flavor}"
        );
        assert_eq!(snapshot.hsnm(), chr.hold_snm(&nominal).unwrap(), "{flavor}");
        assert_eq!(grid.vssc_values.len(), 9);
        for &vssc in &grid.vssc_values {
            let bias = nominal.with_vddc(grid.vddc).with_vssc(vssc);
            let at = format!("{flavor} at V_SSC {vssc}");
            let rsnm = margin_or_zero(chr.read_snm(&bias));
            assert_eq!(snapshot.rsnm(vssc).volts(), rsnm, "RSNM, {at}");
            let current = chr.read_current(&bias).unwrap();
            assert_eq!(snapshot.read_current(vssc), current, "read current, {at}");
        }
        let wm = chr.write_margin(&nominal.with_vwl(grid.vwl)).unwrap();
        assert_eq!(snapshot.write_margin(), wm, "{flavor}");
        assert_eq!(grid.vwl_values.len(), 7);
        for &vwl in &grid.vwl_values {
            let delay = chr.write_delay(&nominal.with_vwl(vwl)).unwrap();
            assert_eq!(snapshot.write_delay(vwl), delay, "{flavor} at V_WL {vwl}");
        }
    }
}
