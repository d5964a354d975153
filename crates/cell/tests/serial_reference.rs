//! The parallel Monte Carlo run and the parallel snapshot return the
//! bits of serial loops written out here from the public API.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sram_cell::{
    AssistVoltages, CellCharacterization, CellCharacterizer, CellError, CharacterizationGrid,
    MarginKind, MarginStats, MonteCarloConfig, YieldAnalysis, YieldAnalyzer,
};
use sram_device::{DeviceLibrary, VtFlavor};
use sram_units::Voltage;

/// Mean, sample standard deviation and minimum, summed in sample order.
fn stats(kind: MarginKind, values: &[f64]) -> MarginStats {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0);
    MarginStats {
        kind,
        mean: Voltage::from_volts(mean),
        sigma: Voltage::from_volts(var.sqrt()),
        worst: Voltage::from_volts(values.iter().copied().fold(f64::INFINITY, f64::min)),
        samples: values.len(),
    }
}

/// A collapsed butterfly is a zero-margin sample.
fn margin_or_zero(result: Result<Voltage, CellError>) -> f64 {
    match result {
        Ok(v) => v.volts(),
        Err(CellError::MeasurementFailed { .. }) => 0.0,
        Err(e) => panic!("margin: {e}"),
    }
}

/// One sample after another: draw the varied cell, measure HSNM at the
/// nominal rails, RSNM at the read assists, WM at the write assists.
fn serial_monte_carlo(
    chr: &CellCharacterizer,
    config: MonteCarloConfig,
    bias: &AssistVoltages,
) -> YieldAnalysis {
    let nominal = AssistVoltages::nominal(chr.vdd());
    let read_bias = nominal.with_vddc(bias.vddc).with_vssc(bias.vssc);
    let write_bias = nominal.with_vwl(bias.vwl).with_vbl(bias.vbl);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let (mut hsnm, mut rsnm, mut wm) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..config.samples {
        let cell = chr.cell().with_variation(&mut rng);
        let sample = chr
            .clone()
            .with_cell(cell)
            .with_vtc_points(config.vtc_points);
        hsnm.push(margin_or_zero(sample.hold_snm(&nominal)));
        rsnm.push(margin_or_zero(sample.read_snm(&read_bias)));
        wm.push(match sample.write_margin(&write_bias) {
            Ok(v) => v.volts(),
            Err(CellError::BracketingFailed { .. }) => 0.0,
            Err(e) => panic!("write margin: {e}"),
        });
    }
    YieldAnalysis {
        hsnm: stats(MarginKind::Hsnm, &hsnm),
        rsnm: stats(MarginKind::Rsnm, &rsnm),
        wm: stats(MarginKind::WriteMargin, &wm),
    }
}

#[test]
fn monte_carlo_equals_the_serial_loop() {
    let lib = DeviceLibrary::sevennm();
    let mv = Voltage::from_millivolts;
    // (flavor, seed): both seeds take the write-probe fallback once per
    // run at either bias (`write_fallback_runs.rs`).
    for (flavor, seed) in [(VtFlavor::Lvt, 21), (VtFlavor::Hvt, 29)] {
        // The (V_DDC, V_WL, V_SSC) rails of the flavor's M1 and M2
        // sim-stack designs.
        let rails = match flavor {
            VtFlavor::Lvt => [(610.0, 610.0, 0.0), (610.0, 490.0, -240.0)],
            VtFlavor::Hvt => [(560.0, 560.0, 0.0), (560.0, 530.0, -240.0)],
        };
        for (vddc, vwl, vssc) in rails {
            let bias = AssistVoltages::nominal(lib.nominal_vdd())
                .with_vddc(mv(vddc))
                .with_vwl(mv(vwl))
                .with_vssc(mv(vssc));
            let chr = CellCharacterizer::new(&lib, flavor);
            let config = MonteCarloConfig {
                samples: 16,
                seed,
                vtc_points: 25,
            };
            let parallel = YieldAnalyzer::new(chr.clone(), config)
                .run(&bias)
                .unwrap_or_else(|e| panic!("{flavor} seed {seed} at V_WL {vwl} mV: {e}"));
            let serial = serial_monte_carlo(&chr, config, &bias);
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
