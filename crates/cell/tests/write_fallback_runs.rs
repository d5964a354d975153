//! Whole Monte Carlo runs through the write-probe fallback.
//!
//! The 16-sample runs of these seeds once failed at the sim-stack
//! biases because one write-margin DC probe did not converge. They must
//! succeed now, and `cell.wm_probe_fallbacks` must count exactly the
//! probes that let the cell settle instead.
//!
//! The probe registry is process-global, so this binary holds exactly
//! one test: a second test in the same process could move the counter
//! between a snapshot and its diff.

use sram_cell::{AssistVoltages, CellCharacterizer, MonteCarloConfig, YieldAnalyzer};
use sram_device::{DeviceLibrary, VtFlavor};
use sram_probe::Level;
use sram_units::Voltage;

#[test]
fn failing_seeds_now_complete_and_count_their_fallbacks() {
    sram_probe::set_level(Level::Detail);
    let lib = DeviceLibrary::sevennm();
    let mv = Voltage::from_millivolts;
    // (flavor, Monte Carlo seed, fallbacks per run): the seeds left out
    // of the sim-stack seed pool.
    let runs = [
        (VtFlavor::Lvt, 21, 1),
        (VtFlavor::Lvt, 49, 1),
        (VtFlavor::Hvt, 29, 1),
        (VtFlavor::Hvt, 57, 0),
        (VtFlavor::Hvt, 62, 0),
    ];
    for (flavor, seed, fallbacks) in runs {
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
            let analyzer = YieldAnalyzer::new(
                CellCharacterizer::new(&lib, flavor),
                MonteCarloConfig {
                    samples: 16,
                    seed,
                    vtc_points: 25,
                },
            );
            let before = sram_probe::snapshot();
            let analysis = analyzer
                .run(&bias)
                .unwrap_or_else(|e| panic!("{flavor} seed {seed} at V_WL {vwl} mV: {e}"));
            let diff = sram_probe::snapshot().diff(&before);
            assert_eq!(analysis.wm.samples, 16);
            assert_eq!(
                diff.counters
                    .get("cell.wm_probe_fallbacks")
                    .copied()
                    .unwrap_or(0),
                fallbacks,
                "{flavor} seed {seed} at V_WL {vwl} mV"
            );
        }
    }
}
