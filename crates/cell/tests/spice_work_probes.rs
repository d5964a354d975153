//! The simulator work of a nominal write delay and of nominal and
//! varied read butterflies, counted exactly.
//!
//! A write delay is one transient run that ends at the first accepted
//! step where `Q` has met `QB`, about a fifth of its 60 ps window. A
//! nominal cell's two halves are the same netlist, so its butterfly
//! sweeps one VTC; a varied cell's sweeps both. Every DC solve is timed
//! once, sweep points included.
//!
//! The probe registry is process-global, so this binary holds exactly
//! one test: a second test in the same process could move the counters
//! between a snapshot and its diff.

mod common;

use common::sample;
use sram_cell::{AssistVoltages, CellCharacterizer};
use sram_device::{DeviceLibrary, VtFlavor};
use sram_probe::{Level, Snapshot};
use sram_units::Voltage;

fn counter(diff: &Snapshot, name: &str) -> u64 {
    diff.counters.get(name).copied().unwrap_or(0)
}

fn samples(diff: &Snapshot, name: &str) -> u64 {
    diff.histograms.get(name).map_or(0, |h| h.count)
}

#[test]
fn write_delays_and_read_butterflies_count_their_simulator_work() {
    sram_probe::set_level(Level::Summary);
    let lib = DeviceLibrary::sevennm();
    // (flavor, accepted steps, rejected steps) of a write at V_WL 540 mV.
    for (flavor, steps, rejected) in [(VtFlavor::Lvt, 54, 3), (VtFlavor::Hvt, 58, 3)] {
        let chr = CellCharacterizer::new(&lib, flavor);
        let bias = AssistVoltages::nominal(chr.vdd()).with_vwl(Voltage::from_millivolts(540.0));
        let before = sram_probe::snapshot();
        chr.write_delay(&bias)
            .unwrap_or_else(|e| panic!("{flavor}: {e}"));
        let diff = sram_probe::snapshot().diff(&before);
        assert_eq!(counter(&diff, "spice.transient_runs"), 1, "{flavor}");
        assert_eq!(counter(&diff, "spice.transient_steps"), steps, "{flavor}");
        assert_eq!(
            counter(&diff, "spice.transient_rejected_steps"),
            rejected,
            "{flavor}"
        );
        assert_eq!(samples(&diff, "spice.transient_ns"), 1, "{flavor}");
    }

    // 31-point read butterflies: one sweep for a nominal cell, two for a
    // varied one.
    for flavor in [VtFlavor::Lvt, VtFlavor::Hvt] {
        let nominal = CellCharacterizer::new(&lib, flavor);
        let varied = sample(flavor, 1, 0);
        for (label, chr, solves) in [("nominal", nominal, 31), ("varied", varied, 62)] {
            let chr = chr.with_vtc_points(31);
            let bias = AssistVoltages::nominal(chr.vdd());
            let before = sram_probe::snapshot();
            chr.read_snm(&bias)
                .unwrap_or_else(|e| panic!("{flavor} {label}: {e}"));
            let diff = sram_probe::snapshot().diff(&before);
            assert_eq!(
                counter(&diff, "spice.dc_solves"),
                solves,
                "{flavor} {label}"
            );
            assert_eq!(
                samples(&diff, "spice.dc_solve_ns"),
                solves,
                "{flavor} {label}"
            );
        }
    }
}
