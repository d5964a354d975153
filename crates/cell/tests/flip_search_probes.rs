//! The simulator work of one nominal flip search per flavor, counted
//! exactly, and the search's one trace span.
//!
//! The search solves the pinned hold state once (four pin-release
//! Newton runs and a free one) and then takes one plain-Newton run per
//! continuation step; every Newton iteration factors the Jacobian once.
//! A step that loses the `Q = 1` branch is an answer of the search, not
//! a failed analysis, so `spice.dc_nonconvergent` stays at zero.
//!
//! The probe registry is process-global, so this binary holds exactly
//! one test: a second test in the same process could move the counters
//! between a snapshot and its diff.

use sram_cell::{AssistVoltages, CellCharacterizer};
use sram_device::{DeviceLibrary, VtFlavor};
use sram_probe::trace::{Phase, Scope};
use sram_probe::{Level, Snapshot};

fn counter(diff: &Snapshot, name: &str) -> u64 {
    diff.counters.get(name).copied().unwrap_or(0)
}

#[test]
fn nominal_flip_searches_count_their_solver_work() {
    sram_probe::set_level(Level::Detail);
    let lib = DeviceLibrary::sevennm();
    // (flavor, LU factorizations, Newton runs).
    for (flavor, factorizations, newton_runs) in
        [(VtFlavor::Lvt, 180, 24), (VtFlavor::Hvt, 190, 25)]
    {
        let chr = CellCharacterizer::new(&lib, flavor);
        let bias = AssistVoltages::nominal(chr.vdd());
        let scope = Scope::begin();
        let before = sram_probe::snapshot();
        chr.wordline_flip_voltage(&bias)
            .unwrap_or_else(|e| panic!("{flavor}: {e}"));
        let diff = sram_probe::snapshot().diff(&before);
        let events = scope.finish();

        let runs = diff.histograms.get("spice.newton_iters_per_solve");
        assert_eq!(
            counter(&diff, "spice.lu_factorizations"),
            factorizations,
            "{flavor}"
        );
        assert_eq!(runs.map_or(0, |h| h.count), newton_runs, "{flavor}");
        assert_eq!(counter(&diff, "spice.dc_nonconvergent"), 0, "{flavor}");

        // One span for the whole search; the hold-state solve is the
        // only simulator span, and it nests under the search.
        let spans: Vec<_> = events.iter().filter(|e| e.phase != Phase::End).collect();
        let names: Vec<&str> = spans.iter().map(|e| e.name).collect();
        assert_eq!(names, ["cell.wm_flip_search", "spice.dc_solve"], "{flavor}");
        assert_eq!(spans[1].parent, spans[0].id, "{flavor}");
    }
}
