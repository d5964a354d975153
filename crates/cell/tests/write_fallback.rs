//! Write-margin probes just past the fold of the stored `Q = 1` state.
//!
//! Each cell below is a Monte Carlo sample — `(flavor, seed, index)`,
//! the `index`-th (0-based) draw of `YieldAnalyzer`'s RNG for `seed` —
//! whose pinned DC write probe once failed to converge under one FinFET
//! Jacobian or another (`common::CENSUS`). The write margin must come
//! back, and its flip voltage must sit where a dense scan of cold
//! probes puts the flip.
//!
//! A probe that lets the cell settle instead decides after a fixed
//! 2 ns. Every such probe in a 0.1 mV scan is checked against the same
//! settling run ten times longer, and the scan's decisions, fallbacks
//! included, must rise monotonically from "holds" to "flips". The
//! non-converging window is not narrow (over 1.5 mV of consecutive
//! fallbacks for HVT seed 93 #9), so its answers carry the margin. The
//! probe registry is process-global and the fallbacks are told apart
//! by `cell.wm_probe_fallbacks`, so this binary holds exactly one test.

mod common;

use common::{sample, CENSUS};
use sram_cell::{AssistVoltages, CellCharacterizer};
use sram_probe::Level;
use sram_spice::{DcSolver, Transient};
use sram_units::{Time, Voltage};

/// `write_flips` at `v`, and whether its DC solve fell back to letting
/// the cell settle.
fn probe(chr: &CellCharacterizer, bias: &AssistVoltages, v: Voltage) -> (bool, bool) {
    let before = sram_probe::snapshot();
    let flips = chr.write_flips(bias, v).expect("a write probe never fails");
    let diff = sram_probe::snapshot().diff(&before);
    let fallbacks = diff.counters.get("cell.wm_probe_fallbacks").copied();
    (flips, fallbacks.unwrap_or(0) > 0)
}

/// Whether the cell, storing `Q = 1`, has flipped 20 ns after the
/// wordline steps to `v`: ten times as long as the fallback waits.
fn flipped_after_20_ns(chr: &CellCharacterizer, bias: &AssistVoltages, v: Voltage) -> bool {
    let (ckt, nodes) = chr.cell().write_transient_circuit(
        &bias.with_vwl(v),
        chr.vdd(),
        Time::from_picoseconds(2.0),
        Time::from_picoseconds(0.5),
    );
    let end = Transient::new(Time::from_nanoseconds(20.0), Time::from_picoseconds(2.0))
        .with_initial_solver(
            DcSolver::new()
                .nodeset(nodes.q, bias.vddc)
                .nodeset(nodes.qb, bias.vssc),
        )
        .final_state(&ckt)
        .expect("the settling run converges");
    end.voltage(nodes.q) < end.voltage(nodes.qb)
}

#[test]
fn census_cells_flip_where_a_dense_scan_says() {
    sram_probe::set_level(Level::Summary);
    let mv = Voltage::from_millivolts;
    let mut fallbacks = 0;
    for (flavor, seed, index) in CENSUS {
        let chr = sample(flavor, seed, index);
        let bias = AssistVoltages::nominal(chr.vdd());
        let wm = chr
            .write_margin(&bias)
            .unwrap_or_else(|e| panic!("{flavor} seed {seed} #{index}: {e}"));
        let flip = bias.vwl - wm;
        // 0.25 mV probes over ±3 mV around the flip voltage.
        let scan: Vec<(Voltage, bool)> = (0..=24)
            .map(|k| {
                let v = flip - mv(3.0) + mv(0.25 * f64::from(k));
                (v, chr.write_flips(&bias, v).unwrap())
            })
            .collect();
        assert!(
            !scan[0].1 && scan[scan.len() - 1].1,
            "{flavor} seed {seed} #{index}: no flip inside ±3 mV of {flip}"
        );
        let first = scan.iter().find(|(_, flips)| *flips).map(|&(v, _)| v);
        let first = first.expect("the last probe flips");
        assert!(
            (flip - first).abs() <= mv(1.0),
            "{flavor} seed {seed} #{index}: search {flip}, dense scan {first}"
        );

        // 0.1 mV probes over ±1.5 mV, fine enough to land inside the
        // window where the pinned DC solve does not converge.
        let fine: Vec<(Voltage, bool, bool)> = (0..=30)
            .map(|k| {
                let v = flip - mv(1.5) + mv(0.1 * f64::from(k));
                let (flips, fell_back) = probe(&chr, &bias, v);
                (v, flips, fell_back)
            })
            .collect();
        let first = fine.iter().position(|&(_, flips, _)| flips);
        let first = first.expect("the fine scan reaches the flip");
        assert!(
            fine[first..].iter().all(|&(_, flips, _)| flips),
            "{flavor} seed {seed} #{index}: a probe holds above {}",
            fine[first].0
        );
        for &(v, flips, _) in fine.iter().filter(|&&(_, _, fell_back)| fell_back) {
            fallbacks += 1;
            assert_eq!(
                flipped_after_20_ns(&chr, &bias, v),
                flips,
                "{flavor} seed {seed} #{index}: settling for 2 ns and 20 ns disagree at {v}"
            );
        }
    }
    assert!(fallbacks > 0, "no probe in the scans let the cell settle");
}
