//! Write-margin probes just past the fold of the stored `Q = 1` state.
//!
//! Each cell below is a Monte Carlo sample — `(flavor, seed, index)`,
//! the `index`-th (0-based) draw of `YieldAnalyzer`'s RNG for `seed` —
//! whose pinned DC write probe once failed to converge under one FinFET
//! Jacobian or another (`common::CENSUS`). The write margin must come
//! back, and its flip voltage must sit where a dense scan of cold
//! probes (`common::write_flips`) puts the flip.
//!
//! A probe that lets the cell settle instead decides after a fixed
//! 2 ns. Every such probe in a 0.1 mV scan is checked against the same
//! settling run ten times longer, and the scan's decisions, fallbacks
//! included, must rise monotonically from "holds" to "flips". The
//! non-converging window is not narrow (over 1.5 mV of consecutive
//! fallbacks for HVT seed 93 #9), so its answers carry the margin.

mod common;

use common::{sample, settles_flipped, write_flips, CENSUS};
use sram_cell::AssistVoltages;
use sram_units::{Time, Voltage};

#[test]
fn census_cells_flip_where_a_dense_scan_says() {
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
                (v, write_flips(&chr, &bias, v).unwrap().0)
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
                let (flips, fell_back) =
                    write_flips(&chr, &bias, v).expect("a write probe never fails");
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
            let settled = settles_flipped(&chr, &bias, v, Time::from_nanoseconds(20.0));
            assert_eq!(
                settled.expect("the settling run converges"),
                flips,
                "{flavor} seed {seed} #{index}: settling for 2 ns and 20 ns disagree at {v}"
            );
        }
    }
    assert!(fallbacks > 0, "no probe in the scans let the cell settle");
}
