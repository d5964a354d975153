//! Ablation studies of the framework's design choices.
//!
//! * **A1 — rail pinning** (Section 5's argument): the paper pins `V_DDC`
//!   and `V_WL` at the minimum yield-meeting levels instead of sweeping
//!   them, arguing that raising either only costs energy. This ablation
//!   *does* sweep `V_DDC` and confirms the minimum-EDP point sits at the
//!   pinned level.
//! * **A2 — Pareto pruning**: walk the whole space once for the
//!   energy-delay Pareto front, and verify the exhaustive search's EDP
//!   optimum lies on the (much smaller) front — quantifying how much a
//!   dominance-pruned search could skip.
//! * **A4 — coordinate descent**: how close the greedy
//!   [`Search::descend`] gets to the exhaustive optimum, and at how many
//!   fewer evaluations.

use crate::format_series;
use sram_array::{ArrayParams, Capacity, Periphery};
use sram_cell::CellCharacterization;
use sram_coopt::{CooptError, DesignSpace, EnergyDelayProduct, Search, YieldConstraint};
use sram_device::{DeviceLibrary, VtFlavor};
use sram_units::Voltage;

/// A1: EDP of the best design as a function of the `V_DDC` boost above
/// the yield minimum (550 mV for HVT). Returns `(boost_mv, edp)` pairs.
///
/// # Errors
///
/// Propagates search failures.
fn rail_pinning_sweep(capacity: Capacity) -> Result<Vec<(f64, f64)>, CooptError> {
    let lib = DeviceLibrary::sevennm();
    let vdd = lib.nominal_vdd();
    let periphery = Periphery::new(&lib);
    let params = ArrayParams::paper_defaults();
    let space = DesignSpace::paper_default().with_strides(3, 2);
    let vwl = Voltage::from_millivolts(540.0);

    let mut out = Vec::new();
    for boost_mv in [0.0, 30.0, 60.0, 90.0] {
        let vddc = Voltage::from_millivolts(550.0 + boost_mv);
        let cell = CellCharacterization::paper_with_rails(VtFlavor::Hvt, vdd, vddc, vwl);
        let search = Search::new(
            &cell,
            &periphery,
            &params,
            &space,
            YieldConstraint::paper_delta(vdd),
            64,
        );
        let outcome = search.run(capacity, &EnergyDelayProduct)?;
        out.push((boost_mv, outcome.score));
    }
    Ok(out)
}

/// A2 result: Pareto front size vs. full space size, and whether the EDP
/// optimum is on the front.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParetoAblation {
    /// Total candidates evaluated.
    pub evaluated: usize,
    /// Non-dominated candidates.
    pub front_size: usize,
    /// EDP of the exhaustive winner.
    pub exhaustive_edp: f64,
    /// EDP of the best front point.
    pub front_edp: f64,
}

/// A2: full evaluation vs. Pareto front for one capacity.
///
/// # Errors
///
/// Propagates search failures.
fn pareto_ablation(capacity: Capacity) -> Result<ParetoAblation, CooptError> {
    let lib = DeviceLibrary::sevennm();
    let vdd = lib.nominal_vdd();
    let cell = CellCharacterization::paper_hvt(vdd);
    let periphery = Periphery::new(&lib);
    let params = ArrayParams::paper_defaults();
    let space = DesignSpace::paper_default().with_strides(3, 2);
    let constraint = YieldConstraint::paper_delta(vdd);
    let search = Search::new(&cell, &periphery, &params, &space, constraint, 64);

    let (front, stats) = search.pareto_front(capacity)?;
    let exhaustive = search.run(capacity, &EnergyDelayProduct)?;
    let front_edp = front
        .min_edp()
        .map(|p| (p.energy * p.delay).joule_seconds())
        .unwrap_or(f64::INFINITY);
    Ok(ParetoAblation {
        evaluated: stats.evaluated,
        front_size: front.len(),
        exhaustive_edp: exhaustive.score,
        front_edp,
    })
}

/// A4: exhaustive vs. coordinate-descent search — optimum gap and the
/// candidates each examines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeuristicAblation {
    /// Candidates an exhaustive walk examines: the whole space at this
    /// capacity. [`Search::run`] finds the same optimum evaluating a
    /// few percent of them.
    pub exhaustive_examined: usize,
    /// Candidates coordinate descent examines.
    pub descent_examined: usize,
    /// Relative EDP gap of the descent result vs. the global optimum.
    pub edp_gap: f64,
}

/// A4: runs both searches on the full paper space for one capacity.
///
/// # Errors
///
/// Propagates search failures.
fn heuristic_ablation(capacity: Capacity) -> Result<HeuristicAblation, CooptError> {
    let lib = DeviceLibrary::sevennm();
    let vdd = lib.nominal_vdd();
    let cell = CellCharacterization::paper_hvt(vdd);
    let periphery = Periphery::new(&lib);
    let params = ArrayParams::paper_defaults();
    let space = DesignSpace::paper_default();
    let constraint = YieldConstraint::paper_delta(vdd);

    let search = Search::new(&cell, &periphery, &params, &space, constraint, 64);
    let exhaustive = search.run(capacity, &EnergyDelayProduct)?;
    let descent = search.descend(capacity, &EnergyDelayProduct)?;
    Ok(HeuristicAblation {
        exhaustive_examined: exhaustive.stats.examined,
        descent_examined: descent.stats.examined,
        edp_gap: descent.score / exhaustive.score - 1.0,
    })
}

/// A5: Table 3 vs. per-word energy accounting — does the optimizer pick
/// a different design, and how do absolute energies compare?
///
/// # Errors
///
/// Propagates search failures.
fn accounting_ablation(capacity: Capacity) -> Result<String, CooptError> {
    let lib = DeviceLibrary::sevennm();
    let vdd = lib.nominal_vdd();
    let cell = CellCharacterization::paper_hvt(vdd);
    let periphery = Periphery::new(&lib);
    let space = DesignSpace::paper_default().with_strides(3, 2);
    let constraint = YieldConstraint::paper_delta(vdd);

    let mut lines = String::new();
    for (name, params) in [
        ("Table 3 (paper)", ArrayParams::paper_defaults()),
        ("per-word", ArrayParams::per_word_accounting()),
    ] {
        let outcome = Search::new(&cell, &periphery, &params, &space, constraint, 64)
            .run(capacity, &EnergyDelayProduct)?;
        lines.push_str(&format!(
            "  {name:<16}: best {}x{} N_pre={} N_wr={} V_SSC={:.0}mV  E={}  D={}\n",
            outcome.best.organization.rows(),
            outcome.best.organization.cols(),
            outcome.best.n_pre,
            outcome.best.n_wr,
            outcome.best.vssc.millivolts(),
            outcome.metrics.energy,
            outcome.metrics.delay,
        ));
    }
    Ok(lines)
}

/// Runs all ablations and formats them.
///
/// # Errors
///
/// Propagates failures from any ablation.
pub fn run() -> Result<String, CooptError> {
    let capacity = Capacity::from_bytes(4096);
    let rails = rail_pinning_sweep(capacity)?;
    let rows: Vec<Vec<String>> = rails
        .iter()
        .map(|&(boost, edp)| {
            vec![
                format!("{:.0}", 550.0 + boost),
                format!("{:.4}", edp * 1e24),
                format!("{:+.2}%", (edp / rails[0].1 - 1.0) * 100.0),
            ]
        })
        .collect();
    let mut out = format!(
        "A1 — V_DDC pinning ablation (4 KB, HVT): EDP vs V_DDC above the yield minimum\n\n{}\n",
        format_series(&["V_DDC[mV]", "EDP[1e-24 J*s]", "vs pinned"], &rows)
    );

    let p = pareto_ablation(capacity)?;
    out.push_str(&format!(
        "A2 — Pareto pruning (4 KB, HVT-M2 space): {} of {} candidates are non-dominated ({:.2}%);\n\
         EDP optimum on front: {} (exhaustive {:.4e}, front {:.4e})\n\n",
        p.front_size,
        p.evaluated,
        100.0 * p.front_size as f64 / p.evaluated as f64,
        if (p.front_edp - p.exhaustive_edp).abs() < 1e-32 { "yes" } else { "NO" },
        p.exhaustive_edp,
        p.front_edp,
    ));

    let h = heuristic_ablation(capacity)?;
    out.push_str(&format!(
        "A4 — exhaustive vs coordinate descent (4 KB): descent reaches within {:.2}% of the\n\
         optimum using {} evaluations vs {} exhaustive ({:.1}x fewer)\n\n",
        h.edp_gap * 100.0,
        h.descent_examined,
        h.exhaustive_examined,
        h.exhaustive_examined as f64 / h.descent_examined as f64,
    ));

    out.push_str("A5 — Table 3 vs per-word energy accounting (4 KB, HVT):\n");
    out.push_str(&accounting_ablation(capacity)?);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_rail_is_near_edp_optimal() {
        // Section 5 argues boosting V_DDC beyond the yield minimum only
        // adds energy. Strictly, Table 2 ties I_read to V_DDC, so a boost
        // *does* shave bitline delay; the ablation shows the pinned rail
        // is within a few percent of optimal rather than exactly optimal.
        let sweep = rail_pinning_sweep(Capacity::from_bytes(1024)).unwrap();
        let pinned = sweep[0].1;
        for &(boost, edp) in &sweep {
            let rel = (edp - pinned) / pinned;
            assert!(
                rel.abs() < 0.10,
                "EDP at +{boost} mV deviates {:.1}% from pinned",
                rel * 100.0
            );
        }
    }

    #[test]
    fn heuristic_saves_evaluations_without_losing_much() {
        let h = heuristic_ablation(Capacity::from_bytes(1024)).unwrap();
        assert!(h.edp_gap >= -1e-12);
        assert!(h.edp_gap < 0.05, "gap {:.3}", h.edp_gap);
        assert!(h.descent_examined * 10 < h.exhaustive_examined);
    }

    #[test]
    fn accounting_ablation_reports_both_policies() {
        let text = accounting_ablation(Capacity::from_bytes(1024)).unwrap();
        assert!(text.contains("Table 3"));
        assert!(text.contains("per-word"));
    }

    #[test]
    fn edp_optimum_lies_on_pareto_front() {
        let p = pareto_ablation(Capacity::from_bytes(1024)).unwrap();
        assert!(p.front_size > 0);
        assert!(p.front_size < p.evaluated / 10, "front should prune >90%");
        assert!(
            (p.front_edp - p.exhaustive_edp).abs() <= 1e-30,
            "front EDP {} vs exhaustive {}",
            p.front_edp,
            p.exhaustive_edp
        );
    }
}
