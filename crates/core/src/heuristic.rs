//! Coordinate-descent search: a cheap alternative to exhaustive search.
//!
//! The paper justifies exhaustive search by the small variable count
//! ("only four variables with relatively small ranges"). This module
//! provides the obvious cheaper alternative — cyclic coordinate descent
//! over `(n_r, V_SSC, N_pre, N_wr)` — so the trade-off can be measured:
//! how often does the greedy search land on the true optimum, and how
//! many evaluations does it save? (See the ablation benches.)

use crate::{
    CooptError, DesignPoint, DesignSpace, Objective, SearchOutcome, SearchStatistics,
    YieldConstraint,
};
use sram_array::{ArrayModel, ArrayOrganization, ArrayParams, Capacity, Periphery};
use sram_cell::CellCharacterization;
use sram_units::Voltage;

/// Cyclic coordinate descent over the design space.
#[derive(Debug, Clone)]
pub struct CoordinateDescent<'a> {
    cell: &'a CellCharacterization,
    periphery: &'a Periphery,
    params: &'a ArrayParams,
    space: &'a DesignSpace,
    constraint: YieldConstraint,
    word_bits: u32,
    max_rounds: usize,
}

impl<'a> CoordinateDescent<'a> {
    /// Creates a descent bound to the same inputs as
    /// [`crate::ExhaustiveSearch`].
    #[must_use]
    pub fn new(
        cell: &'a CellCharacterization,
        periphery: &'a Periphery,
        params: &'a ArrayParams,
        space: &'a DesignSpace,
        constraint: YieldConstraint,
        word_bits: u32,
    ) -> Self {
        Self {
            cell,
            periphery,
            params,
            space,
            constraint,
            word_bits,
            max_rounds: 8,
        }
    }

    /// Scores one visited candidate under the exhaustive search's
    /// policy: a `V_SSC` that fails the yield constraint counts as
    /// infeasible, and a model error or non-finite score counts as an
    /// evaluation error and never becomes the incumbent.
    fn evaluate(
        &self,
        org: ArrayOrganization,
        vssc: Voltage,
        n_pre: u32,
        n_wr: u32,
        objective: &(impl Objective + ?Sized),
        stats: &mut SearchStatistics,
    ) -> Option<(f64, sram_array::ArrayMetrics)> {
        stats.examined += 1;
        if !self.constraint.check_snapshot(self.cell, vssc) {
            stats.infeasible += 1;
            return None;
        }
        stats.feasible += 1;
        let scored = ArrayModel::new(org, self.cell, self.periphery, self.params)
            .with_precharge_fins(n_pre)
            .with_write_fins(n_wr)
            .with_vssc(vssc)
            .evaluate()
            .ok()
            .map(|metrics| (objective.score(&metrics), metrics))
            .filter(|(score, _)| score.is_finite());
        if scored.is_some() {
            stats.evaluated += 1;
        } else {
            stats.eval_errors += 1;
        }
        scored
    }

    /// Runs the descent: starting from the median of every range, sweep
    /// one variable at a time to its best value and repeat until a full
    /// round makes no improvement (or the round budget is hit).
    ///
    /// # Errors
    ///
    /// * [`CooptError::EmptyDesignSpace`] when the capacity admits no
    ///   organization;
    /// * [`CooptError::Infeasible`] when no visited candidate meets the
    ///   yield constraint with a finite score.
    pub fn run(
        &self,
        capacity: Capacity,
        objective: &(impl Objective + ?Sized),
    ) -> Result<SearchOutcome, CooptError> {
        let orgs = ArrayOrganization::enumerate(capacity, self.word_bits, self.space.rows_range());
        if orgs.is_empty() {
            return Err(CooptError::EmptyDesignSpace {
                capacity_bits: capacity.bits(),
            });
        }
        let vsscs = self.space.vssc_values().to_vec();
        let npres = self.space.npre_values();
        let nwrs = self.space.nwr_values();

        let mut org_i = orgs.len() / 2;
        let mut vssc_i = vsscs.len() / 2;
        let mut npre_i = npres.len() / 2;
        let mut nwr_i = nwrs.len() / 2;

        let mut stats = SearchStatistics::default();
        let mut best: Option<(f64, sram_array::ArrayMetrics, usize, usize, usize, usize)> = None;

        for _ in 0..self.max_rounds {
            let before = best.as_ref().map(|b| b.0);

            // One coordinate at a time; each sweep fixes the others at
            // their current indices.
            for dim in 0..4 {
                let len = [orgs.len(), vsscs.len(), npres.len(), nwrs.len()][dim];
                let mut local: Option<(f64, sram_array::ArrayMetrics, usize)> = None;
                for idx in 0..len {
                    let (oi, vi, pi, wi) = match dim {
                        0 => (idx, vssc_i, npre_i, nwr_i),
                        1 => (org_i, idx, npre_i, nwr_i),
                        2 => (org_i, vssc_i, idx, nwr_i),
                        _ => (org_i, vssc_i, npre_i, idx),
                    };
                    if let Some((score, metrics)) = self.evaluate(
                        orgs[oi], vsscs[vi], npres[pi], nwrs[wi], objective, &mut stats,
                    ) {
                        if local.as_ref().is_none_or(|(s, ..)| score < *s) {
                            local = Some((score, metrics, idx));
                        }
                    }
                }
                if let Some((score, metrics, idx)) = local {
                    match dim {
                        0 => org_i = idx,
                        1 => vssc_i = idx,
                        2 => npre_i = idx,
                        _ => nwr_i = idx,
                    }
                    if best.as_ref().is_none_or(|(s, ..)| score < *s) {
                        best = Some((score, metrics, org_i, vssc_i, npre_i, nwr_i));
                    }
                }
            }

            if best.as_ref().map(|b| b.0) == before {
                break; // converged: a full round changed nothing
            }
        }

        let (score, metrics, oi, vi, pi, wi) = best.ok_or(CooptError::Infeasible {
            capacity_bits: capacity.bits(),
            examined: stats.examined,
        })?;
        Ok(SearchOutcome {
            best: DesignPoint {
                organization: orgs[oi],
                vssc: vsscs[vi],
                n_pre: npres[pi],
                n_wr: nwrs[wi],
            },
            metrics,
            score,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EnergyDelayProduct, ExhaustiveSearch};
    use sram_device::DeviceLibrary;

    struct Fixture {
        cell: CellCharacterization,
        periphery: Periphery,
        params: ArrayParams,
        space: DesignSpace,
    }

    fn fixture() -> Fixture {
        let lib = DeviceLibrary::sevennm();
        Fixture {
            cell: CellCharacterization::paper_hvt(lib.nominal_vdd()),
            periphery: Periphery::new(&lib),
            params: ArrayParams::paper_defaults(),
            space: DesignSpace::paper_default(),
        }
    }

    #[test]
    fn descent_matches_or_approaches_exhaustive() {
        let fx = fixture();
        let constraint = YieldConstraint::paper_delta(fx.cell.vdd());
        let capacity = Capacity::from_bytes(4096);

        let exhaustive = ExhaustiveSearch::new(
            &fx.cell,
            &fx.periphery,
            &fx.params,
            &fx.space,
            constraint,
            64,
        )
        .run(capacity, &EnergyDelayProduct)
        .unwrap();
        let descent = CoordinateDescent::new(
            &fx.cell,
            &fx.periphery,
            &fx.params,
            &fx.space,
            constraint,
            64,
        )
        .run(capacity, &EnergyDelayProduct)
        .unwrap();

        // Coordinate descent must reach within 5% of the global optimum
        // on this (well-behaved) space, at far fewer evaluations.
        let gap = descent.score / exhaustive.score - 1.0;
        assert!(gap >= -1e-12, "descent cannot beat the exhaustive optimum");
        assert!(gap < 0.05, "descent lands {:.2}% off optimum", gap * 100.0);
        assert!(
            descent.stats.examined * 20 < exhaustive.stats.examined,
            "descent used {} evals vs exhaustive {}",
            descent.stats.examined,
            exhaustive.stats.examined
        );
        let s = descent.stats;
        assert_eq!(s.examined, s.feasible + s.infeasible);
        assert_eq!(s.feasible, s.evaluated + s.eval_errors);
    }

    #[test]
    fn descent_respects_constraints() {
        let fx = fixture();
        let err = CoordinateDescent::new(
            &fx.cell,
            &fx.periphery,
            &fx.params,
            &fx.space,
            YieldConstraint::MinMargin {
                delta: Voltage::from_volts(2.0),
            },
            64,
        )
        .run(Capacity::from_bytes(1024), &EnergyDelayProduct)
        .unwrap_err();
        assert!(matches!(err, CooptError::Infeasible { .. }));
    }

    #[test]
    fn nan_scores_are_rejected_not_elected() {
        // Same input on which the exhaustive search reports Infeasible:
        // the descent must not hand back a NaN incumbent as `Ok`.
        struct NanObjective;
        impl Objective for NanObjective {
            fn score(&self, _: &sram_array::ArrayMetrics) -> f64 {
                f64::NAN
            }
            fn name(&self) -> &'static str {
                "nan"
            }
        }
        let fx = fixture();
        let space = DesignSpace::coarse();
        let err = CoordinateDescent::new(
            &fx.cell,
            &fx.periphery,
            &fx.params,
            &space,
            YieldConstraint::paper_delta(fx.cell.vdd()),
            64,
        )
        .run(Capacity::from_bytes(1024), &NanObjective)
        .unwrap_err();
        assert!(matches!(err, CooptError::Infeasible { .. }), "{err:?}");
    }
}
