//! Coordinate descent: a cheap alternative to exhaustive search.
//!
//! The paper justifies exhaustive search by the small variable count
//! ("only four variables with relatively small ranges").
//! [`Search::descend`] is the obvious cheaper alternative — cyclic
//! coordinate descent over `(n_r, V_SSC, N_pre, N_wr)` — so the
//! trade-off can be measured: how often does the greedy search land on
//! the true optimum, and how many evaluations does it save? (See
//! ablation A4, `reproduce ablation`.)

use crate::search::finite_score;
use crate::{CooptError, DesignPoint, Objective, Search, SearchOutcome, SearchStatistics};
use sram_array::{ArrayMetrics, Capacity};

/// Full coordinate rounds before the descent stops unconverged.
const MAX_ROUNDS: usize = 8;

impl Search<'_> {
    /// Scores one visited candidate as a one-point slice of the walk,
    /// under the exhaustive search's yield gate, error and NaN policies.
    fn score_point(
        &self,
        point: DesignPoint,
        objective: &(impl Objective + ?Sized),
        stats: &mut SearchStatistics,
    ) -> Result<Option<(f64, ArrayMetrics)>, CooptError> {
        self.poll_cancel()?;
        let mut scored = None;
        let (org, vssc) = (point.organization, point.vssc);
        stats.merge(&self.walk_slice(
            org,
            vssc,
            &[point.n_pre],
            &[point.n_wr],
            None,
            |_, metrics| {
                scored = finite_score(objective, metrics).map(|score| (score, *metrics));
                scored.is_some()
            },
        ));
        Ok(scored)
    }

    /// Runs the descent: starting from the median of every range, sweep
    /// one variable at a time to its best value and repeat until a full
    /// round makes no improvement (or `MAX_ROUNDS` rounds have run).
    ///
    /// # Errors
    ///
    /// * [`CooptError::EmptyDesignSpace`] when the capacity admits no
    ///   organization;
    /// * [`CooptError::Infeasible`] when no visited candidate meets the
    ///   yield constraint with a finite score;
    /// * [`CooptError::Cancelled`] when the attached cancel token fires
    ///   (checked before each visited candidate).
    pub fn descend(
        &self,
        capacity: Capacity,
        objective: &(impl Objective + ?Sized),
    ) -> Result<SearchOutcome, CooptError> {
        let orgs = self.organizations(capacity);
        if orgs.is_empty() {
            return Err(CooptError::EmptyDesignSpace {
                capacity_bits: capacity.bits(),
            });
        }
        let vsscs = self.space.vssc_values();
        let npres = self.space.npre_values();
        let nwrs = self.space.nwr_values();
        let lens = [orgs.len(), vsscs.len(), npres.len(), nwrs.len()];
        let point_at = |at: [usize; 4]| DesignPoint {
            organization: orgs[at[0]],
            vssc: vsscs[at[1]],
            n_pre: npres[at[2]],
            n_wr: nwrs[at[3]],
        };

        // The current index of each coordinate, `(n_r, V_SSC, N_pre, N_wr)`.
        let mut at = lens.map(|len| len / 2);
        let mut stats = SearchStatistics::default();
        let mut best: Option<(f64, ArrayMetrics, DesignPoint)> = None;

        for _ in 0..MAX_ROUNDS {
            let before = best.as_ref().map(|b| b.0);

            // One coordinate at a time; each sweep fixes the others at
            // their current indices.
            for dim in 0..4 {
                let mut local: Option<(f64, ArrayMetrics, usize)> = None;
                for idx in 0..lens[dim] {
                    let mut probe = at;
                    probe[dim] = idx;
                    if let Some((score, metrics)) =
                        self.score_point(point_at(probe), objective, &mut stats)?
                    {
                        if local.as_ref().is_none_or(|(s, ..)| score < *s) {
                            local = Some((score, metrics, idx));
                        }
                    }
                }
                if let Some((score, metrics, idx)) = local {
                    at[dim] = idx;
                    if best.as_ref().is_none_or(|(s, ..)| score < *s) {
                        best = Some((score, metrics, point_at(at)));
                    }
                }
            }

            if best.as_ref().map(|b| b.0) == before {
                break; // converged: a full round changed nothing
            }
        }

        let (score, metrics, best) = best.ok_or(CooptError::Infeasible {
            capacity_bits: capacity.bits(),
            examined: stats.examined,
        })?;
        Ok(SearchOutcome {
            best,
            metrics,
            score,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DesignSpace, EnergyDelayProduct, YieldConstraint};
    use sram_array::{ArrayParams, Periphery};
    use sram_cell::CellCharacterization;
    use sram_device::DeviceLibrary;
    use sram_units::Voltage;

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

        let exhaustive = Search::new(
            &fx.cell,
            &fx.periphery,
            &fx.params,
            &fx.space,
            constraint,
            64,
        )
        .run(capacity, &EnergyDelayProduct)
        .unwrap();
        let descent = Search::new(
            &fx.cell,
            &fx.periphery,
            &fx.params,
            &fx.space,
            constraint,
            64,
        )
        .descend(capacity, &EnergyDelayProduct)
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
        let err = Search::new(
            &fx.cell,
            &fx.periphery,
            &fx.params,
            &fx.space,
            YieldConstraint {
                delta: Voltage::from_volts(2.0),
            },
            64,
        )
        .descend(Capacity::from_bytes(1024), &EnergyDelayProduct)
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
        let err = Search::new(
            &fx.cell,
            &fx.periphery,
            &fx.params,
            &space,
            YieldConstraint::paper_delta(fx.cell.vdd()),
            64,
        )
        .descend(Capacity::from_bytes(1024), &NanObjective)
        .unwrap_err();
        assert!(matches!(err, CooptError::Infeasible { .. }), "{err:?}");
    }
}
