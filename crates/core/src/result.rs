//! Optimization results: one Table-4 row.

use crate::Method;
use sram_array::{ArrayMetrics, ArrayOrganization, Capacity};
use sram_device::VtFlavor;
use sram_units::{Energy, EnergyDelay, Time, Voltage};

/// Search bookkeeping.
///
/// Invariants (maintained by every walk of [`crate::Search`], identical
/// for serial and parallel runs): `examined = feasible + infeasible` and
/// `feasible = evaluated + eval_errors + pruned`. Only
/// [`crate::Search::run`] prunes; the other walks leave `pruned` at 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchStatistics {
    /// Candidates enumerated (the whole space).
    pub examined: usize,
    /// Candidates whose slice passed the yield constraint.
    pub feasible: usize,
    /// Candidates skipped because their slice failed the yield
    /// constraint.
    pub infeasible: usize,
    /// Feasible candidates whose array model evaluated successfully.
    pub evaluated: usize,
    /// Feasible candidates whose array model evaluation errored (the
    /// candidate is skipped, not fatal).
    pub eval_errors: usize,
    /// Feasible candidates never evaluated, because a point already
    /// found beat a lower bound on their slice or `N_wr` column: the
    /// bound scored above the point (a search), or the point strictly
    /// dominated the bound's energy and delay (a Pareto front).
    pub pruned: usize,
}

impl SearchStatistics {
    /// Accumulates another slice's statistics into this one.
    pub fn merge(&mut self, other: &SearchStatistics) {
        self.examined += other.examined;
        self.feasible += other.feasible;
        self.infeasible += other.infeasible;
        self.evaluated += other.evaluated;
        self.eval_errors += other.eval_errors;
        self.pruned += other.pruned;
    }
}

/// The minimum-EDP design of one `(capacity, flavor, method)` search —
/// one row of the paper's Table 4 plus its evaluated metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimalDesign {
    /// Memory capacity.
    pub capacity: Capacity,
    /// Cell flavor.
    pub flavor: VtFlavor,
    /// Rail policy.
    pub method: Method,
    /// Winning organization (`n_r`, `n_c`).
    pub organization: ArrayOrganization,
    /// Winning precharger fins `N_pre`.
    pub n_pre: u32,
    /// Winning write-buffer fins `N_wr`.
    pub n_wr: u32,
    /// Cell supply rail `V_DDC`.
    pub vddc: Voltage,
    /// Negative-Gnd level `V_SSC`.
    pub vssc: Voltage,
    /// Wordline level `V_WL`.
    pub vwl: Voltage,
    /// Evaluated metrics of the winner.
    pub metrics: ArrayMetrics,
    /// Search statistics.
    pub stats: SearchStatistics,
}

impl OptimalDesign {
    /// Array delay `D_array`.
    #[must_use]
    pub fn delay(&self) -> Time {
        self.metrics.delay
    }

    /// Array energy `E_array`.
    #[must_use]
    pub fn energy(&self) -> Energy {
        self.metrics.energy
    }

    /// Energy-delay product.
    #[must_use]
    pub fn edp(&self) -> EnergyDelay {
        self.metrics.edp()
    }

    /// Configuration label in the paper's `6T-HVT-M2` notation.
    #[must_use]
    pub fn label(&self) -> String {
        format!("6T-{}-{}", self.flavor, self.method)
    }
}

impl core::fmt::Display for OptimalDesign {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} {}: n_r={} n_c={} N_pre={} N_wr={} V_DDC={:.0} V_SSC={:.0} V_WL={:.0} | D={} E={} EDP={}",
            self.capacity,
            self.label(),
            self.organization.rows(),
            self.organization.cols(),
            self.n_pre,
            self.n_wr,
            self.vddc.millivolts(),
            self.vssc.millivolts(),
            self.vwl.millivolts(),
            self.delay(),
            self.energy(),
            self.edp(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_follows_paper_notation() {
        // Construct a minimal design via the search (cheapest path is the
        // framework; here we only exercise the label formatting).
        use sram_array::{ArrayModel, ArrayParams, Periphery};
        use sram_cell::CellCharacterization;
        use sram_device::DeviceLibrary;

        let lib = DeviceLibrary::sevennm();
        let cell = CellCharacterization::paper_hvt(lib.nominal_vdd());
        let periphery = Periphery::new(&lib);
        let params = ArrayParams::paper_defaults();
        let org = ArrayOrganization::new(128, 64, 64).unwrap();
        let metrics = ArrayModel::new(org, &cell, &periphery, &params)
            .evaluate()
            .unwrap();
        let d = OptimalDesign {
            capacity: Capacity::from_bytes(1024),
            flavor: VtFlavor::Hvt,
            method: Method::M2,
            organization: org,
            n_pre: 12,
            n_wr: 2,
            vddc: Voltage::from_millivolts(550.0),
            vssc: Voltage::from_millivolts(-240.0),
            vwl: Voltage::from_millivolts(550.0),
            metrics,
            stats: SearchStatistics::default(),
        };
        assert_eq!(d.label(), "6T-HVT-M2");
        let line = d.to_string();
        assert!(line.contains("1 KB"));
        assert!(line.contains("n_r=128"));
        assert!(line.contains("V_SSC=-240"));
    }
}
