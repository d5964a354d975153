//! Optimization objectives.
//!
//! The paper minimizes the energy-delay product; alternative objectives
//! are provided for serve's `optimize` op and the `cache_design` example,
//! to show what changes when the target is ED²P, delay or energy.

use sram_array::ArrayMetrics;

/// Scores a design point; lower is better.
///
/// NaN policy: the search treats any non-finite score as an evaluation
/// error — the candidate is dropped and counted in
/// [`crate::SearchStatistics::eval_errors`], never compared against the
/// incumbent. Objectives are free to return NaN/±∞ for degenerate
/// metrics without corrupting the search.
pub trait Objective {
    /// Scalar score of the metrics (lower wins).
    ///
    /// The computed score must not decrease as any field of
    /// non-negative metrics grows: `score(a) ≤ score(b)` whenever every
    /// field of `a` is at most the same field of `b`. [`crate::Search::run`]
    /// relies on it to skip the candidates whose lower bound
    /// ([`sram_array::ArraySlice::bound`]) scores above a point it has
    /// already found; the four objectives here keep it.
    fn score(&self, metrics: &ArrayMetrics) -> f64;

    /// Human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// `E × D` — the paper's objective.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnergyDelayProduct;

impl Objective for EnergyDelayProduct {
    fn score(&self, metrics: &ArrayMetrics) -> f64 {
        metrics.edp().joule_seconds()
    }

    fn name(&self) -> &'static str {
        "energy-delay product"
    }
}

/// `E × D²` — weights performance more heavily.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnergyDelaySquared;

impl Objective for EnergyDelaySquared {
    fn score(&self, metrics: &ArrayMetrics) -> f64 {
        metrics.energy.joules() * metrics.delay.seconds().powi(2)
    }

    fn name(&self) -> &'static str {
        "energy-delay-squared product"
    }
}

/// Pure delay minimization.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DelayOnly;

impl Objective for DelayOnly {
    fn score(&self, metrics: &ArrayMetrics) -> f64 {
        metrics.delay.seconds()
    }

    fn name(&self) -> &'static str {
        "delay"
    }
}

/// Pure energy minimization.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnergyOnly;

impl Objective for EnergyOnly {
    fn score(&self, metrics: &ArrayMetrics) -> f64 {
        metrics.energy.joules()
    }

    fn name(&self) -> &'static str {
        "energy"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sram_array::{ArrayModel, ArrayOrganization, ArrayParams, Periphery};
    use sram_cell::CellCharacterization;
    use sram_device::DeviceLibrary;

    fn metrics(rows: u32, cols: u32) -> ArrayMetrics {
        let lib = DeviceLibrary::sevennm();
        let cell = CellCharacterization::paper_hvt(lib.nominal_vdd());
        let periphery = Periphery::new(&lib);
        let params = ArrayParams::paper_defaults();
        ArrayModel::new(
            ArrayOrganization::new(rows, cols, 64).unwrap(),
            &cell,
            &periphery,
            &params,
        )
        .with_precharge_fins(10)
        .evaluate()
        .unwrap()
    }

    #[test]
    fn edp_score_equals_metrics_edp() {
        let m = metrics(128, 64);
        assert_eq!(EnergyDelayProduct.score(&m), m.edp().joule_seconds());
    }

    #[test]
    fn ed2p_punishes_delay_harder() {
        let fast = metrics(64, 128);
        let slow = metrics(1024, 64);
        // The slower design loses more ground under ED2P than under EDP.
        let edp_ratio = EnergyDelayProduct.score(&slow) / EnergyDelayProduct.score(&fast);
        let ed2p_ratio = EnergyDelaySquared.score(&slow) / EnergyDelaySquared.score(&fast);
        if slow.delay > fast.delay {
            assert!(ed2p_ratio > edp_ratio);
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(EnergyDelayProduct.name(), "energy-delay product");
        assert_eq!(DelayOnly.name(), "delay");
        assert_eq!(EnergyOnly.name(), "energy");
    }
}
