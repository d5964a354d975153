//! The end-to-end framework: device → circuit → architecture.

use crate::rails::{minimize_vddc, minimize_vwl};
use crate::{
    CooptError, DesignPoint, DesignSpace, EnergyDelayProduct, Method, Objective, OptimalDesign,
    ParetoFront, RailSelection, Search, SearchStatistics, YieldConstraint,
};
use sram_array::{ArrayParams, Capacity, Periphery};
use sram_cell::{CellCharacterization, CellCharacterizer, CharacterizationGrid};
use sram_device::{DeviceLibrary, VtFlavor};
use sram_faults::{ordered_map, CancelToken};
use sram_units::Voltage;
use std::collections::HashMap;

/// A rail minimization: the lowest level of one rail meeting `δ`.
type RailSearch = fn(&CellCharacterizer, Voltage) -> Result<Voltage, CooptError>;

/// Where cell look-up tables come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CharacterizationMode {
    /// Build tables from the constants the paper publishes (fast,
    /// reproduces the paper's numbers independently of our device card).
    PaperModel,
    /// Measure tables with the `sram-spice` simulator, including the
    /// rail-minimization searches (the full-stack reproduction; slower).
    Simulated,
}

/// The co-optimization framework (paper Fig. "framework" = Sections 2–5
/// combined): owns the device library, characterizes cells per
/// `(flavor, method)`, and searches the architecture space.
///
/// # Examples
///
/// ```
/// use sram_array::Capacity;
/// use sram_coopt::{CoOptimizationFramework, Method};
/// use sram_device::VtFlavor;
///
/// # fn main() -> Result<(), sram_coopt::CooptError> {
/// let mut fw = CoOptimizationFramework::paper_mode();
/// let lvt = fw.optimize(Capacity::from_bytes(16 * 1024), VtFlavor::Lvt, Method::M2)?;
/// let hvt = fw.optimize(Capacity::from_bytes(16 * 1024), VtFlavor::Hvt, Method::M2)?;
/// assert!(hvt.edp() < lvt.edp()); // the paper's headline for 16 KB
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CoOptimizationFramework {
    library: DeviceLibrary,
    vdd: Voltage,
    periphery: Periphery,
    params: ArrayParams,
    space: DesignSpace,
    mode: CharacterizationMode,
    word_bits: u32,
    threads: usize,
    cache: HashMap<(VtFlavor, Method), CellCharacterization>,
}

impl CoOptimizationFramework {
    /// Framework in paper-model mode with the Section 5 defaults.
    #[must_use]
    pub fn paper_mode() -> Self {
        Self::new(DeviceLibrary::sevennm(), CharacterizationMode::PaperModel)
    }

    /// Framework in full-simulation mode.
    #[must_use]
    pub fn simulated_mode() -> Self {
        Self::new(DeviceLibrary::sevennm(), CharacterizationMode::Simulated)
    }

    /// Framework over an explicit device library and mode.
    #[must_use]
    pub fn new(library: DeviceLibrary, mode: CharacterizationMode) -> Self {
        let periphery = Periphery::new(&library);
        Self {
            vdd: library.nominal_vdd(),
            library,
            periphery,
            params: ArrayParams::paper_defaults(),
            space: DesignSpace::paper_default(),
            mode,
            word_bits: 64,
            threads: 1,
            cache: HashMap::new(),
        }
    }

    /// Replaces the design space (e.g. [`DesignSpace::coarse`] for smoke
    /// tests).
    #[must_use]
    pub fn with_space(mut self, space: DesignSpace) -> Self {
        self.space = space;
        self
    }

    /// Replaces the workload parameters.
    #[must_use]
    pub fn with_params(mut self, params: ArrayParams) -> Self {
        self.params = params;
        self
    }

    /// Enables parallel search with `n` threads.
    #[must_use]
    pub fn with_threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Overrides the array supply voltage (dynamic-voltage-scaling
    /// studies). Rebuilds the peripheral figures and clears the cell
    /// cache. Note the paper-model rail constants are only published for
    /// the 450 mV nominal; use [`CharacterizationMode::Simulated`] when
    /// scaling the supply.
    #[must_use]
    pub fn with_supply(mut self, vdd: Voltage) -> Self {
        self.vdd = vdd;
        self.periphery = Periphery::at_supply(&self.library, vdd);
        self.cache.clear();
        self
    }

    /// The array supply voltage.
    #[must_use]
    pub fn vdd(&self) -> Voltage {
        self.vdd
    }

    /// The peripheral circuit figures at the current supply.
    #[must_use]
    pub fn periphery(&self) -> &Periphery {
        &self.periphery
    }

    /// The shared array workload parameters.
    #[must_use]
    pub fn params(&self) -> &ArrayParams {
        &self.params
    }

    /// The architecture design space being searched.
    #[must_use]
    pub fn space(&self) -> &DesignSpace {
        &self.space
    }

    /// The word width `W` (the paper's 64 bits).
    #[must_use]
    pub fn word_bits(&self) -> u32 {
        self.word_bits
    }

    /// The minimum acceptable margin `δ = 0.35 · Vdd`.
    #[must_use]
    pub fn delta(&self) -> Voltage {
        self.vdd() * 0.35
    }

    /// Rail levels for a `(flavor, method)` pair: published values in
    /// paper mode; measured by simulation otherwise, the `V_DDC` and
    /// `V_WL` searches running as two items of [`ordered_map`].
    ///
    /// # Errors
    ///
    /// Propagates rail-search failures in simulated mode (the `V_DDC`
    /// search's first).
    pub fn rails(&self, flavor: VtFlavor, method: Method) -> Result<RailSelection, CooptError> {
        let (vddc_min, vwl_min) = match self.mode {
            CharacterizationMode::PaperModel => RailSelection::paper_minimums(flavor),
            CharacterizationMode::Simulated => {
                let chr = CellCharacterizer::new(&self.library, flavor)
                    .with_vdd(self.vdd)
                    .with_vtc_points(31);
                let searches: [RailSearch; 2] = [minimize_vddc, minimize_vwl];
                let minimums = ordered_map(&searches, &CancelToken::never(), |search| {
                    search(&chr, self.delta())
                })?;
                (minimums[0], minimums[1])
            }
        };
        Ok(RailSelection::from_minimums(method, vddc_min, vwl_min))
    }

    /// Builds the cell look-up tables for a `(flavor, method)` pair
    /// without touching the internal cache — the injectable-LUT form:
    /// callers that batch queries (the `sram-serve` scheduler) run this
    /// once per technology group, then fan the result out to any number
    /// of concurrent [`Self::optimize_with_cell`] calls, all on `&self`.
    ///
    /// # Errors
    ///
    /// Propagates characterization failures.
    pub fn characterize_cell(
        &self,
        flavor: VtFlavor,
        method: Method,
    ) -> Result<CellCharacterization, CooptError> {
        let rails = self.rails(flavor, method)?;
        Ok(match self.mode {
            CharacterizationMode::PaperModel => {
                // Chaos hooks for the analytic path: the simulated path
                // draws these inside `CellCharacterization::characterize`,
                // so paper-mode serve traffic exercises the same injected
                // latency and transient-failure handling without ever
                // double-drawing a point.
                sram_faults::maybe_sleep("cell.slow");
                if sram_faults::should_fire("cell.characterize_nan") {
                    return Err(CooptError::Cell(sram_cell::CellError::MeasurementFailed {
                        what: "characterization",
                        reason: "injected NaN measurement (fault plan)".to_string(),
                    }));
                }
                CellCharacterization::paper_with_rails(flavor, self.vdd(), rails.vddc, rails.vwl)
            }
            CharacterizationMode::Simulated => {
                let chr = CellCharacterizer::new(&self.library, flavor)
                    .with_vdd(self.vdd)
                    .with_vtc_points(31);
                let grid = CharacterizationGrid::paper_default(rails.vddc, rails.vwl);
                CellCharacterization::characterize(&chr, &grid)?
            }
        })
    }

    /// Returns (building and caching on first use) the cell look-up
    /// tables for a `(flavor, method)` pair.
    ///
    /// # Errors
    ///
    /// Propagates characterization failures.
    fn characterization(
        &mut self,
        flavor: VtFlavor,
        method: Method,
    ) -> Result<&CellCharacterization, CooptError> {
        if !self.cache.contains_key(&(flavor, method)) {
            let cell = self.characterize_cell(flavor, method)?;
            self.cache.insert((flavor, method), cell);
        }
        Ok(&self.cache[&(flavor, method)])
    }

    /// Optimizes one `(capacity, flavor, method)` combination under the
    /// EDP objective — one row of Table 4.
    ///
    /// # Errors
    ///
    /// Propagates characterization and search failures.
    pub fn optimize(
        &mut self,
        capacity: Capacity,
        flavor: VtFlavor,
        method: Method,
    ) -> Result<OptimalDesign, CooptError> {
        self.optimize_with(capacity, flavor, method, &EnergyDelayProduct)
    }

    /// Optimizes under an arbitrary objective.
    ///
    /// # Errors
    ///
    /// Propagates characterization and search failures.
    pub fn optimize_with(
        &mut self,
        capacity: Capacity,
        flavor: VtFlavor,
        method: Method,
        objective: &(impl Objective + Sync + ?Sized),
    ) -> Result<OptimalDesign, CooptError> {
        self.characterization(flavor, method)?;
        self.optimize_with_cell(
            &self.cache[&(flavor, method)],
            capacity,
            flavor,
            method,
            objective,
        )
    }

    /// Optimizes against an injected, pre-built characterization — the
    /// resumable form used by batch servers: the expensive LUT pass runs
    /// once (via [`Self::characterize_cell`]) and any number of searches
    /// share it concurrently, since this method only borrows `&self`.
    ///
    /// `cell` must have been characterized for the same
    /// `(flavor, method)` pair (and this framework's supply); the rail
    /// levels reported in the result are the ones `cell` was
    /// characterized at ([`CellCharacterization::vddc`] and
    /// [`CellCharacterization::vwl`]), so the search runs no circuit
    /// simulation.
    ///
    /// # Errors
    ///
    /// Propagates search failures.
    pub fn optimize_with_cell(
        &self,
        cell: &CellCharacterization,
        capacity: Capacity,
        flavor: VtFlavor,
        method: Method,
        objective: &(impl Objective + Sync + ?Sized),
    ) -> Result<OptimalDesign, CooptError> {
        self.optimize_with_cell_cancel(
            cell,
            capacity,
            flavor,
            method,
            objective,
            &CancelToken::never(),
        )
    }

    /// [`Self::optimize_with_cell`] with a cooperative [`CancelToken`]:
    /// the serve layer links each request's deadline and the server's
    /// shutdown flag into the token, and the search polls it at slice
    /// boundaries — an expired deadline surfaces as a typed
    /// [`CooptError::Cancelled`] within one slice instead of burning the
    /// rest of the sweep.
    ///
    /// # Errors
    ///
    /// [`CooptError::Cancelled`] when the token fires mid-search, plus
    /// everything [`Self::optimize_with_cell`] returns.
    pub fn optimize_with_cell_cancel(
        &self,
        cell: &CellCharacterization,
        capacity: Capacity,
        flavor: VtFlavor,
        method: Method,
        objective: &(impl Objective + Sync + ?Sized),
        cancel: &CancelToken,
    ) -> Result<OptimalDesign, CooptError> {
        let outcome = self.with_search(cell, method, cancel, |search| {
            search.run(capacity, objective)
        })?;
        Ok(outcome.into_design(capacity, flavor, method, cell))
    }

    /// The energy-delay Pareto front of `method`'s space for `capacity`
    /// against an injected `cell`, as [`Self::optimize_with_cell_cancel`]
    /// searches it; `cancel` is polled once per slice.
    ///
    /// # Errors
    ///
    /// [`CooptError::Cancelled`] when the token fires mid-walk.
    pub fn pareto_front(
        &self,
        cell: &CellCharacterization,
        capacity: Capacity,
        method: Method,
        cancel: &CancelToken,
    ) -> Result<(ParetoFront<DesignPoint>, SearchStatistics), CooptError> {
        self.with_search(cell, method, cancel, |search| search.pareto_front(capacity))
    }

    /// Hands `f` the search of `cell` over `method`'s space (M1 has no
    /// negative-Gnd rail) under the δ rule, with this framework's
    /// threads and `cancel`.
    fn with_search<R>(
        &self,
        cell: &CellCharacterization,
        method: Method,
        cancel: &CancelToken,
        f: impl FnOnce(&Search<'_>) -> R,
    ) -> R {
        let space = match method {
            Method::M1 => self.space.clone().without_negative_gnd(),
            Method::M2 => self.space.clone(),
        };
        let search = Search::new(
            cell,
            &self.periphery,
            &self.params,
            &space,
            YieldConstraint::paper_delta(self.vdd),
            self.word_bits,
        )
        .with_threads(self.threads)
        .with_cancel(cancel.clone());
        f(&search)
    }

    /// Verifies a winning design against the paper's *accurate* yield
    /// constraint (`min over margins of (μ − kσ) ≥ 0`, Section 4) by
    /// Monte Carlo simulation of `samples` varied cells at the design's
    /// operating point — the statistical cross-check the deterministic
    /// `δ` rule approximates.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn verify_statistical_yield(
        &self,
        design: &crate::OptimalDesign,
        samples: usize,
    ) -> Result<sram_cell::YieldAnalysis, CooptError> {
        self.verify_statistical_yield_cancel(design, samples, &CancelToken::never())
    }

    /// [`Self::verify_statistical_yield`] with a cooperative
    /// [`CancelToken`], polled once per Monte Carlo sample.
    ///
    /// # Errors
    ///
    /// [`CooptError::Cell`] wrapping a cancellation when the token fires
    /// mid-run, plus everything [`Self::verify_statistical_yield`]
    /// returns.
    pub fn verify_statistical_yield_cancel(
        &self,
        design: &crate::OptimalDesign,
        samples: usize,
        cancel: &CancelToken,
    ) -> Result<sram_cell::YieldAnalysis, CooptError> {
        use sram_cell::{AssistVoltages, MonteCarloConfig, YieldAnalyzer};
        let chr = CellCharacterizer::new(&self.library, design.flavor).with_vdd(self.vdd());
        let bias = AssistVoltages::nominal(self.vdd())
            .with_vddc(design.vddc)
            .with_vssc(design.vssc)
            .with_vwl(design.vwl);
        YieldAnalyzer::new(
            chr,
            MonteCarloConfig {
                samples,
                seed: 0x51a7,
                vtc_points: 25,
            },
        )
        .run_with_cancel(&bias, cancel)
        .map_err(CooptError::Cell)
    }

    /// Reproduces the paper's full Table 4: every capacity in
    /// `{128 B, 256 B, 1 KB, 4 KB, 16 KB}` × `{LVT, HVT}` × `{M1, M2}`.
    ///
    /// # Errors
    ///
    /// Propagates the first failing optimization.
    pub fn optimize_table4(&mut self) -> Result<Vec<OptimalDesign>, CooptError> {
        let mut out = Vec::new();
        for bytes in [128, 256, 1024, 4096, 16 * 1024] {
            for flavor in [VtFlavor::Lvt, VtFlavor::Hvt] {
                for method in [Method::M1, Method::M2] {
                    out.push(self.optimize(Capacity::from_bytes(bytes), flavor, method)?);
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coarse_framework() -> CoOptimizationFramework {
        CoOptimizationFramework::paper_mode().with_space(DesignSpace::coarse())
    }

    #[test]
    fn m1_never_uses_negative_gnd() {
        let mut fw = coarse_framework();
        let d = fw
            .optimize(Capacity::from_bytes(4096), VtFlavor::Hvt, Method::M1)
            .unwrap();
        assert_eq!(d.vssc, Voltage::ZERO);
        assert_eq!(d.vddc.millivolts(), 550.0);
        assert_eq!(d.vwl.millivolts(), 550.0);
    }

    #[test]
    fn m2_beats_m1_on_edp_for_hvt() {
        let mut fw = coarse_framework();
        let m1 = fw
            .optimize(Capacity::from_bytes(4096), VtFlavor::Hvt, Method::M1)
            .unwrap();
        let m2 = fw
            .optimize(Capacity::from_bytes(4096), VtFlavor::Hvt, Method::M2)
            .unwrap();
        assert!(
            m2.edp() <= m1.edp(),
            "M2 ({}) must not lose to M1 ({}) — its space is a superset",
            m2.edp(),
            m1.edp()
        );
        assert!(m2.vssc.volts() < 0.0, "HVT-M2 should exploit negative Gnd");
    }

    #[test]
    fn hvt_m2_wins_edp_at_large_capacity() {
        let mut fw = coarse_framework();
        let lvt = fw
            .optimize(Capacity::from_bytes(16 * 1024), VtFlavor::Lvt, Method::M2)
            .unwrap();
        let hvt = fw
            .optimize(Capacity::from_bytes(16 * 1024), VtFlavor::Hvt, Method::M2)
            .unwrap();
        assert!(
            hvt.edp() < lvt.edp(),
            "paper headline: HVT-M2 wins at 16 KB"
        );
        // ... at a bounded performance penalty:
        let penalty = hvt.delay() / lvt.delay() - 1.0;
        assert!(penalty < 0.5, "delay penalty {penalty:.2} looks wrong");
    }

    #[test]
    fn characterizations_are_cached() {
        let mut fw = coarse_framework();
        fw.optimize(Capacity::from_bytes(1024), VtFlavor::Hvt, Method::M2)
            .unwrap();
        let before = fw.cache.len();
        fw.optimize(Capacity::from_bytes(4096), VtFlavor::Hvt, Method::M2)
            .unwrap();
        assert_eq!(fw.cache.len(), before);
    }

    #[test]
    fn statistical_yield_verifies_a_winner() {
        let mut fw = coarse_framework();
        let design = fw
            .optimize(Capacity::from_bytes(1024), VtFlavor::Hvt, Method::M2)
            .unwrap();
        let analysis = fw.verify_statistical_yield(&design, 8).unwrap();
        assert_eq!(analysis.hsnm.samples, 8);
        // The delta-rule winner holds at least the k = 1 statistical bar.
        assert!(analysis.passes(1.0));
    }

    #[test]
    fn statistical_yield_runs_at_the_framework_supply() {
        use sram_cell::{MonteCarloConfig, YieldAnalyzer};
        let vdd = Voltage::from_millivolts(400.0);
        let mut fw = CoOptimizationFramework::simulated_mode()
            .with_space(DesignSpace::coarse())
            .with_supply(vdd);
        let design = fw
            .optimize(Capacity::from_bytes(1024), VtFlavor::Hvt, Method::M2)
            .unwrap();
        let analyzer = YieldAnalyzer::new(
            CellCharacterizer::new(&fw.library, VtFlavor::Hvt).with_vdd(vdd),
            MonteCarloConfig {
                samples: 4,
                seed: 0x51a7,
                vtc_points: 25,
            },
        );
        let bias = sram_cell::AssistVoltages::nominal(vdd)
            .with_vddc(design.vddc)
            .with_vssc(design.vssc)
            .with_vwl(design.vwl);
        assert_eq!(
            fw.verify_statistical_yield(&design, 4).unwrap(),
            analyzer.run(&bias).unwrap()
        );
    }

    #[test]
    fn injected_cell_matches_cached_path() {
        let mut fw = coarse_framework();
        let via_cache = fw
            .optimize(Capacity::from_bytes(1024), VtFlavor::Hvt, Method::M2)
            .unwrap();
        let cell = fw.characterize_cell(VtFlavor::Hvt, Method::M2).unwrap();
        let via_injection = fw
            .optimize_with_cell(
                &cell,
                Capacity::from_bytes(1024),
                VtFlavor::Hvt,
                Method::M2,
                &EnergyDelayProduct,
            )
            .unwrap();
        assert_eq!(via_cache, via_injection);
    }

    #[test]
    fn injected_cell_applies_method_space_policy() {
        let fw = coarse_framework();
        let cell = fw.characterize_cell(VtFlavor::Hvt, Method::M1).unwrap();
        let d = fw
            .optimize_with_cell(
                &cell,
                Capacity::from_bytes(1024),
                VtFlavor::Hvt,
                Method::M1,
                &EnergyDelayProduct,
            )
            .unwrap();
        assert_eq!(d.vssc, Voltage::ZERO, "M1 must not use negative Gnd");
    }

    #[test]
    fn simulated_search_reports_the_rails_of_its_cell() {
        let fw = CoOptimizationFramework::simulated_mode().with_space(DesignSpace::coarse());
        let rail = Voltage::from_millivolts(700.0);
        let cell = CellCharacterization::paper_with_rails(VtFlavor::Hvt, fw.vdd(), rail, rail);
        let d = fw
            .optimize_with_cell(
                &cell,
                Capacity::from_bytes(1024),
                VtFlavor::Hvt,
                Method::M1,
                &EnergyDelayProduct,
            )
            .unwrap();
        assert_eq!(d.vddc, rail);
        assert_eq!(d.vwl, rail);
    }

    #[test]
    fn simulated_rails_equal_the_two_serial_minimizations() {
        let fw = CoOptimizationFramework::simulated_mode();
        for flavor in [VtFlavor::Lvt, VtFlavor::Hvt] {
            let chr = CellCharacterizer::new(&fw.library, flavor)
                .with_vdd(fw.vdd())
                .with_vtc_points(31);
            let vddc = minimize_vddc(&chr, fw.delta()).unwrap();
            let vwl = minimize_vwl(&chr, fw.delta()).unwrap();
            let rails = fw.rails(flavor, Method::M2).unwrap();
            assert_eq!((rails.vddc, rails.vwl), (vddc, vwl), "{flavor}");
        }
    }

    #[test]
    fn rails_follow_method_policy() {
        let fw = CoOptimizationFramework::paper_mode();
        let m1 = fw.rails(VtFlavor::Lvt, Method::M1).unwrap();
        assert_eq!(m1.vwl.millivolts(), 640.0);
        let m2 = fw.rails(VtFlavor::Lvt, Method::M2).unwrap();
        assert_eq!(m2.vwl.millivolts(), 490.0);
    }
}
