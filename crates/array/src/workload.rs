//! Access traces: grounding the paper's α/β workload abstraction.
//!
//! Section 4 folds the workload into two numbers — the activity factor
//! `α` (probability of an access per cycle) and the read ratio `β`.
//! This module makes that abstraction operational: an [`AccessTrace`]
//! records what a client actually did, exposes the `α`/`β` it implies,
//! and evaluates the *exact* per-trace energy so Eq. (3)/(5)'s blended
//! estimate can be validated against it.

use crate::{ArrayMetrics, ArrayParams};
use sram_units::{Energy, Power, Time};

/// One array cycle's activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Access {
    /// A read access.
    Read,
    /// A write access.
    Write,
    /// An idle cycle (the array only leaks).
    Idle,
}

/// A sequence of array cycles.
///
/// # Examples
///
/// ```
/// use sram_array::{Access, AccessTrace};
///
/// let trace: AccessTrace = [Access::Read; 3]
///     .into_iter()
///     .chain([Access::Write])
///     .chain([Access::Idle; 6])
///     .collect();
/// assert!((trace.activity_factor() - 0.4).abs() < 1e-12);
/// assert!((trace.read_ratio() - 0.75).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AccessTrace {
    reads: usize,
    writes: usize,
    idles: usize,
}

impl AccessTrace {
    /// An empty trace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one cycle.
    pub fn push(&mut self, access: Access) {
        match access {
            Access::Read => self.reads += 1,
            Access::Write => self.writes += 1,
            Access::Idle => self.idles += 1,
        }
    }

    /// Total cycle count.
    #[must_use]
    pub fn cycles(&self) -> usize {
        self.reads + self.writes + self.idles
    }

    /// The activity factor `α` this trace implies (accesses per cycle).
    ///
    /// Returns 0 for an empty trace.
    #[must_use]
    pub fn activity_factor(&self) -> f64 {
        if self.cycles() == 0 {
            return 0.0;
        }
        (self.reads + self.writes) as f64 / self.cycles() as f64
    }

    /// The read ratio `β` this trace implies (reads per access).
    ///
    /// Returns the paper's 0.5 default for a trace with no accesses.
    #[must_use]
    pub fn read_ratio(&self) -> f64 {
        let accesses = self.reads + self.writes;
        if accesses == 0 {
            return 0.5;
        }
        self.reads as f64 / accesses as f64
    }

    /// Folds this trace's `α`/`β` into a copy of `params` — the bridge
    /// from measured workloads to the paper's Eq. (3)/(5).
    #[must_use]
    pub fn to_params(&self, base: &ArrayParams) -> ArrayParams {
        ArrayParams {
            activity: self.activity_factor(),
            read_ratio: self.read_ratio(),
            ..*base
        }
    }

    /// Exact energy of running this trace on an evaluated design: each
    /// read/write pays its own switching energy, every cycle pays the
    /// full-array leakage over one cycle time (Eq. (4) per cycle).
    #[must_use]
    pub fn energy(&self, metrics: &ArrayMetrics) -> Energy {
        let e_rd = metrics.read_energy_breakdown.total();
        let e_wr = metrics.write_energy_breakdown.total();
        let leak_per_cycle = metrics.leakage_energy; // M * P_leak * D_array
        e_rd * self.reads as f64 + e_wr * self.writes as f64 + leak_per_cycle * self.cycles() as f64
    }

    /// Wall-clock duration of the trace at the design's cycle time.
    #[must_use]
    pub fn duration(&self, metrics: &ArrayMetrics) -> Time {
        metrics.delay * self.cycles() as f64
    }

    /// Average power over the trace.
    ///
    /// # Panics
    ///
    /// Panics on an empty trace (no duration).
    #[must_use]
    pub fn average_power(&self, metrics: &ArrayMetrics) -> Power {
        assert!(self.cycles() > 0, "empty trace has no duration");
        self.energy(metrics) / self.duration(metrics)
    }
}

impl Extend<Access> for AccessTrace {
    fn extend<I: IntoIterator<Item = Access>>(&mut self, iter: I) {
        for a in iter {
            self.push(a);
        }
    }
}

impl FromIterator<Access> for AccessTrace {
    fn from_iter<I: IntoIterator<Item = Access>>(iter: I) -> Self {
        let mut t = Self::new();
        t.extend(iter);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArrayModel, ArrayOrganization, Periphery};
    use sram_cell::CellCharacterization;
    use sram_device::DeviceLibrary;

    fn counts(reads: usize, writes: usize, idles: usize) -> AccessTrace {
        AccessTrace {
            reads,
            writes,
            idles,
        }
    }

    fn metrics() -> ArrayMetrics {
        let lib = DeviceLibrary::sevennm();
        let cell = CellCharacterization::paper_hvt(lib.nominal_vdd());
        let periphery = Periphery::new(&lib);
        let params = ArrayParams::paper_defaults();
        ArrayModel::new(
            ArrayOrganization::new(128, 64, 64).unwrap(),
            &cell,
            &periphery,
            &params,
        )
        .with_precharge_fins(12)
        .evaluate()
        .unwrap()
    }

    #[test]
    fn alpha_beta_from_cycles() {
        let t: AccessTrace = [
            Access::Read,
            Access::Idle,
            Access::Write,
            Access::Read,
            Access::Idle,
            Access::Idle,
        ]
        .into_iter()
        .collect();
        assert_eq!(t.cycles(), 6);
        assert!((t.activity_factor() - 0.5).abs() < 1e-12);
        assert!((t.read_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_degenerates_gracefully() {
        let t = AccessTrace::new();
        assert_eq!(t.activity_factor(), 0.0);
        assert_eq!(t.read_ratio(), 0.5);
        assert_eq!(t.energy(&metrics()), Energy::ZERO);
    }

    #[test]
    fn trace_energy_matches_eq5_blend() {
        // A trace whose alpha/beta equal the paper defaults must, per
        // cycle, reproduce Eq. (5): alpha*E_sw + E_leak.
        let m = metrics();
        let t = counts(25, 25, 50); // alpha=0.5, beta=0.5
        let per_cycle = t.energy(&m) / t.cycles() as f64;
        let eq5 = m.switching_energy * 0.5 + m.leakage_energy;
        assert!(
            (per_cycle.joules() - eq5.joules()).abs() < 1e-9 * eq5.joules(),
            "trace {per_cycle:?} vs Eq.5 {eq5:?}"
        );
    }

    #[test]
    fn to_params_round_trips_through_the_model() {
        // Evaluating the model with trace-derived params equals the
        // trace's own per-cycle energy.
        let lib = DeviceLibrary::sevennm();
        let cell = CellCharacterization::paper_hvt(lib.nominal_vdd());
        let periphery = Periphery::new(&lib);
        let base = ArrayParams::paper_defaults();
        let t = counts(60, 20, 20); // alpha=0.8, beta=0.75
        let params = t.to_params(&base);
        let m = ArrayModel::new(
            ArrayOrganization::new(128, 64, 64).unwrap(),
            &cell,
            &periphery,
            &params,
        )
        .with_precharge_fins(12)
        .evaluate()
        .unwrap();
        let per_cycle = t.energy(&m) / t.cycles() as f64;
        assert!((per_cycle.joules() - m.energy.joules()).abs() < 1e-9 * m.energy.joules());
    }

    #[test]
    fn read_heavy_traces_cost_more_than_idle_ones() {
        let m = metrics();
        let busy = counts(90, 10, 0);
        let quiet = counts(5, 5, 90);
        assert!(busy.energy(&m) > quiet.energy(&m));
        assert!(busy.average_power(&m) > quiet.average_power(&m));
    }
}
