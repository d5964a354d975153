//! The one walk over the design space: the bound-and-prune search, the
//! energy-delay Pareto front and coordinate descent ([`Search::descend`], in `heuristic.rs`) share its slice walk,
//! yield gate, error and NaN policies, cancel polling and statistics.

use crate::{
    CooptError, DesignSpace, EnergyDelayProduct, Method, Objective, OptimalDesign, ParetoFront,
    ParetoPoint, SearchStatistics, YieldConstraint,
};
use sram_array::{
    ArrayMetrics, ArrayModel, ArrayOrganization, ArrayParams, Capacity, Periphery, SliceColumns,
};
use sram_cell::CellCharacterization;
use sram_device::VtFlavor;
use sram_faults::{CancelReason, CancelToken};
use sram_units::Voltage;

/// One candidate assignment of the searched variables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignPoint {
    /// Organization (`n_r`, `n_c`).
    pub organization: ArrayOrganization,
    /// Negative-Gnd level.
    pub vssc: Voltage,
    /// Precharger fins.
    pub n_pre: u32,
    /// Write-buffer fins.
    pub n_wr: u32,
}

/// Result of a search: the winner plus bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// The minimum-objective feasible candidate.
    pub best: DesignPoint,
    /// Its evaluated metrics.
    pub metrics: ArrayMetrics,
    /// Its objective score.
    pub score: f64,
    /// Statistics over the whole space.
    pub stats: SearchStatistics,
}

impl SearchOutcome {
    /// The Table-4 row of this outcome: a `capacity` array of `cell`
    /// (characterized for `flavor` under `method`), reporting the rails
    /// the cell was characterized at.
    #[must_use]
    pub(crate) fn into_design(
        self,
        capacity: Capacity,
        flavor: VtFlavor,
        method: Method,
        cell: &CellCharacterization,
    ) -> OptimalDesign {
        OptimalDesign {
            capacity,
            flavor,
            method,
            organization: self.best.organization,
            n_pre: self.best.n_pre,
            n_wr: self.best.n_wr,
            vddc: cell.vddc(),
            vssc: self.best.vssc,
            vwl: cell.vwl(),
            metrics: self.metrics,
            stats: self.stats,
        }
    }
}

/// A feasible candidate with its evaluated metrics and objective score.
type ScoredCandidate = (DesignPoint, ArrayMetrics, f64);

/// One walked slice: its best candidate and its statistics.
type SliceResult = (Option<ScoredCandidate>, SearchStatistics);

/// Rejects a lower bound that cannot beat the search's threshold.
type Reject<'p> = &'p dyn Fn(&ArrayMetrics) -> bool;

/// What a pruned walk of a slice needs: its organization's `N_wr`
/// columns and the test that rejects a column's lower bound.
type Pruning<'p> = (&'p SliceColumns, Reject<'p>);

/// The NaN policy of every walk: a non-finite score is an evaluation
/// error and never competes (a NaN first candidate would win `score < s`
/// comparisons by default forever after).
pub(crate) fn finite_score(
    objective: &(impl Objective + ?Sized),
    metrics: &ArrayMetrics,
) -> Option<f64> {
    let score = objective.score(metrics);
    score.is_finite().then_some(score)
}

/// Counts a finished walk's candidates, once per walk.
fn record_candidates(stats: &SearchStatistics) {
    sram_probe::probe_add!("coopt.candidates_examined", stats.examined as u64);
    sram_probe::probe_add!("coopt.candidates_infeasible_yield", stats.infeasible as u64);
    sram_probe::probe_add!("coopt.candidates_evaluated", stats.evaluated as u64);
    sram_probe::probe_add!("coopt.candidate_eval_errors", stats.eval_errors as u64);
    sram_probe::probe_add!("coopt.candidates_pruned", stats.pruned as u64);
}

/// Builds the typed cancellation error (and counts the abort).
fn cancelled(reason: CancelReason) -> CooptError {
    sram_probe::probe_inc!("coopt.search_cancelled");
    CooptError::Cancelled(reason)
}

/// A search problem over [`DesignSpace`]: one characterized cell, the
/// shared array parameters and the yield constraint. It finds the
/// exhaustive optimum ([`Self::run`]; Section 5: "we can derive the
/// minimum energy-delay product point of the array using an exhaustive
/// search"), skipping what a lower bound proves cannot win; it walks the
/// whole space for the energy-delay Pareto front
/// ([`Self::pareto_front`]) and part of it by coordinate descent
/// ([`Self::descend`]).
#[derive(Debug, Clone)]
pub struct Search<'a> {
    pub(crate) cell: &'a CellCharacterization,
    pub(crate) periphery: &'a Periphery,
    params: &'a ArrayParams,
    pub(crate) space: &'a DesignSpace,
    constraint: YieldConstraint,
    word_bits: u32,
    cancel: CancelToken,
}

impl<'a> Search<'a> {
    /// Creates a search bound to a characterized cell and the shared
    /// array parameters. `word_bits` is the paper's `W = 64`.
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
            cancel: CancelToken::never(),
        }
    }

    /// Accepts a worker count and changes nothing: every walk runs on
    /// the calling thread. A pruned search over the paper's space leaves
    /// 0.1–0.5 ms of slices to walk, and splitting them over scoped
    /// workers measured slower than one thread (DESIGN.md §3).
    #[must_use]
    pub fn with_threads(self, _n: usize) -> Self {
        self
    }

    /// Attaches a cooperative cancellation token, polled once per slice
    /// by every walk (and by [`Self::run`] before its bound pass too) — a
    /// fired token aborts the walk within one slice's work instead of
    /// running to completion.
    #[must_use]
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// The organizations of a capacity within the space's row range.
    pub(crate) fn organizations(&self, capacity: Capacity) -> Vec<ArrayOrganization> {
        ArrayOrganization::enumerate(capacity, self.word_bits, self.space.rows_range())
    }

    /// Enumerates the candidate `(organization, V_SSC)` slices for a
    /// capacity, organization outer (the fin loops run inside each slice).
    fn slices(&self, capacity: Capacity) -> Vec<(ArrayOrganization, Voltage)> {
        let orgs = self.organizations(capacity);
        let mut out = Vec::with_capacity(orgs.len() * self.space.vssc_values().len());
        for org in orgs {
            for &vssc in self.space.vssc_values() {
                out.push((org, vssc));
            }
        }
        out
    }

    /// Fails with [`CooptError::Cancelled`] once the token has fired.
    pub(crate) fn poll_cancel(&self) -> Result<(), CooptError> {
        self.cancel
            .cancelled()
            .map_or(Ok(()), |reason| Err(cancelled(reason)))
    }

    /// Walks one `(organization, V_SSC)` slice over the given fin values
    /// and returns its statistics. The yield constraint depends only on
    /// `V_SSC` (through the cell tables), so it gates the whole slice;
    /// a slice whose model fails to build (only invalid array parameters
    /// do) counts every candidate as an evaluation error. With
    /// `pruning`, the fin values of `N_wr` are its columns', and a column
    /// whose lower bound it rejects is counted as pruned and not
    /// evaluated. Each other candidate goes to `visit`, which returns
    /// `false` to reject it as an evaluation error.
    pub(crate) fn walk_slice(
        &self,
        org: ArrayOrganization,
        vssc: Voltage,
        npre_values: &[u32],
        nwr_values: &[u32],
        pruning: Option<Pruning<'_>>,
        mut visit: impl FnMut(DesignPoint, &ArrayMetrics) -> bool,
    ) -> SearchStatistics {
        // One trace span per slice — the unit of parallel work — with
        // the slice's outcome attached as args on the end event.
        let mut trace = sram_probe::trace_span!("coopt.slice");
        trace.arg("rows", i64::from(org.rows()));
        trace.arg("vssc_mv", vssc.millivolts().round() as i64);

        let examined = npre_values.len() * nwr_values.len();
        let mut stats = SearchStatistics {
            examined,
            ..SearchStatistics::default()
        };
        let feasible = self.constraint.check_snapshot(self.cell, vssc);
        trace.arg("examined", examined as i64);
        trace.arg("feasible", if feasible { examined as i64 } else { 0 });
        if !feasible {
            stats.infeasible = examined;
            return stats;
        }
        stats.feasible = examined;

        let Ok(slice) = ArrayModel::new(org, self.cell, self.periphery, self.params)
            .with_vssc(vssc)
            .slice()
        else {
            stats.eval_errors = examined;
            return stats;
        };
        let mut on_point = |n_pre, n_wr, metrics: &ArrayMetrics| {
            let point = DesignPoint {
                organization: org,
                vssc,
                n_pre,
                n_wr,
            };
            if visit(point, metrics) {
                stats.evaluated += 1;
            } else {
                stats.eval_errors += 1;
            }
        };
        let pruned = match pruning {
            Some((columns, reject)) => {
                slice.sweep_pruned(npre_values, columns, reject, &mut on_point)
            }
            None => {
                slice.sweep(npre_values, nwr_values, &mut on_point);
                0
            }
        };
        stats.pruned = pruned;
        trace.arg("pruned", pruned as i64);
        stats
    }

    /// Walks one slice (under `pruning`, when given), returning the best
    /// feasible candidate in it.
    fn best_in_slice(
        &self,
        (org, vssc): (ArrayOrganization, Voltage),
        npre_values: &[u32],
        nwr_values: &[u32],
        objective: &(impl Objective + ?Sized),
        pruning: Option<Pruning<'_>>,
    ) -> SliceResult {
        let mut best: Option<ScoredCandidate> = None;
        let stats = self.walk_slice(
            org,
            vssc,
            npre_values,
            nwr_values,
            pruning,
            |point, metrics| {
                let Some(score) = finite_score(objective, metrics) else {
                    return false;
                };
                if best.as_ref().is_none_or(|(_, _, s)| score < *s) {
                    best = Some((point, *metrics, score));
                }
                true
            },
        );
        (best, stats)
    }

    /// The bound pass's verdict on one slice: `None` when it fails the
    /// yield constraint, else the objective's score of the slice's lower
    /// bound. A slice without a bound (its model does not build, or the
    /// bound's preconditions fail) scores `-∞`, and a NaN score stays
    /// NaN: neither is ever pruned. The organization's first slice
    /// that needs them builds its `N_wr` `columns`, which the others
    /// share.
    fn bound_score(
        &self,
        (org, vssc): (ArrayOrganization, Voltage),
        (npre_values, nwr_values): (&[u32], &[u32]),
        objective: &(impl Objective + ?Sized),
        columns: &mut Option<SliceColumns>,
    ) -> Option<f64> {
        if !self.constraint.check_snapshot(self.cell, vssc) {
            return None;
        }
        let model = ArrayModel::new(org, self.cell, self.periphery, self.params);
        let Ok(slice) = model.with_vssc(vssc).slice() else {
            return Some(f64::NEG_INFINITY);
        };
        let columns = columns.get_or_insert_with(|| slice.columns(nwr_values));
        let bound = slice.bound(npre_values, columns);
        Some(bound.map_or(f64::NEG_INFINITY, |b| objective.score(&b)))
    }

    /// Finds the exhaustive optimum for `capacity` under `objective`: the
    /// first minimum, in slice order (organization outer, then `V_SSC`,
    /// `N_pre`, `N_wr`), of the finite scores of the yield-feasible
    /// candidates, bit for bit what a walk of every candidate returns.
    ///
    /// It walks only what a lower bound does not rule out:
    /// 1. a bound pass scores each feasible slice's lower bound
    ///    ([`sram_array::ArraySlice::bound`]);
    /// 2. the slice with the lowest bound, the seed, is walked in full,
    ///    and its best score becomes the threshold `U`;
    /// 3. every other slice whose bound is at most `U` is walked in slice
    ///    order, skipping each `N_wr` column whose own bound scores above
    ///    `U`.
    ///
    /// A skipped candidate scores at least its bound, above `U`, which is
    /// at least the optimum, so it can neither win nor tie. `U` is fixed
    /// before the walk, so what is skipped, and
    /// [`SearchStatistics::pruned`], are the same on every run. The
    /// argument needs the objective to keep [`Objective::score`]'s
    /// contract: a score that does not fall as a field of the metrics
    /// grows.
    ///
    /// # Errors
    ///
    /// * [`CooptError::EmptyDesignSpace`] when the capacity admits no
    ///   organization within the row range;
    /// * [`CooptError::Infeasible`] when no candidate meets the yield
    ///   constraint;
    /// * [`CooptError::Cancelled`] when the attached [`CancelToken`]
    ///   fires (checked before the bound pass and at slice boundaries).
    pub fn run(
        &self,
        capacity: Capacity,
        objective: &(impl Objective + ?Sized),
    ) -> Result<SearchOutcome, CooptError> {
        let slices = self.slices(capacity);
        if slices.is_empty() {
            return Err(CooptError::EmptyDesignSpace {
                capacity_bits: capacity.bits(),
            });
        }
        let npre_values = self.space.npre_values();
        let nwr_values = self.space.nwr_values();
        sram_probe::probe_inc!("coopt.searches");
        sram_probe::probe_add!("coopt.slices", slices.len() as u64);
        let _span = sram_probe::probe_span!("coopt.search_ns");
        let mut trace = sram_probe::trace_span!("coopt.search");
        trace.arg("slices", slices.len() as i64);

        // The bound pass, organization by organization: the `N_wr`
        // columns read no `V_SSC`, so each organization builds them once.
        self.poll_cancel()?;
        let levels = self.space.vssc_values().len();
        let fins = (npre_values.as_slice(), nwr_values.as_slice());
        let mut columns: Vec<Option<SliceColumns>> = Vec::new();
        let mut bounds: Vec<Option<f64>> = Vec::with_capacity(slices.len());
        for organization in slices.chunks(levels) {
            let mut org_columns = None;
            for &slice in organization {
                bounds.push(self.bound_score(slice, fins, objective, &mut org_columns));
            }
            columns.push(org_columns);
        }
        let seed = bounds
            .iter()
            .enumerate()
            .filter_map(|(i, bound)| bound.filter(|b| !b.is_nan()).map(|b| (i, b)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(i, _)| i);

        let mut seeded: Option<SliceResult> = None;
        let mut threshold = f64::INFINITY;
        if let Some(i) = seed {
            self.poll_cancel()?;
            let result = self.best_in_slice(slices[i], &npre_values, &nwr_values, objective, None);
            if let Some((_, _, score)) = result.0 {
                threshold = score;
            }
            seeded = Some(result);
        }

        // Walk every other slice whose bound is at most `U` (or NaN) and
        // merge, both in slice order. A slice without a bound failed the
        // yield gate; one whose bound is above `U` is pruned whole.
        let reject = |bound: &ArrayMetrics| objective.score(bound) > threshold;
        let per_slice = npre_values.len() * nwr_values.len();
        let skipped = SearchStatistics {
            examined: per_slice,
            ..SearchStatistics::default()
        };
        let mut walked = usize::from(seed.is_some());
        let mut stats = SearchStatistics::default();
        let mut best: Option<ScoredCandidate> = None;
        for (i, (&slice, bound)) in slices.iter().zip(bounds).enumerate() {
            let (candidate, slice_stats) = match bound {
                None => (
                    None,
                    SearchStatistics {
                        infeasible: per_slice,
                        ..skipped
                    },
                ),
                Some(_) if Some(i) == seed => seeded.take().unwrap_or_default(),
                Some(b) if b <= threshold || b.is_nan() => {
                    self.poll_cancel()?;
                    walked += 1;
                    let pruning = columns[i / levels]
                        .as_ref()
                        .map(|c| (c, &reject as Reject<'_>));
                    self.best_in_slice(slice, &npre_values, &nwr_values, objective, pruning)
                }
                Some(_) => (
                    None,
                    SearchStatistics {
                        feasible: per_slice,
                        pruned: per_slice,
                        ..skipped
                    },
                ),
            };
            stats.merge(&slice_stats);
            if let Some((point, metrics, score)) = candidate {
                if best.as_ref().is_none_or(|(_, _, s)| score < *s) {
                    best = Some((point, metrics, score));
                }
            }
        }
        trace.arg("walked", walked as i64);
        record_candidates(&stats);

        let (best, metrics, score) = best.ok_or(CooptError::Infeasible {
            capacity_bits: capacity.bits(),
            examined: stats.examined,
        })?;
        sram_probe::probe_gauge!("coopt.best_score", score);
        Ok(SearchOutcome {
            best,
            metrics,
            score,
            stats,
        })
    }

    /// Walks the space for `capacity` serially, in [`Self::run`]'s slice
    /// order, and keeps the non-dominated energy/delay points. A
    /// candidate whose energy-delay product is not finite is an
    /// evaluation error, so the statistics, and the `coopt.slices` and
    /// `coopt.candidate*` counts the walk adds, equal those of
    /// [`Self::run`] under [`EnergyDelayProduct`]. A capacity
    /// with no organization gives an empty front.
    ///
    /// # Errors
    ///
    /// [`CooptError::Cancelled`] when the attached [`CancelToken`] fires
    /// (checked at slice boundaries).
    pub fn pareto_front(
        &self,
        capacity: Capacity,
    ) -> Result<(ParetoFront<DesignPoint>, SearchStatistics), CooptError> {
        let (npre_values, nwr_values) = (self.space.npre_values(), self.space.nwr_values());
        let slices = self.slices(capacity);
        sram_probe::probe_add!("coopt.slices", slices.len() as u64);
        let mut front = ParetoFront::new();
        let mut stats = SearchStatistics::default();
        for (org, vssc) in slices {
            self.poll_cancel()?;
            let slice_stats =
                self.walk_slice(org, vssc, &npre_values, &nwr_values, None, |tag, m| {
                    let finite = finite_score(&EnergyDelayProduct, m).is_some();
                    if finite {
                        front.offer(ParetoPoint {
                            energy: m.energy,
                            delay: m.delay,
                            tag,
                        });
                    }
                    finite
                });
            stats.merge(&slice_stats);
        }
        record_candidates(&stats);
        Ok((front, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            space: DesignSpace::coarse(),
        }
    }

    fn search(fx: &Fixture) -> Search<'_> {
        Search::new(
            &fx.cell,
            &fx.periphery,
            &fx.params,
            &fx.space,
            YieldConstraint::paper_delta(fx.cell.vdd()),
            64,
        )
    }

    #[test]
    fn finds_a_feasible_minimum() {
        let fx = fixture();
        let out = search(&fx)
            .run(Capacity::from_bytes(1024), &EnergyDelayProduct)
            .unwrap();
        assert!(out.stats.examined > 0);
        assert!(out.stats.feasible > 0);
        assert_eq!(out.best.organization.capacity().bits(), 8192);
        assert!(out.score > 0.0);
    }

    #[test]
    fn statistics_partition_the_space() {
        let fx = fixture();
        let out = search(&fx)
            .run(Capacity::from_bytes(1024), &EnergyDelayProduct)
            .unwrap();
        let s = out.stats;
        assert_eq!(s.examined, s.feasible + s.infeasible);
        assert_eq!(s.feasible, s.evaluated + s.eval_errors + s.pruned);
        assert!(s.evaluated > 0);
        assert!(s.pruned > 0, "the EDP bound rules out part of the space");
    }

    #[test]
    fn parallel_matches_serial() {
        let fx = fixture();
        let serial = search(&fx)
            .run(Capacity::from_bytes(1024), &EnergyDelayProduct)
            .unwrap();
        let parallel = search(&fx)
            .with_threads(4)
            .run(Capacity::from_bytes(1024), &EnergyDelayProduct)
            .unwrap();
        assert_eq!(serial.best, parallel.best);
        assert_eq!(serial.stats, parallel.stats);
        assert_eq!(serial.score.to_bits(), parallel.score.to_bits());
    }

    /// A walk of the space reduced to its error.
    type Walk = fn(&Search<'_>, Capacity) -> Option<CooptError>;

    /// Every walk, each of which polls the cancel token once per slice.
    fn walks() -> [(&'static str, Walk); 3] {
        [
            ("run", |s, c| s.run(c, &EnergyDelayProduct).err()),
            ("pareto_front", |s, c| s.pareto_front(c).err()),
            ("descend", |s, c| s.descend(c, &EnergyDelayProduct).err()),
        ]
    }

    #[test]
    fn expired_deadline_cancels_within_one_slice() {
        use std::time::{Duration, Instant};
        let fx = fixture();
        // Measure one uncancelled run to bound what "one slice" costs.
        let started = Instant::now();
        search(&fx)
            .run(Capacity::from_bytes(4096), &EnergyDelayProduct)
            .unwrap();
        let full_run = started.elapsed();
        let slice_count = search(&fx).slices(Capacity::from_bytes(4096)).len();
        assert!(slice_count > 1, "need a multi-slice space for this test");
        let slice_budget = full_run / slice_count as u32;

        // An already-expired deadline must abort before the first slice.
        for (name, walk) in walks() {
            let token = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
            let started = Instant::now();
            let err =
                walk(&search(&fx).with_cancel(token), Capacity::from_bytes(4096)).expect(name);
            let stopped_after = started.elapsed();
            assert!(
                matches!(err, CooptError::Cancelled(CancelReason::Deadline)),
                "{name}: {err}"
            );
            assert_eq!(err.cancel_reason(), Some(CancelReason::Deadline));
            assert!(!err.is_transient(), "cancellation must not be retried");
            // "Within one slice of expiry": generous scheduling slack plus
            // the measured per-slice cost, still far below the full-run
            // duration.
            assert!(
                stopped_after <= slice_budget + Duration::from_millis(250),
                "{name} took {stopped_after:?} to observe an already-expired deadline \
                 (slice budget {slice_budget:?}, full run {full_run:?})"
            );
        }
    }

    #[test]
    fn parallel_workers_observe_shutdown_between_slices() {
        let fx = fixture();
        let token = CancelToken::never();
        token.cancel();
        for (name, walk) in walks() {
            let search = search(&fx).with_threads(4).with_cancel(token.clone());
            let err = walk(&search, Capacity::from_bytes(1024)).expect(name);
            assert!(
                matches!(err, CooptError::Cancelled(CancelReason::Shutdown)),
                "{name}: {err}"
            );
        }
    }

    #[test]
    fn never_token_changes_nothing() {
        let fx = fixture();
        let plain = search(&fx)
            .run(Capacity::from_bytes(1024), &EnergyDelayProduct)
            .unwrap();
        let with_token = search(&fx)
            .with_cancel(CancelToken::never())
            .run(Capacity::from_bytes(1024), &EnergyDelayProduct)
            .unwrap();
        assert_eq!(plain.best, with_token.best);
        assert_eq!(plain.stats, with_token.stats);
    }

    #[test]
    fn infeasible_constraint_is_reported() {
        let fx = fixture();
        let strict = Search::new(
            &fx.cell,
            &fx.periphery,
            &fx.params,
            &fx.space,
            YieldConstraint {
                delta: Voltage::from_volts(1.0),
            },
            64,
        );
        let err = strict
            .run(Capacity::from_bytes(1024), &EnergyDelayProduct)
            .unwrap_err();
        assert!(matches!(err, CooptError::Infeasible { .. }));
    }

    #[test]
    fn impossible_capacity_is_empty() {
        let fx = fixture();
        // 8 bits cannot form any org with W = 64 columns minimum.
        let err = search(&fx)
            .run(Capacity::from_bits(8), &EnergyDelayProduct)
            .unwrap_err();
        assert!(matches!(err, CooptError::EmptyDesignSpace { .. }));
    }

    #[test]
    fn nan_scores_are_rejected_not_elected() {
        // An objective that always produces NaN: no candidate may become
        // the incumbent (a naive `score < s` lets the first NaN through),
        // and the rejects land in eval_errors so the statistics partition
        // still holds.
        struct NanObjective;
        impl Objective for NanObjective {
            fn score(&self, _: &ArrayMetrics) -> f64 {
                f64::NAN
            }
            fn name(&self) -> &'static str {
                "nan"
            }
        }
        let fx = fixture();
        let err = search(&fx)
            .run(Capacity::from_bytes(1024), &NanObjective)
            .unwrap_err();
        assert!(matches!(err, CooptError::Infeasible { .. }));
    }

    #[test]
    fn nan_scores_count_as_eval_errors() {
        // Only degenerate metrics (delay == 0) go NaN here; the rest of
        // the space still elects a finite winner.
        struct LogObjective;
        impl Objective for LogObjective {
            fn score(&self, m: &ArrayMetrics) -> f64 {
                m.edp().joule_seconds().ln()
            }
            fn name(&self) -> &'static str {
                "log-edp"
            }
        }
        let fx = fixture();
        let out = search(&fx)
            .run(Capacity::from_bytes(1024), &LogObjective)
            .unwrap();
        assert!(out.score.is_finite());
        let s = out.stats;
        assert_eq!(s.examined, s.feasible + s.infeasible);
        assert_eq!(s.feasible, s.evaluated + s.eval_errors + s.pruned);
    }

    #[test]
    fn winner_beats_a_baseline_point() {
        let fx = fixture();
        let out = search(&fx)
            .run(Capacity::from_bytes(1024), &EnergyDelayProduct)
            .unwrap();
        // Compare against the no-assist, minimum-fins baseline.
        let org = ArrayOrganization::new(128, 64, 64).unwrap();
        let baseline = ArrayModel::new(org, &fx.cell, &fx.periphery, &fx.params)
            .evaluate()
            .unwrap();
        assert!(out.score <= baseline.edp().joule_seconds());
    }
}
