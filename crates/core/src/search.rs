//! The one walk over the design space. The bound-and-prune search and
//! the energy-delay Pareto front share one best-first walk over slices
//! ordered by their lower bounds, each with its own incumbent; it and
//! coordinate descent ([`Search::descend`], in `heuristic.rs`) share
//! the slice walk, yield gate, error and NaN policies, cancel polling
//! and statistics.

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
use sram_units::{Energy, Time, Voltage};

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

/// Rejects a lower bound that cannot change the walk's outcome.
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

/// What the best-first walk ([`Search::walk_best_first`]) has found so
/// far, and the test that rejects a lower bound whose candidates cannot
/// change what the walk returns.
trait Incumbent: Clone {
    /// What the walk keeps of a slice's lower bound from its bound pass
    /// to its walk.
    type Bound;

    /// Keeps what the walk reads of a lower bound.
    fn keep(&self, bound: &ArrayMetrics) -> Self::Bound;

    /// A kept bound's place in the walk: lower keys are walked first.
    fn key(bound: &Self::Bound) -> f64;

    /// Whether no candidate whose metrics are at least `bound`, field by
    /// field, can change the outcome.
    fn rejects(&self, bound: &Self::Bound) -> bool;

    /// Takes a candidate of the slice at index `slice` (in slice order),
    /// returning `false` to reject it as an evaluation error.
    fn visit(&mut self, slice: usize, point: DesignPoint, metrics: &ArrayMetrics) -> bool;
}

/// [`Search::run`]'s incumbent: the lowest finite score found so far,
/// the earliest slice's on a tie, with its candidate. A bound scoring
/// above it is rejected.
struct Threshold<'o, O: ?Sized> {
    objective: &'o O,
    best: Option<(usize, ScoredCandidate)>,
}

impl<O: ?Sized> Clone for Threshold<'_, O> {
    fn clone(&self) -> Self {
        Self {
            objective: self.objective,
            best: self.best,
        }
    }
}

impl<O: Objective + ?Sized> Incumbent for Threshold<'_, O> {
    type Bound = f64;

    fn keep(&self, bound: &ArrayMetrics) -> f64 {
        self.objective.score(bound)
    }

    fn key(score: &f64) -> f64 {
        *score
    }

    fn rejects(&self, score: &f64) -> bool {
        self.best.is_some_and(|(_, (_, _, best))| *score > best)
    }

    fn visit(&mut self, slice: usize, point: DesignPoint, metrics: &ArrayMetrics) -> bool {
        let Some(score) = finite_score(self.objective, metrics) else {
            return false;
        };
        // A slice visits its candidates in slice order, so the strict
        // `<` keeps each slice's first minimum.
        if self
            .best
            .is_none_or(|(at, (_, _, best))| (score, slice) < (best, at))
        {
            self.best = Some((slice, (point, *metrics, score)));
        }
        true
    }
}

/// [`Search::pareto_front`]'s incumbent: the working front of the
/// candidates walked so far, each point tagged with its slice index. A
/// bound is rejected when a point of the front strictly dominates its
/// energy and delay.
#[derive(Clone)]
struct Dominance {
    front: ParetoFront<(usize, DesignPoint)>,
}

impl Incumbent for Dominance {
    type Bound = (Energy, Time);

    fn keep(&self, bound: &ArrayMetrics) -> (Energy, Time) {
        (bound.energy, bound.delay)
    }

    fn key(&(energy, delay): &(Energy, Time)) -> f64 {
        (energy * delay).joule_seconds()
    }

    fn rejects(&self, &(energy, delay): &(Energy, Time)) -> bool {
        self.front.dominates(energy, delay)
    }

    fn visit(&mut self, slice: usize, point: DesignPoint, metrics: &ArrayMetrics) -> bool {
        let finite = finite_score(&EnergyDelayProduct, metrics).is_some();
        if finite {
            self.front.offer(ParetoPoint {
                energy: metrics.energy,
                delay: metrics.delay,
                tag: (slice, point),
            });
        }
        finite
    }
}

/// A search problem over [`DesignSpace`]: one characterized cell, the
/// shared array parameters and the yield constraint. It finds the
/// exhaustive optimum ([`Self::run`]; Section 5: "we can derive the
/// minimum energy-delay product point of the array using an exhaustive
/// search") and the energy-delay Pareto front ([`Self::pareto_front`]),
/// each skipping what a lower bound proves cannot change its answer,
/// and walks part of the space by coordinate descent
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
    /// by every walk (and by [`Self::run`] and [`Self::pareto_front`]
    /// before their bound pass too) — a fired token aborts the walk
    /// within one slice's work instead of running to completion.
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
        // One trace span per walked slice, with the slice's outcome
        // attached as args on the end event.
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

    /// The best-first walk behind [`Self::run`] and [`Self::pareto_front`]:
    /// it hands `incumbent` every yield-feasible candidate of `slices`
    /// that the incumbent does not rule out on a lower bound, and returns
    /// the walk's statistics and the number of slices it walked.
    ///
    /// 1. A bound pass keeps, for each feasible slice, what the incumbent
    ///    reads of the slice's lower bound
    ///    ([`sram_array::ArraySlice::bound`]); each organization builds
    ///    its `N_wr` columns once. Infeasible slices are counted here.
    /// 2. Slices without a bound, or whose bound's key is NaN, go first;
    ///    they are never pruned. The rest follow in ascending key, ties
    ///    in slice order.
    /// 3. A slice whose bound the incumbent rejects is pruned whole. In a
    ///    walked slice, each `N_wr` column whose own bound the incumbent,
    ///    as it stood at the slice start, rejects is skipped.
    ///
    /// The walk is serial, and its order and every skip follow from the
    /// inputs, so the statistics are the same on every run. The cancel
    /// token is polled before the bound pass and at every walked slice.
    fn walk_best_first<I: Incumbent>(
        &self,
        slices: &[(ArrayOrganization, Voltage)],
        incumbent: &mut I,
    ) -> Result<(SearchStatistics, usize), CooptError> {
        let (npre_values, nwr_values) = (self.space.npre_values(), self.space.nwr_values());
        sram_probe::probe_add!("coopt.slices", slices.len() as u64);
        let per_slice = npre_values.len() * nwr_values.len();
        let mut stats = SearchStatistics::default();

        // The bound pass, organization by organization: the `N_wr`
        // columns read no `V_SSC`, so each organization builds them once.
        // (A space without `V_SSC` levels has no slices to chunk.)
        self.poll_cancel()?;
        let levels = self.space.vssc_values().len();
        let mut columns: Vec<Option<SliceColumns>> = Vec::new();
        let mut pending = Vec::with_capacity(slices.len());
        for (org_index, organization) in slices.chunks(levels.max(1)).enumerate() {
            let mut org_columns = None;
            for (level, &(org, vssc)) in organization.iter().enumerate() {
                if !self.constraint.check_snapshot(self.cell, vssc) {
                    stats.merge(&SearchStatistics {
                        examined: per_slice,
                        infeasible: per_slice,
                        ..SearchStatistics::default()
                    });
                    continue;
                }
                let model = ArrayModel::new(org, self.cell, self.periphery, self.params);
                let bound = model.with_vssc(vssc).slice().ok().and_then(|slice| {
                    let columns = org_columns.get_or_insert_with(|| slice.columns(&nwr_values));
                    slice.bound(&npre_values, columns)
                });
                let bound = bound.map(|b| incumbent.keep(&b));
                let key = bound
                    .as_ref()
                    .map(I::key)
                    .filter(|key| !key.is_nan())
                    .unwrap_or(f64::NEG_INFINITY);
                pending.push((key, org_index * levels + level, bound));
            }
            columns.push(org_columns);
        }
        // Stable: equal keys keep slice order.
        pending.sort_by(|a, b| a.0.total_cmp(&b.0));

        let mut walked = 0;
        for (_, i, bound) in pending {
            if bound.is_some_and(|b| incumbent.rejects(&b)) {
                stats.merge(&SearchStatistics {
                    examined: per_slice,
                    feasible: per_slice,
                    pruned: per_slice,
                    ..SearchStatistics::default()
                });
                continue;
            }
            self.poll_cancel()?;
            walked += 1;
            // `visit` extends the incumbent during the slice, so its
            // columns are tested against a copy taken at the slice start.
            let frozen = incumbent.clone();
            let reject = |column: &ArrayMetrics| frozen.rejects(&frozen.keep(column));
            let pruning = columns[i / levels]
                .as_ref()
                .map(|c| (c, &reject as Reject<'_>));
            let (org, vssc) = slices[i];
            stats.merge(&self.walk_slice(
                org,
                vssc,
                &npre_values,
                &nwr_values,
                pruning,
                |point, metrics| incumbent.visit(i, point, metrics),
            ));
        }
        Ok((stats, walked))
    }

    /// Finds the exhaustive optimum for `capacity` under `objective`: the
    /// first minimum, in slice order (organization outer, then `V_SSC`,
    /// `N_pre`, `N_wr`), of the finite scores of the yield-feasible
    /// candidates, bit for bit what a walk of every candidate returns.
    ///
    /// It walks the slices best first, in ascending score of their lower
    /// bounds ([`sram_array::ArraySlice::bound`]), keeping the lowest
    /// score found so far, the earliest slice's on a tie. A slice or
    /// `N_wr` column whose bound scores above that threshold is skipped.
    /// A skipped candidate scores at least its bound, above the
    /// threshold, which is at least the optimum, so it can neither win
    /// nor tie; a slice or column holding an optimum-scoring candidate
    /// has a bound at or below the optimum and is never skipped. The
    /// walk is serial and its order is a function of the bounds, so what
    /// is skipped, and [`SearchStatistics::pruned`], are the same on
    /// every run. The argument needs the objective to keep
    /// [`Objective::score`]'s contract: a score that does not fall as a
    /// field of the metrics grows.
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
        sram_probe::probe_inc!("coopt.searches");
        let _span = sram_probe::probe_span!("coopt.search_ns");
        let mut trace = sram_probe::trace_span!("coopt.search");
        trace.arg("slices", slices.len() as i64);

        let mut threshold = Threshold {
            objective,
            best: None,
        };
        let (stats, walked) = self.walk_best_first(&slices, &mut threshold)?;
        trace.arg("walked", walked as i64);
        record_candidates(&stats);

        let (_, (best, metrics, score)) = threshold.best.ok_or(CooptError::Infeasible {
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

    /// The non-dominated energy/delay points of the yield-feasible
    /// candidates for `capacity` whose energy-delay product is finite,
    /// bit for bit and in the order a walk of every candidate in slice
    /// order leaves them in its [`ParetoFront`]. A candidate whose
    /// energy-delay product is not finite is an evaluation error, as in
    /// [`Self::run`] under [`EnergyDelayProduct`]. A capacity with no
    /// organization gives an empty front.
    ///
    /// It walks the slices best first, in ascending energy-delay product
    /// of their lower bounds, into a working front, and skips a slice or
    /// `N_wr` column when a point of that front strictly dominates its
    /// bound's energy and delay: every skipped candidate is then
    /// strictly dominated by that point, and whatever it dominates, the
    /// point dominates too. So the working front ends holding exactly
    /// the non-dominated candidates, which are re-offered in slice order
    /// (slice, then `N_pre`, then `N_wr`) into the returned front.
    ///
    /// # Errors
    ///
    /// [`CooptError::Cancelled`] when the attached [`CancelToken`] fires
    /// (checked before the bound pass and at slice boundaries).
    pub fn pareto_front(
        &self,
        capacity: Capacity,
    ) -> Result<(ParetoFront<DesignPoint>, SearchStatistics), CooptError> {
        let slices = self.slices(capacity);
        let mut working = Dominance {
            front: ParetoFront::new(),
        };
        let (stats, _) = self.walk_best_first(&slices, &mut working)?;
        record_candidates(&stats);

        let mut survivors = working.front.points().to_vec();
        survivors.sort_by_key(|p| {
            let (slice, point) = p.tag;
            (slice, point.n_pre, point.n_wr)
        });
        let front = survivors
            .into_iter()
            .map(|p| ParetoPoint {
                energy: p.energy,
                delay: p.delay,
                tag: p.tag.1,
            })
            .collect();
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
    fn a_space_without_vssc_levels_has_no_slices() {
        let fx = fixture();
        let space = fx.space.clone().with_vssc_values(Vec::new());
        let constraint = YieldConstraint::paper_delta(fx.cell.vdd());
        let search = Search::new(&fx.cell, &fx.periphery, &fx.params, &space, constraint, 64);
        let (front, stats) = search.pareto_front(Capacity::from_bytes(1024)).unwrap();
        assert!(front.is_empty());
        assert_eq!(stats, SearchStatistics::default());
        let err = search
            .run(Capacity::from_bytes(1024), &EnergyDelayProduct)
            .unwrap_err();
        assert!(matches!(err, CooptError::EmptyDesignSpace { .. }));
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
