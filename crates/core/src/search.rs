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
    ArrayMetrics, ArrayModel, ArrayOrganization, ArrayParams, ArraySlice, Capacity, Periphery,
    SliceColumns, VsscLevel,
};
use sram_cell::CellCharacterization;
use sram_device::VtFlavor;
use sram_faults::{CancelReason, CancelToken};
use sram_units::{Energy, Time, Voltage};
use std::ops::Range;

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
    /// Lower bounds the search evaluated: runs of the relaxed Table-3
    /// body ([`sram_array::ArraySlice::bound`] and
    /// [`sram_array::ArraySlice::column_bound`]), a visited candidate's
    /// included (its one-point bound is its metrics). Coordinate descent
    /// bounds nothing.
    pub bounds: usize,
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

/// A candidate's place in slice order: its slice's index, then `N_pre`,
/// then `N_wr` (the space's fin values ascend).
type WalkOrder = (usize, u32, u32);

/// Where the candidate `point` of the slice at index `slice` sits in
/// slice order.
fn walk_order(slice: usize, point: &DesignPoint) -> WalkOrder {
    (slice, point.n_pre, point.n_wr)
}

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

/// Counts a candidate handed to a walk's visitor: evaluated, or an
/// evaluation error when the visitor rejects it.
pub(crate) fn tally(stats: &mut SearchStatistics, accepted: bool) {
    if accepted {
        stats.evaluated += 1;
    } else {
        stats.eval_errors += 1;
    }
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
trait Incumbent {
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
    /// in any order within the slice, returning `false` to reject it as
    /// an evaluation error.
    fn visit(&mut self, slice: usize, point: DesignPoint, metrics: &ArrayMetrics) -> bool;
}

/// [`Search::run`]'s incumbent: the lowest finite score found so far,
/// the earliest candidate's in slice order on a tie, with its candidate.
/// A bound scoring above it is rejected.
struct Threshold<'o, O: ?Sized> {
    objective: &'o O,
    best: Option<(WalkOrder, ScoredCandidate)>,
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
        // The tie-break on the place in slice order keeps the first
        // minimum whatever order the candidates arrive in.
        let order = walk_order(slice, &point);
        if self
            .best
            .is_none_or(|(at, (_, _, best))| (score, order) < (best, at))
        {
            self.best = Some((order, (point, *metrics, score)));
        }
        true
    }
}

/// [`Search::pareto_front`]'s incumbent: the working front of the
/// candidates walked so far, each point tagged with its slice index. A
/// bound is rejected when a point of the front strictly dominates its
/// energy and delay.
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

/// One `V_SSC` level of a walk, read once: its yield gate (the
/// constraint reads only `V_SSC`, through the cell tables) and, when it
/// passes, the terms every slice at the level shares.
pub(crate) struct Level {
    vssc: Voltage,
    terms: Option<VsscLevel>,
}

/// A walked slice of [`Search::walk_best_first`], bisected column by
/// column against the live incumbent.
struct Bisection<'w, 'a, I> {
    slice: &'w ArraySlice<'a>,
    columns: &'w SliceColumns,
    npre_values: &'w [u32],
    /// The slice's index in slice order.
    index: usize,
    /// The slice's organization and `V_SSC`, with fins to fill in.
    at: DesignPoint,
    incumbent: &'w mut I,
    stats: &'w mut SearchStatistics,
    /// Runs of the relaxed Table-3 body so far.
    bounds: &'w mut usize,
}

impl<I: Incumbent> Bisection<'_, '_, I> {
    /// Walks the `N_pre` values `run` of the column at index `column`
    /// (`N_wr` = `n_wr`). A run whose bound the incumbent rejects is
    /// pruned; a one-point run it does not reject is visited, its bound
    /// being its metrics; any other run is split in two, lower half
    /// first.
    fn bisect(&mut self, column: usize, n_wr: u32, run: Range<usize>) {
        let values = &self.npre_values[run.clone()];
        let (Some(&first), Some(&last)) = (values.first(), values.last()) else {
            return;
        };
        if let Some(bound) = self.slice.column_bound(first..=last, self.columns, column) {
            *self.bounds += 1;
            if self.incumbent.rejects(&self.incumbent.keep(&bound)) {
                self.stats.pruned += run.len();
                return;
            }
            if run.len() == 1 {
                let point = DesignPoint {
                    n_pre: first,
                    n_wr,
                    ..self.at
                };
                tally(self.stats, self.incumbent.visit(self.index, point, &bound));
                return;
            }
        }
        // A run of one point is always bounded (by its own metrics), so
        // only a longer run gets here: one that lacks a bound or that the
        // incumbent does not rule out.
        if run.len() > 1 {
            let mid = run.start + run.len() / 2;
            self.bisect(column, n_wr, run.start..mid);
            self.bisect(column, n_wr, mid..run.end);
        }
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
    pub(crate) params: &'a ArrayParams,
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

    /// Fails with [`CooptError::Cancelled`] once the token has fired.
    pub(crate) fn poll_cancel(&self) -> Result<(), CooptError> {
        self.cancel
            .cancelled()
            .map_or(Ok(()), |reason| Err(cancelled(reason)))
    }

    /// Reads the level `vssc`: its yield gate and, when it passes, its
    /// `I_read` and `I_CVSS`.
    pub(crate) fn level(&self, vssc: Voltage) -> Level {
        let feasible = self.constraint.check_snapshot(self.cell, vssc);
        Level {
            vssc,
            terms: feasible.then(|| VsscLevel::new(vssc, self.cell, self.periphery)),
        }
    }

    /// Walks the slice of organization `org` at `level` and returns its
    /// statistics over its `examined` candidates. The yield gate depends
    /// only on `V_SSC`, so the level gates the whole slice; when the
    /// organization's model failed to build (`base` is `None`; only
    /// invalid array parameters fail), every candidate is an evaluation
    /// error. Otherwise `walk` gets the slice, derived from `base` at the
    /// level, and adds what it evaluates, rejects as an evaluation error
    /// and prunes.
    pub(crate) fn walk_slice(
        &self,
        org: ArrayOrganization,
        base: Option<&ArraySlice<'a>>,
        level: &Level,
        examined: usize,
        walk: impl FnOnce(&ArraySlice<'a>, &mut SearchStatistics),
    ) -> SearchStatistics {
        // One trace span per walked slice, with the slice's outcome
        // attached as args on the end event.
        let mut trace = sram_probe::trace_span!("coopt.slice");
        trace.arg("rows", i64::from(org.rows()));
        trace.arg("vssc_mv", level.vssc.millivolts().round() as i64);

        let mut stats = SearchStatistics {
            examined,
            ..SearchStatistics::default()
        };
        trace.arg("examined", examined as i64);
        let Some(terms) = &level.terms else {
            trace.arg("feasible", 0);
            stats.infeasible = examined;
            return stats;
        };
        trace.arg("feasible", examined as i64);
        stats.feasible = examined;

        let Some(base) = base else {
            stats.eval_errors = examined;
            return stats;
        };
        walk(&base.at(terms), &mut stats);
        trace.arg("pruned", stats.pruned as i64);
        stats
    }

    /// The best-first walk behind [`Self::run`] and [`Self::pareto_front`]
    /// over the slices of `orgs` (organization outer, then `V_SSC`): it
    /// hands `incumbent` every yield-feasible candidate that the
    /// incumbent does not rule out on a lower bound, and returns the
    /// walk's statistics, the number of slices it walked and the number
    /// of lower bounds it evaluated.
    ///
    /// 1. Each level is read once ([`Self::level`]), and each
    ///    organization's slice at `V_SSC` = 0 and `N_wr` columns are built
    ///    once; every slice is derived from them
    ///    ([`sram_array::ArraySlice::at`]).
    /// 2. A bound pass keeps, for each feasible slice, what the incumbent
    ///    reads of the slice's lower bound
    ///    ([`sram_array::ArraySlice::bound`]). Infeasible slices are
    ///    counted here.
    /// 3. Slices without a bound, or whose bound's key is NaN, go first;
    ///    they are never pruned whole. The rest follow in ascending key,
    ///    ties in slice order.
    /// 4. A slice whose bound the incumbent rejects is pruned whole. A
    ///    walked slice bisects each `N_wr` column over its `N_pre` values
    ///    against the live incumbent: a run whose bound
    ///    ([`sram_array::ArraySlice::column_bound`]) it rejects is pruned,
    ///    the candidates of the others are visited.
    ///
    /// The walk is serial, and its order and every skip follow from the
    /// inputs, so the statistics are the same on every run. The cancel
    /// token is polled before the bound pass and at every walked slice.
    fn walk_best_first<I: Incumbent>(
        &self,
        orgs: &[ArrayOrganization],
        incumbent: &mut I,
    ) -> Result<(SearchStatistics, usize, usize), CooptError> {
        let (npre_values, nwr_values) = (self.space.npre_values(), self.space.nwr_values());
        let per_slice = npre_values.len() * nwr_values.len();
        // The space's `N_pre` values ascend, so a run of them spans its
        // first to its last.
        let npre_span = npre_values.first().zip(npre_values.last());
        let npre_span = npre_span.map(|(&first, &last)| first..=last);
        let mut stats = SearchStatistics::default();
        let mut bounds = 0;

        self.poll_cancel()?;
        let levels: Vec<Level> = self
            .space
            .vssc_values()
            .iter()
            .map(|&vssc| self.level(vssc))
            .collect();
        sram_probe::probe_add!("coopt.slices", (orgs.len() * levels.len()) as u64);
        let prepared: Vec<Option<(ArraySlice<'a>, SliceColumns)>> = orgs
            .iter()
            .map(|&org| {
                let base = ArrayModel::new(org, self.cell, self.periphery, self.params).slice();
                base.ok().map(|base| {
                    let columns = base.columns(&nwr_values);
                    (base, columns)
                })
            })
            .collect();

        // The bound pass.
        let mut pending = Vec::with_capacity(orgs.len() * levels.len());
        for (org_index, prepared) in prepared.iter().enumerate() {
            for (level_index, level) in levels.iter().enumerate() {
                let Some(terms) = &level.terms else {
                    stats.merge(&SearchStatistics {
                        examined: per_slice,
                        infeasible: per_slice,
                        ..SearchStatistics::default()
                    });
                    continue;
                };
                let bound = prepared
                    .as_ref()
                    .zip(npre_span.clone())
                    .and_then(|((base, columns), span)| base.at(terms).bound(span, columns));
                bounds += usize::from(bound.is_some());
                let bound = bound.map(|b| incumbent.keep(&b));
                let key = bound
                    .as_ref()
                    .map(I::key)
                    .filter(|key| !key.is_nan())
                    .unwrap_or(f64::NEG_INFINITY);
                pending.push((key, org_index * levels.len() + level_index, bound));
            }
        }
        // Stable: equal keys keep slice order.
        pending.sort_by(|a, b| a.0.total_cmp(&b.0));

        let mut walked = 0;
        for (_, index, bound) in pending {
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
            let (org, level) = (orgs[index / levels.len()], &levels[index % levels.len()]);
            let prepared = prepared[index / levels.len()].as_ref();
            let walk = |slice: &ArraySlice<'a>, stats: &mut SearchStatistics| {
                // `walk_slice` walks only a slice whose base was built.
                let Some((_, columns)) = prepared else {
                    return;
                };
                let mut bisection = Bisection {
                    slice,
                    columns,
                    npre_values: &npre_values,
                    index,
                    at: DesignPoint {
                        organization: org,
                        vssc: level.vssc,
                        n_pre: 0,
                        n_wr: 0,
                    },
                    incumbent: &mut *incumbent,
                    stats,
                    bounds: &mut bounds,
                };
                for (column, &n_wr) in nwr_values.iter().enumerate() {
                    bisection.bisect(column, n_wr, 0..npre_values.len());
                }
            };
            let base = prepared.map(|(base, _)| base);
            stats.merge(&self.walk_slice(org, base, level, per_slice, walk));
        }
        record_candidates(&stats);
        sram_probe::probe_add!("coopt.bounds_evaluated", bounds as u64);
        Ok((stats, walked, bounds))
    }

    /// Finds the exhaustive optimum for `capacity` under `objective`: the
    /// first minimum, in slice order (organization outer, then `V_SSC`,
    /// `N_pre`, `N_wr`), of the finite scores of the yield-feasible
    /// candidates, bit for bit what a walk of every candidate returns.
    ///
    /// It walks the slices best first, in ascending score of their lower
    /// bounds ([`sram_array::ArraySlice::bound`]), keeping the lowest
    /// score found so far, the earliest candidate's in slice order on a
    /// tie, so the order of visits does not matter. A slice, or a run of
    /// `N_pre` values in one `N_wr` column
    /// ([`sram_array::ArraySlice::column_bound`]), whose bound scores above
    /// that threshold is skipped. A skipped candidate scores at least its
    /// bound, above the threshold, which is at least the optimum, so it
    /// can neither win nor tie; a slice or run holding an optimum-scoring
    /// candidate has a bound at or below the optimum and is never
    /// skipped. The walk is serial and its order is a function of the
    /// bounds, so what is skipped, and [`SearchStatistics::pruned`], are
    /// the same on every run. The argument needs the objective to keep
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
        let orgs = self.organizations(capacity);
        let slices = orgs.len() * self.space.vssc_values().len();
        if slices == 0 {
            return Err(CooptError::EmptyDesignSpace {
                capacity_bits: capacity.bits(),
            });
        }
        sram_probe::probe_inc!("coopt.searches");
        let _span = sram_probe::probe_span!("coopt.search_ns");
        let mut trace = sram_probe::trace_span!("coopt.search");
        trace.arg("slices", slices as i64);

        let mut threshold = Threshold {
            objective,
            best: None,
        };
        let (stats, walked, bounds) = self.walk_best_first(&orgs, &mut threshold)?;
        trace.arg("walked", walked as i64);

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
            bounds,
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
    /// of their lower bounds, into a working front, and skips a slice, or
    /// a run of `N_pre` values in one `N_wr` column, when a point of that
    /// front strictly dominates its bound's energy and delay: every
    /// skipped candidate is then strictly dominated by that point, and
    /// whatever it dominates, the point dominates too. So the working
    /// front ends holding exactly the non-dominated candidates, whatever
    /// order they were offered in, and they are re-offered in slice order
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
        let orgs = self.organizations(capacity);
        let mut working = Dominance {
            front: ParetoFront::new(),
        };
        let (stats, ..) = self.walk_best_first(&orgs, &mut working)?;

        let mut survivors = working.front.points().to_vec();
        survivors.sort_by_key(|p| walk_order(p.tag.0, &p.tag.1));
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
        let slice_count = search(&fx).organizations(Capacity::from_bytes(4096)).len()
            * fx.space.vssc_values().len();
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

    /// The delay in whole 5 ps steps: its least score ties across
    /// `N_pre` and `N_wr` within a slice.
    struct DelaySteps;

    impl Objective for DelaySteps {
        fn score(&self, metrics: &ArrayMetrics) -> f64 {
            (metrics.delay / Time::from_picoseconds(5.0)).floor()
        }

        fn name(&self) -> &'static str {
            "delay in 5 ps steps"
        }
    }

    #[test]
    fn a_tie_within_a_slice_goes_to_the_first_candidate_in_slice_order() {
        // One slice, 64 x 128 at V_SSC = 0, over the whole fin box. Its
        // least-score candidates are first at (10, 2) in slice order but
        // at (12, 1) in the order the bisection visits them (N_wr
        // outer), so only the tie-break on the place in slice order
        // returns the brute force's first minimum.
        let fx = fixture();
        let space = DesignSpace::paper_default()
            .with_vssc_values(vec![Voltage::ZERO])
            .with_rows_range(64, 64);
        let constraint = YieldConstraint::paper_delta(fx.cell.vdd());
        let search = Search::new(&fx.cell, &fx.periphery, &fx.params, &space, constraint, 64);
        let out = search.run(Capacity::from_bytes(1024), &DelaySteps).unwrap();

        let org = ArrayOrganization::new(64, 128, 64).unwrap();
        let slice = ArrayModel::new(org, &fx.cell, &fx.periphery, &fx.params)
            .slice()
            .unwrap();
        let mut scored = Vec::new();
        slice.sweep(&space.npre_values(), &space.nwr_values(), |p, w, m| {
            scored.push((DelaySteps.score(m), p, w));
        });
        let least = scored.iter().map(|s| s.0).fold(f64::INFINITY, f64::min);
        let ties: Vec<(u32, u32)> = scored
            .iter()
            .filter(|s| s.0 == least)
            .map(|s| (s.1, s.2))
            .collect();
        let slice_first = ties.iter().min().copied();
        let column_first = ties.iter().min_by_key(|&&(p, w)| (w, p)).copied();
        assert_eq!(slice_first, Some((10, 2)), "{ties:?}");
        assert_eq!(column_first, Some((12, 1)), "{ties:?}");
        assert_eq!(
            (out.best.organization, out.best.n_pre, out.best.n_wr),
            (org, 10, 2)
        );
        assert_eq!(out.score.to_bits(), least.to_bits());
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
