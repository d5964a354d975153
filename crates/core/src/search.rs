//! Exhaustive (and parallel) search over the design space.

use crate::{CooptError, DesignSpace, Objective, SearchStatistics, YieldConstraint};
use sram_array::{ArrayMetrics, ArrayModel, ArrayOrganization, ArrayParams, Capacity, Periphery};
use sram_cell::CellCharacterization;
use sram_faults::{CancelReason, CancelToken};
use sram_units::Voltage;
use std::sync::atomic::{AtomicBool, Ordering};

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

/// A feasible candidate with its evaluated metrics and objective score.
type ScoredCandidate = (DesignPoint, ArrayMetrics, f64);

/// Exhaustive search over [`DesignSpace`] (Section 5: "we can derive the
/// minimum energy-delay product point of the array using an exhaustive
/// search").
#[derive(Debug, Clone)]
pub struct ExhaustiveSearch<'a> {
    cell: &'a CellCharacterization,
    periphery: &'a Periphery,
    params: &'a ArrayParams,
    space: &'a DesignSpace,
    constraint: YieldConstraint,
    word_bits: u32,
    threads: usize,
    cancel: CancelToken,
}

impl<'a> ExhaustiveSearch<'a> {
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
            threads: 1,
            cancel: CancelToken::never(),
        }
    }

    /// Enables a scoped thread pool of `n` workers, splitting the space
    /// by `(organization, V_SSC)` slice.
    #[must_use]
    pub fn with_threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Attaches a cooperative cancellation token, polled once per slice
    /// on both the serial and parallel paths — a fired token aborts the
    /// sweep within one slice's work instead of running to completion.
    #[must_use]
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Enumerates the candidate `(organization, V_SSC)` slices for a
    /// capacity (the fin loops run inside each slice).
    fn slices(&self, capacity: Capacity) -> Vec<(ArrayOrganization, Voltage)> {
        let orgs = ArrayOrganization::enumerate(capacity, self.word_bits, self.space.rows_range());
        let mut out = Vec::with_capacity(orgs.len() * self.space.vssc_values().len());
        for org in orgs {
            for &vssc in self.space.vssc_values() {
                out.push((org, vssc));
            }
        }
        out
    }

    /// Evaluates one slice, returning the best feasible candidate in it.
    fn best_in_slice(
        &self,
        org: ArrayOrganization,
        vssc: Voltage,
        npre_values: &[u32],
        nwr_values: &[u32],
        objective: &(impl Objective + ?Sized),
    ) -> (Option<ScoredCandidate>, SearchStatistics) {
        // One trace span per (V_SSC, n_r) slice — the unit of parallel
        // work — with the slice's outcome attached as args on the end
        // event.
        let mut trace = sram_probe::trace_span!("coopt.slice");
        trace.arg("rows", i64::from(org.rows()));
        trace.arg("vssc_mv", vssc.millivolts().round() as i64);

        let mut stats = SearchStatistics {
            examined: npre_values.len() * nwr_values.len(),
            ..SearchStatistics::default()
        };

        // The yield constraint depends only on V_SSC (through the cell
        // tables), so it gates the whole slice.
        if !self.constraint.check_snapshot(self.cell, vssc) {
            stats.infeasible = stats.examined;
            trace.arg("examined", stats.examined as i64);
            trace.arg("feasible", 0);
            return (None, stats);
        }
        stats.feasible = stats.examined;
        trace.arg("examined", stats.examined as i64);
        trace.arg("feasible", stats.feasible as i64);

        // Only invalid array parameters fail a slice; every candidate in
        // it would have failed the same way.
        let Ok(slice) = ArrayModel::new(org, self.cell, self.periphery, self.params)
            .with_vssc(vssc)
            .slice()
        else {
            stats.eval_errors = stats.feasible;
            return (None, stats);
        };
        let mut best: Option<ScoredCandidate> = None;
        slice.sweep(npre_values, nwr_values, |n_pre, n_wr, metrics| {
            let score = objective.score(metrics);
            // NaN policy: a non-finite score can never become the
            // incumbent (a NaN first candidate would win `score < s`
            // comparisons by default forever after). Count it with the
            // evaluation errors so the statistics partition
            // (`feasible = evaluated + eval_errors`) still holds.
            if !score.is_finite() {
                stats.eval_errors += 1;
                return;
            }
            stats.evaluated += 1;
            if best.as_ref().is_none_or(|(_, _, s)| score < *s) {
                best = Some((
                    DesignPoint {
                        organization: org,
                        vssc,
                        n_pre,
                        n_wr,
                    },
                    *metrics,
                    score,
                ));
            }
        });
        (best, stats)
    }

    /// Builds the typed cancellation error (and counts the abort).
    fn cancelled(&self, reason: CancelReason) -> CooptError {
        sram_probe::probe_inc!("coopt.search_cancelled");
        CooptError::Cancelled(reason)
    }

    /// Runs the search for `capacity` under `objective`.
    ///
    /// # Errors
    ///
    /// * [`CooptError::EmptyDesignSpace`] when the capacity admits no
    ///   organization within the row range;
    /// * [`CooptError::Infeasible`] when no candidate meets the yield
    ///   constraint;
    /// * [`CooptError::Cancelled`] when the attached [`CancelToken`]
    ///   fires mid-sweep (checked at slice boundaries).
    pub fn run(
        &self,
        capacity: Capacity,
        objective: &(impl Objective + Sync + ?Sized),
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
        let mut _trace = sram_probe::trace_span!("coopt.search");
        _trace.arg("slices", slices.len() as i64);
        // Scoped workers adopt this context (the search span and its
        // trace scope) so per-slice spans nest under it even on the
        // parallel path.
        let search_ctx = sram_probe::trace::TraceContext::current();

        let results: Vec<(Option<ScoredCandidate>, SearchStatistics)> = if self.threads <= 1 {
            let mut out = Vec::with_capacity(slices.len());
            for &(org, vssc) in &slices {
                if let Some(reason) = self.cancel.cancelled() {
                    return Err(self.cancelled(reason));
                }
                out.push(self.best_in_slice(org, vssc, &npre_values, &nwr_values, objective));
            }
            out
        } else {
            // Workers poll the token per slice and trip a shared latch so
            // every sibling chunk stops at its next slice boundary too.
            let stop = AtomicBool::new(false);
            let chunks: Vec<&[(ArrayOrganization, Voltage)]> =
                slices.chunks(slices.len().div_ceil(self.threads)).collect();
            #[expect(
                clippy::expect_used,
                reason = "re-raising a worker panic at the join is the scoped-thread contract"
            )]
            let results = std::thread::scope(|scope| {
                let handles: Vec<_> = chunks
                        .into_iter()
                        .map(|chunk| {
                            sram_probe::probe_record!(detail "coopt.slices_per_worker", chunk.len() as u64);
                            let stop = &stop;
                            let (npre_values, nwr_values) = (&npre_values, &nwr_values);
                            let search_ctx = &search_ctx;
                            scope.spawn(move || {
                                let _adopt = sram_probe::trace::adopt(search_ctx);
                                let mut partial = Vec::with_capacity(chunk.len());
                                for &(org, vssc) in chunk {
                                    if stop.load(Ordering::Relaxed) {
                                        break;
                                    }
                                    if self.cancel.is_cancelled() {
                                        stop.store(true, Ordering::Relaxed);
                                        break;
                                    }
                                    partial.push(self.best_in_slice(
                                        org,
                                        vssc,
                                        npre_values,
                                        nwr_values,
                                        objective,
                                    ));
                                }
                                partial
                            })
                        })
                        .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("search worker panicked"))
                    .collect::<Vec<_>>()
            });
            if stop.load(Ordering::Relaxed) {
                // Deadlines and shutdown flags are monotonic, so the token
                // still reports the reason the workers observed.
                let reason = self.cancel.cancelled().unwrap_or(CancelReason::Shutdown);
                return Err(self.cancelled(reason));
            }
            results
        };

        let mut stats = SearchStatistics::default();
        let mut best: Option<ScoredCandidate> = None;
        for (candidate, slice_stats) in results {
            stats.merge(&slice_stats);
            if let Some((point, metrics, score)) = candidate {
                if best.as_ref().is_none_or(|(_, _, s)| score < *s) {
                    best = Some((point, metrics, score));
                }
            }
        }
        sram_probe::probe_add!("coopt.candidates_examined", stats.examined as u64);
        sram_probe::probe_add!("coopt.candidates_infeasible_yield", stats.infeasible as u64);
        sram_probe::probe_add!("coopt.candidates_evaluated", stats.evaluated as u64);
        sram_probe::probe_add!("coopt.candidate_eval_errors", stats.eval_errors as u64);

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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EnergyDelayProduct;
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

    fn search(fx: &Fixture) -> ExhaustiveSearch<'_> {
        ExhaustiveSearch::new(
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
        assert_eq!(s.feasible, s.evaluated + s.eval_errors);
        assert!(s.evaluated > 0);
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
        assert!((serial.score - parallel.score).abs() < 1e-30);
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
        let token = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        let started = Instant::now();
        let err = search(&fx)
            .with_cancel(token)
            .run(Capacity::from_bytes(4096), &EnergyDelayProduct)
            .unwrap_err();
        let stopped_after = started.elapsed();
        assert!(
            matches!(err, CooptError::Cancelled(CancelReason::Deadline)),
            "{err}"
        );
        assert_eq!(err.cancel_reason(), Some(CancelReason::Deadline));
        assert!(!err.is_transient(), "cancellation must not be retried");
        // "Within one slice of expiry": generous scheduling slack plus the
        // measured per-slice cost, still far below the full-run duration.
        assert!(
            stopped_after <= slice_budget + Duration::from_millis(250),
            "took {stopped_after:?} to observe an already-expired deadline \
             (slice budget {slice_budget:?}, full run {full_run:?})"
        );
    }

    #[test]
    fn parallel_workers_observe_shutdown_between_slices() {
        let fx = fixture();
        let token = CancelToken::never();
        token.cancel();
        let err = search(&fx)
            .with_threads(4)
            .with_cancel(token)
            .run(Capacity::from_bytes(1024), &EnergyDelayProduct)
            .unwrap_err();
        assert!(
            matches!(err, CooptError::Cancelled(CancelReason::Shutdown)),
            "{err}"
        );
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
        let strict = ExhaustiveSearch::new(
            &fx.cell,
            &fx.periphery,
            &fx.params,
            &fx.space,
            YieldConstraint::MinMargin {
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
        assert_eq!(s.feasible, s.evaluated + s.eval_errors);
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
