//! Property tests: on randomly subsampled design spaces, the
//! bound-and-prune search returns, bit for bit, the first minimum of a
//! naive brute-force enumeration at every thread count; the
//! dominance-pruned Pareto walk returns, bit for bit and in order, the
//! front a walk of every candidate builds; and the Pareto walk and
//! coordinate descent agree with the search.

use proptest::prelude::*;
use sram_array::{ArrayMetrics, ArrayModel, ArrayOrganization, ArrayParams, Capacity, Periphery};
use sram_cell::CellCharacterization;
use sram_coopt::{
    CoOptimizationFramework, DelayOnly, DesignPoint, DesignSpace, EnergyDelayProduct,
    EnergyDelaySquared, EnergyOnly, Method, Objective, ParetoFront, ParetoPoint, Search,
    SearchStatistics, YieldConstraint,
};
use sram_device::{DeviceLibrary, VtFlavor};
use sram_units::{Time, Voltage};

/// The delay in whole 10 ps steps. It keeps [`Objective::score`]'s
/// contract and ties across many candidates of many slices, so the
/// search must break ties as the brute force does: the first minimum in
/// walk order, whatever order the search visits the slices in.
struct QuantizedDelay;

impl Objective for QuantizedDelay {
    fn score(&self, metrics: &ArrayMetrics) -> f64 {
        (metrics.delay / Time::from_picoseconds(10.0)).floor()
    }

    fn name(&self) -> &'static str {
        "delay in 10 ps steps"
    }
}

/// The four built-in objectives and [`QuantizedDelay`], drawn by index.
const OBJECTIVES: [&(dyn Objective + Sync); 5] = [
    &EnergyDelayProduct,
    &EnergyDelaySquared,
    &DelayOnly,
    &EnergyOnly,
    &QuantizedDelay,
];

/// Walks every candidate in walk order (organization, `V_SSC`, `N_pre`,
/// `N_wr`), handing each yield-feasible one, evaluated from scratch, to
/// `visit`, and returns the walk's `examined`, `feasible` and
/// `infeasible` counts.
fn walk_every_candidate(
    capacity: Capacity,
    cell: &CellCharacterization,
    periphery: &Periphery,
    params: &ArrayParams,
    space: &DesignSpace,
    constraint: YieldConstraint,
    mut visit: impl FnMut(DesignPoint, ArrayMetrics),
) -> SearchStatistics {
    let mut stats = SearchStatistics::default();
    let (npre_values, nwr_values) = (space.npre_values(), space.nwr_values());
    let per_slice = npre_values.len() * nwr_values.len();
    for organization in ArrayOrganization::enumerate(capacity, 64, space.rows_range()) {
        for &vssc in space.vssc_values() {
            stats.examined += per_slice;
            if !constraint.check_snapshot(cell, vssc) {
                stats.infeasible += per_slice;
                continue;
            }
            stats.feasible += per_slice;
            for &n_pre in &npre_values {
                for &n_wr in &nwr_values {
                    let metrics = ArrayModel::new(organization, cell, periphery, params)
                        .with_precharge_fins(n_pre)
                        .with_write_fins(n_wr)
                        .with_vssc(vssc)
                        .evaluate()
                        .expect("evaluates");
                    let point = DesignPoint {
                        organization,
                        vssc,
                        n_pre,
                        n_wr,
                    };
                    visit(point, metrics);
                }
            }
        }
    }
    stats
}

/// The first minimum, in walk order, of the finite scores of every
/// yield-feasible candidate.
fn naive_minimum(
    capacity: Capacity,
    cell: &CellCharacterization,
    periphery: &Periphery,
    params: &ArrayParams,
    space: &DesignSpace,
    constraint: YieldConstraint,
    objective: &dyn Objective,
) -> Option<(DesignPoint, ArrayMetrics, f64)> {
    let mut best: Option<(DesignPoint, ArrayMetrics, f64)> = None;
    walk_every_candidate(
        capacity,
        cell,
        periphery,
        params,
        space,
        constraint,
        |point, metrics| {
            let score = objective.score(&metrics);
            if score.is_finite() && best.as_ref().is_none_or(|(_, _, b)| score < *b) {
                best = Some((point, metrics, score));
            }
        },
    );
    best
}

/// The front of a walk of every candidate: each yield-feasible one whose
/// energy-delay product is finite, offered in walk order, with the
/// walk's `examined`, `feasible` and `infeasible` counts.
fn naive_front(
    capacity: Capacity,
    cell: &CellCharacterization,
    periphery: &Periphery,
    params: &ArrayParams,
    space: &DesignSpace,
    constraint: YieldConstraint,
) -> (ParetoFront<DesignPoint>, SearchStatistics) {
    let mut front = ParetoFront::new();
    let stats = walk_every_candidate(
        capacity,
        cell,
        periphery,
        params,
        space,
        constraint,
        |tag, metrics| {
            if EnergyDelayProduct.score(&metrics).is_finite() {
                front.offer(ParetoPoint {
                    energy: metrics.energy,
                    delay: metrics.delay,
                    tag,
                });
            }
        },
    );
    (front, stats)
}

/// The paper space restricted to the picked `V_SSC` grid indices, the
/// rows up to `2^rows_max_log2` and the given fin strides.
fn subsampled_space(
    vssc_picks: &[usize],
    npre_stride: u32,
    nwr_stride: u32,
    rows_max_log2: u32,
) -> DesignSpace {
    let mut vsscs: Vec<Voltage> = vssc_picks
        .iter()
        .map(|&k| Voltage::from_millivolts(-10.0 * k as f64))
        .collect();
    vsscs.sort_by(|a, b| b.volts().total_cmp(&a.volts()));
    vsscs.dedup();
    DesignSpace::paper_default()
        .with_vssc_values(vsscs)
        .with_rows_range(2, 1 << rows_max_log2)
        .with_strides(npre_stride, nwr_stride)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The search returns the brute force's first minimum — point,
    /// metrics and score bits — for every capacity, flavor, method and
    /// objective of [`OBJECTIVES`], and evaluates the same candidates at
    /// one to four threads.
    #[test]
    fn search_equals_brute_force(
        vssc_picks in proptest::collection::vec(0usize..25, 1..6),
        npre_stride in 2u32..20,
        nwr_stride in 1u32..12,
        rows_max_log2 in 5u32..11,
        capacity_bytes in prop_oneof![Just(128usize), Just(256), Just(1024), Just(4096), Just(16384)],
        hvt in any::<bool>(),
        m2 in any::<bool>(),
        objective in 0usize..5,
        threads in 1usize..5,
    ) {
        let lib = DeviceLibrary::sevennm();
        let (flavor, method) = (
            if hvt { VtFlavor::Hvt } else { VtFlavor::Lvt },
            if m2 { Method::M2 } else { Method::M1 },
        );
        let cell = CoOptimizationFramework::paper_mode()
            .characterize_cell(flavor, method)
            .expect("paper-mode cell");
        let periphery = Periphery::new(&lib);
        let params = ArrayParams::paper_defaults();
        let constraint = YieldConstraint::paper_delta(lib.nominal_vdd());
        let space = subsampled_space(&vssc_picks, npre_stride, nwr_stride, rows_max_log2);
        let space = if m2 { space } else { space.without_negative_gnd() };
        let capacity = Capacity::from_bytes(capacity_bytes);
        let objective = OBJECTIVES[objective];

        let naive =
            naive_minimum(capacity, &cell, &periphery, &params, &space, constraint, objective);
        let search = Search::new(&cell, &periphery, &params, &space, constraint, 64);
        let outcome = search.clone().with_threads(threads).run(capacity, objective);

        match (naive, outcome) {
            (Some((point, metrics, score)), Ok(outcome)) => {
                prop_assert_eq!(outcome.best, point);
                prop_assert_eq!(outcome.metrics, metrics);
                prop_assert_eq!(
                    outcome.score.to_bits(),
                    score.to_bits(),
                    "search {} vs brute force {}",
                    outcome.score,
                    score
                );
                let s = outcome.stats;
                prop_assert_eq!(s.examined, s.feasible + s.infeasible);
                prop_assert_eq!(s.feasible, s.evaluated + s.eval_errors + s.pruned);
                for other in 1..=4 {
                    let again = search
                        .clone()
                        .with_threads(other)
                        .run(capacity, objective)
                        .expect("feasible at every thread count");
                    prop_assert_eq!(again.stats, s, "{} threads vs {}", other, threads);
                }
            }
            (None, Err(_)) => {}
            (naive, outcome) => {
                prop_assert!(
                    false,
                    "disagree: naive={:?} search_ok={}",
                    naive.map(|(point, ..)| point),
                    outcome.is_ok()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The dominance-pruned Pareto walk returns the full walk's front —
    /// the same points, energy and delay bits and design points, in the
    /// same order — for every capacity, flavor and method, and accounts
    /// for the space the full walk examines.
    #[test]
    fn pruned_front_equals_the_full_walk(
        vssc_picks in proptest::collection::vec(0usize..25, 1..6),
        npre_stride in 2u32..20,
        nwr_stride in 1u32..12,
        rows_max_log2 in 5u32..11,
        capacity_bytes in prop_oneof![Just(128usize), Just(256), Just(1024), Just(4096), Just(16384)],
        hvt in any::<bool>(),
        m2 in any::<bool>(),
    ) {
        let lib = DeviceLibrary::sevennm();
        let (flavor, method) = (
            if hvt { VtFlavor::Hvt } else { VtFlavor::Lvt },
            if m2 { Method::M2 } else { Method::M1 },
        );
        let cell = CoOptimizationFramework::paper_mode()
            .characterize_cell(flavor, method)
            .expect("paper-mode cell");
        let periphery = Periphery::new(&lib);
        let params = ArrayParams::paper_defaults();
        let constraint = YieldConstraint::paper_delta(lib.nominal_vdd());
        let space = subsampled_space(&vssc_picks, npre_stride, nwr_stride, rows_max_log2);
        let space = if m2 { space } else { space.without_negative_gnd() };
        let capacity = Capacity::from_bytes(capacity_bytes);

        let (oracle, full) = naive_front(capacity, &cell, &periphery, &params, &space, constraint);
        let (front, s) = Search::new(&cell, &periphery, &params, &space, constraint, 64)
            .pareto_front(capacity)
            .expect("no cancel token");
        prop_assert_eq!(front.len(), oracle.len());
        for (i, (got, want)) in front.points().iter().zip(oracle.points()).enumerate() {
            prop_assert_eq!(
                got.energy.joules().to_bits(),
                want.energy.joules().to_bits(),
                "point {} energy",
                i
            );
            prop_assert_eq!(
                got.delay.seconds().to_bits(),
                want.delay.seconds().to_bits(),
                "point {} delay",
                i
            );
            prop_assert_eq!(got.tag, want.tag, "point {}", i);
        }
        prop_assert_eq!(s.examined, full.examined);
        prop_assert_eq!(s.feasible, full.feasible);
        prop_assert_eq!(s.infeasible, full.infeasible);
        prop_assert_eq!(s.examined, s.feasible + s.infeasible);
        prop_assert_eq!(s.feasible, s.evaluated + s.eval_errors + s.pruned);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The Pareto walk and coordinate descent agree with the search on
    /// the same spaces: the front accounts for the space the search
    /// examines, its least-EDP point scores the search's optimum bit for
    /// bit, and descent never beats that optimum.
    #[test]
    fn walks_agree_with_the_exhaustive_search(
        vssc_picks in proptest::collection::vec(0usize..25, 1..5),
        npre_stride in 5u32..20,
        nwr_stride in 4u32..12,
        rows_max_log2 in 5u32..11,
        capacity_kb in prop_oneof![Just(1usize), Just(4)],
        threads in 1usize..5,
    ) {
        let lib = DeviceLibrary::sevennm();
        let cell = CellCharacterization::paper_hvt(lib.nominal_vdd());
        let periphery = Periphery::new(&lib);
        let params = ArrayParams::paper_defaults();
        let constraint = YieldConstraint::paper_delta(lib.nominal_vdd());
        let space = subsampled_space(&vssc_picks, npre_stride, nwr_stride, rows_max_log2);
        let capacity = Capacity::from_bytes(capacity_kb * 1024);
        let search =
            Search::new(&cell, &periphery, &params, &space, constraint, 64).with_threads(threads);

        let exhaustive = search.run(capacity, &EnergyDelayProduct).expect("feasible space");
        let (front, stats) = search.pareto_front(capacity).expect("no cancel token");
        let searched = exhaustive.stats;
        prop_assert_eq!(stats.examined, searched.examined);
        prop_assert_eq!(stats.feasible, searched.feasible);
        prop_assert_eq!(stats.infeasible, searched.infeasible);
        prop_assert_eq!(stats.feasible, stats.evaluated + stats.eval_errors + stats.pruned);
        let least = front.min_edp().expect("a feasible space has a front");
        prop_assert_eq!(
            (least.energy * least.delay).joule_seconds().to_bits(),
            exhaustive.score.to_bits(),
            "front {:?} vs search {:?}",
            least.tag,
            exhaustive.best
        );

        let descent = search.descend(capacity, &EnergyDelayProduct).expect("feasible space");
        prop_assert!(
            descent.score >= exhaustive.score,
            "descent {} beat the exhaustive optimum {}",
            descent.score,
            exhaustive.score
        );
        let s = descent.stats;
        prop_assert_eq!(s.examined, s.feasible + s.infeasible);
        prop_assert_eq!(s.feasible, s.evaluated + s.eval_errors);
    }
}
