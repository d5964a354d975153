//! Property tests: the bound-and-prune search returns, bit for bit, the
//! first minimum of a naive brute-force enumeration on randomly
//! subsampled design spaces, at every thread count, and the Pareto walk
//! and coordinate descent agree with it there.

use proptest::prelude::*;
use sram_array::{ArrayMetrics, ArrayModel, ArrayOrganization, ArrayParams, Capacity, Periphery};
use sram_cell::CellCharacterization;
use sram_coopt::{
    CoOptimizationFramework, DelayOnly, DesignPoint, DesignSpace, EnergyDelayProduct,
    EnergyDelaySquared, EnergyOnly, Method, Objective, Search, YieldConstraint,
};
use sram_device::{DeviceLibrary, VtFlavor};
use sram_units::Voltage;

/// The four built-in objectives, drawn by index.
const OBJECTIVES: [&(dyn Objective + Sync); 4] = [
    &EnergyDelayProduct,
    &EnergyDelaySquared,
    &DelayOnly,
    &EnergyOnly,
];

/// The first minimum, in walk order (organization, `V_SSC`, `N_pre`,
/// `N_wr`), of the finite scores of every yield-feasible candidate, each
/// evaluated from scratch.
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
    for organization in ArrayOrganization::enumerate(capacity, 64, space.rows_range()) {
        for &vssc in space.vssc_values() {
            if !constraint.check_snapshot(cell, vssc) {
                continue;
            }
            for &n_pre in &space.npre_values() {
                for &n_wr in &space.nwr_values() {
                    let metrics = ArrayModel::new(organization, cell, periphery, params)
                        .with_precharge_fins(n_pre)
                        .with_write_fins(n_wr)
                        .with_vssc(vssc)
                        .evaluate()
                        .expect("evaluates");
                    let score = objective.score(&metrics);
                    if score.is_finite() && best.as_ref().is_none_or(|(_, _, b)| score < *b) {
                        let point = DesignPoint {
                            organization,
                            vssc,
                            n_pre,
                            n_wr,
                        };
                        best = Some((point, metrics, score));
                    }
                }
            }
        }
    }
    best
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
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The search returns the brute force's first minimum — point,
    /// metrics and score bits — for every capacity, flavor, method and
    /// built-in objective, and evaluates the same candidates at one to
    /// four threads.
    #[test]
    fn search_equals_brute_force(
        vssc_picks in proptest::collection::vec(0usize..25, 1..6),
        npre_stride in 2u32..20,
        nwr_stride in 1u32..12,
        rows_max_log2 in 5u32..11,
        capacity_bytes in prop_oneof![Just(128usize), Just(256), Just(1024), Just(4096), Just(16384)],
        hvt in any::<bool>(),
        m2 in any::<bool>(),
        objective in 0usize..4,
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
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The Pareto walk and coordinate descent agree with the search on
    /// the same spaces: the front walks the space the search examines
    /// (it evaluates every feasible candidate the search may prune), its
    /// least-EDP point scores the search's optimum bit for bit, and
    /// descent never beats that optimum.
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
        prop_assert_eq!(stats.pruned, 0);
        prop_assert_eq!(stats.feasible, stats.evaluated + stats.eval_errors);
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
