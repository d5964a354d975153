//! Property tests: the exhaustive search is equivalent to a naive
//! brute-force enumeration on randomly subsampled design spaces, and the
//! Pareto walk and coordinate descent agree with it there.

use proptest::prelude::*;
use sram_array::{ArrayModel, ArrayOrganization, ArrayParams, Capacity, Periphery};
use sram_cell::CellCharacterization;
use sram_coopt::{DesignSpace, EnergyDelayProduct, Objective, Search, YieldConstraint};
use sram_device::DeviceLibrary;
use sram_units::Voltage;

fn naive_minimum(
    capacity: Capacity,
    cell: &CellCharacterization,
    periphery: &Periphery,
    params: &ArrayParams,
    space: &DesignSpace,
    constraint: YieldConstraint,
) -> Option<f64> {
    let mut best: Option<f64> = None;
    for org in ArrayOrganization::enumerate(capacity, 64, space.rows_range()) {
        for &vssc in space.vssc_values() {
            if !constraint.check_snapshot(cell, vssc) {
                continue;
            }
            for &n_pre in &space.npre_values() {
                for &n_wr in &space.nwr_values() {
                    let metrics = ArrayModel::new(org, cell, periphery, params)
                        .with_precharge_fins(n_pre)
                        .with_write_fins(n_wr)
                        .with_vssc(vssc)
                        .evaluate()
                        .expect("evaluates");
                    let score = EnergyDelayProduct.score(&metrics);
                    best = Some(best.map_or(score, |b: f64| b.min(score)));
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
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The (parallel) exhaustive search returns exactly the brute-force
    /// minimum on arbitrary subsampled spaces.
    #[test]
    fn search_equals_brute_force(
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

        let naive = naive_minimum(capacity, &cell, &periphery, &params, &space, constraint);
        let search = Search::new(&cell, &periphery, &params, &space, constraint, 64)
            .with_threads(threads)
            .run(capacity, &EnergyDelayProduct);

        match (naive, search) {
            (Some(expected), Ok(outcome)) => {
                prop_assert!(
                    (outcome.score - expected).abs() <= 1e-12 * expected.abs(),
                    "search {} vs brute force {expected}",
                    outcome.score
                );
            }
            (None, Err(_)) => {}
            (naive, search) => {
                prop_assert!(false, "disagree: naive={naive:?} search_ok={}", search.is_ok());
            }
        }
    }

    /// The Pareto walk and coordinate descent agree with the exhaustive
    /// search on the same spaces: the front's statistics are the
    /// search's, its least-EDP point scores the search's optimum bit for
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
        prop_assert_eq!(stats, exhaustive.stats);
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
