//! The slice arithmetic the search relies on, on every
//! `(organization, V_SSC)` slice of the full Section-5 space at 128 B,
//! 1 KB and 16 KB, for both paper cells and one simulated cell, bit for
//! bit and with no tolerance:
//!
//! * a slice derived from its organization's slice at `V_SSC` = 0
//!   ([`ArraySlice::at`], as the search derives every slice) equals a
//!   fresh [`ArrayModel::slice`] at its level: every field of each point
//!   of a fin grid, and of its bounds;
//! * [`ArraySlice::bound`] is a lower bound, field by field: no field of
//!   any point of the whole fin box, or of random ones (strided, and of
//!   one value), is below the same field of the box's bound or of its
//!   `N_wr` column's bound. The box bound is taken as the search takes
//!   it: with the columns of its organization's `V_SSC` = 0 slice;
//! * every run the search's bisection bounds (one `N_wr` column, one
//!   contiguous run of `N_pre` values) bounds each of its points
//!   ([`ArraySlice::column_bound`]), and a run of one point is bounded
//!   by that point's metrics.

use sram_array::{
    ArrayMetrics, ArrayModel, ArrayOrganization, ArrayParams, ArraySlice, Capacity, Periphery,
    VsscLevel,
};
use sram_cell::{CellCharacterization, CellCharacterizer, CharacterizationGrid};
use sram_device::{DeviceLibrary, VtFlavor};
use sram_units::Voltage;
use std::ops::Range;
use std::sync::OnceLock;

/// Every field of the metrics, in declaration order.
fn fields(m: &ArrayMetrics) -> [f64; 26] {
    let delays = |d: &sram_array::DelayBreakdown| {
        [d.row_path, d.column_path, d.bitline, d.resolve, d.precharge].map(|t| t.seconds())
    };
    let energies = |e: &sram_array::EnergyBreakdown| {
        [
            e.addressing,
            e.wordline,
            e.bitline,
            e.resolve,
            e.assist_rails,
        ]
        .map(|x| x.joules())
    };
    let mut out = [0.0; 26];
    let head = [
        m.read_delay.seconds(),
        m.write_delay.seconds(),
        m.delay.seconds(),
        m.switching_energy.joules(),
        m.leakage_energy.joules(),
        m.energy.joules(),
    ];
    let parts = [
        delays(&m.read_breakdown),
        delays(&m.write_breakdown),
        energies(&m.read_energy_breakdown),
        energies(&m.write_energy_breakdown),
    ];
    for (slot, value) in out
        .iter_mut()
        .zip(head.into_iter().chain(parts.into_iter().flatten()))
    {
        *slot = value;
    }
    out
}

/// The bits of every field: equal bits are the same metrics.
fn bits(m: &ArrayMetrics) -> [u64; 26] {
    fields(m).map(f64::to_bits)
}

/// Asserts that no field of `point` is below the same field of `bound`;
/// `what` names the point when one is.
fn assert_bounded(bound: &[f64; 26], point: &[f64; 26], what: impl Fn() -> String) {
    for (k, (b, p)) in bound.iter().zip(point).enumerate() {
        assert!(
            b <= p,
            "{}: field {k} bound {b:e} above point {p:e}",
            what()
        );
    }
}

/// A splitmix64 stream: the fin boxes are random but reproducible.
struct Draw(u64);

impl Draw {
    fn below(&mut self, n: u32) -> u32 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % u64::from(n)) as u32
    }

    /// A random subset of `1..=max`: every `stride`-th value from a
    /// random start, or one value.
    fn fins(&mut self, max: u32, one: bool) -> Vec<u32> {
        let start = 1 + self.below(max);
        if one {
            return vec![start];
        }
        let stride = 1 + self.below(max / 2);
        (start..=max).step_by(stride as usize).collect()
    }

    /// The boxes one organization is checked over: the whole Section-5
    /// box, three random strided ones and two of one point.
    fn boxes(&mut self) -> Vec<(Vec<u32>, Vec<u32>)> {
        let mut out = vec![(full_npre(), (1..=20).collect())];
        for one in [false, false, false, true, true] {
            out.push((self.fins(50, one), self.fins(20, one)));
        }
        out
    }
}

/// The Section-5 `N_pre` values.
fn full_npre() -> Vec<u32> {
    (1..=50).collect()
}

/// The span of ascending fin values, as the search passes a run.
fn span(values: &[u32]) -> std::ops::RangeInclusive<u32> {
    values[0]..=values[values.len() - 1]
}

/// The three cells: paper LVT, paper HVT and the simulated HVT cell at
/// the simulated-mode rails (560/530 mV), characterized once.
fn cells() -> &'static [(&'static str, CellCharacterization); 3] {
    static CELLS: OnceLock<[(&str, CellCharacterization); 3]> = OnceLock::new();
    CELLS.get_or_init(|| {
        let lib = DeviceLibrary::sevennm();
        let chr = CellCharacterizer::new(&lib, VtFlavor::Hvt).with_vtc_points(31);
        let grid = CharacterizationGrid::paper_default(
            Voltage::from_millivolts(560.0),
            Voltage::from_millivolts(530.0),
        );
        let simulated = CellCharacterization::characterize(&chr, &grid)
            .expect("the nominal HVT cell characterizes");
        [
            (
                "paper LVT",
                CellCharacterization::paper_lvt(lib.nominal_vdd()),
            ),
            (
                "paper HVT",
                CellCharacterization::paper_hvt(lib.nominal_vdd()),
            ),
            ("simulated HVT", simulated),
        ]
    })
}

/// Hands `check` every slice of the full space at 128 B, 1 KB and 16 KB
/// of `cell`: its model at `V_SSC` = 0, its level, and its slice derived
/// from the organization's `V_SSC` = 0 slice, as the search builds it.
/// Returns the number of slices.
fn for_every_slice(
    cell: &CellCharacterization,
    mut check: impl FnMut(&ArrayModel<'_>, &ArraySlice<'_>, Voltage, &ArraySlice<'_>),
) -> usize {
    let lib = DeviceLibrary::sevennm();
    let periphery = Periphery::new(&lib);
    let params = ArrayParams::paper_defaults();
    let vsscs: Vec<Voltage> = (0..=24)
        .map(|k| Voltage::from_millivolts(0.0 - 10.0 * f64::from(k)))
        .collect();
    let mut slices = 0;
    for bytes in [128, 1024, 16 * 1024] {
        for org in ArrayOrganization::enumerate(Capacity::from_bytes(bytes), 64, (2, 1024)) {
            let model = ArrayModel::new(org, cell, &periphery, &params);
            let base = model.slice().expect("valid parameters");
            for &vssc in &vsscs {
                let derived = base.at(&VsscLevel::new(vssc, cell, &periphery));
                check(&model, &base, vssc, &derived);
                slices += 1;
            }
        }
    }
    slices
}

/// 21 organizations x 25 levels.
const SLICES: usize = 525;

#[test]
fn a_derived_slice_equals_a_fresh_build() {
    let grid_npre = [1, 2, 17, 33, 49, 50];
    let grid_nwr = [1, 2, 10, 19, 20];
    for (name, cell) in cells() {
        let slices = for_every_slice(cell, |model, base, vssc, derived| {
            let fresh = model.clone().with_vssc(vssc).slice().expect("valid");
            let at = || format!("{name}: {:?} at V_SSC {vssc}", model.organization());
            for n_pre in grid_npre {
                for n_wr in grid_nwr {
                    assert_eq!(
                        bits(&derived.evaluate(n_pre, n_wr)),
                        bits(&fresh.evaluate(n_pre, n_wr)),
                        "{}, N_pre {n_pre}, N_wr {n_wr}",
                        at()
                    );
                }
            }
            let columns = base.columns(&grid_nwr);
            let bound = |slice: &ArraySlice<'_>| {
                let whole = slice.bound(1..=50, &columns).expect("positive inputs");
                let run = slice.column_bound(9..=17, &columns, 2).expect("bound");
                [bits(&whole), bits(&run)]
            };
            assert_eq!(bound(derived), bound(&fresh), "{}: bounds", at());
        });
        assert_eq!(slices, SLICES, "{name}");
    }
}

/// Checks every slice of `cell` over [`Draw::boxes`] drawn from `seed`.
fn check_every_box(cell: &CellCharacterization, seed: u64) {
    let mut draw = Draw(seed);
    let mut checked = 0_usize;
    let mut boxes = Vec::new();
    let mut last_org = None;
    for_every_slice(cell, |model, base, vssc, slice| {
        let org = model.organization();
        if last_org != Some(org) {
            // A fresh draw for each organization, shared by its levels.
            boxes = draw
                .boxes()
                .into_iter()
                .map(|(n_pre, n_wr)| {
                    let columns = base.columns(&n_wr);
                    (n_pre, n_wr, columns)
                })
                .collect();
            last_org = Some(org);
        }
        for (n_pre, n_wr, columns) in &boxes {
            let bound = slice.bound(span(n_pre), columns).expect("positive inputs");
            let bound = fields(&bound);
            let column_bounds: Vec<[f64; 26]> = (0..n_wr.len())
                .map(|k| slice.column_bound(span(n_pre), columns, k).expect("bound"))
                .map(|b| fields(&b))
                .collect();
            slice.sweep(n_pre, n_wr, |p, w, metrics| {
                let at = || format!("{org:?} at V_SSC {vssc}, N_pre {p}, N_wr {w}");
                let point = fields(metrics);
                assert_bounded(&bound, &point, at);
                let column = n_wr.iter().position(|&n| n == w).expect("swept");
                assert_bounded(&column_bounds[column], &point, at);
                checked += 1;
            });
        }
    });
    // 525 slices, each with the whole 1,000-point box.
    assert!(checked > 525_000, "only {checked} points checked");
}

#[test]
fn the_slice_bound_is_a_bound_for_the_paper_lvt_cell() {
    check_every_box(&cells()[0].1, 1);
}

#[test]
fn the_slice_bound_is_a_bound_for_the_paper_hvt_cell() {
    check_every_box(&cells()[1].1, 2);
}

#[test]
fn the_slice_bound_is_a_bound_for_a_simulated_cell() {
    check_every_box(&cells()[2].1, 3);
}

/// Every run the search's bisection of `run` can bound: the run, then
/// each half, lower half first, down to single values.
fn bisection_runs(run: Range<usize>, out: &mut Vec<Range<usize>>) {
    if run.is_empty() {
        return;
    }
    out.push(run.clone());
    if run.len() > 1 {
        let mid = run.start + run.len() / 2;
        bisection_runs(run.start..mid, out);
        bisection_runs(mid..run.end, out);
    }
}

#[test]
fn every_bisection_run_bounds_its_points() {
    let (n_pre, n_wr): (Vec<u32>, Vec<u32>) = (full_npre(), (1..=20).collect());
    let mut runs = Vec::new();
    bisection_runs(0..n_pre.len(), &mut runs);
    assert_eq!(runs.len(), 2 * n_pre.len() - 1, "a full binary split");
    for (name, cell) in cells() {
        let mut checked = 0_usize;
        for_every_slice(cell, |model, base, vssc, slice| {
            let columns = base.columns(&n_wr);
            for (k, &w) in n_wr.iter().enumerate() {
                let points: Vec<[f64; 26]> = n_pre
                    .iter()
                    .map(|&p| fields(&slice.evaluate(p, w)))
                    .collect();
                for run in &runs {
                    let values = &n_pre[run.clone()];
                    let bound = slice.column_bound(span(values), &columns, k);
                    let bound = fields(&bound.expect("positive inputs"));
                    let at = || {
                        let org = model.organization();
                        format!("{name}: {org:?} at V_SSC {vssc}, N_wr {w}, N_pre {values:?}")
                    };
                    for point in &points[run.clone()] {
                        assert_bounded(&bound, point, at);
                        checked += 1;
                    }
                    if run.len() == 1 {
                        let point = points[run.start].map(f64::to_bits);
                        assert_eq!(bound.map(f64::to_bits), point, "{}", at());
                    }
                }
            }
        });
        // 525 slices x 20 columns x 50 values x the 6 or 7 runs over each.
        assert!(checked > 525 * 20 * 50 * 6, "{name}: only {checked}");
    }
}
