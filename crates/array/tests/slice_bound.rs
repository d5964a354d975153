//! [`ArraySlice::bound`] is a lower bound, field by field, bit for bit.
//!
//! Every `(organization, V_SSC)` slice of the full Section-5 space at
//! 128 B, 1 KB and 16 KB is checked for both paper cells and one
//! simulated cell, over the whole fin box and random ones (strided, and
//! of one value): no field of any point's metrics is below the same
//! field of the box's bound or of its `N_wr` column's bound, compared
//! with `<=` and no tolerance. The box bound is taken as the search
//! takes it: each slice's, with the columns of its organization's
//! first slice.

use sram_array::{ArrayMetrics, ArrayModel, ArrayOrganization, ArrayParams, Capacity, Periphery};
use sram_cell::{CellCharacterization, CellCharacterizer, CharacterizationGrid};
use sram_device::{DeviceLibrary, VtFlavor};
use sram_units::Voltage;

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
        let mut out = vec![((1..=50).collect(), (1..=20).collect())];
        for one in [false, false, false, true, true] {
            out.push((self.fins(50, one), self.fins(20, one)));
        }
        out
    }
}

/// The simulated HVT cell at the simulated-mode rails (560/530 mV).
fn simulated_hvt(lib: &DeviceLibrary) -> CellCharacterization {
    let chr = CellCharacterizer::new(lib, VtFlavor::Hvt).with_vtc_points(31);
    let grid = CharacterizationGrid::paper_default(
        Voltage::from_millivolts(560.0),
        Voltage::from_millivolts(530.0),
    );
    CellCharacterization::characterize(&chr, &grid).expect("the nominal HVT cell characterizes")
}

/// Checks every slice of the full space at 128 B, 1 KB and 16 KB of
/// `cell` over [`Draw::boxes`] drawn from `seed`.
fn check_every_slice(cell: &CellCharacterization, seed: u64) {
    let lib = DeviceLibrary::sevennm();
    let periphery = Periphery::new(&lib);
    let params = ArrayParams::paper_defaults();
    let vsscs: Vec<Voltage> = (0..=24)
        .map(|k| Voltage::from_millivolts(-10.0 * f64::from(k)))
        .collect();
    let mut draw = Draw(seed);
    let mut checked = 0_usize;
    for bytes in [128, 1024, 16 * 1024] {
        for org in ArrayOrganization::enumerate(Capacity::from_bytes(bytes), 64, (2, 1024)) {
            let model = ArrayModel::new(org, cell, &periphery, &params);
            for (n_pre, n_wr) in draw.boxes() {
                let first = model.clone().slice().expect("valid parameters");
                let columns = first.columns(&n_wr);
                for &vssc in &vsscs {
                    let slice = model.clone().with_vssc(vssc).slice().expect("valid");
                    let bound = slice.bound(&n_pre, &columns).expect("positive inputs");
                    let bound = fields(&bound);
                    let column_bounds: Vec<[f64; 26]> = n_wr
                        .iter()
                        .map(|&n| slice.bound(&n_pre, &slice.columns(&[n])).expect("bound"))
                        .map(|b| fields(&b))
                        .collect();
                    slice.sweep(&n_pre, &n_wr, |p, w, metrics| {
                        let at = || format!("{org:?} at V_SSC {vssc}, N_pre {p}, N_wr {w}");
                        let point = fields(metrics);
                        assert_bounded(&bound, &point, at);
                        let column = n_wr.iter().position(|&n| n == w).expect("swept");
                        assert_bounded(&column_bounds[column], &point, at);
                        checked += 1;
                    });
                }
            }
        }
    }
    // 21 organizations x 25 levels, each with the whole 1,000-point box.
    assert!(checked > 525_000, "only {checked} points checked");
}

#[test]
fn the_slice_bound_is_a_bound_for_the_paper_lvt_cell() {
    let lib = DeviceLibrary::sevennm();
    check_every_slice(&CellCharacterization::paper_lvt(lib.nominal_vdd()), 1);
}

#[test]
fn the_slice_bound_is_a_bound_for_the_paper_hvt_cell() {
    let lib = DeviceLibrary::sevennm();
    check_every_slice(&CellCharacterization::paper_hvt(lib.nominal_vdd()), 2);
}

#[test]
fn the_slice_bound_is_a_bound_for_a_simulated_cell() {
    let lib = DeviceLibrary::sevennm();
    check_every_slice(&simulated_hvt(&lib), 3);
}

#[test]
fn pruning_skips_only_the_columns_it_rejects() {
    let lib = DeviceLibrary::sevennm();
    let cell = CellCharacterization::paper_hvt(lib.nominal_vdd());
    let periphery = Periphery::new(&lib);
    let params = ArrayParams::paper_defaults();
    let org = ArrayOrganization::new(512, 256, 64).expect("a 16 KB organization");
    let slice = ArrayModel::new(org, &cell, &periphery, &params)
        .with_vssc(Voltage::from_millivolts(-120.0))
        .slice()
        .expect("valid parameters");
    let (n_pre, n_wr) = ([1, 9, 17, 25], [1, 4, 7, 10, 13]);
    let columns = slice.columns(&n_wr);

    // Rejecting nothing visits what a plain sweep visits, bit for bit.
    let mut plain = Vec::new();
    slice.sweep(&n_pre, &n_wr, |p, w, m| plain.push((p, w, *m)));
    let mut kept = Vec::new();
    let skipped = slice.sweep_pruned(
        &n_pre,
        &columns,
        |_| false,
        |p, w, m| {
            kept.push((p, w, *m));
        },
    );
    assert_eq!(skipped, 0);
    assert_eq!(kept, plain);

    // Rejecting the slowest columns' bounds drops exactly those columns.
    let slow = columns_bounds_delay_median(&slice, &n_pre, &n_wr);
    let mut visited = Vec::new();
    let skipped = slice.sweep_pruned(
        &n_pre,
        &columns,
        |bound| bound.delay.seconds() > slow,
        |p, w, m| visited.push((p, w, *m)),
    );
    let expected: Vec<_> = plain
        .iter()
        .filter(|(_, w, _)| {
            let bound = slice.bound(&n_pre, &slice.columns(&[*w])).expect("bound");
            bound.delay.seconds() <= slow
        })
        .copied()
        .collect();
    assert!(skipped > 0 && !expected.is_empty());
    assert_eq!(visited, expected, "N_pre outer, the kept columns inner");
    assert_eq!(skipped + visited.len(), plain.len());
}

/// The median over `n_wr` of the column bounds' delays.
fn columns_bounds_delay_median(
    slice: &sram_array::ArraySlice<'_>,
    n_pre: &[u32],
    n_wr: &[u32],
) -> f64 {
    let mut delays: Vec<f64> = n_wr
        .iter()
        .map(|&n| {
            let bound = slice.bound(n_pre, &slice.columns(&[n])).expect("bound");
            bound.delay.seconds()
        })
        .collect();
    delays.sort_by(f64::total_cmp);
    delays[delays.len() / 2]
}
