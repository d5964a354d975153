//! The pruned maximum-square walk of `butterfly_snm` against the
//! unpruned one (`common::square`, through `common::oracle_snm`): the
//! same `Result`, its volts equal to the bit, on random curves of every
//! shape and on simulated hold and read butterflies.

mod common;

use common::{butterfly_vtcs, oracle_snm, same_margin, sample};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sram_cell::{butterfly_snm, AssistVoltages, CellCharacterizer, CellError, Vtc, VtcMode};
use sram_device::{DeviceLibrary, VtFlavor};
use sram_faults::{ordered_map, CancelToken};
use sram_units::Voltage;

/// Uniform in `[lo, hi)`.
fn uniform(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.random::<f64>()
}

/// A random finite curve: 2 to 64 strictly increasing inputs from a
/// random start, and outputs that are (0) a logistic inverter, (1) one
/// with noise, (2) independent random values, (3) the wire `y = x`, whose
/// butterfly has no lobes, or (4) a constant.
fn random_curve(rng: &mut StdRng) -> Vtc {
    let n = 2 + (rng.next_u64() % 63) as usize;
    let shape = rng.next_u64() % 5;
    let (low, swing) = (uniform(rng, -0.1, 0.3), uniform(rng, 0.05, 1.0));
    let (steep, amp) = (uniform(rng, 0.002, 0.1), uniform(rng, 0.0, 0.05));
    let mut x = uniform(rng, -0.3, 0.3);
    let xs: Vec<f64> = (0..n)
        .map(|_| {
            let at = x;
            x += uniform(rng, 0.002, 0.06);
            at
        })
        .collect();
    let trip = xs[0] + uniform(rng, 0.0, 1.0) * (xs[n - 1] - xs[0]);
    let points = xs
        .into_iter()
        .map(|x| {
            let logistic = low + swing / (1.0 + ((x - trip) / steep).exp());
            let y = match shape {
                0 => logistic,
                1 => logistic + uniform(rng, -amp, amp),
                2 => low + uniform(rng, 0.0, swing),
                3 => x,
                _ => low,
            };
            (Voltage::from_volts(x), Voltage::from_volts(y))
        })
        .collect();
    Vtc::new(points).expect("finite samples, increasing inputs")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_curves_give_the_oracle_result(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (forward, mirrored) = (random_curve(&mut rng), random_curve(&mut rng));
        let pruned = butterfly_snm(&forward, &mirrored);
        let oracle = oracle_snm(&forward, &mirrored);
        prop_assert!(same_margin(&pruned, &oracle), "{pruned:?} vs {oracle:?}");
    }
}

/// One simulated butterfly: a label, the characterizer, the hold or read
/// mode, the bias and the VTC sample count.
type Case = (String, CellCharacterizer, VtcMode, AssistVoltages, usize);

/// Sweeps every case's two VTCs on one worker per core and requires the
/// pruned walk's result from the oracle's.
fn agree(cases: &[Case]) {
    let results = ordered_map(
        cases,
        &CancelToken::never(),
        |(_, chr, mode, bias, points)| {
            let (left, right) = butterfly_vtcs(chr, *mode, bias, *points)?;
            Ok::<_, CellError>((butterfly_snm(&left, &right), oracle_snm(&left, &right)))
        },
    )
    .expect("every sweep converges");
    for ((label, ..), (pruned, oracle)) in cases.iter().zip(results) {
        assert!(
            same_margin(&pruned, &oracle),
            "{label}: {pruned:?} vs {oracle:?}"
        );
    }
}

/// `(Vdd, V_DDC, V_SSC)` in mV: `V_DDC` below, at and above `Vdd`,
/// supplies near collapse, and negative and positive `V_SSC`.
const BIASES: [(f64, f64, f64); 24] = [
    (450.0, 450.0, 0.0),
    (450.0, 550.0, 0.0),
    (450.0, 700.0, 0.0),
    (450.0, 300.0, 0.0),
    (450.0, 150.0, 0.0),
    (450.0, 50.0, 0.0),
    (450.0, 5.0, 0.0),
    (450.0, 450.0, -240.0),
    (450.0, 450.0, -100.0),
    (450.0, 610.0, -240.0),
    (450.0, 450.0, 100.0),
    (450.0, 450.0, 200.0),
    (450.0, 250.0, 200.0),
    (450.0, 210.0, 200.0),
    (450.0, 5.0, -240.0),
    (400.0, 400.0, 0.0),
    (400.0, 500.0, -100.0),
    (400.0, 100.0, 0.0),
    (400.0, 400.0, 150.0),
    (500.0, 500.0, 0.0),
    (500.0, 600.0, -240.0),
    (500.0, 700.0, 200.0),
    (500.0, 30.0, 0.0),
    (500.0, 500.0, -200.0),
];

/// The nominal cell and nine varied ones of `flavor`, hold and read, at
/// every bias, alternately with 25- and 31-point VTCs: 480 butterflies.
fn cases(flavor: VtFlavor) -> Vec<Case> {
    let lib = DeviceLibrary::sevennm();
    let mv = Voltage::from_millivolts;
    let cells = std::iter::once(("nominal".to_string(), CellCharacterizer::new(&lib, flavor)))
        .chain((0..9).map(|index| {
            let seed = 200 + index as u64 / 3;
            (format!("seed {seed} #{index}"), sample(flavor, seed, index))
        }));
    let mut cases = Vec::new();
    for (c, (cell, chr)) in cells.enumerate() {
        for (b, (vdd, vddc, vssc)) in BIASES.into_iter().enumerate() {
            let bias = AssistVoltages::nominal(mv(vdd))
                .with_vddc(mv(vddc))
                .with_vssc(mv(vssc));
            for (m, mode) in [VtcMode::Hold, VtcMode::Read].into_iter().enumerate() {
                let points = [25, 31][(c + b + m) % 2];
                let label = format!(
                    "{flavor} {cell} {mode:?} at Vdd {vdd} mV, V_DDC {vddc} mV, \
                     V_SSC {vssc} mV, {points} points"
                );
                let chr = chr.clone().with_vdd(mv(vdd));
                cases.push((label, chr, mode, bias, points));
            }
        }
    }
    cases
}

#[test]
fn simulated_lvt_butterflies_give_the_oracle_result() {
    agree(&cases(VtFlavor::Lvt));
}

#[test]
fn simulated_hvt_butterflies_give_the_oracle_result() {
    agree(&cases(VtFlavor::Hvt));
}
