//! Butterfly curves and the Seevinck maximum-square SNM.
//!
//! The static noise margin of a cross-coupled cell is the side of the
//! largest square that fits inside a lobe of the butterfly plot formed by
//! the two inverter voltage-transfer curves, one of them mirrored about
//! the `y = x` diagonal (Seevinck, List, Lohstroh — JSSC 1987, the
//! paper's reference [12]).
//!
//! For monotone-decreasing VTCs the largest inscribed square has two
//! binding corners, one on each curve:
//!
//! * **upper lobe** — bottom-left corner `(x₁, y₁)` on the mirrored curve
//!   (`x₁ = g(y₁)`), top-right corner on the forward curve
//!   (`y₁ + s = f(x₁ + s)`);
//! * **lower lobe** — the mirror image: bottom-left corner on the forward
//!   curve (`y₁ = f(x₁)`), top-right on the mirrored curve
//!   (`x₁ + s = g(y₁ + s)`).
//!
//! Each lobe's side `s` is maximized over the free corner coordinate;
//! the cell SNM is the smaller lobe's side.

use crate::CellError;
use sram_units::Voltage;

/// A voltage-transfer curve: monotone samples of `vout` versus `vin`.
#[derive(Debug, Clone, PartialEq)]
pub struct Vtc {
    points: Vec<(f64, f64)>,
}

impl Vtc {
    /// Creates a VTC from `(vin, vout)` samples.
    ///
    /// # Errors
    ///
    /// Returns [`CellError::MeasurementFailed`] when fewer than two points
    /// are supplied, a sample is not finite (NaN or infinite input or
    /// output), or the inputs are not strictly increasing.
    pub fn new(points: Vec<(Voltage, Voltage)>) -> Result<Self, CellError> {
        let raw: Vec<(f64, f64)> = points
            .iter()
            .map(|&(x, y)| (x.volts(), y.volts()))
            .collect();
        if raw.len() < 2 {
            return Err(CellError::MeasurementFailed {
                what: "VTC",
                reason: "need at least two samples".into(),
            });
        }
        if !raw.iter().all(|&(x, y)| x.is_finite() && y.is_finite()) {
            return Err(CellError::MeasurementFailed {
                what: "VTC",
                reason: "samples must be finite".into(),
            });
        }
        if !raw.windows(2).all(|w| w[1].0 > w[0].0) {
            return Err(CellError::MeasurementFailed {
                what: "VTC",
                reason: "input samples must be strictly increasing".into(),
            });
        }
        Ok(Self { points: raw })
    }

    /// The sample points as `(vin, vout)` pairs.
    pub fn points(&self) -> impl Iterator<Item = (Voltage, Voltage)> + '_ {
        self.points
            .iter()
            .map(|&(x, y)| (Voltage::from_volts(x), Voltage::from_volts(y)))
    }

    /// Output at `x` volts (linear interpolation, clamped at the ends).
    fn eval(&self, x: f64) -> f64 {
        let pts = &self.points;
        if x <= pts[0].0 {
            return pts[0].1;
        }
        if x >= pts[pts.len() - 1].0 {
            return pts[pts.len() - 1].1;
        }
        // A NaN `x` passes both clamps and finds no sample at or below
        // it; it interpolates the first segment (to NaN) instead of
        // indexing below 0.
        let idx = pts.partition_point(|&(px, _)| px <= x).max(1);
        let (x0, y0) = pts[idx - 1];
        let (x1, y1) = pts[idx];
        y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    }

    fn domain(&self) -> (f64, f64) {
        (self.points[0].0, self.points[self.points.len() - 1].0)
    }
}

/// Largest square side with bottom-left corner `(g(y1), y1)` on curve `g`
/// and top-right corner satisfying `y1 + s = f(x1 + s)`, maximized over
/// `y1`. `f` must be non-increasing for the bisection to be valid.
///
/// Each of the `CORNER_SAMPLES + 1` corners is measured the same way —
/// the noise floor, the full-span shortcut, then `BISECTIONS` halvings —
/// but every `CORNER_STRIDE`-th corner goes first, so that `best` is
/// near its final value early, and a corner's bisection stops as soon as
/// its upper bracket `s_hi` is no larger than `best`. A bisection never
/// returns more than its `s_hi`, so a stopped corner could not have
/// raised `best`, and the maximum of the same values does not depend on
/// their order: the side is the same float as the plain ascending walk's
/// on any curve, monotone or not.
fn lobe_side<F, G>(f: F, g: G, range: (f64, f64)) -> f64
where
    F: Fn(f64) -> f64,
    G: Fn(f64) -> f64,
{
    const CORNER_SAMPLES: usize = 256;
    const CORNER_STRIDE: usize = 16;
    const BISECTIONS: usize = 40;
    /// 1 nV noise floor, volts.
    const NOISE_FLOOR_VOLTS: f64 = 1e-9;
    let (lo, hi) = range;
    let span = hi - lo;
    let coarse = (0..=CORNER_SAMPLES).step_by(CORNER_STRIDE);
    let fine = (0..=CORNER_SAMPLES).filter(|k| k % CORNER_STRIDE != 0);
    let mut best: f64 = 0.0;
    for k in coarse.chain(fine) {
        let y1 = lo + span * k as f64 / CORNER_SAMPLES as f64;
        let x1 = g(y1);
        // h(s) = f(x1 + s) - (y1 + s): strictly decreasing in s; a root
        // exists iff h(0) > 0 (the corner lies strictly below curve f).
        // The 1 nV floor rejects rounding noise on collapsed lobes, where
        // end-clamped interpolation would otherwise sustain a fake square.
        if f(x1) <= y1 + NOISE_FLOOR_VOLTS {
            continue;
        }
        let (mut s_lo, mut s_hi) = (0.0, span);
        if f(x1 + s_hi) - (y1 + s_hi) > 0.0 {
            best = best.max(s_hi);
            continue;
        }
        for _ in 0..BISECTIONS {
            if s_hi <= best {
                break;
            }
            let mid = 0.5 * (s_lo + s_hi);
            if f(x1 + mid) - (y1 + mid) > 0.0 {
                s_lo = mid;
            } else {
                s_hi = mid;
            }
        }
        best = best.max(s_lo);
    }
    best
}

/// Computes the static noise margin from the two inverter VTCs.
///
/// `forward` maps node A to node B; `mirrored` maps node B to node A (it
/// is mirrored about the diagonal internally — pass both curves in their
/// natural input→output orientation).
///
/// # Errors
///
/// Returns [`CellError::MeasurementFailed`] if either lobe has collapsed
/// (non-positive side — the cell is not bistable under this bias), or
/// if the curves' joint input range is too wide for `f64` (its span
/// overflows).
pub fn butterfly_snm(forward: &Vtc, mirrored: &Vtc) -> Result<Voltage, CellError> {
    let (f_lo, f_hi) = forward.domain();
    let (g_lo, g_hi) = mirrored.domain();
    let range = (f_lo.min(g_lo), f_hi.max(g_hi));
    if !(range.1 - range.0).is_finite() {
        return Err(CellError::MeasurementFailed {
            what: "SNM",
            reason: "the curves' joint input range overflows".into(),
        });
    }

    // Upper lobe: bottom-left corner on the mirrored curve, top-right on
    // the forward curve.
    let upper = lobe_side(|x| forward.eval(x), |y| mirrored.eval(y), range);
    // Lower lobe: the transposed picture (swap the axes): bottom-left
    // corner on the forward curve, top-right on the mirrored curve.
    let lower = lobe_side(|y| mirrored.eval(y), |x| forward.eval(x), range);

    if upper <= 0.0 || lower <= 0.0 {
        return Err(CellError::MeasurementFailed {
            what: "SNM",
            reason: "a butterfly lobe has collapsed (cell not bistable)".into(),
        });
    }
    Ok(Voltage::from_volts(upper.min(lower)))
}

#[cfg(test)]
#[allow(dead_code, unreachable_pub)]
#[path = "../tests/common/square.rs"]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A logistic inverter VTC, `n + 1` samples from 0 to `vdd`, falling
    /// from `vdd` to 0 around `trip` over about `steep` volts.
    fn inverter(vdd: f64, trip: f64, steep: f64, n: usize) -> Vtc {
        let pts: Vec<(Voltage, Voltage)> = (0..=n)
            .map(|k| {
                let x = vdd * k as f64 / n as f64;
                let y = vdd / (1.0 + ((x - trip) / steep).exp());
                (Voltage::from_volts(x), Voltage::from_volts(y))
            })
            .collect();
        Vtc::new(pts).unwrap()
    }

    fn ideal_inverter(vdd: f64, trip: f64, n: usize) -> Vtc {
        // A steep, idealized VTC: vout = vdd for vin < trip, 0 after.
        inverter(vdd, trip, 0.005, n)
    }

    /// The bits of the two lobes' sides of the butterfly of `a` and `b`
    /// as `walk` finds them, and how many curve evaluations it took.
    fn counted_walk(
        a: &Vtc,
        b: &Vtc,
        walk: impl Fn(&dyn Fn(f64) -> f64, &dyn Fn(f64) -> f64, (f64, f64)) -> f64,
    ) -> ([u64; 2], usize) {
        let calls = Cell::new(0);
        let count = |vtc: &Vtc, x: f64| {
            calls.set(calls.get() + 1);
            vtc.eval(x)
        };
        let (fa, fb) = (|x| count(a, x), |x| count(b, x));
        let range = (
            a.domain().0.min(b.domain().0),
            a.domain().1.max(b.domain().1),
        );
        let sides = [walk(&fa, &fb, range), walk(&fb, &fa, range)];
        (sides.map(f64::to_bits), calls.get())
    }

    #[test]
    fn pruned_walk_counts_its_curve_evaluations() {
        // 31-point logistic VTCs at a 450 mV supply, as steep as simulated
        // cells' and steeper: (trip of a, trip of b, steepness, curve
        // evaluations of the pruned walk, of the oracle). The pruned walk
        // makes 3.4 to 4.7 times fewer.
        let cases = [
            (0.225, 0.225, 0.03, 2490, 11524),
            (0.20, 0.25, 0.03, 2949, 11565),
            (0.18, 0.18, 0.05, 3670, 12508),
            (0.21, 0.24, 0.015, 2437, 11565),
        ];
        for (trip_a, trip_b, steep, pruned, unpruned) in cases {
            let a = inverter(0.45, trip_a, steep, 30);
            let b = inverter(0.45, trip_b, steep, 30);
            let (sides, calls) = counted_walk(&a, &b, |f, g, r| lobe_side(f, g, r));
            let (oracle_sides, oracle_calls) =
                counted_walk(&a, &b, |f, g, r| oracle::lobe_side(f, g, r));
            assert_eq!(sides, oracle_sides, "trips {trip_a}/{trip_b}");
            assert_eq!(
                (calls, oracle_calls),
                (pruned, unpruned),
                "trips {trip_a}/{trip_b}"
            );
            assert!(3 * calls < oracle_calls, "{calls} of {oracle_calls}");
        }
    }

    #[test]
    fn vtc_rejects_non_finite_samples() {
        let mv = Voltage::from_millivolts;
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let with_output = vec![
                (mv(0.0), mv(450.0)),
                (mv(150.0), mv(400.0)),
                (mv(300.0), Voltage::from_volts(bad)),
                (mv(450.0), mv(0.0)),
            ];
            let with_input = vec![(mv(0.0), mv(450.0)), (Voltage::from_volts(bad), mv(0.0))];
            for points in [with_output, with_input] {
                let err = Vtc::new(points).unwrap_err();
                assert!(matches!(
                    err,
                    CellError::MeasurementFailed { what: "VTC", .. }
                ));
            }
        }
    }

    #[test]
    fn overflowing_ranges_fail_the_measurement_instead_of_panicking() {
        // Finite curves whose joint range, 2e308 V wide, overflows.
        let v = Voltage::from_volts;
        let forward = Vtc::new(vec![(v(-1e308), v(0.0)), (v(0.0), v(-1e308))]).unwrap();
        let mirrored = Vtc::new(vec![(v(0.0), v(1e308)), (v(1e308), v(0.0))]).unwrap();
        for (a, b) in [(&forward, &mirrored), (&mirrored, &forward)] {
            let err = butterfly_snm(a, b).unwrap_err();
            assert!(matches!(
                err,
                CellError::MeasurementFailed { what: "SNM", .. }
            ));
        }
        assert!(forward.eval(f64::NAN).is_nan());
    }

    #[test]
    fn vtc_rejects_non_monotone_inputs() {
        let err = Vtc::new(vec![
            (Voltage::from_volts(0.2), Voltage::ZERO),
            (Voltage::from_volts(0.1), Voltage::ZERO),
        ])
        .unwrap_err();
        assert!(matches!(err, CellError::MeasurementFailed { .. }));
    }

    #[test]
    fn vtc_interpolates() {
        let vtc = Vtc::new(vec![
            (Voltage::ZERO, Voltage::from_volts(1.0)),
            (Voltage::from_volts(1.0), Voltage::ZERO),
        ])
        .unwrap();
        assert!((vtc.eval(0.5) - 0.5).abs() < 1e-12);
        // Clamped outside the range.
        assert_eq!(vtc.eval(2.0), 0.0);
    }

    #[test]
    fn ideal_symmetric_butterfly_snm_is_half_vdd() {
        // Two ideal inverters tripping at Vdd/2: each lobe is a
        // (Vdd/2)-sided square.
        let vdd = 1.0;
        let inv = ideal_inverter(vdd, 0.5, 400);
        let snm = butterfly_snm(&inv, &inv).unwrap();
        assert!(
            (snm.volts() - 0.5).abs() < 0.05,
            "ideal SNM = {} (expected ~0.5)",
            snm
        );
    }

    #[test]
    fn skewed_trip_points_shrink_the_lobes() {
        // Both inverters tripping at 0.3: lobes are 0.3x0.7 and 0.7x0.3
        // rectangles; max inscribed square side = 0.3.
        let vdd = 1.0;
        let skewed = butterfly_snm(
            &ideal_inverter(vdd, 0.3, 400),
            &ideal_inverter(vdd, 0.3, 400),
        )
        .unwrap();
        assert!(
            (skewed.volts() - 0.3).abs() < 0.03,
            "skewed SNM = {skewed} (expected ~0.3)"
        );
        let centered = butterfly_snm(
            &ideal_inverter(vdd, 0.5, 400),
            &ideal_inverter(vdd, 0.5, 400),
        )
        .unwrap();
        assert!(skewed < centered);
    }

    #[test]
    fn mismatched_trips_take_the_smaller_lobe() {
        // Inverter 1 trips at 0.4, inverter 2 at 0.6: upper lobe square
        // bounded by min(0.4 legs...) — strictly smaller than symmetric.
        let a = ideal_inverter(1.0, 0.4, 400);
        let b = ideal_inverter(1.0, 0.6, 400);
        let snm_ab = butterfly_snm(&a, &b).unwrap();
        let snm_sym = butterfly_snm(
            &ideal_inverter(1.0, 0.5, 400),
            &ideal_inverter(1.0, 0.5, 400),
        )
        .unwrap();
        assert!(snm_ab < snm_sym, "{snm_ab} vs {snm_sym}");
        assert!(snm_ab.volts() > 0.1);
    }

    #[test]
    fn degenerate_curve_reports_collapse() {
        // An "inverter" that is a wire (y = x) produces no lobes.
        let wire = Vtc::new(
            (0..=10)
                .map(|k| {
                    let v = Voltage::from_volts(k as f64 / 10.0);
                    (v, v)
                })
                .collect(),
        )
        .unwrap();
        let err = butterfly_snm(&wire, &wire).unwrap_err();
        assert!(matches!(err, CellError::MeasurementFailed { .. }));
    }

    #[test]
    fn snm_is_symmetric_in_curve_order() {
        let a = ideal_inverter(1.0, 0.42, 300);
        let b = ideal_inverter(1.0, 0.58, 300);
        let ab = butterfly_snm(&a, &b).unwrap();
        let ba = butterfly_snm(&b, &a).unwrap();
        assert!(
            (ab.volts() - ba.volts()).abs() < 2e-3,
            "asymmetry: {ab} vs {ba}"
        );
    }
}
