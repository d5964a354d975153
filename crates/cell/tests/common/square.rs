//! The unpruned maximum-square walk, the oracle of `butterfly_snm`'s
//! pruned one: all 257 corners of a lobe in ascending order, each
//! bisected all 40 times. The pruned walk must return the same side to
//! the bit.
//!
//! Plain `std`, so that `butterfly.rs`'s unit tests can include this file
//! too and count its curve evaluations.

/// Output at `x` of `(vin, vout)` samples with strictly increasing
/// inputs: linear interpolation, clamped at the ends.
pub fn eval(points: &[(f64, f64)], x: f64) -> f64 {
    if x <= points[0].0 {
        return points[0].1;
    }
    if x >= points[points.len() - 1].0 {
        return points[points.len() - 1].1;
    }
    let idx = points.partition_point(|&(px, _)| px <= x);
    let (x0, y0) = points[idx - 1];
    let (x1, y1) = points[idx];
    y0 + (y1 - y0) * (x - x0) / (x1 - x0)
}

/// Largest square side with bottom-left corner `(g(y1), y1)` on curve `g`
/// and top-right corner on `y1 + s = f(x1 + s)`, maximized over the 257
/// corners `y1` of `range`.
pub fn lobe_side(f: impl Fn(f64) -> f64, g: impl Fn(f64) -> f64, range: (f64, f64)) -> f64 {
    const CORNER_SAMPLES: usize = 256;
    const BISECTIONS: usize = 40;
    const NOISE_FLOOR_VOLTS: f64 = 1e-9;
    let (lo, hi) = range;
    let span = hi - lo;
    let mut best: f64 = 0.0;
    for k in 0..=CORNER_SAMPLES {
        let y1 = lo + span * k as f64 / CORNER_SAMPLES as f64;
        let x1 = g(y1);
        if f(x1) <= y1 + NOISE_FLOOR_VOLTS {
            continue;
        }
        let (mut s_lo, mut s_hi) = (0.0, span);
        if f(x1 + s_hi) - (y1 + s_hi) > 0.0 {
            best = best.max(s_hi);
            continue;
        }
        for _ in 0..BISECTIONS {
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

/// The two lobes' sides `(upper, lower)` of the butterfly of `forward`
/// (node A to node B) and `mirrored` (node B to node A), over the union of
/// their input ranges.
pub fn lobes(forward: &[(f64, f64)], mirrored: &[(f64, f64)]) -> (f64, f64) {
    let lo = forward[0].0.min(mirrored[0].0);
    let hi = forward[forward.len() - 1]
        .0
        .max(mirrored[mirrored.len() - 1].0);
    let upper = lobe_side(|x| eval(forward, x), |y| eval(mirrored, y), (lo, hi));
    let lower = lobe_side(|y| eval(mirrored, y), |x| eval(forward, x), (lo, hi));
    (upper, lower)
}
