//! The smoothed α-power I-V model.
//!
//! A single continuous expression covers subthreshold, near-threshold and
//! strong inversion — essential here because the paper's whole design space
//! (100 mV–700 mV rails around a 450 mV nominal) straddles all three
//! regions:
//!
//! ```text
//! s      = SS · α / ln 10                      (smoothing voltage)
//! f(Vgs) = s · ln(1 + exp((Vgs − Vt_eff) / s)) (soft overdrive)
//! I      = k · f^α · (1 − e^(−Vds/Vsat)) · (1 + λ·Vds)
//! ```
//!
//! * Strong inversion (`Vgs − Vt ≫ s`): `f → Vgs − Vt`, recovering the
//!   α-power law `I = k (Vgs − Vt)^α` — the exact form of the paper's
//!   read-current fit.
//! * Subthreshold (`Vgs ≪ Vt`): `f → s·e^((Vgs−Vt)/s)`, giving
//!   `I ∝ 10^((Vgs−Vt)/SS)` — an exponential with the card's subthreshold
//!   slope.
//!
//! The model is source-drain symmetric: for `Vds < 0` the terminals are
//! swapped and the sign flipped, which transient simulation of pass gates
//! (the 6T access transistors!) requires.
//!
//! The Newton solver in `sram-spice` needs the current and both partials
//! at every iteration; [`IvModel::ids_with_partials_per_fin`] returns all
//! three from one evaluation. The softplus differentiates to the logistic
//! sigmoid, `f^α` to `α·f^α/f`, and the DIBL, saturation and
//! channel-length-modulation terms carry their own `Vds` derivatives:
//!
//! ```text
//! ∂I/∂Vgs = k · α·f^α/f · σ(x) · sat · clm
//! ∂I/∂Vds = DIBL · ∂I/∂Vgs + k · f^α · (e^(−Vds/Vsat)/Vsat · clm + sat · λ)
//! ```

use crate::DeviceParams;
use sram_units::{Current, Voltage};

/// Evaluates drain current for a parameter card.
///
/// This is a thin, copyable evaluator bound to a [`DeviceParams`]; the
/// higher-level [`crate::FinFet`] multiplies by the fin count and applies
/// per-instance Vt variation.
#[derive(Debug, Clone, PartialEq)]
pub struct IvModel<'a> {
    params: &'a DeviceParams,
    /// Additional threshold shift (process variation), in volts.
    delta_vt: f64,
}

impl<'a> IvModel<'a> {
    /// Creates an evaluator for `params` with an optional threshold shift
    /// `delta_vt` (used by Monte Carlo sampling; pass [`Voltage::ZERO`] for
    /// the nominal device).
    #[must_use]
    pub fn new(params: &'a DeviceParams, delta_vt: Voltage) -> Self {
        Self {
            params,
            delta_vt: delta_vt.volts(),
        }
    }

    /// Smoothing voltage `s = SS · α / ln 10`.
    fn smoothing(&self) -> f64 {
        self.params.subthreshold_slope.volts() * self.params.alpha / core::f64::consts::LN_10
    }

    /// Per-fin drain current of an N-type device for *n-referenced*
    /// gate-source and drain-source voltages.
    ///
    /// Positive return value flows from drain to source. Handles `Vds < 0`
    /// by source/drain swap (the device is symmetric).
    #[must_use]
    pub fn ids_per_fin(&self, vgs: Voltage, vds: Voltage) -> Current {
        self.ids_with_partials_per_fin(vgs, vds).0
    }

    /// Per-fin drain current together with its partial derivatives
    /// `(I, ∂I/∂Vgs, ∂I/∂Vds)`, in amperes and siemens, from one model
    /// evaluation.
    ///
    /// For `Vds < 0` the terminals swap as in [`IvModel::ids_per_fin`]:
    /// the result is `(−I, −gm, gm + gds)` of the forward device at
    /// `(Vgs − Vds, −Vds)`.
    #[must_use]
    pub fn ids_with_partials_per_fin(&self, vgs: Voltage, vds: Voltage) -> (Current, f64, f64) {
        let vgs = vgs.volts();
        let vds = vds.volts();
        if vds < 0.0 {
            // Swap source and drain: Vgd becomes the controlling voltage.
            let (i, gm, gds) = self.ids_raw(vgs - vds, -vds);
            return (Current::from_amps(-i), -gm, gm + gds);
        }
        let (i, gm, gds) = self.ids_raw(vgs, vds);
        (Current::from_amps(i), gm, gds)
    }

    /// The forward (`Vds ≥ 0`) model: current and its two partials.
    fn ids_raw(&self, vgs: f64, vds: f64) -> (f64, f64, f64) {
        debug_assert!(vds >= 0.0);
        let p = self.params;
        let s = self.smoothing();
        let vt_eff = p.vt.volts() + self.delta_vt - p.dibl * vds;
        let x = (vgs - vt_eff) / s;
        // ln(1 + e^x) evaluated without overflow for large |x|, and its
        // derivative, the logistic sigmoid, under the same clamps.
        let (softplus, sigmoid) = if x > 30.0 {
            (x, 1.0)
        } else if x < -30.0 {
            let e = x.exp();
            (e, e)
        } else {
            let e = x.exp();
            (e.ln_1p(), e / (1.0 + e))
        };
        let f = s * softplus;
        let v_sat = p.v_sat.volts();
        let decay = (-vds / v_sat).exp();
        let saturation = 1.0 - decay;
        let clm = 1.0 + p.lambda * vds;
        let f_alpha = f.powf(p.alpha);
        let i = p.k_per_fin * f_alpha * saturation * clm;
        // d(f^α)/df = α·f^α/f. f is zero only where e^x underflows, and
        // there the sigmoid factor is zero as well.
        let df_alpha = if f > 0.0 { p.alpha * f_alpha / f } else { 0.0 };
        let gm = p.k_per_fin * df_alpha * sigmoid * saturation * clm;
        let gds =
            p.dibl * gm + p.k_per_fin * f_alpha * (decay / v_sat * clm + saturation * p.lambda);
        (i, gm, gds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::sevennm_card;
    use crate::{Polarity, VtFlavor};

    fn hvt() -> DeviceParams {
        sevennm_card(Polarity::N, VtFlavor::Hvt)
    }

    fn model(p: &DeviceParams) -> IvModel<'_> {
        IvModel::new(p, Voltage::ZERO)
    }

    #[test]
    fn strong_inversion_recovers_alpha_power() {
        let p = hvt();
        let m = model(&p);
        // Far above threshold the softplus is within 1e-6 of (Vgs - Vt).
        let vgs = Voltage::from_volts(0.9);
        let vds = Voltage::from_volts(0.9);
        let i = m.ids_per_fin(vgs, vds).amps();
        let vt_eff = p.vt.volts() - p.dibl * 0.9;
        let expected = p.k_per_fin * (0.9 - vt_eff).powf(p.alpha) * (1.0 + p.lambda * 0.9);
        assert!((i / expected - 1.0).abs() < 1e-3, "{i} vs {expected}");
    }

    #[test]
    fn subthreshold_slope_matches_card() {
        let p = hvt();
        let m = model(&p);
        let vds = Voltage::from_volts(0.45);
        let ss = p.subthreshold_slope.volts();
        let i1 = m.ids_per_fin(Voltage::from_volts(0.10), vds).amps();
        let i2 = m.ids_per_fin(Voltage::from_volts(0.10 + ss), vds).amps();
        // One subthreshold-slope step is one decade.
        let decades = (i2 / i1).log10();
        assert!(
            (decades - 1.0).abs() < 0.05,
            "decades per SS step: {decades}"
        );
    }

    #[test]
    fn monotone_in_vgs_and_vds() {
        let p = hvt();
        let m = model(&p);
        let mut last = -1.0;
        for mv in (0..=900).step_by(25) {
            let i = m
                .ids_per_fin(
                    Voltage::from_millivolts(mv as f64),
                    Voltage::from_volts(0.45),
                )
                .amps();
            assert!(i > last, "not monotone in Vgs at {mv} mV");
            last = i;
        }
        let mut last = -1.0;
        for mv in (0..=900).step_by(25) {
            let i = m
                .ids_per_fin(
                    Voltage::from_volts(0.45),
                    Voltage::from_millivolts(mv as f64),
                )
                .amps();
            assert!(i >= last, "not monotone in Vds at {mv} mV");
            last = i;
        }
    }

    #[test]
    fn reverse_vds_is_antisymmetric() {
        let p = hvt();
        let m = model(&p);
        // A pass transistor conducting backwards: Vg = 0.45, source node at
        // 0.45, drain node at 0.2 => vgs = 0, vds = -0.25 must equal the
        // forward current with terminals relabeled.
        let back = m
            .ids_per_fin(Voltage::from_volts(0.0), Voltage::from_volts(-0.25))
            .amps();
        let fwd = m
            .ids_per_fin(Voltage::from_volts(0.25), Voltage::from_volts(0.25))
            .amps();
        assert!(
            (back + fwd).abs() < 1e-12 * fwd.abs().max(1.0),
            "{back} vs {fwd}"
        );
    }

    #[test]
    fn zero_vds_carries_zero_current() {
        let p = hvt();
        let m = model(&p);
        let i = m.ids_per_fin(Voltage::from_volts(0.45), Voltage::ZERO);
        assert_eq!(i.amps(), 0.0);
    }

    #[test]
    fn vt_shift_weakens_device() {
        let p = hvt();
        let nominal = IvModel::new(&p, Voltage::ZERO);
        let slow = IvModel::new(&p, Voltage::from_millivolts(30.0));
        let fast = IvModel::new(&p, Voltage::from_millivolts(-30.0));
        let bias = Voltage::from_volts(0.45);
        let i_nom = nominal.ids_per_fin(bias, bias).amps();
        assert!(slow.ids_per_fin(bias, bias).amps() < i_nom);
        assert!(fast.ids_per_fin(bias, bias).amps() > i_nom);
    }

    #[test]
    fn gm_and_gds_positive_in_operating_region() {
        let p = hvt();
        let m = model(&p);
        let vgs = Voltage::from_volts(0.45);
        let vds = Voltage::from_volts(0.3);
        let (_, gm, gds) = m.ids_with_partials_per_fin(vgs, vds);
        assert!(gm > 0.0);
        assert!(gds > 0.0);
    }

    #[test]
    fn extreme_biases_do_not_overflow() {
        let p = hvt();
        let m = model(&p);
        let i = m.ids_per_fin(Voltage::from_volts(50.0), Voltage::from_volts(50.0));
        assert!(i.is_finite());
        let i = m.ids_per_fin(Voltage::from_volts(-50.0), Voltage::from_volts(0.45));
        assert!(i.is_finite());
        assert!(i.amps() >= 0.0);
    }
}
